"""Game model for the two-player coloring game on complete multipartite graphs.

The board K_{r1,...,rk} consists of k independent parts; vertices from
different parts are always adjacent. Consequently a color used anywhere in
part i is illegal in every other part, while every color already present in
a part stays legal for that part's remaining vertices. Each part's colored
count plus the total number of colors used therefore capture a position
exactly (a part can reuse a color iff it has one, and its first color is
always fresh), and concrete vertex or color identities never matter:
a move is just a part index plus the choice between a fresh color and a
reused one.

A `GameState` is therefore a plain record: the partition, one colored
count per part (`colored`, aligned with `partition.sizes`), the budget, the
colors used and the last move; `Partition`, `GameState` and `Move` are
named tuples.
Each move colors one vertex, so the side to move is the parity of the
colored total. The rules read the counts as whole tuples: Alice has won iff
`colored == partition.sizes`, and every part is started iff
`0 not in colored`.

Alice moves first and wins once every vertex is colored. Bob wins at the
first moment an unstarted part coexists with an exhausted color budget,
because no fresh color can ever reach that part and completion has become
impossible.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

ALICE = "alice"
BOB = "bob"


class GameStatus(enum.Enum):
    ONGOING = "ongoing"
    ALICE_WON = "alice_won"
    BOB_WON = "bob_won"


class InputError(ValueError):
    """A caller's argument is outside what the library accepts; the command
    line reports it as a usage error (exit 2)."""


class IllegalMoveError(ValueError):
    """A move violated the rules; the message carries the reason."""


class _PartitionFields(NamedTuple):
    sizes: tuple[int, ...]


class Partition(_PartitionFields):
    """Part sizes r_1 >= r_2 >= ... >= r_k of a complete multipartite graph."""

    __slots__ = ()

    def __new__(cls, sizes):
        sizes = tuple(sizes)
        if not sizes:
            raise InputError("partition must have at least one part")
        if any(type(r) is not int or r < 1 for r in sizes):  # bool subclasses int
            raise InputError("part sizes must be positive integers")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise InputError("part sizes must be sorted non-increasing")
        return super().__new__(cls, sizes)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it, so it checks too
        return cls(*iterable)

    @classmethod
    def of(cls, sizes: Iterable[int]) -> "Partition":
        """Build a partition from sizes in any order."""
        return cls(tuple(sorted(sizes, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated part sizes, e.g. "4,3,3,1,1". Each size is
        ASCII digits only, so `int()`'s signs, underscores and non-ASCII
        digits are rejected."""
        items = [s.strip() for s in text.split(",")]
        if not items or any(not s for s in items):
            raise InputError(f"malformed partition string: {text!r}")
        if not all(s.isascii() and s.isdecimal() for s in items):
            raise InputError(f"part sizes must be written with the digits 0-9: {text!r}")
        try:
            sizes = [int(s) for s in items]
        except ValueError:  # more digits than int() converts
            raise InputError(f"part size too large: {text!r}") from None
        if any(r < 1 for r in sizes):
            raise InputError(f"part sizes must be >= 1: {text!r}")
        return cls.of(sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.sizes)

    def label(self) -> str:
        return "K_{%s}" % str(self)


class Move(NamedTuple):
    """A part choice plus the fresh-vs-reuse color action."""

    part: int
    fresh: bool

    @property
    def action(self) -> str:
        return "fresh" if self.fresh else "reuse"

    def __str__(self) -> str:
        return f"(part {self.part}, {self.action})"


class _GameFields(NamedTuple):
    partition: Partition
    colored: tuple[int, ...]  # colored vertices per part, aligned with partition.sizes
    budget: int
    used: int = 0  # colors consumed so far (colors never leave the board)
    last_move: Optional[Move] = None


class GameState(_GameFields):
    """Immutable mid-game position; all operations are pure functions.

    Building a state checks it: a `Partition`, integer counts, budget and
    `used`, one count per part, each in 0..size, a budget of at least 1,
    `used` between the number of started parts (each took its own first
    color) and the budget, and a last move, if any, into a part that has a
    colored vertex.
    `apply_move` builds its successors as plain tuples, without these checks.
    """

    __slots__ = ()

    def __new__(cls, partition, colored, budget, used=0, last_move=None):
        check_partition(partition)
        colored = tuple(colored)
        sizes = partition.sizes
        if not all(type(x) is int for x in (*colored, budget, used)):
            raise InputError(f"counts, budget and used must be ints: {colored} {budget!r} {used!r}")
        if len(colored) != len(sizes):
            raise InputError(f"{len(colored)} colored counts for {len(sizes)} parts")
        if not all(0 <= c <= r for c, r in zip(colored, sizes)):
            raise InputError(f"colored counts {colored} do not fit part sizes {sizes}")
        if budget < 1:
            raise InputError("color budget must be at least 1")
        started = len(colored) - colored.count(0)
        if not started <= used <= budget:
            raise InputError(
                f"{used} colors used, but {started} parts are started and the budget is {budget}"
            )
        if last_move is not None and not (
            0 <= last_move.part < len(colored) and colored[last_move.part]
        ):
            raise InputError(f"last move {last_move} names no part with a colored vertex")
        return super().__new__(cls, partition, colored, budget, used, last_move)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it, so it checks too
        return cls(*iterable)

    @property
    def turn(self) -> str:
        return ALICE if sum(self.colored) % 2 == 0 else BOB


_tuple_new = tuple.__new__  # builds a GameState without its checks


def check_partition(partition: Partition) -> None:
    """Raise InputError unless `partition` is a `Partition`: a plain tuple of
    sizes is refused, as it has none of a partition's checks or fields."""
    if not isinstance(partition, Partition):
        raise InputError(f"partition must be a Partition, not {partition!r}")


def check_budget(partition: Partition, budget: int) -> None:
    """Raise InputError unless `partition` is a `Partition` and `budget` an
    int in 1..n."""
    check_partition(partition)
    if type(budget) is not int:
        raise InputError(f"budget must be an integer, not {budget!r}")
    if not 1 <= budget <= partition.n:
        raise InputError(f"budget must be in 1..{partition.n}")


def initial_state(partition: Partition, budget: int) -> GameState:
    check_partition(partition)  # before reading its `k`
    return GameState(partition, (0,) * partition.k, budget)


def status(state: GameState) -> GameStatus:
    """Terminal detection, declaring Bob's win eagerly.

    Bob has won as soon as an unstarted part coexists with an exhausted
    budget: that part can never receive its first color, so completion is
    impossible no matter how play continues elsewhere.
    """
    colored = state.colored
    if colored == state.partition.sizes:
        return GameStatus.ALICE_WON
    if state.used >= state.budget and 0 in colored:
        return GameStatus.BOB_WON
    return GameStatus.ONGOING


def legal_moves(state: GameState) -> list[Move]:
    """All legal moves, ordered by (part index, fresh before reuse)."""
    if status(state) is not GameStatus.ONGOING:
        raise IllegalMoveError(f"game is over: {status(state).value}")
    moves: list[Move] = []
    has_budget = state.used < state.budget
    for i, (size, colored) in enumerate(zip(state.partition.sizes, state.colored)):
        if colored == size:
            continue
        if has_budget:
            moves.append(Move(i, True))
        if colored:
            moves.append(Move(i, False))
    return moves


def apply_move(state: GameState, move: Move) -> GameState:
    """Apply a legal move, returning the successor position.

    The successor skips `GameState`'s checks because the legality checks
    here keep them true: the move colors a vertex of a part that is not
    full, so its count stays within its size; `used` grows only by a fresh
    color taken while some is left, so it stays within the budget; and a
    part is started only by a fresh color (a reuse needs a started part),
    so the number of started parts never overtakes `used`.
    """
    if status(state) is not GameStatus.ONGOING:
        raise IllegalMoveError(f"game is over: {status(state).value}")
    part, fresh = move.part, move.fresh
    colored = state.colored
    if not 0 <= part < len(colored):
        raise IllegalMoveError(f"no such part: {part}")
    count = colored[part]
    if count == state.partition.sizes[part]:
        raise IllegalMoveError(f"part {part} is fully colored")
    if fresh and state.used >= state.budget:
        raise IllegalMoveError("no fresh color left in the budget")
    if not fresh and count == 0:
        raise IllegalMoveError(f"no color to reuse in unstarted part {part}")
    return _tuple_new(GameState, (
        state.partition,
        colored[:part] + (count + 1,) + colored[part + 1 :],
        state.budget,
        state.used + fresh,
        move,
    ))


def play(
    state: GameState, pick: Callable[[GameState], Optional[Move]]
) -> Iterator[tuple[GameState, Move, GameState]]:
    """The one game loop: ask `pick` for a move from each position until it
    returns None, apply each through `apply_move` (so every move is checked
    before the caller sees it) and yield `(before, move, after)`.

    `pick` sees every position in order, the final one included, so a
    picker can keep per-game bookkeeping up to date from `state.last_move`.
    """
    while (move := pick(state)) is not None:
        after = apply_move(state, move)
        yield state, move, after
        state = after


def fixing_move_played(state: GameState) -> bool:
    """True once every part has at least one colored vertex.

    From that point on, every uncolored vertex can always fall back on a
    color already present in its own part, so the game can only end with
    the whole graph colored.
    """
    return 0 not in state.colored


def uncolored_parts(state: GameState) -> list[int]:
    return [i for i, colored in enumerate(state.colored) if not colored]


def partially_colored_parts(state: GameState) -> list[int]:
    return [
        i
        for i, (size, colored) in enumerate(zip(state.partition.sizes, state.colored))
        if 0 < colored < size
    ]
