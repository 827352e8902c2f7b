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

Alice moves first and wins once every vertex is colored. Bob wins at the
first moment an unstarted part coexists with an exhausted color budget,
because no fresh color can ever reach that part and completion has become
impossible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

ALICE = "alice"
BOB = "bob"


class GameStatus(enum.Enum):
    ONGOING = "ongoing"
    ALICE_WON = "alice_won"
    BOB_WON = "bob_won"


class IllegalMoveError(ValueError):
    """A move violated the rules; the message carries the reason."""


class GameOverError(ValueError):
    """An operation that needs an ongoing game was applied to a finished one."""


@dataclass(frozen=True)
class Partition:
    """Part sizes r_1 >= r_2 >= ... >= r_k of a complete multipartite graph."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.sizes:
            raise ValueError("partition must have at least one part")
        if any(not isinstance(r, int) or isinstance(r, bool) or r < 1 for r in self.sizes):
            raise ValueError("part sizes must be positive integers")
        if any(a < b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("part sizes must be sorted non-increasing")

    @classmethod
    def of(cls, sizes: Iterable[int]) -> "Partition":
        """Build a partition from sizes in any order."""
        return cls(tuple(sorted(sizes, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated part sizes, e.g. "4,3,3,1,1"."""
        items = [s.strip() for s in text.split(",")]
        if not items or any(not s for s in items):
            raise ValueError(f"malformed partition string: {text!r}")
        try:
            sizes = [int(s) for s in items]
        except ValueError:
            raise ValueError(f"partition must be comma-separated integers: {text!r}") from None
        if any(r < 1 for r in sizes):
            raise ValueError(f"part sizes must be >= 1: {text!r}")
        return cls.of(sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def count_of_size(self, j: int) -> int:
        """Number of parts of size exactly j."""
        return sum(1 for r in self.sizes if r == j)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.sizes)

    def label(self) -> str:
        return "K_{%s}" % str(self)


@dataclass(frozen=True)
class PartState:
    """Coloring progress of one part."""

    size: int
    colored: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.colored <= self.size:
            raise ValueError(f"inconsistent part counts: {self}")

    @property
    def is_full(self) -> bool:
        return self.colored == self.size

    @property
    def is_uncolored(self) -> bool:
        return self.colored == 0

    @property
    def uncolored(self) -> int:
        return self.size - self.colored


@dataclass(frozen=True)
class Move:
    """A part choice plus the fresh-vs-reuse color action."""

    part: int
    fresh: bool

    @property
    def action(self) -> str:
        return "fresh" if self.fresh else "reuse"

    def __str__(self) -> str:
        return f"(part {self.part}, {self.action})"


@dataclass(frozen=True)
class GameState:
    """Immutable mid-game position; all operations are pure functions."""

    partition: Partition
    parts: tuple[PartState, ...]
    budget: int
    used: int = 0  # colors consumed so far (colors never leave the board)
    move_count: int = 0
    last_move: Optional[Move] = None

    @property
    def turn(self) -> str:
        return ALICE if self.move_count % 2 == 0 else BOB


def initial_state(partition: Partition, budget: int) -> GameState:
    if budget < 1:
        raise ValueError("color budget must be at least 1")
    parts = tuple(PartState(size=r) for r in partition.sizes)
    return GameState(partition=partition, parts=parts, budget=budget)


def status(state: GameState) -> GameStatus:
    """Terminal detection, declaring Bob's win eagerly.

    Bob has won as soon as an unstarted part coexists with an exhausted
    budget: that part can never receive its first color, so completion is
    impossible no matter how play continues elsewhere.
    """
    if all(p.is_full for p in state.parts):
        return GameStatus.ALICE_WON
    if state.used >= state.budget and any(p.is_uncolored for p in state.parts):
        return GameStatus.BOB_WON
    return GameStatus.ONGOING


def legal_moves(state: GameState) -> list[Move]:
    """All legal moves, ordered by (part index, fresh before reuse)."""
    if status(state) is not GameStatus.ONGOING:
        raise GameOverError(f"game is over: {status(state).value}")
    moves: list[Move] = []
    has_budget = state.used < state.budget
    for i, p in enumerate(state.parts):
        if p.is_full:
            continue
        if has_budget:
            moves.append(Move(i, True))
        if p.colored >= 1:
            moves.append(Move(i, False))
    return moves


def apply_move(state: GameState, move: Move) -> GameState:
    """Apply a legal move, returning the successor position."""
    if status(state) is not GameStatus.ONGOING:
        raise IllegalMoveError(f"game is over: {status(state).value}")
    if not 0 <= move.part < len(state.parts):
        raise IllegalMoveError(f"no such part: {move.part}")
    p = state.parts[move.part]
    if p.is_full:
        raise IllegalMoveError(f"part {move.part} is fully colored")
    if move.fresh and state.used >= state.budget:
        raise IllegalMoveError("no fresh color left in the budget")
    if not move.fresh and p.colored == 0:
        raise IllegalMoveError(f"no color to reuse in unstarted part {move.part}")
    successor = PartState(size=p.size, colored=p.colored + 1)
    parts = state.parts[: move.part] + (successor,) + state.parts[move.part + 1 :]
    return GameState(
        partition=state.partition,
        parts=parts,
        budget=state.budget,
        used=state.used + move.fresh,
        move_count=state.move_count + 1,
        last_move=move,
    )


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
    return all(p.colored >= 1 for p in state.parts)


def uncolored_parts(state: GameState) -> list[int]:
    return [i for i, p in enumerate(state.parts) if p.is_uncolored]


def partially_colored_parts(state: GameState) -> list[int]:
    return [i for i, p in enumerate(state.parts) if 0 < p.colored < p.size]
