"""Move-selection rules for both players.

Every rule is a priority list of clauses evaluated on the owner's turn; the
first clause that matches the position decides the move. A clause is a
function that returns the moves it allows, or an empty list when it does
not match. Each analyzed rule apart from `acomposite` is a `Rule` value (an
id, a side, a tuple of clauses, a shape test and an optional anchor) in one
table, so rules share clauses instead of copying them and a new chain is
one row, not a class. `acomposite` is a `CompositeOpening` value whose
phase `advance` moves on until it hands over to a row. `admissible_moves`
returns every move the matched clause allows (the universal reading of
each "pick any part" freedom), while `choose_move` applies the
deterministic tie-breaks: lowest part index first, and the smallest
already-present color when a concrete reused color is needed for a
transcript.

Alice's rules:
  a1   start unstarted parts with new colors, otherwise reuse anywhere.
  a2   anchor play on a fixed size-3 part: open it, mirror the opponent
       inside it, then fall back to a1 behavior.
  a3   (odd vertex total) answer the opponent's move inside the same
       still-open part, keep filling open parts by reuse, and start only
       odd-size parts, the smallest first (so it opens the smallest odd part).
  a1p/a2p/a3p  the same rules with "color an uncolored singleton with a new
       color" spliced in: at top priority for a1p/a3p, directly below the
       anchor-part clauses for a2p.
  acomposite   a scripted opening for the K_{4,3,...,3,1,1} family (k >= 6)
       that colors a singleton, branches on the opponent's replies, and then
       hands over to a2/a2p (anchored on the triple the script picks) or to
       a1p, with the board as given history.

Bob's rules:
  b1   answer in the part Alice just played while it is open; otherwise fill
       a partial part with the fewest uncolored vertices; otherwise start the
       largest unstarted part. Use a new color whenever the budget allows.
  b1p  b1, except that when only parts of size <= 2 remain unstarted, it
       starts the smallest (singletons before pairs).

`random:<seed>` (uniform over legal moves; `random` is `random:0`) and `human`
(interactive) are harness plumbing, not analyzed rules.
"""

from __future__ import annotations

import contextlib
import functools
import random
from typing import Callable, NamedTuple, Optional

from .core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    InputError,
    Move,
    Partition,
    check_partition,
    legal_moves,
    partially_colored_parts,
    status,
    uncolored_parts,
)


class InapplicableStrategyError(InputError):
    """The rule's shape constraints do not hold for this partition."""


class StrategyTotalityError(RuntimeError):
    """No clause matched; reachable only through a foreign game history."""


class Strategy:
    """Base class: a deterministic move rule plus its admissible-move sets.
    A rule is a value; `advance` gives the value it takes after each move.
    The rules here are named tuples with this class as a mixin, each with
    `__repr__ = Strategy.__repr__`, as the tuple's own comes first."""

    __slots__ = ()

    id: str = ""
    side: Optional[str] = None  # ALICE, BOB, or None when either seat works

    def is_applicable(self, partition: Partition) -> bool:
        return True

    def advance(self, state: GameState) -> "Strategy":
        """The rule as it stands at `state`, after `state.last_move` by
        either player. Rules that read only the position return themselves."""
        return self

    def admissible(self, state: GameState) -> list[Move]:
        raise NotImplementedError

    def choose(self, state: GameState) -> Move:
        moves = self.admissible(state)
        if not moves:
            raise StrategyTotalityError(f"{self.id}: no clause matched")
        return moves[0]

    def anchor_part(self, state: GameState) -> Optional[int]:
        """The part the rule names by index (an anchor), which solver memo
        keys must keep apart from its equal-size peers; None if there is none."""
        return None

    def __repr__(self) -> str:
        return f"<Strategy {self.id}>"


# ---------------------------------------------------------------------------
# clauses: each returns the moves it allows, [] when it does not match


def _singletons(state: GameState) -> list[Move]:
    """A new color on an uncolored singleton."""
    sizes = state.partition.sizes
    return [Move(i, True) for i in uncolored_parts(state) if sizes[i] == 1]


def _fill(state: GameState) -> list[Move]:
    """A reuse in a partially colored part."""
    return [Move(i, False) for i in partially_colored_parts(state)]


def _start_or_fill(state: GameState) -> list[Move]:
    """a1: a new color into an unstarted part, else a reuse in a partial one."""
    return [Move(i, True) for i in uncolored_parts(state)] or _fill(state)


def _start_sized(
    state: GameState,
    pick: Callable[..., Optional[int]],
    fits: Callable[[int], bool] = lambda size: True,
) -> list[Move]:
    """A new color into the unstarted parts of the `pick` (min or max) size
    among those whose size `fits`."""
    sizes = state.partition.sizes
    parts = [i for i in uncolored_parts(state) if fits(sizes[i])]
    size = pick((sizes[i] for i in parts), default=None)
    return [Move(i, True) for i in parts if sizes[i] == size]


def _anchor(state: GameState, anchor: int) -> list[Move]:
    """a2's anchor clauses on the fixed part `anchor`: open it with a new
    color while it has no colored vertex, then mirror an opponent's move
    inside it by reuse while it is still open."""
    size, colored = state.partition.sizes[anchor], state.colored[anchor]
    if not colored:
        return [Move(anchor, True)]
    last = state.last_move
    if last is not None and last.part == anchor and colored < size:
        return [Move(anchor, False)]
    return []


def _echo(state: GameState, fresh: bool) -> list[Move]:
    """Answer inside the part just played while it is still open."""
    last = state.last_move
    if last is None or state.colored[last.part] == state.partition.sizes[last.part]:
        return []
    return [Move(last.part, fresh)]


def _echo_or_fill(state: GameState) -> list[Move]:
    """b1: echo, else fill the partial parts with the fewest uncolored
    vertices; a new color whenever the budget allows."""
    fresh = state.used < state.budget
    echo = _echo(state, fresh)
    if echo:
        return echo
    sizes, colored = state.partition.sizes, state.colored
    partial = partially_colored_parts(state)
    fewest = min((sizes[i] - colored[i] for i in partial), default=None)
    return [Move(i, fresh) for i in partial if sizes[i] - colored[i] == fewest]


def _first_triple(partition: Partition) -> int:
    return partition.sizes.index(3)


# clauses with their arguments bound, as the rule table takes them
def _echo_by_reuse(state: GameState) -> list[Move]:
    return _echo(state, False)


def _start_odd(state: GameState) -> list[Move]:
    return _start_sized(state, min, lambda size: size % 2 == 1)


def _start_largest(state: GameState) -> list[Move]:
    return _start_sized(state, max)


def _start_largest_big(state: GameState) -> list[Move]:
    return _start_sized(state, max, lambda size: size >= 3)


def _start_smallest(state: GameState) -> list[Move]:
    return _start_sized(state, min)


# ---------------------------------------------------------------------------
# rules


class _RuleFields(NamedTuple):
    id: str
    side: Optional[str]
    clauses: tuple[Callable[[GameState], list[Move]], ...]
    applies: Callable[[Partition], bool] = lambda partition: True
    anchor: Optional[Callable[[Partition], int]] = None


class Rule(_RuleFields, Strategy):
    """An analyzed rule as a value: its admissible moves are the first
    non-empty result among its `clauses`, in order ([] if none matches).
    `applies` is its shape test. `anchor`, if given, names the part the
    rule anchors on, and the anchor clauses on that part come before
    `clauses`."""

    __slots__ = ()
    __repr__ = Strategy.__repr__

    def is_applicable(self, partition):
        return self.applies(partition)

    def admissible(self, state):
        if self.anchor is not None:
            moves = _anchor(state, self.anchor(state.partition))
            if moves:
                return moves
        for clause in self.clauses:
            moves = clause(state)
            if moves:
                return moves
        return []

    def anchor_part(self, state):
        return None if self.anchor is None else self.anchor(state.partition)


class _CompositeFields(NamedTuple):
    # The phase is a tuple whose head names it. It is the phase Alice last
    # moved in (or moves in next), and it steps only on the opponent's replies:
    #   ("open",)                 color a singleton
    #   ("fill_singleton", vj)    claim the second singleton, then anchor vj
    #   ("join_big",)             scripted reuse in the size-4 part
    #   ("close_big",)            scripted completion of the size-4 part
    phase: tuple = ("open",)


class CompositeOpening(_CompositeFields, Strategy):
    """acomposite: scripted opening for K_{4,3,...,3,1,1} with k >= 6.

    Color a singleton; then, depending on the opponent's first reply, either
    hand over to the anchor rule (a2) directly, fill the second singleton
    first, or contest the size-4 part and decide between a1p and a2p after
    the opponent's second reply. `advance` returns the rule it hands over
    to, which treats the current board as given history: the a1p row, or
    the a2 or a2p row anchored on the triple the script picks, which may be
    a part the opponent just opened.
    """

    __slots__ = ()
    __repr__ = Strategy.__repr__
    id = "acomposite"
    side = ALICE

    def is_applicable(self, partition):
        k = partition.k
        return k >= 6 and partition.sizes == (4,) + (3,) * (k - 3) + (1, 1)

    def advance(self, state):
        if state.turn == BOB:  # Alice's own move
            return self
        phase, part = self.phase[0], state.last_move.part
        size = state.partition.sizes[part]
        if phase == "open":
            if size == 1:
                return _anchored("a2", _first_triple(state.partition))
            if size == 3:
                return CompositeOpening(("fill_singleton", part))
            return CompositeOpening(("join_big",))
        if phase == "fill_singleton":
            # The opponent's opening move into the triple stands in for our
            # own anchor-opening move.
            return _anchored("a2", self.phase[1])
        if phase == "join_big":
            return CompositeOpening(("close_big",)) if part == 0 else _REGISTRY["a1p"]
        # close_big: a2p on the triple replied in, else on the first triple
        return _anchored("a2p", part if size == 3 else _first_triple(state.partition))

    def admissible(self, state):
        if self.phase[0] in ("open", "fill_singleton"):
            return _singletons(state)
        return [Move(0, False)]  # join_big, close_big

    def anchor_part(self, state):
        return self.phase[1] if len(self.phase) > 1 else None


class _RandomFields(NamedTuple):
    seed: int = 0


class RandomMover(_RandomFields, Strategy):
    """Seeded uniform choice among all legal moves."""

    __slots__ = ()
    __repr__ = Strategy.__repr__
    side = None

    @property
    def id(self):
        return f"random:{self.seed}"

    def admissible(self, state):
        return legal_moves(state)

    def choose(self, state):
        rng = random.Random(self.seed * 1_000_003 + sum(state.colored))
        return rng.choice(legal_moves(state))


class _HumanFields(NamedTuple):
    picker: Optional[Callable[[GameState, list[Move]], Move]] = None


class HumanPlayer(_HumanFields, Strategy):
    """Interactive seat; the caller wires in a picker callback."""

    __slots__ = ()
    __repr__ = Strategy.__repr__
    id = "human"
    side = None

    def admissible(self, state):
        return legal_moves(state)

    def choose(self, state):
        if self.picker is None:
            raise InapplicableStrategyError("human seat needs an interactive session")
        return self.picker(state, legal_moves(state))


def _has_triple(partition: Partition) -> bool:
    return partition.k >= 2 and 3 in partition.sizes


def _odd_total(partition: Partition) -> bool:
    return partition.n % 2 == 1


_REGISTRY = {
    rule.id: rule
    for rule in (
        Rule("a1", ALICE, (_start_or_fill,)),
        Rule("a1p", ALICE, (_singletons, _start_or_fill)),
        # a2 and a2p are a1 and a1p anchored on the first triple
        Rule("a2", ALICE, (_start_or_fill,), _has_triple, _first_triple),
        Rule("a2p", ALICE, (_singletons, _start_or_fill), _has_triple, _first_triple),
        # a3's last clause comes up empty only on a board with no partial part
        # and only full or even unstarted parts. That board has an odd move
        # count, so it is never Alice's turn when this seat has played the
        # rule from the start.
        Rule("a3", ALICE, (_echo_by_reuse, _fill, _start_odd), _odd_total),
        Rule("a3p", ALICE, (_singletons, _echo_by_reuse, _fill, _start_odd), _odd_total),
        CompositeOpening(),
        Rule("b1", BOB, (_echo_or_fill, _start_largest)),
        Rule("b1p", BOB, (_echo_or_fill, _start_largest_big, _start_smallest)),
    )
}

STRATEGY_NAMES = tuple(_REGISTRY) + ("random:<seed>", "human")


@functools.cache
def _anchored(name: str, part: int) -> Rule:
    """The table's `name` row anchored on `part`, one value per (row, part)
    so that every route to a hand-over holds the same rule value."""
    return _REGISTRY[name]._replace(anchor=lambda partition: part)


def get_strategy(name: str) -> Strategy:
    """Resolve a strategy name as accepted by the CLI."""
    key = name.strip().lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    if key == "random":
        return RandomMover()
    if key.startswith("random:"):
        seed = key[len("random:") :]  # a minus at most, then ASCII digits only
        digits = seed.removeprefix("-")
        if digits.isascii() and digits.isdecimal():
            with contextlib.suppress(ValueError):  # more digits than int() converts
                return RandomMover(int(seed))
        raise InputError(f"bad random seed in {name!r}")
    if key == "human":
        return HumanPlayer()
    raise InputError(f"unknown strategy {name!r}; expected one of {', '.join(STRATEGY_NAMES)}")


def as_strategy(strategy: Strategy | str) -> Strategy:
    """A strategy object, looking a name up with `get_strategy`."""
    return get_strategy(strategy) if isinstance(strategy, str) else strategy


def is_applicable(strategy: Strategy | str, partition: Partition) -> bool:
    check_partition(partition)
    return as_strategy(strategy).is_applicable(partition)


def check_seat(strategy: Strategy, partition: Partition, seat: str) -> None:
    """Raise InapplicableStrategyError unless `strategy` may take `seat` on
    `partition`: the shape must suit the rule, and a rule for one side cannot
    play the other (`random` and `human` take either seat). A `partition`
    that is not a `Partition` raises InputError first."""
    check_partition(partition)
    if not strategy.is_applicable(partition):
        raise InapplicableStrategyError(
            f"{strategy.id} is not applicable to {partition.label()}"
        )
    if strategy.side is not None and strategy.side != seat:
        raise InapplicableStrategyError(
            f"{strategy.id} is a rule for {strategy.side}; it cannot play as {seat}"
        )


def _check_turn(strategy: Strategy, state: GameState) -> None:
    check_seat(strategy, state.partition, state.turn)
    if status(state) is not GameStatus.ONGOING:
        raise InputError("game is over")


def choose_move(strategy: Strategy, state: GameState) -> Move:
    """The rule's deterministic move for this position; `strategy` is the
    rule as it stands at `state` (see `Strategy.advance`)."""
    _check_turn(strategy, state)
    return strategy.choose(state)


def admissible_moves(strategy: Strategy, state: GameState) -> list[Move]:
    """Every move the first matching clause allows; contains choose_move's pick."""
    _check_turn(strategy, state)
    moves = strategy.admissible(state)
    if not moves:
        raise StrategyTotalityError(f"{strategy.id}: no clause matched")
    return moves
