"""Reproduction engine: simulations with full transcripts, guarantee
verification with counterexamples, exhaustive small-shape scans against the
closed-form table, and the two conjecture checks."""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    InputError,
    Move,
    Partition,
    check_budget,
    fixing_move_played,
    initial_state,
    play,
    status,
)
from .formulas import GUARANTEES, table1_chi_g
from .solver import (
    DETERMINISTIC,
    WinVector,
    alice_wins,
    check_mode,
    refute_restricted,
    restricted_value,
    win_vector,
)
from .strategies import (
    Strategy,
    as_strategy,
    check_seat,
    get_strategy,
    is_applicable,
)


# ---------------------------------------------------------------------------
# transcripts


class MoveRecord(NamedTuple):
    index: int
    mover: str
    part: int
    color: int
    fresh: bool


class GameRecord(NamedTuple):
    """Full transcript of one play-through.

    Concrete colors follow the bookkeeping convention: a fresh color takes
    the next unused integer (1, 2, ...) and a reuse takes the smallest color
    already present in the part.
    """

    partition: Partition
    budget: int
    alice: str
    bob: str
    moves: tuple[MoveRecord, ...]
    outcome: str
    fixing_index: Optional[int]
    colors_used: int

    def to_dict(self) -> dict:
        """The JSON form, whose keys follow the field order."""
        return {
            **self._asdict(),
            "partition": list(self.partition.sizes),
            "moves": [dict(zip(MoveRecord._fields, m)) for m in self.moves],
        }

    def move_list(self) -> list[Move]:
        return [Move(m.part, m.fresh) for m in self.moves]


def record_game(
    partition: Partition,
    budget: int,
    pick: Callable[[GameState], Optional[Move]],
    alice_id: str,
    bob_id: str,
    on_move: Optional[Callable[[MoveRecord, GameState, GameState], None]] = None,
) -> GameRecord:
    """Play `pick`'s moves from the empty board (see `core.play`) and record
    them; `on_move(record, before, after)` sees each move as it is played.

    This is the one place that assigns concrete colors (the convention on
    `GameRecord`): a fresh color is the count of colors used after the move,
    and a reuse takes the first color its part received.
    """
    check_budget(partition, budget)
    first_color: dict[int, int] = {}
    records: list[MoveRecord] = []
    fixing_index: Optional[int] = None
    state = initial_state(partition, budget)
    for i, (before, move, state) in enumerate(play(state, pick)):
        color = state.used if move.fresh else first_color[move.part]
        first_color.setdefault(move.part, color)
        record = MoveRecord(i, before.turn, move.part, color, move.fresh)
        records.append(record)
        if fixing_index is None and fixing_move_played(state):
            fixing_index = i
        if on_move is not None:
            on_move(record, before, state)
    return GameRecord(
        partition=partition,
        budget=budget,
        alice=alice_id,
        bob=bob_id,
        moves=tuple(records),
        outcome=status(state).value,
        fixing_index=fixing_index,
        colors_used=state.used,
    )


def record_playout(
    partition: Partition,
    budget: int,
    moves: Iterable[Move],
    alice_id: str,
    bob_id: str,
) -> GameRecord:
    """Replay count-level moves, assigning concrete colors for the record."""
    script = iter(moves)
    return record_game(partition, budget, lambda _state: next(script, None), alice_id, bob_id)


def seat_picker(
    partition: Partition, alice: Strategy, bob: Strategy
) -> Callable[[GameState], Optional[Move]]:
    """A `pick` for `core.play` from the empty board in which each rule
    moves on its own turn. Both rules advance on every move, whoever made it."""
    seats = {ALICE: alice, BOB: bob}
    for seat, strat in seats.items():
        check_seat(strat, partition, seat)

    def pick(state: GameState) -> Optional[Move]:
        if state.last_move is not None:
            for seat, rule in seats.items():
                seats[seat] = rule.advance(state)
        if status(state) is not GameStatus.ONGOING:
            return None
        return seats[state.turn].choose(state)

    return pick


def simulate(
    partition: Partition,
    budget: int,
    alice: Strategy | str,
    bob: Strategy | str,
) -> GameRecord:
    """Deterministic playout of the two rules against each other."""
    alice, bob = as_strategy(alice), as_strategy(bob)
    return record_game(partition, budget, seat_picker(partition, alice, bob), alice.id, bob.id)


# ---------------------------------------------------------------------------
# guarantee verification


class VerifyResult(NamedTuple):
    partition: Partition
    budget: int
    side: str
    strategy: str
    mode: str
    counterexample: Optional[GameRecord]
    label: str = ""  # the `GUARANTEES` record a suite case checks

    @property
    def passed(self) -> bool:
        """True iff the search found no refuting line."""
        return self.counterexample is None


def verify_guarantee(
    partition: Partition,
    budget: int,
    side: str,
    strategy: Strategy | str,
    mode: str = DETERMINISTIC,
) -> VerifyResult:
    """Check that `side` pinned to `strategy` meets its goal at this budget;
    on failure, attach the first refuting line as a replayable transcript."""
    strat = as_strategy(strategy)
    line = refute_restricted(partition, budget, side, strat, mode)
    counterexample = None
    if line is not None:
        ids = {ALICE: "search", BOB: "search", side: strat.id}
        counterexample = record_playout(partition, budget, line, ids[ALICE], ids[BOB])
    return VerifyResult(
        partition=partition,
        budget=budget,
        side=side,
        strategy=strat.id,
        mode=mode,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# partition enumeration and scanning
FILTERS = ("all", "no-singletons", "with-singletons")  # for `all_partitions`


def partitions_of(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All non-increasing positive partitions of n."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def all_partitions(max_n: int, filter_: str = "all") -> list[Partition]:
    """Every partition with n <= max_n, in canonical scan order."""
    if type(max_n) is not int:  # bool subclasses int
        raise InputError(f"max_n must be an integer, not {max_n!r}")
    if max_n < 1:
        raise InputError(f"max_n must be at least 1, got {max_n}")
    if filter_ not in FILTERS:
        raise InputError(f"filter must be one of {FILTERS}, not {filter_!r}")
    out = []
    for n in range(1, max_n + 1):
        for sizes in partitions_of(n):
            if filter_ == "no-singletons" and sizes[-1] == 1:
                continue
            if filter_ == "with-singletons" and sizes[-1] != 1:
                continue
            out.append(Partition(sizes))
    return out


class ScanRow(NamedTuple):
    vector: WinVector
    table1: Optional[int]
    ms: float

    @property
    def agrees(self) -> bool:
        """True iff the table applies and matches the solver."""
        return self.table1 is not None and self.table1 == self.vector.chi_g

    def to_csv(self) -> str:
        vec, p = self.vector, self.vector.partition
        table = "na" if self.table1 is None else str(self.table1)
        return (
            f"{p},{p.n},{p.k},{vec.chi_g},{table},"
            f"{str(self.agrees).lower()},true,"  # monotone, by `win_vector`'s argument
            f"{vec.bitstring()},{self.ms:.1f}"
        )


SCAN_CSV_HEADER = "partition,n,k,chi_g,table1,agrees,monotone,winvector,ms"


def scan_one(partition: Partition, memo: dict[tuple, bool]) -> ScanRow:
    start = time.perf_counter()
    vec = win_vector(partition, memo)
    ms = (time.perf_counter() - start) * 1000.0
    return ScanRow(vec, table1_chi_g(partition), ms)


def scan(max_n: int, filter_: str = "all") -> list[ScanRow]:
    """Solve every shape up to max_n vertices and compare with the table.

    All shapes share one memo, so a row's ms column depends on the shapes
    solved before it. Rows come back canonically sorted (by n, then by
    ascending sizes), which is not the order `all_partitions` yields.
    """
    memo: dict[tuple, bool] = {}
    rows = [scan_one(p, memo) for p in all_partitions(max_n, filter_)]
    rows.sort(key=lambda r: (r.vector.partition.n, r.vector.partition.sizes))
    return rows


def scan_csv(rows: list[ScanRow]) -> str:
    return "\n".join([SCAN_CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# guarantee suites over all small shapes


def guarantee_suite(max_n: int, mode: str = DETERMINISTIC) -> list[VerifyResult]:
    """Verify every guarantee of `GUARANTEES` that applies to every shape with
    r_k >= 2 and n <= max_n, at the budget it names (if that is in 1..n)."""
    check_mode(mode)
    return [
        verify_guarantee(p, budget, get_strategy(g.strategy).side, g.strategy, mode)._replace(
            label=g.label
        )
        for p in all_partitions(max_n, "no-singletons")
        for g in GUARANTEES
        if g.failure(p) is None and 1 <= (budget := g.budget(p)) <= p.n
    ]


# ---------------------------------------------------------------------------
# conjecture checks


class ConjectureReport(NamedTuple):
    max_n: int
    mode: str
    partitions_checked: int
    cases_checked: int
    violations: tuple[VerifyResult, ...]  # the failing cases

    @property
    def passed(self) -> bool:
        return not self.violations


def check_b1p_conjecture(max_n: int, mode: str = DETERMINISTIC) -> ConjectureReport:
    """Whenever optimal play wins for Bob (budget below the exact value),
    the singleton-aware echo rule must still win for him. One case per shape
    with chi_g >= 2, at chi_g - 1, settles every such budget, as a Bob rule's
    verdict is a down-set in the budget (see `solver._refute`)."""
    check_mode(mode)
    memo: dict[tuple, bool] = {}
    partitions = all_partitions(max_n)
    results = [
        verify_guarantee(partition, chi - 1, BOB, "b1p", mode)
        for partition in partitions
        if (chi := win_vector(partition, memo).chi_g) >= 2
    ]
    return ConjectureReport(
        max_n=max_n,
        mode=mode,
        partitions_checked=len(partitions),
        cases_checked=len(results),
        violations=tuple(r for r in results if not r.passed),
    )


NONOPT_ALICE_RULES = ("a1", "a1p", "a2", "a2p", "a3", "a3p")


class NonOptimalityReport(NamedTuple):
    """Outcome of the composite-vs-simple-rules check on K_{4,3,...,3,1,1}."""

    partition: Partition
    budget: int  # 2k - 4
    solver_upper_ok: bool  # Alice wins outright at this budget
    composite_ok: bool  # the scripted opening also wins at this budget
    rule_results: dict[str, bool]

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def failing_rules(self) -> tuple[str, ...]:
        """The simple rules that lose here (all should)."""
        return tuple(rule for rule, won in self.rule_results.items() if not won)

    @property
    def passed(self) -> bool:
        return (
            self.solver_upper_ok
            and self.composite_ok
            and set(self.failing_rules) == set(NONOPT_ALICE_RULES)
        )


def check_nonoptimality_theorem(k: int) -> NonOptimalityReport:
    """On K_{4,3,...,3,1,1} with k parts: 2k-4 colors suffice, the composite
    opening achieves them, and each simple rule needs more."""
    if type(k) is not int:
        raise InputError(f"k must be an integer, not {k!r}")
    if k < 6:
        raise InputError("needs k >= 6 (at least three parts of size 3)")
    sizes = (4,) + (3,) * (k - 3) + (1, 1)
    partition = Partition(sizes)
    budget = 2 * k - 4
    solver_upper_ok = alice_wins(partition, budget)
    composite_ok = restricted_value(partition, budget, ALICE, "acomposite")
    # n = 3k - 3 is even for odd k, so the odd-opener rules may not even
    # apply; a rule that cannot be played cannot win either.
    rule_results = {
        rule: is_applicable(rule, partition) and restricted_value(partition, budget, ALICE, rule)
        for rule in NONOPT_ALICE_RULES
    }
    return NonOptimalityReport(
        partition=partition,
        budget=budget,
        solver_upper_ok=solver_upper_ok,
        composite_ok=composite_ok,
        rule_results=rule_results,
    )
