"""Harness tests: simulations with transcripts, guarantee verification with
counterexamples, scanning, and the conjecture checks."""

from __future__ import annotations

import json

import pytest

from chromagame import solver
from chromagame.core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    InputError,
    Move,
    Partition,
    apply_move,
    fixing_move_played,
    initial_state,
    status,
)
from chromagame.formulas import (
    GUARANTEES,
    best_bounds,
    bounds,
    ceil_half_sum,
    fresh_starter_budget,
    table1_chi_g,
    table1_report,
)
from chromagame.harness import (
    SCAN_CSV_HEADER,
    GameRecord,
    VerifyResult,
    all_partitions,
    check_b1p_conjecture,
    check_nonoptimality_theorem,
    guarantee_suite,
    partitions_of,
    record_playout,
    scan,
    scan_csv,
    scan_one,
    simulate,
    verify_guarantee,
)
from chromagame.solver import (
    DETERMINISTIC,
    UNIVERSAL,
    WinVector,
    alice_wins,
    refute_restricted,
    restricted_value,
    win_vector,
)
from chromagame.strategies import (
    InapplicableStrategyError,
    choose_move,
    get_strategy,
    is_applicable,
)


def replay(record: GameRecord):
    """Re-apply a transcript through the core engine and return the end state."""
    state = initial_state(record.partition, record.budget)
    fixing = None
    for i, m in enumerate(record.move_list()):
        state = apply_move(state, m)
        if fixing is None and fixing_move_played(state):
            fixing = i
    return state, fixing


class TestSimulate:
    def test_anchor_beats_echo_on_triples(self):
        record = simulate(Partition.of([3, 3, 3]), 4, "a2", "b1")
        assert record.outcome == "alice_won"
        assert record.colors_used <= 4

    def test_echo_beats_fresh_starter_below_threshold(self):
        record = simulate(Partition.of([4, 4, 4]), 4, "a1", "b1")
        assert record.outcome == "bob_won"
        assert record.fixing_index is None

    def test_single_vertex_game(self):
        record = simulate(Partition.of([1]), 1, "a1", "b1")
        assert record.outcome == "alice_won"
        assert len(record.moves) == 1
        assert record.fixing_index == 0

    def test_replay_reproduces_outcome_and_fixing_index(self):
        for alice, bob, sizes, budget in [
            ("a2", "b1", (3, 3, 3), 4),
            ("a1", "b1", (4, 4, 4), 4),
            ("a1", "b1", (4, 4, 4), 5),
            ("a3", "b1", (3, 2, 2), 4),
            ("random:3", "random:9", (4, 3, 2), 5),
        ]:
            record = simulate(Partition.of(sizes), budget, alice, bob)
            end, fixing = replay(record)
            assert status(end).value == record.outcome
            assert fixing == record.fixing_index
            assert end.used == record.colors_used

    def test_transcript_colors_follow_conventions(self):
        record = simulate(Partition.of([3, 3, 3]), 4, "a2", "b1")
        fresh_colors = [m.color for m in record.moves if m.fresh]
        assert fresh_colors == sorted(set(fresh_colors))
        assert fresh_colors[0] == 1
        # a reuse repeats a color previously placed in the same part
        seen = {}
        for m in record.moves:
            if not m.fresh:
                assert m.color in seen.get(m.part, set())
            seen.setdefault(m.part, set()).add(m.color)

    def test_json_keys_follow_the_field_order(self):
        record = simulate(Partition((2, 1)), 2, "a1", "b1")
        assert json.dumps(record.to_dict()) == (
            '{"partition": [2, 1], "budget": 2, "alice": "a1", "bob": "b1", "moves": ['
            '{"index": 0, "mover": "alice", "part": 0, "color": 1, "fresh": true}, '
            '{"index": 1, "mover": "bob", "part": 0, "color": 2, "fresh": true}], '
            '"outcome": "bob_won", "fixing_index": null, "colors_used": 2}'
        )

    def test_seeded_random_games_replay_identically(self):
        a = simulate(Partition.of([3, 3, 2]), 4, "random:7", "random:7")
        b = simulate(Partition.of([3, 3, 2]), 4, "random:7", "random:7")
        assert a == b

    def test_inapplicable_strategy_rejected(self):
        with pytest.raises(InapplicableStrategyError):
            simulate(Partition.of([5, 5, 1]), 4, "a2", "b1")

    def test_rule_values_do_not_leak_between_games(self):
        """acomposite's script lives in the row values `advance` returns,
        never in the registry's value, so games and searches in a row agree."""
        partition = Partition((4, 3, 3, 3, 1, 1))
        first = simulate(partition, 8, "acomposite", "b1")
        assert simulate(partition, 8, "acomposite", "b1") == first
        case = (partition, 7, ALICE, "acomposite")
        line = refute_restricted(*case)
        assert line is not None and refute_restricted(*case) == line
        # the fill row for triple j is one value per j, whichever singleton
        # was opened, and the rows for different triples differ
        comp = get_strategy("acomposite")
        start = initial_state(partition, 8)

        def filling(opened, j):
            state = apply_move(apply_move(start, Move(opened, True)), Move(j, True))
            return comp.advance(state)

        for j in (1, 2, 3):
            assert filling(4, j) is filling(5, j)
        assert filling(4, 1) != filling(4, 2) != filling(4, 3) != filling(4, 1)

    def test_wrong_seat_rejected(self):
        with pytest.raises(InapplicableStrategyError):
            simulate(Partition.of([3, 3]), 3, "b1", "a1")


class TestVerifyGuarantee:
    def test_pass_has_no_counterexample(self):
        res = verify_guarantee(Partition.of([4, 4, 4]), 5, ALICE, "a1")
        assert res.passed and res.counterexample is None

    def test_fail_attaches_replayable_counterexample(self):
        res = verify_guarantee(Partition.of([4, 4, 4]), 4, ALICE, "a1")
        assert not res.passed
        record = res.counterexample
        assert record.outcome == "bob_won"
        end, _ = replay(record)
        assert status(end) is GameStatus.BOB_WON

    def test_bob_side_failure_replays_to_alice_win(self):
        res = verify_guarantee(Partition.of([2, 2, 1, 1]), 4, BOB, "b1")
        assert not res.passed
        assert res.counterexample.outcome == "alice_won"
        end, _ = replay(res.counterexample)
        assert status(end) is GameStatus.ALICE_WON

    def test_passed_is_read_from_the_counterexample(self):
        """A result cannot claim a pass while it holds a refutation."""
        assert "passed" not in VerifyResult._fields
        refuted = verify_guarantee(Partition.of([4, 4, 4]), 4, ALICE, "a1")
        assert refuted.counterexample is not None and refuted.passed is False
        assert refuted._replace(counterexample=None).passed is True


class TestPartitions:
    def test_partition_function_counts(self):
        assert len(list(partitions_of(6))) == 11
        assert len(list(partitions_of(13))) == 101

    @pytest.mark.parametrize("filter_", ["no-singleton", "All", ""])
    def test_unknown_filter_is_refused(self, filter_):
        with pytest.raises(ValueError, match="filter must be one of"):
            all_partitions(6, filter_)

    def test_filters(self):
        n6 = [p for p in all_partitions(6) if p.n == 6]
        assert len(n6) == 11
        no_single = all_partitions(6, "no-singletons")
        with_single = all_partitions(6, "with-singletons")
        assert all(p.sizes[-1] >= 2 for p in no_single)
        assert all(p.sizes[-1] == 1 for p in with_single)
        assert len(no_single) + len(with_single) == len(all_partitions(6))


class TestScan:
    def test_rows_agree_with_table_at_small_n(self):
        rows = scan(6, "no-singletons")
        assert all(r.agrees for r in rows)
        assert all(r.to_csv().split(",")[-3] == "true" for r in rows)  # monotone

    def test_rows_hold_the_solver_vector(self):
        for row in scan(6):
            assert row.vector == win_vector(row.vector.partition)

    def test_singleton_examples_present(self):
        rows = scan(6, "with-singletons")
        by_partition = {str(r.vector.partition): r for r in rows}
        assert by_partition["2,2,1,1"].vector.chi_g == 5
        assert by_partition["2,2,1,1"].table1 is None
        assert not by_partition["2,2,1,1"].agrees

    def test_csv_shape(self):
        rows = scan(5)
        text = scan_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        # partition fields absorb commas; fixed tail columns count from the end
        assert len(first) >= 9
        assert first[-1].replace(".", "").isdigit()

    def test_rows_sorted_canonically_and_worker_independent(self):
        one = scan(7)
        canonical = lambda p: (p.n, p.sizes)
        two = sorted(
            (scan_one(p, {}) for p in all_partitions(7)),
            key=lambda r: canonical(r.vector.partition),
        )
        strip = lambda rows: [(r.vector, r.table1, r.agrees) for r in rows]
        assert strip(one) == strip(two)
        shapes = [r.vector.partition for r in one]
        assert shapes == sorted(shapes, key=canonical)


class TestSuites:
    def test_guarantee_suite_small_clean(self):
        cases = guarantee_suite(9)
        assert cases
        failures = [c for c in cases if not c.passed]
        assert failures == []

    def test_guarantee_suite_universal_reading(self):
        """The guarantees hold for every admissible refinement, not just the
        deterministic tie-break."""
        cases = guarantee_suite(9, mode=UNIVERSAL)
        assert cases and all(c.passed for c in cases)

    def test_guarantees_hold_on_shapes_with_singletons(self):
        """`bounds` reports cor_a1, cor_a2 and cor_a3 on shapes with a
        singleton, which the suite skips: each applicable guarantee must be
        earned there by its rule too."""
        cases = 0
        for partition in all_partitions(12, "with-singletons"):
            for g in GUARANTEES:
                budget = g.budget(partition)
                if g.failure(partition) is None and 1 <= budget <= partition.n:
                    res = verify_guarantee(partition, budget, get_strategy(g.strategy).side,
                                           g.strategy)
                    assert res.passed, (g.label, partition, budget)
                    cases += 1
        assert cases == 259

    @pytest.mark.parametrize("mode", [DETERMINISTIC, UNIVERSAL])
    def test_suite_cases_are_labelled_verify_results(self, mode):
        labels = {g.label for g in GUARANTEES}
        cases = guarantee_suite(8, mode)
        assert cases and all(type(c) is VerifyResult for c in cases)
        assert all(c.label in labels and c.mode == mode for c in cases)

    def test_guarantees_bound_the_solver(self):
        for case in guarantee_suite(8):
            vec = win_vector(case.partition)
            if case.side == ALICE:
                assert vec.alice_wins(case.budget), case
            else:
                assert not vec.alice_wins(case.budget), case


@pytest.mark.parametrize(
    "check",
    [
        lambda mode: verify_guarantee(Partition((3, 3, 3)), 5, ALICE, "a2", mode),
        lambda mode: refute_restricted(Partition((3, 3, 3)), 5, ALICE, "a2", mode),
        lambda mode: guarantee_suite(6, mode),
        lambda mode: check_b1p_conjecture(6, mode),
    ],
    ids=["verify_guarantee", "refute_restricted", "guarantee_suite", "check_b1p_conjecture"],
)
@pytest.mark.parametrize("mode", ["Universal", "random", ""])
def test_unknown_mode_is_refused_before_any_search(check, mode, monkeypatch):
    def no_search(*_args):
        raise AssertionError("searched before checking the mode")

    monkeypatch.setattr(solver, "_value", no_search)
    monkeypatch.setattr(solver, "apply_move", no_search)
    with pytest.raises(ValueError, match="mode must be 'deterministic' or 'universal'"):
        check(mode)


@pytest.mark.parametrize("budget", [0, 46, 2.5])
def test_bad_budget_is_refused_before_any_search(budget, monkeypatch):
    """`alice_wins` checks the budget before it solves the shape."""
    def no_search(*_args):
        raise AssertionError("searched before checking the budget")

    monkeypatch.setattr(solver, "_value", no_search)
    with pytest.raises(InputError, match="budget must be"):
        alice_wins(Partition(tuple(range(9, 0, -1))), budget)  # n = 45


K33 = Partition((3, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Partition((2, 3)),
        lambda: Partition.parse("3,+1"),
        lambda: GameState(K33, (4, 0), 3),
        lambda: get_strategy("a9"),
        lambda: simulate(K33, 3, "b1", "b1"),  # a Bob rule in Alice's seat
        # a budget above n, which every command refuses
        lambda: simulate(Partition((3, 3, 3)), 10**6, "a1", "b1"),
        lambda: record_playout(K33, 7, [], "x", "y"),
        lambda: choose_move(get_strategy("a1"), GameState(K33, (3, 3), 2, 2)),  # game over
        lambda: alice_wins(K33, 7),
        lambda: refute_restricted(K33, 3, ALICE, "a1", "Universal"),
        lambda: refute_restricted(K33, 3, "carol", "a1"),
        lambda: WinVector(K33, 4),
        lambda: WinVector.from_cache_line("3,3;3"),
        lambda: all_partitions(3, "odd"),
        lambda: check_nonoptimality_theorem(5),
        # a budget, count or chi_g that is not an int
        lambda: simulate(K33, 2.5, "a1", "b1"),
        lambda: alice_wins(K33, 2.5),
        lambda: restricted_value(K33, 2.5, ALICE, "a1"),
        lambda: GameState(K33, (0.5, 0), 3, 1),
        lambda: GameState(K33, (1, 0), 3, True),
        lambda: WinVector(K33, 3.0),
        # a shape count that is not a plain int
        lambda: all_partitions(6.5),
        lambda: scan(3.0),
        lambda: guarantee_suite(True),
        lambda: check_b1p_conjecture(2.0),
        lambda: check_nonoptimality_theorem(6.5),
        # a shape count below 1 names no shapes: no vacuous pass
        lambda: all_partitions(0),
        lambda: check_b1p_conjecture(0),
        lambda: guarantee_suite(-3),
        lambda: scan(0),
        # a plain tuple of sizes, which has none of a `Partition`'s checks
        lambda: GameState((3, 3), (0, 0), 3),
        lambda: initial_state((3, 3), 3),
        lambda: win_vector((3, 3)),
        lambda: WinVector((3, 3), 3),
        lambda: alice_wins((3, 3), 3),
        lambda: refute_restricted((3, 3), 3, ALICE, "a1"),
        lambda: verify_guarantee((3, 3), 3, ALICE, "a1"),
        lambda: simulate((3, 3), 3, "a2", "b1"),  # a2's shape test reads the partition
        lambda: table1_chi_g((3, 3)),
        lambda: ceil_half_sum((3, 3)),
        lambda: fresh_starter_budget((3, 3)),
        lambda: bounds((3, 3)),
        lambda: table1_report((3, 3)),
        lambda: best_bounds((3, 3)),
        lambda: is_applicable("a1", (3, 3)),  # a1 applies to every shape
        # a malformed move: a `fresh` or part that is not a bool or int,
        # or a plain tuple, which has no `Move` fields
        lambda: apply_move(initial_state(K33, 4), Move(0, 2)),
        lambda: record_playout(K33, 4, [Move(0, 2)], "x", "y"),
        lambda: apply_move(initial_state(K33, 4), Move(True, True)),
        lambda: apply_move(initial_state(K33, 4), Move("0", True)),
        lambda: apply_move(initial_state(K33, 4), Move(0, "yes")),
        lambda: apply_move(initial_state(K33, 4), (0, True)),
        lambda: GameState(K33, (1, 0), 3, 1, (0, True)),
        lambda: GameState(K33, (1, 0), 3, 1, Move(0, 1)),
        # a seat that is neither a strategy name nor a `Strategy`
        lambda: restricted_value(K33, 3, ALICE, 123),
        lambda: verify_guarantee(K33, 3, ALICE, None),
        lambda: simulate(K33, 3, 123, "b1"),
        lambda: is_applicable(123, K33),
        lambda: get_strategy(123),
        lambda: choose_move(123, initial_state(K33, 3)),
    ],
    ids=[
        "Partition", "Partition.parse", "GameState", "get_strategy", "check_seat",
        "simulate-budget-above-n", "record_playout-budget-above-n",
        "_check_turn", "_check_budget", "check_mode", "fixed_side", "WinVector",
        "from_cache_line", "all_partitions", "check_nonoptimality_theorem",
        "simulate-float-budget", "alice_wins-float-budget", "restricted_value-float-budget",
        "GameState-float-count", "GameState-bool-used", "WinVector-float-chi_g",
        "all_partitions-float-max_n", "scan-float-max_n", "guarantee_suite-bool-max_n",
        "check_b1p_conjecture-float-max_n", "check_nonoptimality_theorem-float-k",
        "all_partitions-zero-max_n", "check_b1p_conjecture-zero-max_n",
        "guarantee_suite-negative-max_n", "scan-zero-max_n",
        "GameState-tuple", "initial_state-tuple", "win_vector-tuple", "WinVector-tuple",
        "alice_wins-tuple", "refute_restricted-tuple", "verify_guarantee-tuple",
        "simulate-tuple", "table1_chi_g-tuple", "ceil_half_sum-tuple",
        "fresh_starter_budget-tuple", "bounds-tuple", "table1_report-tuple",
        "best_bounds-tuple", "is_applicable-tuple",
        "apply_move-int-fresh", "record_playout-int-fresh", "apply_move-bool-part",
        "apply_move-str-part", "apply_move-str-fresh", "apply_move-tuple-move",
        "GameState-tuple-last_move", "GameState-int-last_move-fresh",
        "restricted_value-int-seat", "verify_guarantee-none-seat", "simulate-int-seat",
        "is_applicable-int-seat", "get_strategy-int", "choose_move-int-seat",
    ],
)
def test_caller_errors_raise_input_error(call):
    """Every check on a caller's argument raises `InputError`, the one error
    the command line reports as a usage error (exit 2)."""
    with pytest.raises(InputError):
        call()


class TestConjectures:
    def test_b1p_holds_at_small_scale(self):
        report = check_b1p_conjecture(8)
        assert report.passed
        assert report.partitions_checked == len(all_partitions(8))
        assert report.cases_checked > 0

    def test_b1p_checks_one_budget_per_shape(self):
        """chi_g - 1 settles every budget below chi_g, as a Bob rule's
        verdict is a down-set in the budget; chi_g = 1 leaves none."""
        report = check_b1p_conjecture(10)
        shapes = [p for p in all_partitions(10) if win_vector(p).chi_g >= 2]
        assert report.cases_checked == len(shapes) == 138 - 10  # all but one part

    def test_nonoptimality_theorem_k6(self):
        report = check_nonoptimality_theorem(6)
        assert report.partition.sizes == (4, 3, 3, 3, 1, 1)
        assert report.k == 6
        assert report.budget == 8
        assert report.solver_upper_ok
        assert report.composite_ok
        assert set(report.failing_rules) == {"a1", "a1p", "a2", "a2p", "a3", "a3p"}
        assert report.passed

    def test_nonoptimality_needs_k6(self):
        with pytest.raises(ValueError):
            check_nonoptimality_theorem(5)


def test_record_playout_rejects_illegal_lines():
    from chromagame.core import IllegalMoveError

    p = Partition.of([2, 2])
    with pytest.raises(IllegalMoveError):
        record_playout(p, 3, [Move(0, False)], "x", "y")
