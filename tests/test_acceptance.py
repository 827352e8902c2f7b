"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
`pytest tests/test_acceptance.py -s` to see them live). Every tolerance is
exact: these are integer-valued combinatorial quantities.
"""

from __future__ import annotations

import random
import time

from chromagame.core import (
    ALICE,
    BOB,
    GameStatus,
    Move,
    GameState,
    Partition,
    apply_move,
    fixing_move_played,
    initial_state,
    legal_moves,
    status,
)
from chromagame.harness import (
    all_partitions,
    check_b1p_conjecture,
    check_nonoptimality_theorem,
    guarantee_suite,
    partitions_of,
    scan,
    simulate,
)
from chromagame.solver import alice_wins, canonicalize, chi_g, win_vector

from count_states import enumerate_count_states
from oracle import VertexGame, project_counts, project_moves, realize


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_table_reproduction():
    """Solver equals the closed-form table on every shape with r_k >= 2 and
    n <= 13 (exact match, single-threaded, under five minutes)."""
    start = time.perf_counter()
    rows = scan(13, "no-singletons")
    elapsed = time.perf_counter() - start
    expected_count = sum(
        1
        for n in range(1, 14)
        for sizes in partitions_of(n)
        if sizes[-1] >= 2
    )
    mismatches = [r for r in rows if not r.agrees]
    passed = not mismatches and len(rows) == expected_count and elapsed < 300
    report(
        "criterion-1",
        passed,
        f"{len(rows)} partitions (expected {expected_count}), "
        f"{len(mismatches)} disagreements, {elapsed:.1f}s",
    )


def uniform_chi_g(k: int, r: int) -> int:
    """Dunn's formula for the uniform shape K_{r,...,r} (k parts of size r,
    with r >= 2 or k = 1): 1 for k = 1, 2k - 2 for r = 3 and k >= 3, and
    2k - 1 otherwise. The table gives the same value case by case:

    - k = 1: both give 1.
    - k = 2: both give 3.
    - k >= 3 and r = 2: n is even and no part has size 3, so both give 2k - 1.
    - k >= 3 and r = 3: both give 2k - 2.
    - k >= 3 and r >= 4: both give 2k - 1.
    """
    if k == 1:
        return 1
    return 2 * k - 2 if r == 3 and k >= 3 else 2 * k - 1


def test_criterion_2_uniform_formula():
    """Solver equals the uniform-shape formula `uniform_chi_g` for k*r <= 12
    (within the notation's domain: k = 1 or r >= 2)."""
    checked = 0
    bad = []
    for k in range(1, 13):
        for r in range(1, 13):
            if k * r > 12 or (k >= 2 and r == 1):
                continue
            checked += 1
            got = chi_g(Partition.of([r] * k))
            want = uniform_chi_g(k, r)
            if got != want:
                bad.append((k, r, got, want))
    spot = chi_g(Partition.of([3, 3, 3])) == 4 and chi_g(Partition.of([2, 2])) == 3
    report(
        "criterion-2",
        not bad and spot,
        f"{checked} uniform shapes checked, K_{{3,3,3}}=4 and K_{{2,2}}=3 confirmed"
        + (f"; mismatches {bad}" if bad else ""),
    )


def test_criterion_3_singleton_cases():
    cases = {
        "5,5,1": 3,
        "6,6,1": 3,
        "2,2,1,1": 5,
        "2,2,1,1,1,1": 7,
    }
    got = {text: chi_g(Partition.parse(text)) for text in cases}
    report(
        "criterion-3",
        got == cases,
        ", ".join(f"chi_g(K_{{{t}}}) = {v}" for t, v in got.items()),
    )


def test_criterion_4_nonoptimality_theorem():
    start = time.perf_counter()
    rep = check_nonoptimality_theorem(6)
    elapsed = time.perf_counter() - start
    losses = sorted(rep.failing_rules)
    passed = rep.passed and elapsed < 600
    report(
        "criterion-4",
        passed,
        f"K_{{4,3,3,3,1,1}}: optimal win at 8 = {rep.solver_upper_ok}, "
        f"acomposite wins at 8 = {rep.composite_ok}, "
        f"rules losing at 8 = {losses}, {elapsed:.1f}s",
    )


def test_criterion_5_guarantee_suites():
    cases = guarantee_suite(12)
    failures = [c for c in cases if not c.passed]
    by_label: dict[str, int] = {}
    for c in cases:
        by_label[c.label] = by_label.get(c.label, 0) + 1
    report(
        "criterion-5",
        not failures and len(by_label) == 8,
        f"{len(cases)} guarantee checks over n <= 12 ({len(by_label)} families), "
        f"{len(failures)} failures",
    )


def test_criterion_6_b1p_conjecture():
    rep = check_b1p_conjecture(14)
    replay_ok = True
    for violation in rep.violations:
        state = initial_state(violation.partition, violation.budget)
        for m in violation.counterexample.move_list():
            state = apply_move(state, m)
        if status(state).value != violation.counterexample.outcome:
            replay_ok = False
    report(
        "criterion-6",
        replay_ok and not rep.violations,
        f"{rep.partitions_checked} partitions, {rep.cases_checked} checked at chi_g - 1, "
        f"{len(rep.violations)} counterexamples (all replay-validated)",
    )


# --- criterion 7: property suites ------------------------------------------


def test_criterion_7a_engine_oracle_equivalence():
    """Count engine == vertex oracle on all states, and solver == brute-force
    minimax, for every shape with n <= 10 and every budget."""
    start = time.perf_counter()
    partitions = all_partitions(10)
    states_checked = 0
    for partition in partitions:
        for budget in range(1, partition.n + 1):
            game = VertexGame(partition.sizes, budget)
            for counts, state in enumerate_count_states(partition, budget).items():
                states_checked += 1
                assert state.used == sum(d for _c, d in counts)
                assignment = realize(partition.sizes, counts, budget)
                assert project_counts(assignment) == counts
                st = status(state)
                if st is GameStatus.ALICE_WON:
                    assert game.result(assignment) == "alice_won"
                elif st is GameStatus.BOB_WON:
                    assert game.result(assignment) != "alice_won"
                    assert not game.completion_reachable(assignment)
                else:
                    assert game.result(assignment) is None
                    expected = {(m.part, m.fresh) for m in legal_moves(state)}
                    assert project_moves(game, assignment) == expected
            assert game.alice_wins() == alice_wins(partition, budget), (
                str(partition),
                budget,
            )
    elapsed = time.perf_counter() - start
    report(
        "criterion-7a",
        True,
        f"{len(partitions)} shapes, {states_checked} states, solver == minimax "
        f"on every budget, {elapsed:.1f}s",
    )


PLAYOUT_POOL = [
    (2, 2),
    (3, 2),
    (3, 3, 3),
    (4, 4),
    (4, 3, 2),
    (2, 2, 2, 2),
    (5, 3, 1),
    (3, 2, 2, 1),
    (4, 4, 2),
    (2, 2, 1, 1),
    (6, 3, 1),
    (5, 5),
]

ODD_POOL = [(3,), (3, 2), (3, 2, 2), (5, 2, 2), (3, 3, 3), (5, 3, 1), (3, 3, 2, 1), (7, 2)]


def run_playout(partition, budget, alice, bob):
    record = simulate(partition, budget, alice, bob)
    # replay through the engine and confirm the fixing/outcome equivalence
    state = initial_state(partition, budget)
    fixing = None
    for i, m in enumerate(record.move_list()):
        state = apply_move(state, m)
        if fixing is None and fixing_move_played(state):
            fixing = i
    assert status(state).value == record.outcome
    assert fixing == record.fixing_index
    if record.outcome == "alice_won":
        assert record.fixing_index is not None
    else:
        assert record.fixing_index is None
    return record


def test_criterion_7b_fixing_outcome_equivalence_10k():
    start = time.perf_counter()
    rng = random.Random(20260810)
    total = 0

    # 6000 fully random playouts
    for seed in range(6000):
        sizes = rng.choice(PLAYOUT_POOL)
        partition = Partition.of(sizes)
        budget = rng.randint(1, partition.n)
        run_playout(partition, budget, f"random:{seed}", f"random:{seed + 1}")
        total += 1

    # 2000 against the echo rule, asserting the B-singleton invariant
    for seed in range(2000):
        sizes = rng.choice(PLAYOUT_POOL)
        partition = Partition.of(sizes)
        budget = rng.randint(1, partition.n)
        record = run_playout(partition, budget, f"random:{seed}", "b1")
        state = initial_state(partition, budget)
        starter = {}  # part -> mover of the first move into it
        for m in record.moves:
            state = apply_move(state, Move(m.part, m.fresh))
            starter.setdefault(m.part, m.mover)
            if m.mover == BOB:
                b_singletons = [
                    i for i, c in enumerate(state.colored)
                    if c == 1 and starter[i] == BOB
                ]
                assert len(b_singletons) <= 1
        total += 1

    # 2000 with the odd-opener, asserting the even-start prohibition
    for seed in range(2000):
        sizes = rng.choice(ODD_POOL)
        partition = Partition.of(sizes)
        budget = rng.randint(1, partition.n)
        record = run_playout(partition, budget, "a3", f"random:{seed}")
        state = initial_state(partition, budget)
        for m in record.move_list():
            mover = state.turn
            started = state.colored[m.part] == 0
            if mover == ALICE and started:
                assert partition.sizes[m.part] % 2 == 1
            state = apply_move(state, m)
        total += 1

    elapsed = time.perf_counter() - start
    report(
        "criterion-7b",
        total == 10000,
        f"{total} seeded playouts: fixing/outcome equivalence, B-singleton "
        f"invariant, even-start prohibition, {elapsed:.1f}s",
    )


def test_criterion_7c_canonicalization_invariance_1000():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        sizes = sorted(
            (rng.choice([1, 2, 2, 3, 3, 4]) for _ in range(rng.randint(2, 5))),
            reverse=True,
        )
        fills = []
        for s in sizes:
            c = rng.randint(0, s)
            d = rng.randint(1, c) if c else 0
            fills.append((c, d))
        used = sum(d for _c, d in fills)
        budget = used + rng.randint(0, 2)
        if budget < 1:
            continue

        def build(order):
            return GameState(
                partition=Partition(tuple(sizes[i] for i in order)),
                colored=tuple(fills[i][0] for i in order),
                budget=budget,
                used=used,
            )

        base = build(range(len(sizes)))
        order = list(range(len(sizes)))
        rng.shuffle(order)
        order.sort(key=lambda i: -sizes[i])  # keep the partition sorted
        assert canonicalize(base) == canonicalize(build(order))
        checked += 1

    # concrete-color relabelings are invisible to count states by construction:
    # replaying a transcript twice lands on identical keys ply by ply
    p = Partition.of([3, 3, 2])
    a = initial_state(p, 5)
    b = initial_state(p, 5)
    for m in [Move(0, True), Move(1, True), Move(0, False), Move(0, True)]:
        a = apply_move(a, m)
        b = apply_move(b, m)
        assert canonicalize(a) == canonicalize(b)
    report("criterion-7c", checked == 1000, f"{checked} randomized permutations")


def test_criterion_7d_consistency_triangle():
    """Every guarantee that passes bounds the solver value on its shape."""
    cases = guarantee_suite(12)
    vectors = {}
    violations = []
    for case in cases:
        key = str(case.partition)
        if key not in vectors:
            vectors[key] = win_vector(case.partition)
        vec = vectors[key]
        if case.passed:
            if case.side == ALICE and not vec.alice_wins(case.budget):
                violations.append(case)
            if case.side == BOB and vec.alice_wins(case.budget):
                violations.append(case)
    report(
        "criterion-7d",
        not violations,
        f"{len(cases)} passing guarantees checked against {len(vectors)} win "
        f"vectors, {len(violations)} violations",
    )
