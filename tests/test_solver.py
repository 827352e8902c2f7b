"""Solver tests: canonicalization symmetry, agreement with the brute-force
vertex oracle, win-vector invariants, and the restricted-search contracts."""

from __future__ import annotations

import random
import re

import pytest

from chromagame import solver, strategies
from chromagame.core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    Move,
    Partition,
    apply_move,
    fixing_move_played,
    initial_state,
    legal_moves,
    status,
)
from chromagame.formulas import BoundReport
from chromagame.harness import (
    NONOPT_ALICE_RULES,
    all_partitions,
    record_playout,
    simulate,
    verify_guarantee,
)
from chromagame.solver import (
    DETERMINISTIC,
    UNIVERSAL,
    WinVector,
    _pinned_key,
    _pinned_moves,
    _refute,
    _value,
    alice_wins,
    canonicalize,
    chi_g,
    decided,
    load_cache,
    refute_restricted,
    restricted_value,
    save_cache,
    win_vector,
)
from chromagame.strategies import (
    InapplicableStrategyError,
    Rule,
    StrategyTotalityError,
    admissible_moves,
    choose_move,
    get_strategy,
)

from oracle import VertexGame


def make_state(sizes, fills, budget):
    """Build a state directly from per-part (colored, distinct) pairs; the
    colors used are the sum of the distinct counts."""
    return GameState(
        partition=Partition(tuple(sizes)),
        colored=tuple(c for c, _d in fills),
        budget=budget,
        used=sum(d for _c, d in fills),
    )


class TestCanonicalize:
    def test_equal_size_parts_interchange(self):
        a = make_state((4, 4), [(3, 2), (1, 1)], 5)
        b = make_state((4, 4), [(1, 1), (3, 2)], 5)
        assert canonicalize(a) == canonicalize(b)

    def test_turn_distinguishes(self):
        a = make_state((3, 3), [(1, 1), (0, 0)], 4)
        b = make_state((4, 3), [(2, 1), (0, 0)], 4)
        assert canonicalize(a)[:3] == canonicalize(b)[:3]  # unstarted, pool, colors left
        assert canonicalize(a) != canonicalize(b)

    def test_randomized_equal_size_permutations(self):
        rng = random.Random(13)
        for _ in range(1000):
            sizes = sorted(
                (rng.choice([2, 2, 3, 3, 4]) for _ in range(rng.randint(2, 5))),
                reverse=True,
            )
            fills = []
            used = 0
            for s in sizes:
                c = rng.randint(0, s)
                d = rng.randint(1, c) if c else 0
                used += d
                fills.append((c, d))
            budget = used + rng.randint(0, 3)
            if budget == 0:
                continue
            base = make_state(tuple(sizes), fills, budget)
            # shuffle equal-size blocks
            order = list(range(len(sizes)))
            rng.shuffle(order)
            order.sort(key=lambda i: -sizes[i])
            permuted = make_state(
                tuple(sizes[i] for i in order),
                [fills[i] for i in order],
                budget,
            )
            assert canonicalize(base) == canonicalize(permuted)


@pytest.mark.parametrize("sizes", [tuple(p.sizes) for p in all_partitions(6)])
def test_pooled_key_values_every_reachable_position(sizes):
    """The value the solver gives a position's pooled key equals a plain
    minimax over full count states, with no key and no early leaves."""
    partition = Partition(sizes)
    for budget in range(1, partition.n + 1):
        plain: dict = {}
        pooled: dict = {}

        def value(state):
            key = (state.colored, state.used)
            if key not in plain:
                st = status(state)
                if st is not GameStatus.ONGOING:
                    plain[key] = st is GameStatus.ALICE_WON
                else:
                    children = [value(apply_move(state, m)) for m in legal_moves(state)]
                    plain[key] = any(children) if state.turn == ALICE else all(children)
                assert _value(canonicalize(state), pooled) == plain[key], (state, budget)
            return plain[key]

        value(initial_state(partition, budget))


def pooled_minimax(key, memo):
    """Alice's value of a pooled key by plain minimax with no counting law:
    only a key with no unstarted part (won) or no color left (lost) is a
    leaf. Fills `memo` with every key reachable from `key`."""
    if key not in memo:
        unstarted, pool, left, turn = key
        if not unstarted or not left:
            memo[key] = not unstarted
        else:
            nxt = BOB if turn == ALICE else ALICE
            children = {
                (unstarted[:i] + unstarted[i + 1 :], pool + size - 1, left - 1, nxt)
                for i, size in enumerate(unstarted)
            }
            if pool:
                children |= {(unstarted, pool - 1, left, nxt), (unstarted, pool - 1, left - 1, nxt)}
            values = [pooled_minimax(child, memo) for child in children]
            memo[key] = any(values) if turn == ALICE else all(values)
    return memo[key]


def test_decided_keys_match_the_plain_minimax():
    """On every pooled key reachable from every shape with n <= 10, at every
    budget, a value `decided` gives is the plain minimax value, and
    `_value`, which settles by it, gives every key its plain value."""
    plain: dict = {}
    for partition in all_partitions(10):
        for budget in range(1, partition.n + 1):
            pooled_minimax((partition.sizes, 0, budget, ALICE), plain)
    memo: dict = {}
    beyond_leaves = 0  # keys `decided` settles that the plain leaf test does not
    for key, wins in plain.items():
        unstarted, _pool, left, _turn = key
        settled = solver.decided(len(unstarted), left)
        assert settled in (None, wins), key
        if settled is not None and unstarted and left:
            beyond_leaves += 1
        assert _value(key, memo) == wins, key
    assert beyond_leaves


def test_won_keys_stay_won_with_one_more_color():
    """`win_vector`'s argument on the law-free reference: on every pooled key
    reachable from every shape with n <= 14, at every budget, a key Alice
    wins she also wins with one more color left."""
    plain: dict = {}
    for partition in all_partitions(14):
        for budget in range(1, partition.n + 1):
            pooled_minimax((partition.sizes, 0, budget, ALICE), plain)
    won = [key for key, wins in plain.items() if wins]
    for unstarted, pool, left, turn in won:
        assert pooled_minimax((unstarted, pool, left + 1, turn), plain), (unstarted, pool, left)


def test_settled_budgets_match_the_search():
    """`win_vector` searches only below min(n, 2k - 1), down to the first
    loss; on every shape with n <= 12 each budget matches the one-budget
    search at its root, so the theorem holds at every root."""
    for partition in all_partitions(12):
        vec = win_vector(partition)
        for t in range(1, partition.n + 1):
            assert vec.alice_wins(t) == _value((partition.sizes, 0, t, ALICE), {}), (partition, t)


RULES = ("a1", "a1p", "a2", "a2p", "a3", "a3p", "acomposite", "b1", "b1p")


@pytest.mark.parametrize("mode", [DETERMINISTIC, UNIVERSAL])
def test_pinned_verdicts_are_monotone_in_the_budget(mode):
    """`_refute`'s argument: on every applicable shape with n <= 9,
    an Alice rule's verdicts over budgets 1..n are an up-set, and a Bob
    rule's a down-set."""
    for partition in all_partitions(9):
        for name in RULES:
            strategy = get_strategy(name)
            if not strategy.is_applicable(partition):
                continue
            verdicts = [
                restricted_value(partition, t, strategy.side, strategy, mode)
                for t in range(1, partition.n + 1)
            ]
            if strategy.side == BOB:
                verdicts.reverse()
            assert verdicts == sorted(verdicts), (partition, name, verdicts)


def multiset_key(rule, state):
    """The pinned-search key spelled out: the parts as sorted `(size,
    colored, is anchor, moved last)` tuples and the colors left."""
    anchor = rule.anchor_part(state)
    last = None if state.last_move is None else state.last_move.part
    parts = sorted(
        (size, colored, i == anchor, i == last)
        for i, (size, colored) in enumerate(zip(state.partition.sizes, state.colored))
    )
    return (tuple(parts), state.budget - state.used)


def assert_pinned_search_exact(partition, name, mode, budget):
    """At every position the pinned game reaches, the pinned search's value
    equals a plain minimax keyed on the full (colored, used, turn, last move,
    rule value), with no early leaves: no memo key merges positions of unequal value.
    The search's small-int key also splits these positions exactly as
    `multiset_key` does: two positions share one iff they share the other."""
    strategy = get_strategy(name)
    won: set = set()
    plain: dict = {}
    small_to_multiset: dict = {}
    multiset_to_small: dict = {}

    def value(state, rule):
        key = (state.colored, state.used, state.turn, state.last_move, rule)
        if key not in plain:
            where = (name, mode, budget, state)
            small, multiset = _pinned_key(state, rule), multiset_key(rule, state)
            assert small_to_multiset.setdefault(small, multiset) == multiset, where
            assert multiset_to_small.setdefault(multiset, small) == small, where
            st = status(state)
            if st is not GameStatus.ONGOING:
                plain[key] = (st is GameStatus.ALICE_WON) == (strategy.side == ALICE)
            else:
                if state.turn != strategy.side:
                    moves = legal_moves(state)
                elif mode == UNIVERSAL:
                    moves = rule.admissible(state)
                else:
                    moves = [rule.choose(state)]
                children = [apply_move(state, m) for m in moves]
                plain[key] = all([value(child, rule.advance(child)) for child in children])
            assert (_refute(state, rule, mode == UNIVERSAL, won) is None) == plain[key], where
        return plain[key]

    value(initial_state(partition, budget), strategy)


# K_{3,3,1,1} is the smallest shape on which a key without the anchor flag
# gives a wrong value (a2 and a2p at 4 and 5 colors). It is listed right
# after the n <= 6 shapes, ahead of the other shapes with n <= 8.
@pytest.mark.parametrize(
    "sizes",
    [tuple(p.sizes) for p in all_partitions(6)]
    + [(3, 3, 1, 1)]
    + [tuple(p.sizes) for p in all_partitions(8) if p.n > 6 and p.sizes != (3, 3, 1, 1)],
)
def test_pinned_search_values_every_reachable_position(sizes):
    partition = Partition(sizes)
    for name in RULES:
        if not get_strategy(name).is_applicable(partition):
            continue
        for mode in (DETERMINISTIC, UNIVERSAL):
            for budget in range(1, partition.n + 1):
                assert_pinned_search_exact(partition, name, mode, budget)


# acomposite applies from n = 15. At 6 and 7 colors its key needs the anchor
# mark, the last-move mark and the colored counts; larger budgets catch none
# of these being dropped.
@pytest.mark.parametrize("budget", [6, 7])
def test_pinned_search_values_acomposite(budget):
    partition = Partition((4, 3, 3, 3, 1, 1))
    for mode in (DETERMINISTIC, UNIVERSAL):
        assert_pinned_search_exact(partition, "acomposite", mode, budget)


def record_search_moves(monkeypatch):
    """Record the solver's `apply_move` calls as `(before, move, after)` in
    the returned list, which the caller clears between searches."""
    calls = []

    def recorded(state, move):
        after = apply_move(state, move)
        calls.append((state, move, after))
        return after

    monkeypatch.setattr(solver, "apply_move", recorded)
    return calls


def assert_walked_to_the_end(calls, line, side, start):
    """A refutation is one walk: from the first move the search applies into
    a position `decided` against the pinned seat, its `(before, move,
    after)` calls are the rest of `line` replayed from `start`, in order,
    and the last one ends play."""
    against = side == BOB  # the `decided` value that loses for the pinned seat
    first = next(
        i
        for i, (_before, _move, after) in enumerate(calls)
        if decided(after.colored.count(0), after.budget - after.used) is against
    )
    replay, state = [], start
    for move in line:
        replay.append((state, move, apply_move(state, move)))
        state = replay[-1][2]
    tail = calls[first:]
    assert tail == replay[len(replay) - len(tail) :]
    assert status(state) is not GameStatus.ONGOING


@pytest.mark.parametrize("sizes", [tuple(p.sizes) for p in all_partitions(7)])
def test_refutations_replay_to_the_pinned_seat_loss(sizes, monkeypatch):
    """Every line `refute_restricted` returns is a game the pinned rule can
    play (its own move, or in universal mode an admissible one, at each of
    its turns) that replays through `record_playout` to the pinned seat's
    loss; `restricted_value` is False exactly when there is such a line.
    The search walks the whole line itself (`assert_walked_to_the_end`)."""
    calls = record_search_moves(monkeypatch)
    partition = Partition(sizes)
    for name in RULES:
        strategy = get_strategy(name)
        if not strategy.is_applicable(partition):
            continue
        side = strategy.side
        loss = GameStatus.BOB_WON if side == ALICE else GameStatus.ALICE_WON
        for mode in (DETERMINISTIC, UNIVERSAL):
            for budget in range(1, partition.n + 1):
                case = (partition, budget, side, name, mode)
                where = (name, mode, budget)
                value = restricted_value(*case)
                calls.clear()
                line = refute_restricted(*case)
                assert value == (line is None), where
                if line is None:
                    continue
                start = initial_state(partition, budget)
                assert_walked_to_the_end(calls, line, side, start)
                state, rule = start, strategy
                for move in line:
                    if state.turn == side:
                        allowed = rule.admissible(state) if mode == UNIVERSAL else [
                            rule.choose(state)
                        ]
                        assert move in allowed, (where, state, move)
                    state = apply_move(state, move)
                    rule = rule.advance(state)
                record = record_playout(partition, budget, line, ALICE, BOB)
                assert record.outcome == loss.value, where


@pytest.mark.parametrize("k", [6, 7, 8])
def test_nonoptimality_refutations_walk_once(k, monkeypatch):
    """Each simple Alice rule loses K_{4,3^(k-3),1,1} with 2k - 4 colors.
    The search walks its refutation to the end of play in one walk, and the
    line replays through `record_playout` to Bob's win."""
    calls = record_search_moves(monkeypatch)
    partition = Partition((4,) + (3,) * (k - 3) + (1, 1))
    budget = 2 * k - 4
    for name in NONOPT_ALICE_RULES:
        if not get_strategy(name).is_applicable(partition):
            continue
        value = restricted_value(partition, budget, ALICE, name)
        calls.clear()
        line = refute_restricted(partition, budget, ALICE, name)
        assert line is not None and not value, name
        assert_walked_to_the_end(calls, line, ALICE, initial_state(partition, budget))
        record = record_playout(partition, budget, line, ALICE, BOB)
        assert record.outcome == GameStatus.BOB_WON.value, name


@pytest.mark.parametrize(
    "k, mode", [(k, DETERMINISTIC) for k in range(6, 10)] + [(6, UNIVERSAL), (7, UNIVERSAL)]
)
def test_acomposite_bookkeeping_follows_the_board(k, mode):
    """The fact that lets the pinned-search key merge acomposite's a2 and a2p
    hand-overs, at every position the search keys on K_{4,3^(k-3),1,1} with
    2k - 4 colors (the non-optimality budget): the value is handed over to
    a2 only once both singletons are colored. The script steps only on the
    opponent's replies: Alice's own moves keep the value."""
    partition = Partition((4,) + (3,) * (k - 3) + (1, 1))
    strategy = get_strategy("acomposite")
    seen = set()
    stack = [(initial_state(partition, 2 * k - 4), strategy)]
    while stack:
        state, rule = stack.pop()
        over = status(state) is not GameStatus.ONGOING or fixing_move_played(state)
        if over or (state, rule) in seen:
            continue
        seen.add((state, rule))
        if rule.id == "a2":
            assert state.colored[-2:] == (1, 1), (state, rule)
        children = [apply_move(state, m) for m in _pinned_moves(state, rule, mode == UNIVERSAL)]
        steps = [(child, rule.advance(child)) for child in children]
        if state.turn == ALICE:
            assert all(after is rule for _child, after in steps), (state, rule)
        stack.extend(steps)


@pytest.mark.parametrize(
    "sizes", [tuple(p.sizes) for p in all_partitions(6)]
)
def test_solver_matches_vertex_oracle_exhaustively(sizes):
    partition = Partition(sizes)
    for budget in range(1, partition.n + 1):
        expected = VertexGame(partition.sizes, budget).alice_wins()
        assert alice_wins(partition, budget) == expected, (sizes, budget)


@pytest.mark.parametrize("sizes", [tuple(p.sizes) for p in all_partitions(6)])
def test_oracle_reduction_keeps_the_minimax_value(sizes):
    """The oracle's `canonical` reduction against its unreduced minimax."""
    for budget in range(1, sum(sizes) + 1):
        game = VertexGame(sizes, budget)
        assert game.alice_wins(reduce=False) == game.alice_wins(), (sizes, budget)


@pytest.mark.parametrize("sizes", [(4, 3), (5, 2), (3, 2, 2), (2, 2, 2, 1), (7,), (4, 2, 1)])
def test_solver_matches_vertex_oracle_n7(sizes):
    partition = Partition.of(sizes)
    for budget in range(1, partition.n + 1):
        expected = VertexGame(partition.sizes, budget).alice_wins()
        assert alice_wins(partition, budget) == expected, (sizes, budget)


class TestWinVector:
    @pytest.mark.parametrize("sizes", [(3, 3), (4, 2, 1), (2, 2, 2), (5, 5, 1)])
    def test_endpoints(self, sizes):
        partition = Partition.of(sizes)
        vec = win_vector(partition)
        assert vec.alice_wins(partition.n)
        for t in range(1, partition.k):
            assert not vec.alice_wins(t)
        assert vec.chi_g == min(
            t for t in range(1, partition.n + 1) if vec.alice_wins(t)
        )

    @pytest.mark.parametrize("budget", [0, -1, 7])
    def test_budget_outside_1_to_n_is_refused(self, budget):
        vec = win_vector(Partition.of([3, 3]))
        with pytest.raises(ValueError, match=re.escape("budget must be in 1..6")):
            vec.alice_wins(budget)

    @pytest.mark.parametrize("chi", [0, 4])
    def test_chi_g_outside_k_to_the_a1_ceiling_is_refused(self, chi):
        with pytest.raises(ValueError, match=re.escape("chi_g outside 2..3")):
            WinVector(Partition((3, 3)), chi)

    def test_deep_game_needs_no_recursion(self):
        # 1200 moves deep; the table value of K_{600,600} is 3.
        partition = Partition((600, 600))
        assert alice_wins(partition, 3) is True
        assert alice_wins(partition, 2) is False

    def test_deep_pinned_search_needs_no_recursion(self):
        # The refuting line is 1201 moves long, each a level of the search.
        partition = Partition((600, 600, 1))
        line = refute_restricted(partition, 600, BOB, "b1")
        assert line is not None
        record = record_playout(partition, 600, line, "search", "b1")
        assert record.outcome == "alice_won"

    def test_value_independent_of_input_order_and_rerun(self):
        a = chi_g(Partition.of([2, 3, 2]))
        b = chi_g(Partition.of([3, 2, 2]))
        c = chi_g(Partition.of([2, 2, 3]))
        assert a == b == c == 4

    def test_cache_round_trip(self, tmp_path):
        path = tmp_path / "wins.cache"
        vecs = {str(p): win_vector(p) for p in (Partition.of([3, 2]), Partition.of([2, 2, 2]))}
        save_cache(str(path), vecs)
        loaded = load_cache(str(path))
        assert loaded == vecs
        line = vecs["2,2,2"].to_cache_line()
        assert line == "2,2,2;5;0011" or line.startswith("2,2,2;5;")
        assert WinVector.from_cache_line(line) == vecs["2,2,2"]

    def test_cache_rejects_corrupt_lines(self):
        with pytest.raises(ValueError):
            WinVector.from_cache_line("2,2;9;01")
        with pytest.raises(ValueError):
            WinVector.from_cache_line("2,2;3;0x1")
        for line in ("3,3;3", "3,3;3;01111;9", "3,3;x;01111"):
            with pytest.raises(ValueError, match=re.escape(f"bad cache line: {line!r}")):
                WinVector.from_cache_line(line)
        with pytest.raises(ValueError, match="bits are not the threshold of chi_g 3"):
            WinVector.from_cache_line("3,3;3;00000")
        with pytest.raises(ValueError, match=re.escape("chi_g outside 4..7")):
            WinVector.from_cache_line("5,5,1,1;8;000011111")
        with pytest.raises(ValueError, match=re.escape("chi_g outside 3..4")):
            WinVector.from_cache_line("2,1,1;5;00")  # 2k - 1 = 5 > n = 4
        with pytest.raises(ValueError, match="bits are not the threshold of chi_g 3"):
            WinVector.from_cache_line("2,1,1;3;10")
        with pytest.raises(ValueError, match="bits are not the threshold of chi_g 4"):
            WinVector.from_cache_line("3,2,1,1;4;1011")  # not monotone; chi_g is 5

    def test_load_cache_missing_file(self, tmp_path):
        assert load_cache(str(tmp_path / "absent")) == {}


class TestRestricted:
    def test_lemma_values(self):
        assert restricted_value(Partition.of([4, 4, 4]), 5, ALICE, "a1")
        assert restricted_value(Partition.of([4, 4, 4]), 4, BOB, "b1")
        assert restricted_value(Partition.of([3, 3, 3]), 4, ALICE, "a2")
        assert restricted_value(Partition.of([3, 2, 2]), 4, ALICE, "a3")

    def test_restricted_never_beats_optimal(self):
        for p in all_partitions(8, "no-singletons"):
            vec = win_vector(p)
            k = p.k
            for budget in range(max(1, k - 1), p.n + 1):
                if restricted_value(p, budget, ALICE, "a1"):
                    assert vec.alice_wins(budget), (str(p), budget)
                if restricted_value(p, budget, BOB, "b1"):
                    assert not vec.alice_wins(budget), (str(p), budget)

    def test_universal_pass_implies_deterministic_pass(self):
        cases = [
            (Partition.of([4, 4, 4]), 5, ALICE, "a1"),
            (Partition.of([3, 3, 3]), 4, ALICE, "a2"),
            (Partition.of([3, 2, 2]), 4, ALICE, "a3"),
            (Partition.of([4, 4, 4]), 4, BOB, "b1"),
            (Partition.of([2, 2, 1, 1]), 4, BOB, "b1p"),
        ]
        for partition, budget, side, rule in cases:
            uni = restricted_value(partition, budget, side, rule, UNIVERSAL)
            det = restricted_value(partition, budget, side, rule, DETERMINISTIC)
            assert det or not uni  # universal win is the stronger claim

    def test_universal_guarantees_hold_for_headline_lemmas(self):
        """The headline guarantees hold for every admissible refinement."""
        assert restricted_value(Partition.of([4, 4, 4]), 5, ALICE, "a1", UNIVERSAL)
        assert restricted_value(Partition.of([3, 3, 3]), 4, ALICE, "a2", UNIVERSAL)
        assert restricted_value(Partition.of([4, 4, 4]), 4, BOB, "b1", UNIVERSAL)

    def test_refutation_is_lexicographically_first_and_replayable(self):
        p = Partition.of([4, 4, 4])
        line = refute_restricted(p, 4, ALICE, "a1")
        assert line is not None
        state = initial_state(p, 4)
        for move in line:
            assert move in legal_moves(state)
            state = apply_move(state, move)
        assert status(state) is GameStatus.BOB_WON

    def test_refutation_none_when_guaranteed(self):
        assert refute_restricted(Partition.of([4, 4, 4]), 5, ALICE, "a1") is None

    def test_bob_refutation_plays_out_to_alice_win(self):
        # The echo rule loses the singleton-heavy shape at k colors.
        p = Partition.of([2, 2, 1, 1])
        assert not restricted_value(p, 4, BOB, "b1")
        line = refute_restricted(p, 4, BOB, "b1")
        state = initial_state(p, 4)
        for move in line:
            state = apply_move(state, move)
        assert status(state) is GameStatus.ALICE_WON
        # while the singleton-aware variant holds the line
        assert restricted_value(p, 4, BOB, "b1p")

    def test_wrong_side_and_inapplicable_rejected(self):
        with pytest.raises(InapplicableStrategyError):
            restricted_value(Partition.of([4, 4]), 3, BOB, "a1")
        with pytest.raises(InapplicableStrategyError):
            restricted_value(Partition.of([5, 5, 1]), 3, ALICE, "a2")
        with pytest.raises(ValueError):
            restricted_value(Partition.of([4, 4]), 0, ALICE, "a1")
        with pytest.raises(ValueError):
            restricted_value(Partition.of([4, 4]), 9, ALICE, "a1")

    @pytest.mark.parametrize("name", ["random:0", "human"])
    @pytest.mark.parametrize("side", [ALICE, BOB])
    def test_unanalyzed_seats_rejected(self, name, side):
        # Their choices follow part order, which the search key drops.
        p = Partition.of([2, 2])
        with pytest.raises(InapplicableStrategyError):
            restricted_value(p, 2, side, name)
        with pytest.raises(InapplicableStrategyError):
            refute_restricted(p, 2, side, name)

    def test_the_pinned_seat_is_the_rules_own(self):
        """A seatless rule is refused before any other check, and a seat that
        is not the rule's own is refused by `check_seat`."""
        p = Partition.of([2, 2])
        with pytest.raises(InapplicableStrategyError, match="random:0 is not an analyzed rule"):
            refute_restricted(p, p.n + 3, ALICE, "random")
        with pytest.raises(InapplicableStrategyError, match="a1 is a rule for alice; it cannot"):
            refute_restricted(p, 3, "carol", "a1")

    def test_restricted_value_accepts_strategy_objects_and_names(self):
        from chromagame.strategies import get_strategy

        p = Partition.of([3, 3, 3])
        assert restricted_value(p, 4, ALICE, get_strategy("a2")) == restricted_value(
            p, 4, ALICE, "a2"
        )

    def test_a_rule_built_outside_the_table_runs_like_its_row(self):
        """Rules are values: a chain rebuilt from the table's clauses, with
        no class of its own, gives the same refutations as the named rule,
        and a2p is a1p's chain anchored on the first triple."""
        a1p_clauses = (strategies._singletons, strategies._start_or_fill)
        rebuilt = {
            "a1p": Rule("x", ALICE, a1p_clauses),
            "a2p": Rule(
                "y", ALICE, a1p_clauses, strategies._has_triple, anchor=strategies._first_triple
            ),
        }
        for sizes in [(3, 3, 1), (4, 3, 1, 1), (3, 2, 2, 1)]:
            p = Partition.of(sizes)
            for budget in range(1, p.n + 1):
                for name, rule in rebuilt.items():
                    for mode in (DETERMINISTIC, UNIVERSAL):
                        assert refute_restricted(p, budget, ALICE, rule, mode) == (
                            refute_restricted(p, budget, ALICE, name, mode)
                        )
        assert get_strategy("a1p") is get_strategy("a1p")

    @pytest.mark.parametrize("mode", [DETERMINISTIC, UNIVERSAL])
    def test_a_rule_with_no_matching_clause_raises(self, mode):
        """A pinned seat with no admissible move is an error in both modes,
        not a position won for it."""
        never = Rule("never", ALICE, (lambda state: [],))
        p = Partition((2, 2))
        for check in (refute_restricted, restricted_value, verify_guarantee):
            with pytest.raises(StrategyTotalityError, match="never: no clause matched"):
                check(p, 3, ALICE, never, mode)

    def test_a_rule_with_no_matching_clause_raises_in_play(self):
        """The totality check is the rule's own, so outside the searches (in
        both modes above) a move asked of it and a game played with it raise
        too."""
        never = Rule("never", ALICE, (lambda state: [],))
        p = Partition((2, 2))
        entries = [
            lambda: choose_move(never, initial_state(p, 3)),
            lambda: admissible_moves(never, initial_state(p, 3)),
            lambda: simulate(p, 3, never, "b1"),
        ]
        for entry in entries:
            with pytest.raises(StrategyTotalityError, match="^never: no clause matched$"):
                entry()


@pytest.mark.parametrize(
    "record, field",
    [
        (get_strategy("a1p"), "clauses"),
        (Partition((3, 3)), "sizes"),
        (WinVector(Partition((3, 3)), 3), "chi_g"),
        (BoundReport("table1", "exact", None, reason="singleton present"), "reason"),
    ],
    ids=["rule", "partition", "win_vector", "bound_report"],
)
def test_records_refuse_assignment(record, field):
    """Records are values: a field cannot be set, nor a new attribute added."""
    with pytest.raises(AttributeError):
        setattr(record, field, ())
    with pytest.raises(AttributeError):
        record.extra = ()


def test_transcript_color_choices_do_not_split_canonical_keys():
    """Playouts that differ only in which concrete colors were reused land on
    identical canonical keys ply by ply (colors are count-invisible)."""
    p = Partition.of([3, 3, 2])
    moves = [Move(0, True), Move(0, True), Move(0, False), Move(1, True)]
    a = initial_state(p, 5)
    b = initial_state(p, 5)
    for m in moves:
        a = apply_move(a, m)
        b = apply_move(b, m)
        assert canonicalize(a) == canonicalize(b)
