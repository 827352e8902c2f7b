"""Strategy rule tests: clause behavior, applicability, and the structural
invariants each rule is supposed to maintain, checked by exhaustive
adversarial walks on small boards."""

from __future__ import annotations

import random

import pytest

from chromagame.core import (
    ALICE,
    BOB,
    GameStatus,
    Move,
    Partition,
    apply_move,
    initial_state,
    legal_moves,
    play,
    status,
)
from chromagame.strategies import (
    InapplicableStrategyError,
    Rule,
    admissible_moves,
    choose_move,
    get_strategy,
    is_applicable,
)


def walk_adversary(strategy, partition, budget, visit):
    """Drive the owner's rule against every opponent line.

    `visit(state, move, nxt, marks)` is called for each owner move, with
    `marks` holding each part's (distinct colors, mover of its first move)
    after it; opponent nodes branch over all legal moves. States are
    deduplicated on full history-relevant content, marks included, so the
    walk terminates quickly.
    """
    owner = strategy.side
    seen = set()

    def key(state, rule, marks):
        return (
            state.colored,
            marks,
            (state.last_move.part, state.last_move.fresh) if state.last_move else None,
            rule,
        )

    def marked(marks, state, move):
        distinct, starter = marks[move.part]
        mark = (distinct + move.fresh, starter or state.turn)
        return marks[: move.part] + (mark,) + marks[move.part + 1 :]

    def rec(state, rule, marks):
        if status(state) is not GameStatus.ONGOING:
            return
        k = key(state, rule, marks)
        if k in seen:
            return
        seen.add(k)
        if state.turn == owner:
            move = rule.choose(state)
            nxt, nxt_marks = apply_move(state, move), marked(marks, state, move)
            visit(state, move, nxt, nxt_marks)
            rec(nxt, rule.advance(nxt), nxt_marks)
        else:
            for move in legal_moves(state):
                nxt = apply_move(state, move)
                rec(nxt, rule.advance(nxt), marked(marks, state, move))

    marks = ((0, None),) * partition.k
    rec(initial_state(partition, budget), strategy, marks)


class TestApplicability:
    @pytest.mark.parametrize(
        "name,sizes,expected",
        [
            ("a1", (5, 5, 1), True),
            ("a2", (5, 5, 1), False),
            ("a2", (3, 3, 3), True),
            ("a2", (4, 3), True),
            ("a3", (3, 2, 2), True),
            ("a3", (2, 2), False),
            ("acomposite", (4, 3, 3, 3, 1, 1), True),
            ("acomposite", (4, 3, 3, 1, 1), False),
            ("acomposite", (4, 4, 3, 3, 3, 1, 1), False),
            ("acomposite", (4, 3, 3, 3, 3, 1, 1), True),
            ("b1", (1,), True),
            ("b1p", (2, 2, 1, 1), True),
        ],
    )
    def test_matrix(self, name, sizes, expected):
        assert is_applicable(name, Partition.of(sizes)) is expected

    def test_inapplicable_rejected(self):
        p = Partition.of([5, 5, 1])
        with pytest.raises(InapplicableStrategyError):
            choose_move(get_strategy("a2"), initial_state(p, 5))

    @pytest.mark.parametrize("pick", [choose_move, admissible_moves])
    def test_wrong_turn_and_finished_game_rejected(self, pick):
        p = Partition.of([2, 2])
        b1 = get_strategy("b1")
        with pytest.raises(InapplicableStrategyError, match="cannot play as alice"):
            pick(b1, initial_state(p, 3))
        a1 = get_strategy("a1")
        full = [Move(0, True), Move(0, False), Move(1, True), Move(1, False)]
        rule, state = ctx_after(a1, p, 3, full)
        assert status(state) is GameStatus.ALICE_WON and state.turn == ALICE
        with pytest.raises(ValueError, match="game is over"):
            pick(rule, state)
        # an odd-length finished game is over for either seat, not the wrong seat
        q = Partition.of([2, 1])
        rule, state = ctx_after(a1, q, 3, [Move(0, True), Move(1, True), Move(0, False)])
        assert status(state) is GameStatus.ALICE_WON and state.turn == BOB
        for seat in (rule, b1):
            with pytest.raises(ValueError, match="game is over"):
                pick(seat, state)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_strategy("a9")
        with pytest.raises(ValueError):
            get_strategy("random:x")
        assert get_strategy("random:-5").id == "random:-5"


def ctx_after(strategy, partition, budget, moves):
    """The (rule value, state) after replaying `moves` through `core.play`."""
    state, rule = initial_state(partition, budget), strategy
    script = iter(moves)
    for _before, _move, state in play(state, lambda _state: next(script, None)):
        rule = rule.advance(state)
    return rule, state


class TestChooseExamples:
    def test_fresh_starter_opens_lowest_part(self):
        p = Partition.of([4, 4, 4])
        a1 = get_strategy("a1")
        ctx = ctx_after(a1, p, 5, [])
        assert choose_move(*ctx) == Move(0, True)
        assert admissible_moves(*ctx) == [Move(0, True), Move(1, True), Move(2, True)]

    def test_triple_anchor_mirrors_bob_in_anchor(self):
        p = Partition.of([3, 3, 3])
        a2 = get_strategy("a2")
        ctx = ctx_after(a2, p, 4, [])
        assert choose_move(*ctx) == Move(0, True)  # anchor part opened first
        ctx = ctx_after(a2, p, 4, [Move(0, True), Move(0, True)])
        assert choose_move(*ctx) == Move(0, False)  # repeat Bob's color there

    def test_triple_anchor_falls_through_when_anchor_full(self):
        p = Partition.of([3, 3, 3])
        a2 = get_strategy("a2")
        moves = [Move(0, True), Move(1, True), Move(0, False), Move(0, True)]
        # Bob just filled the anchor; the mirror clause cannot apply.
        ctx = ctx_after(a2, p, 9, moves)
        assert choose_move(*ctx) == Move(2, True)

    def test_odd_opener_first_move_smallest_odd(self):
        p = Partition.of([3, 2, 2])
        a3 = get_strategy("a3")
        ctx = ctx_after(a3, p, 4, [])
        assert choose_move(*ctx) == Move(0, True)
        p = Partition.of([5, 3, 2, 1])
        ctx = ctx_after(a3, p, 6, [])
        assert choose_move(*ctx) == Move(3, True)  # the singleton is smallest odd

    def test_echo_responder_answers_in_alices_part(self):
        p = Partition.of([4, 4, 4])
        b1 = get_strategy("b1")
        ctx = ctx_after(b1, p, 4, [Move(0, True)])
        assert choose_move(*ctx) == Move(0, True)

    def test_echo_responder_prefers_fullest_partial(self):
        p = Partition.of([4, 3, 2])
        b1 = get_strategy("b1")
        # Alice just filled part 1; of the partial parts, part 2 has one
        # uncolored vertex left while part 0 has three.
        moves = [Move(2, True), Move(0, True), Move(1, True), Move(1, True), Move(1, False)]
        ctx = ctx_after(b1, p, 9, moves)
        assert choose_move(*ctx) == Move(2, True)

    def test_echo_responder_starts_largest(self):
        p = Partition.of([4, 2, 1, 1])
        b1 = get_strategy("b1")
        ctx = ctx_after(b1, p, 8, [Move(2, True)])  # Alice filled a singleton
        assert choose_move(*ctx) == Move(0, True)

    def test_small_last_echo_takes_singleton_before_pair(self):
        p = Partition.of([2, 2, 1, 1])
        b1p = get_strategy("b1p")
        ctx = ctx_after(b1p, p, 4, [Move(2, True)])
        assert choose_move(*ctx) == Move(3, True)
        b1 = get_strategy("b1")
        ctx = ctx_after(b1, p, 4, [Move(2, True)])
        assert choose_move(*ctx) == Move(0, True)

    def test_singleton_rules_fire_first(self):
        p = Partition.of([4, 3, 1])
        a1p = get_strategy("a1p")
        ctx = ctx_after(a1p, p, 8, [])
        assert choose_move(*ctx) == Move(2, True)
        a3p = get_strategy("a3p")
        podd = Partition.of([4, 3, 1, 1])
        ctx = ctx_after(a3p, podd, 8, [])
        assert choose_move(*ctx) == Move(2, True)
        # a2p opens its anchor part before grabbing the singleton
        a2p = get_strategy("a2p")
        ctx = ctx_after(a2p, p, 8, [])
        assert choose_move(*ctx) == Move(1, True)
        ctx = ctx_after(a2p, p, 8, [Move(1, True), Move(0, True)])
        assert choose_move(*ctx) == Move(2, True)

    def test_composite_opening_script(self):
        p = Partition.of([4, 3, 3, 3, 1, 1])
        comp = get_strategy("acomposite")
        ctx = ctx_after(comp, p, 8, [])
        assert choose_move(*ctx) == Move(4, True)  # first singleton
        # Bob answers in the other singleton: anchor play takes over
        ctx = ctx_after(comp, p, 8, [Move(4, True), Move(5, True)])
        assert choose_move(*ctx) == Move(1, True)
        # Bob answers in a triple: fill the other singleton first
        ctx = ctx_after(comp, p, 8, [Move(4, True), Move(2, True)])
        assert choose_move(*ctx) == Move(5, True)
        # Bob contests the size-4 part: join it with a reuse
        ctx = ctx_after(comp, p, 8, [Move(4, True), Move(0, True)])
        assert choose_move(*ctx) == Move(0, False)
        # ... and complete it if Bob stays there
        ctx = ctx_after(
            comp, p, 8, [Move(4, True), Move(0, True), Move(0, False), Move(0, True)]
        )
        assert choose_move(*ctx) == Move(0, False)


def test_composite_opening_hands_over_to_table_rows():
    """Each of acomposite's hand-overs is a table row: a2 or a2p anchored on
    the triple the script picks, or a1p itself. There is one value per (row,
    anchor part), so two routes to one hand-over give the same value."""
    p = Partition.of([4, 3, 3, 3, 1, 1])
    comp, a1p, a2, a2p = (get_strategy(name) for name in ("acomposite", "a1p", "a2", "a2p"))
    open_, reuse = Move(4, True), Move(0, False)  # the script's moves

    def handed_over(*moves):
        rule, state = ctx_after(comp, p, 8, moves)
        assert isinstance(rule, Rule), moves
        return rule, rule.anchor_part(state)

    routes = {
        # the other singleton: a2 on the first triple
        (open_, Move(5, True)): (a2, 1),
        # a triple: the second singleton, then a2 on that triple
        **{(open_, Move(j, True), Move(5, True), Move(0, True)): (a2, j) for j in (1, 2, 3)},
        # the size-4 part twice: a2p on the triple of the third reply, else on the first
        **{
            (open_, Move(0, True), reuse, Move(0, True), reuse, Move(j, True)): (a2p, j)
            for j in (1, 2, 3)
        },
        (open_, Move(0, True), reuse, Move(0, True), reuse, Move(5, True)): (a2p, 1),
    }
    values = {}
    for moves, (row, anchor) in routes.items():
        rule, part = handed_over(*moves)
        assert (rule.id, rule.side, rule.clauses, rule.applies) == (
            row.id, row.side, row.clauses, row.applies
        ), moves
        assert part == anchor, moves
        assert values.setdefault((row.id, anchor), rule) is rule, moves
    assert len(values) == 6  # a2 on 1 and a2p on 1 are each reached by two routes
    # the size-4 part, then elsewhere: a1p
    assert handed_over(open_, Move(0, True), reuse, Move(1, True)) == (a1p, None)


ODD_SHAPES = [(3,), (3, 2), (3, 2, 2), (5, 2, 2), (3, 3, 3), (3, 2, 2, 2), (1,), (5, 3, 1)]


@pytest.mark.parametrize("sizes", ODD_SHAPES)
def test_odd_opener_never_starts_even_parts_and_is_total(sizes):
    partition = Partition.of(sizes)
    a3 = get_strategy("a3")

    def visit(state, move, nxt, _marks):
        assert move in legal_moves(state)
        if state.colored[move.part] == 0:
            assert partition.sizes[move.part] % 2 == 1

    for budget in range(1, partition.n + 1):
        # choose() raising would fail the walk; that is the totality check.
        walk_adversary(a3, partition, budget, visit)


BOB_SHAPES = [(2, 2), (3, 3), (4, 4), (3, 2, 2), (2, 2, 2), (4, 3, 1), (3, 3, 1), (2, 2, 1, 1)]


@pytest.mark.parametrize("sizes", BOB_SHAPES)
def test_echo_responder_b_singleton_invariant(sizes):
    """After every move by the echo rule, at most one part is a B-singleton
    (exactly one colored vertex, colored by Bob)."""
    partition = Partition.of(sizes)
    b1 = get_strategy("b1")

    def visit(state, move, nxt, marks):
        b_singletons = [
            c for c, (_d, starter) in zip(nxt.colored, marks) if c == 1 and starter == BOB
        ]
        assert len(b_singletons) <= 1

    for budget in range(1, partition.n + 1):
        walk_adversary(b1, partition, budget, visit)


@pytest.mark.parametrize("sizes", [(2, 2), (4, 4), (3, 2, 2), (2, 2, 2), (4, 3, 2), (5, 4)])
def test_echo_variants_coincide_without_singletons(sizes):
    """The two echo rules are move-for-move identical when r_k >= 2."""
    partition = Partition.of(sizes)
    b1 = get_strategy("b1")
    b1p = get_strategy("b1p")

    def visit(state, move, nxt, _marks):
        assert b1p.choose(state) == move

    for budget in range(1, partition.n + 1):
        walk_adversary(b1, partition, budget, visit)


ALL_RULES = ["a1", "a1p", "a2", "a2p", "a3", "a3p", "b1", "b1p", "acomposite"]


@pytest.mark.parametrize("name", ALL_RULES)
def test_choice_is_first_admissible_and_legal(name):
    strategy = get_strategy(name)
    shapes = [(3, 3, 3), (4, 3, 2), (3, 2, 2), (4, 3, 3, 3, 1, 1), (5, 3, 1)]
    rng = random.Random(7)
    for sizes in shapes:
        partition = Partition.of(sizes)
        if not strategy.is_applicable(partition):
            continue
        for budget in (max(2, partition.k - 1), partition.k + 1, partition.n):
            for _trial in range(20):
                state, rule = initial_state(partition, budget), strategy
                while status(state) is GameStatus.ONGOING:
                    if state.turn == strategy.side:
                        moves = admissible_moves(rule, state)
                        pick = choose_move(rule, state)
                        legal = legal_moves(state)
                        assert pick == moves[0]
                        assert all(m in legal for m in moves)
                        if len(moves) == 1:
                            assert pick == moves[0]
                        move = pick
                    else:
                        move = rng.choice(legal_moves(state))
                    state = apply_move(state, move)
                    rule = rule.advance(state)


def test_context_rebuilds_from_history():
    p = Partition.of([4, 3, 3, 3, 1, 1])
    comp = get_strategy("acomposite")
    moves = [Move(4, True), Move(0, True), Move(0, False), Move(0, True), Move(0, False)]
    rebuilt_rule, rebuilt_state = ctx_after(comp, p, 8, moves)
    # the close row: the scripted reuse, then a2p on the triple replied in
    closing, before = ctx_after(comp, p, 8, moves[:-1])
    assert closing is rebuilt_rule
    assert closing.admissible(before) == [Move(0, False)]
    for j in (1, 2, 3):
        replied = apply_move(rebuilt_state, Move(j, True))
        handed = rebuilt_rule.advance(replied)
        assert (handed.id, handed.anchor_part(replied)) == ("a2p", j)
    # step-by-step advance agrees with the rebuild through core.play
    state, rule = initial_state(p, 8), comp
    for m in moves:
        state = apply_move(state, m)
        rule = rule.advance(state)
    assert rule == rebuilt_rule
    assert state == rebuilt_state


def test_random_strategy_is_seed_deterministic():
    p = Partition.of([3, 3, 2])
    r7 = get_strategy("random:7")
    r7b = get_strategy("random:7")
    r8 = get_strategy("random:8")
    state = initial_state(p, 4)
    seen_diff = False
    while status(state) is GameStatus.ONGOING:
        assert r7.choose(state) == r7b.choose(state)
        if r7.choose(state) != r8.choose(state):
            seen_diff = True
        state = apply_move(state, r7.choose(state))
    assert r7.id == "random:7"
    # different seeds at least occasionally pick differently
    assert seen_diff or p.n < 4


def test_seats_are_values_fixed_by_name():
    assert get_strategy("random") == get_strategy("random:0")
    assert get_strategy("random").id == "random:0"
    r7, r7b = get_strategy("random:7"), get_strategy("random:7")
    assert r7 == r7b and hash(r7) == hash(r7b)
    assert r7 != get_strategy("random:8")
    assert get_strategy("human") == get_strategy("human")


def test_human_requires_session():
    p = Partition.of([2, 2])
    human = get_strategy("human")
    with pytest.raises(InapplicableStrategyError):
        human.choose(initial_state(p, 3))


@pytest.mark.parametrize("name", ["random:1", "human"])
def test_unrestricted_seats_allow_every_legal_move(name):
    """`random` and `human` take the base class's `admissible`: every legal move."""
    p = Partition.of([3, 2, 1])
    _rule, state = ctx_after(get_strategy("a1"), p, 4, [Move(0, True), Move(0, False)])
    assert status(state) is GameStatus.ONGOING
    assert admissible_moves(name, state) == legal_moves(state)


def test_choose_move_takes_a_name():
    state = initial_state(Partition.of([3, 3, 1]), 4)
    for pick in (choose_move, admissible_moves):
        assert pick("a1p", state) == pick(get_strategy("a1p"), state)

