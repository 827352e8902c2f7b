"""Core engine tests: move generation, application, terminal detection,
and equivalence with the vertex-explicit oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromagame.core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    IllegalMoveError,
    InputError,
    Move,
    Partition,
    apply_move,
    fixing_move_played,
    initial_state,
    legal_moves,
    partially_colored_parts,
    status,
    uncolored_parts,
)

from count_states import enumerate_count_states
from oracle import VertexGame, project_counts, project_moves, realize


def play_moves(state, moves):
    for m in moves:
        state = apply_move(state, m)
    return state


class TestPartition:
    def test_parse_sorts_and_validates(self):
        p = Partition.parse("3, 4,3 ,1,1")
        assert p.sizes == (4, 3, 3, 1, 1)
        assert p.k == 5
        assert p.n == 12
        assert str(p) == "4,3,3,1,1"
        assert p.label() == "K_{4,3,3,1,1}"

    @pytest.mark.parametrize("bad", ["", "0", "3,-1", "3,0,2", "a,b", "2,,"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            Partition.parse(bad)

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Partition((2, 3))
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((True,))  # bool is an int subclass, not a part size

    def test_of_accepts_any_order(self):
        assert Partition.of([1, 3, 2]).sizes == (3, 2, 1)


class TestGameState:
    def test_records_are_plain_tuples(self):
        assert Move(0, True) == (0, True)
        assert Move(1, False).action == "reuse" and str(Move(1, False)) == "(part 1, reuse)"
        p = Partition((2, 2))
        s = initial_state(p, budget=3)
        assert s == (p, (0, 0), 3, 0, None)
        assert s.turn == ALICE
        with pytest.raises(AttributeError):
            s.used = 1

    def test_consistent_direct_state_is_accepted(self):
        s = GameState(Partition((2, 2)), (1, 0), 3, used=1, last_move=Move(0, True))
        assert status(s) is GameStatus.ONGOING
        assert s == apply_move(initial_state(Partition((2, 2)), 3), Move(0, True))

    def test_started_part_without_a_used_color_is_rejected(self):
        # Formerly ONGOING with three legal moves.
        with pytest.raises(ValueError, match="started"):
            GameState(Partition((2, 2)), (1, 0), budget=3, used=0)

    def test_used_beyond_the_budget_is_rejected(self):
        # Formerly read as BOB_WON.
        with pytest.raises(ValueError, match="budget"):
            GameState(Partition((2, 2)), (1, 0), budget=3, used=7)

    @pytest.mark.parametrize("colored", [(1,), (1, 0, 0), (3, 0), (-1, 0)])
    def test_counts_must_fit_the_parts(self, colored):
        with pytest.raises(ValueError):
            GameState(Partition((2, 2)), colored, budget=3, used=1)

    @pytest.mark.parametrize(
        "colored, used, last_move",
        [
            ((1, 0), 1, Move(1, True)),  # formerly accepted: a move into an unstarted part
            ((1, 0), 1, Move(-1, True)),  # names no part; would mark the last part
            ((1, 0), 1, Move(2, True)),
            ((0, 0), 0, Move(0, True)),  # a last move before any move
        ],
    )
    def test_last_move_must_name_a_colored_part(self, colored, used, last_move):
        with pytest.raises(ValueError, match="last move"):
            GameState(Partition((2, 2)), colored, 3, used, last_move)

    def test_budget_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            GameState(Partition((2, 2)), (0, 0), budget=0)
        with pytest.raises(ValueError, match="budget"):
            initial_state(Partition((2, 2)), budget=0)

    def test_replace_checks_the_new_state(self):
        # Formerly an unchecked state that `status` read as ONGOING.
        s = initial_state(Partition((2, 2)), 3)
        with pytest.raises(InputError):
            s._replace(colored=(9, -1), budget=0)
        assert s._replace(budget=4) == initial_state(Partition((2, 2)), 4)


class TestLegalMoves:
    def test_empty_board_fresh_only(self):
        s = initial_state(Partition.of([2, 2]), budget=3)
        assert legal_moves(s) == [Move(0, True), Move(1, True)]

    def test_partial_part_offers_reuse(self):
        s = initial_state(Partition.of([2, 2]), budget=3)
        s = apply_move(s, Move(0, True))
        assert legal_moves(s) == [Move(0, True), Move(0, False), Move(1, True)]

    def test_exhausted_budget_with_unstarted_part_is_terminal(self):
        s = initial_state(Partition.of([2, 2]), budget=2)
        s = play_moves(s, [Move(0, True), Move(0, True)])
        assert status(s) is GameStatus.BOB_WON
        with pytest.raises(IllegalMoveError, match="game is over"):
            legal_moves(s)

    def test_terminal_rejects_move_application(self):
        s = initial_state(Partition.of([1]), budget=1)
        s = apply_move(s, Move(0, True))
        assert status(s) is GameStatus.ALICE_WON
        with pytest.raises(IllegalMoveError):
            apply_move(s, Move(0, False))


class TestApplyMove:
    def test_fresh_move_updates_counts_and_turn(self):
        s = initial_state(Partition.of([3, 3]), budget=5)
        s = apply_move(s, Move(0, True))
        assert s.colored == (1, 0)
        assert s.used == 1
        assert s.turn == BOB
        assert s.last_move == Move(0, True)

    def test_reuse_adds_no_color(self):
        s = initial_state(Partition.of([3, 3]), budget=5)
        s = play_moves(s, [Move(0, True), Move(0, False)])
        assert s.colored == (2, 0)
        assert s.used == 1

    def test_illegal_moves_rejected_with_reason(self):
        s = initial_state(Partition.of([2, 2]), budget=2)
        with pytest.raises(IllegalMoveError, match="reuse"):
            apply_move(s, Move(0, False))
        with pytest.raises(IllegalMoveError, match="no such part"):
            apply_move(s, Move(9, True))
        s = play_moves(s, [Move(0, True), Move(1, True)])
        with pytest.raises(IllegalMoveError, match="budget"):
            apply_move(s, Move(0, True))
        s = apply_move(s, Move(0, False))
        with pytest.raises(IllegalMoveError, match="fully colored"):
            apply_move(s, Move(0, False))


class TestStatus:
    def test_all_full_is_alice_win(self):
        s = initial_state(Partition.of([1, 1]), budget=2)
        s = play_moves(s, [Move(0, True), Move(1, True)])
        assert status(s) is GameStatus.ALICE_WON

    def test_two_colors_buried_in_one_part(self):
        s = initial_state(Partition.of([2, 2]), budget=2)
        s = play_moves(s, [Move(0, True), Move(0, True)])
        assert status(s) is GameStatus.BOB_WON
        assert not fixing_move_played(s)

    def test_fixing_move_flag(self):
        s = initial_state(Partition.of([3, 2]), budget=4)
        assert not fixing_move_played(s)
        s = apply_move(s, Move(0, True))
        assert not fixing_move_played(s)
        s = apply_move(s, Move(1, True))
        assert fixing_move_played(s)


SMALL_BOARDS = [
    ((1,), 1),
    ((2, 1), 2),
    ((2, 2), 2),
    ((2, 2), 3),
    ((3, 2), 3),
    ((2, 2, 2), 4),
    ((3, 3), 2),
    ((3, 3, 1), 3),
    ((4, 4), 3),
    ((2, 2, 2, 2), 5),
    ((3, 2, 2, 1), 5),
    ((5, 3), 4),
    ((4, 2, 1, 1), 8),
]


@pytest.mark.parametrize("sizes,budget", SMALL_BOARDS)
def test_oracle_state_equivalence(sizes, budget):
    """Every reachable count state matches the vertex oracle: same move set,
    corresponding status, and (for eager Bob wins) provable incompletability."""
    partition = Partition.of(sizes)
    game = VertexGame(partition.sizes, budget)
    states = enumerate_count_states(partition, budget)
    assert len(states) > 1
    for counts, state in states.items():
        assert state.used == sum(d for _c, d in counts)
        assignment = realize(partition.sizes, counts, budget)
        assert project_counts(assignment) == counts
        st_ = status(state)
        if fixing_move_played(state):
            # started boards can only terminate fully colored
            assert st_ is not GameStatus.BOB_WON
            if st_ is GameStatus.ONGOING:
                assert legal_moves(state)
        if st_ is GameStatus.ALICE_WON:
            assert game.result(assignment) == "alice_won"
        elif st_ is GameStatus.BOB_WON:
            # The oracle may still see legal moves; what it must confirm is
            # that no continuation whatsoever completes the coloring.
            assert game.result(assignment) != "alice_won"
            assert not game.completion_reachable(assignment)
        else:
            assert game.result(assignment) is None
            expected = {(m.part, m.fresh) for m in legal_moves(state)}
            assert project_moves(game, assignment) == expected


@pytest.mark.parametrize("sizes,budget", [((4, 4, 4), 5)])
def test_started_board_always_completes(sizes, budget):
    """Once every part is started, every continuation ends with Alice's win."""
    partition = Partition.of(sizes)
    state = initial_state(partition, budget)
    for i in range(partition.k):
        state = apply_move(state, Move(i, True))
    assert fixing_move_played(state)
    seen = set()
    frontier = [state]
    while frontier:
        s = frontier.pop()
        key = (s.colored, s.used)
        if key in seen:
            continue
        seen.add(key)
        st_ = status(s)
        assert st_ is not GameStatus.BOB_WON
        if st_ is GameStatus.ONGOING:
            frontier.extend(apply_move(s, m) for m in legal_moves(s))


@st.composite
def random_playout(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    partition = Partition.of(sizes)
    budget = draw(st.integers(1, partition.n))
    seed = draw(st.integers(0, 2**30))
    rng = random.Random(seed)
    state = initial_state(partition, budget)
    moves = []
    while status(state) is GameStatus.ONGOING:
        m = rng.choice(legal_moves(state))
        moves.append(m)
        state = apply_move(state, m)
    return partition, budget, moves, state


@given(random_playout())
@settings(max_examples=200, deadline=None)
def test_playout_invariants_and_replay(playout):
    partition, budget, moves, final = playout
    state = initial_state(partition, budget)
    distinct = [0] * partition.k
    fixing_seen = False
    for i, m in enumerate(moves):
        state = apply_move(state, m)
        distinct[m.part] += m.fresh
        assert state.used <= state.budget
        assert state.used == sum(distinct)
        for size, colored, d in zip(partition.sizes, state.colored, distinct):
            assert 0 <= d <= colored <= size
        assert state.turn == (ALICE if (i + 1) % 2 == 0 else BOB)
        fixing_seen = fixing_seen or fixing_move_played(state)
    # replay reproduces the recorded final position
    assert state == final
    # fixing move / outcome equivalence
    if status(state) is GameStatus.ALICE_WON:
        assert fixing_seen
    else:
        assert status(state) is GameStatus.BOB_WON
        assert not fixing_seen
        assert not fixing_move_played(state)


@given(random_playout())
@settings(max_examples=100, deadline=None)
def test_playout_part_classes_are_consistent(playout):
    _partition, _budget, _moves, final = playout
    unc = set(uncolored_parts(final))
    part = set(partially_colored_parts(final))
    full = {i for i, (size, colored) in enumerate(zip(final.partition.sizes, final.colored))
            if colored == size}
    assert unc | part | full == set(range(len(final.colored)))
    assert not (unc & part) and not (unc & full) and not (part & full)
