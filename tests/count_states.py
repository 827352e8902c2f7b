"""Exhaustive walk over the reachable count states of one game."""

from __future__ import annotations

from chromagame.core import GameStatus, apply_move, initial_state, legal_moves, status


def enumerate_count_states(partition, budget):
    """Every reachable count state, terminal or not, keyed on its per-part
    `(colored, distinct)` pairs. The model keeps only the total of the
    distinct counts (`used`); the walk tracks each part's own. The side to
    move is the parity of the colored total, so the pairs fix it."""
    start = initial_state(partition, budget)
    distinct = (0,) * partition.k
    found = {tuple(zip(start.colored, distinct)): start}
    stack = [(start, distinct)]
    while stack:
        state, distinct = stack.pop()
        if status(state) is not GameStatus.ONGOING:
            continue
        for m in legal_moves(state):
            nxt = apply_move(state, m)
            nxt_distinct = tuple(d + (m.fresh and i == m.part) for i, d in enumerate(distinct))
            counts = tuple(zip(nxt.colored, nxt_distinct))
            if counts not in found:
                found[counts] = nxt
                stack.append((nxt, nxt_distinct))
    return found
