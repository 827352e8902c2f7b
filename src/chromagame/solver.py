"""Exact game evaluation by memoized minimax over count states.

Two symmetries collapse the search space: parts of equal size are
interchangeable, and concrete colors are interchangeable. Both are already
implicit in the count-based state model, so the transposition key is just
the sorted multiset of per-part count tuples plus the remaining budget and
the turn.

A third structural fact ends the search early: once every part has at least
one colored vertex, reuse keeps every remaining vertex colorable, so the
game can only finish fully colored. Positions past that point are decided
leaves. The core test suite verifies this against the vertex-explicit
oracle rather than assuming it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Hashable, Optional

from .core import (
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
    play,
    status,
)
from .formulas import table1_chi_g
from .strategies import (
    InapplicableStrategyError,
    Strategy,
    get_strategy,
)

DETERMINISTIC = "deterministic"
UNIVERSAL = "universal"


def canonicalize(state: GameState) -> tuple:
    """Symmetry-reduced fingerprint; equal keys imply equal game value."""
    parts = tuple(sorted((p.size, p.colored, p.distinct) for p in state.parts))
    return (parts, state.budget - state.used, state.turn)


def alice_wins(partition: Partition, budget: int) -> bool:
    """True iff Alice has a winning strategy with exactly `budget` colors."""
    if not 1 <= budget <= partition.n:
        raise ValueError(f"budget must be in 1..{partition.n}")
    memo: dict[tuple, bool] = {}

    def solve(state: GameState) -> bool:
        st = status(state)
        if st is not GameStatus.ONGOING:
            return st is GameStatus.ALICE_WON
        if fixing_move_played(state):
            return True
        key = canonicalize(state)
        cached = memo.get(key)
        if cached is not None:
            return cached
        children = (solve(apply_move(state, m)) for m in legal_moves(state))
        if state.turn == ALICE:
            value = any(children)
        else:
            value = all(children)
        memo[key] = value
        return value

    return solve(initial_state(partition, budget))


@dataclass(frozen=True)
class WinVector:
    """Optimal-play outcome for every budget t = 1..n on one partition."""

    partition: Partition
    wins: tuple[bool, ...]

    def alice_wins(self, budget: int) -> bool:
        return self.wins[budget - 1]

    @property
    def chi_g(self) -> int:
        """Smallest budget with which Alice wins."""
        return self.wins.index(True) + 1

    @property
    def anomalies(self) -> tuple[int, ...]:
        """Budgets t where Alice wins but loses at t+1 (none are expected,
        but monotonicity in t is not a proven fact on this graph class)."""
        return tuple(
            t
            for t in range(1, self.partition.n)
            if self.wins[t - 1] and not self.wins[t]
        )

    @property
    def monotone(self) -> bool:
        return not self.anomalies

    def bitstring(self) -> str:
        """Win flags for t = k..n as '0'/'1' characters."""
        k = self.partition.k
        return "".join("1" if w else "0" for w in self.wins[k - 1 :])

    def to_cache_line(self) -> str:
        return f"{self.partition};{self.chi_g};{self.bitstring()}"

    @classmethod
    def from_cache_line(cls, line: str) -> "WinVector":
        part_text, chi_text, bits = line.strip().split(";")
        partition = Partition.parse(part_text)
        k = partition.k
        if len(bits) != partition.n - k + 1 or any(b not in "01" for b in bits):
            raise ValueError(f"bad cache line: {line!r}")
        wins = tuple([False] * (k - 1) + [b == "1" for b in bits])
        vec = cls(partition, wins)
        if vec.chi_g != int(chi_text):
            raise ValueError(f"cache line value mismatch: {line!r}")
        # Cheap consistency checks, not a re-solve: n colors always let
        # Alice color every vertex, and the table is exact where it applies.
        if not wins[-1]:
            raise ValueError(f"cache line has Alice losing with n colors: {line!r}")
        table = table1_chi_g(partition)
        if table is not None and table != vec.chi_g:
            raise ValueError(f"cache line contradicts the table value {table}: {line!r}")
        return vec


def win_vector(partition: Partition) -> WinVector:
    """Solve every budget. Budgets below k cannot even color the k mutually
    adjacent parts, so they are settled without search."""
    wins = [False] * (partition.k - 1)
    for t in range(partition.k, partition.n + 1):
        wins.append(alice_wins(partition, t))
    return WinVector(partition, tuple(wins))


def chi_g(partition: Partition) -> int:
    return win_vector(partition).chi_g


def load_cache(path: str) -> dict[str, WinVector]:
    """Read the on-disk win-vector cache (one record per line)."""
    cache: dict[str, WinVector] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                vec = WinVector.from_cache_line(line)
                cache[str(vec.partition)] = vec
    except FileNotFoundError:
        pass
    return cache


def save_cache(path: str, cache: dict[str, WinVector]) -> None:
    """Write the cache to a temp file beside `path`, then rename it into
    place, so a crash or a concurrent reader never sees a partial file."""
    lines = [cache[key].to_cache_line() for key in sorted(cache)]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def cached_win_vector(partition: Partition, cache: Optional[dict[str, WinVector]]) -> WinVector:
    if cache is None:
        return win_vector(partition)
    key = str(partition)
    vec = cache.get(key)
    if vec is None:
        vec = win_vector(partition)
        cache[key] = vec
    return vec


class _RestrictedSearch:
    """Game search with one seat pinned to a fixed rule.

    The pinned seat plays its deterministic move (or, in universal mode,
    must succeed with every admissible move); the other seat ranges over
    all legal moves. The value is True iff the pinned seat reaches its goal
    against every line.
    """

    def __init__(self, strategy: Strategy, fixed_side: str, mode: str):
        self.strategy = strategy
        self.fixed_side = fixed_side
        self.goal_alice = fixed_side == ALICE
        self.universal = mode == UNIVERSAL
        self.memo: dict[tuple, bool] = {}

    def key(self, state: GameState, aux: Hashable) -> tuple:
        flags = self.strategy.part_flags(aux, state)
        last = state.last_move.part if (
            self.strategy.needs_last_move and state.last_move is not None
        ) else None
        parts = tuple(
            sorted(
                (
                    p.size,
                    p.colored,
                    p.distinct,
                    flags[i] if flags else 0,
                    1 if i == last else 0,
                )
                for i, p in enumerate(state.parts)
            )
        )
        return (
            parts,
            state.budget - state.used,
            state.turn,
            self.strategy.memo_extra(aux, state),
        )

    def moves_for(self, state: GameState, aux: Hashable) -> list[Move]:
        if state.turn == self.fixed_side:
            if self.universal:
                return self.strategy.admissible(aux, state)
            return [self.strategy.choose(aux, state)]
        return legal_moves(state)

    def achieved(self, state: GameState, aux: Hashable) -> bool:
        st = status(state)
        if st is not GameStatus.ONGOING:
            return (st is GameStatus.ALICE_WON) == self.goal_alice
        if fixing_move_played(state):
            return self.goal_alice
        key = self.key(state, aux)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        value = all(
            self.achieved(apply_move(state, m), self.strategy.advance(aux, state, m))
            for m in self.moves_for(state, aux)
        )
        self.memo[key] = value
        return value

    def refutation(self, state: GameState, aux: Hashable) -> list[Move]:
        """First failing line in canonical search order; the returned play
        is extended to an actual terminal so it replays to a full game."""

        def pick(current: GameState) -> Optional[Move]:
            nonlocal state, aux
            if current is not state:
                aux = self.strategy.advance(aux, state, current.last_move)
                state = current
            if status(state) is not GameStatus.ONGOING:
                return None
            if fixing_move_played(state):
                # goal failure settled (Bob's seat); play out to the win.
                if state.turn == self.fixed_side:
                    return self.strategy.choose(aux, state)
                return legal_moves(state)[0]
            return next(
                m
                for m in self.moves_for(state, aux)
                if not self.achieved(
                    apply_move(state, m), self.strategy.advance(aux, state, m)
                )
            )

        return [move for _before, move, _after in play(state, pick)]


def _resolve(strategy: Strategy | str) -> Strategy:
    if isinstance(strategy, str):
        return get_strategy(strategy)
    return strategy


def _check_restricted_args(
    partition: Partition, budget: int, fixed_side: str, strategy: Strategy
) -> None:
    if fixed_side not in (ALICE, BOB):
        raise ValueError(f"fixed_side must be {ALICE!r} or {BOB!r}")
    if not 1 <= budget <= partition.n:
        raise ValueError(f"budget must be in 1..{partition.n}")
    if not strategy.is_applicable(partition):
        raise InapplicableStrategyError(
            f"{strategy.id} is not applicable to {partition.label()}"
        )
    if strategy.side is not None and strategy.side != fixed_side:
        raise InapplicableStrategyError(
            f"{strategy.id} is a rule for {strategy.side}, not {fixed_side}"
        )


def restricted_value(
    partition: Partition,
    budget: int,
    fixed_side: str,
    strategy: Strategy | str,
    mode: str = DETERMINISTIC,
) -> bool:
    """Does `fixed_side`, pinned to `strategy`, reach its goal against every
    opponent line? (Alice's goal: full coloring; Bob's: a stuck part.)"""
    strategy = _resolve(strategy)
    _check_restricted_args(partition, budget, fixed_side, strategy)
    search = _RestrictedSearch(strategy, fixed_side, mode)
    state = initial_state(partition, budget)
    return search.achieved(state, strategy.initial_aux(partition))


def refute_restricted(
    partition: Partition,
    budget: int,
    fixed_side: str,
    strategy: Strategy | str,
    mode: str = DETERMINISTIC,
) -> Optional[list[Move]]:
    """None when the pinned seat's goal is guaranteed; otherwise the first
    failing line in deterministic search order, played out to a terminal."""
    strategy = _resolve(strategy)
    _check_restricted_args(partition, budget, fixed_side, strategy)
    search = _RestrictedSearch(strategy, fixed_side, mode)
    state = initial_state(partition, budget)
    aux = strategy.initial_aux(partition)
    if search.achieved(state, aux):
        return None
    return search.refutation(state, aux)
