"""Exact game evaluation by minimax over pooled keys (see `canonicalize`).
The test suite checks the reduction against the vertex-explicit oracle."""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

from .core import (
    ALICE,
    BOB,
    GameState,
    GameStatus,
    InputError,
    Move,
    Partition,
    apply_move,
    check_budget,
    check_partition,
    initial_state,
    legal_moves,
    status,
)
from .formulas import fresh_starter_budget, table1_chi_g
from .strategies import (
    InapplicableStrategyError,
    Rule,
    Strategy,
    as_strategy,
    check_seat,
)

DETERMINISTIC = "deterministic"
UNIVERSAL = "universal"


def canonicalize(state: GameState) -> tuple:
    """The pooled key `(sizes of unstarted parts, uncolored vertices in
    started parts, colors left, turn)`; equal keys imply equal game value.

    Full parts are inert. A started part takes a reuse of its own color on
    every vertex it has left, and a fresh color while the budget lasts, so
    started parts differ only in how many vertices they have left, and only
    the total matters. The key holds the counts that `decided` reads.
    """
    pairs = tuple(zip(state.partition.sizes, state.colored))
    unstarted = tuple(size for size, colored in pairs if not colored)  # sizes are sorted
    pool = sum(size - colored for size, colored in pairs if colored)
    return (unstarted, pool, state.budget - state.used, state.turn)


def decided(unstarted: int, left: int) -> Optional[bool]:
    """Alice's value of a position with `unstarted` unstarted parts and
    `left` colors left, if a counting law settles it whatever is played;
    else None.

    - No part unstarted: Alice has won, as the game can only end fully
      colored (see `core.fixing_move_played`).
    - Fewer colors left than unstarted parts: Bob has won. A color used in
      one part is illegal in every other, so each unstarted part needs a
      new color of its own and some part can never be colored. While a
      color is left, a fresh move into an unstarted part stays legal, so
      play ends with the budget spent and a part unstarted.

    A move starts at most one part, and only with a new color, so no part
    is unstarted again and `left - unstarted` never rises: every position
    reachable from a decided one is decided alike. Every terminal position
    is decided: a full board has no part unstarted, and Bob wins with a
    part unstarted and no color left. So the pinned search's walk may go on
    from a lost position by any moves and end in a loss.
    """
    if not unstarted or left < unstarted:
        return not unstarted
    return None


def _value(key: tuple, memo: dict[tuple, bool]) -> bool:
    """Alice's minimax value of a pooled key. A node's children are a fresh
    color into one unstarted part of each distinct size and, when the pool
    is non-empty, a reuse or a fresh color in the pool. A node with an
    unsolved child pushes it and is looked at again once it is solved."""
    stack = [key]
    while stack:
        node = stack[-1]
        unstarted, pool, left, turn = node
        settled = decided(len(unstarted), left)
        if settled is not None:
            memo[node] = settled
        if node in memo:
            stack.pop()
            continue
        nxt = BOB if turn == ALICE else ALICE
        children = [
            (unstarted[:i] + unstarted[i + 1 :], pool + size - 1, left - 1, nxt)
            for i, size in enumerate(unstarted)
            if i == 0 or unstarted[i - 1] != size
        ]
        if pool:
            children += [(unstarted, pool - 1, left, nxt), (unstarted, pool - 1, left - 1, nxt)]
        values = [memo.get(child) for child in children]
        wanted = turn == ALICE  # Alice needs one winning child, Bob one losing child
        if wanted in values:
            memo[node] = wanted
        elif None in values:
            stack.append(children[values.index(None)])
        else:
            memo[node] = not wanted
    return memo[key]


def check_mode(mode: str) -> None:
    if mode not in (DETERMINISTIC, UNIVERSAL):
        raise InputError(f"mode must be {DETERMINISTIC!r} or {UNIVERSAL!r}, not {mode!r}")


def alice_wins(partition: Partition, budget: int) -> bool:
    """True iff Alice has a winning strategy with exactly `budget` colors:
    iff budget >= chi_g, by `win_vector`'s argument."""
    check_budget(partition, budget)  # before the solve, which may be long
    return win_vector(partition).alice_wins(budget)


class _WinVectorFields(NamedTuple):
    partition: Partition
    chi_g: int


class WinVector(_WinVectorFields):
    """Optimal-play outcome for every budget t = 1..n on one partition:
    Alice wins iff t >= chi_g (see `win_vector`). chi_g lies in k..min(n,
    2k - 1), as k colors are needed and `fresh_starter_budget` suffices."""

    __slots__ = ()

    def __new__(cls, partition, chi_g):
        check_partition(partition)
        if type(chi_g) is not int:
            raise InputError(f"chi_g must be an integer, not {chi_g!r}")
        k, ceiling = partition.k, min(partition.n, fresh_starter_budget(partition))
        if not k <= chi_g <= ceiling:
            raise InputError(f"chi_g outside {k}..{ceiling} on {partition}: {chi_g}")
        return super().__new__(cls, partition, chi_g)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it, so it checks too
        return cls(*iterable)

    def alice_wins(self, budget: int) -> bool:
        check_budget(self.partition, budget)
        return budget >= self.chi_g

    def bitstring(self) -> str:
        """Win flags for t = k..n as '0'/'1' characters."""
        return "0" * (self.chi_g - self.partition.k) + "1" * (self.partition.n + 1 - self.chi_g)

    def to_cache_line(self) -> str:
        return f"{self.partition};{self.chi_g};{self.bitstring()}"

    @classmethod
    def from_cache_line(cls, line: str) -> "WinVector":
        try:
            part_text, chi_text, bits = line.strip().split(";")
            partition, chi = Partition.parse(part_text), int(chi_text)
        except ValueError:
            raise InputError(f"bad cache line: {line!r}") from None
        # Cheap checks of outside input, without a search. The constructor
        # bounds chi_g, and the table is exact where it applies.
        vec = cls(partition, chi)
        if bits != vec.bitstring():
            raise InputError(f"cache line bits are not the threshold of chi_g {chi}: {line!r}")
        table = table1_chi_g(partition)
        if table is not None and table != chi:
            raise InputError(f"cache line contradicts the table value {table}: {line!r}")
        return vec


def win_vector(partition: Partition, memo: Optional[dict[tuple, bool]] = None) -> WinVector:
    """Solve the shape. Alice's value at a pooled key is monotone in `left`,
    so one number, chi_g, gives every budget:

    1. At a key `decided` leaves open, u >= 1 and left >= u >= 1, u being
       the unstarted parts. So every fresh move is legal, and a reuse needs
       only P > 0, P being the pool. The children of `(U, P, left + 1,
       turn)` are those of `(U, P, left, turn)` with one more color left.
    2. `decided`'s values are thresholds in `left`: won at any `left` with
       no part unstarted, and lost below u.
    3. By induction on the uncolored vertices, each key's winning budgets
       form an up-set in `left`. At Alice's turn they are the union of her
       children's up-sets, and at Bob's the intersection.
    4. The root for budget t is `(sizes, 0, t, ALICE)`, so Alice wins with
       t colors iff t >= chi_g.
    5. It rests on `canonicalize` being exact, which the tests check against
       the vertex oracle.

    The walk starts at the a1 ceiling, min(n, `fresh_starter_budget`),
    which is won, and searches `won - 1, won - 2, ...` until the first
    loss; a budget below k is `decided` lost at the root, so it ends by
    k - 1. Keys hold colors left, not the budget, so one `memo` serves
    every budget and shape."""
    check_partition(partition)
    memo = {} if memo is None else memo
    won = min(fresh_starter_budget(partition), partition.n)
    while _value((partition.sizes, 0, won - 1, ALICE), memo):
        won -= 1
    return WinVector(partition, won)


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


def _pinned_key(state: GameState, rule: Rule) -> tuple:
    """The pinned search's memo key: the sorted part codes and the colors
    left. Part i's code is `4 * (size * (r_1 + 1) + colored) + 2 * (moved
    last) + (is anchor)`, the anchor being the rule's `anchor_part`. One
    search has one partition and one budget, and within it positions with
    equal keys have equal values:

    - Colored counts lie in 0..r_1, so a code fixes its part's `(size,
      colored, moved last, is anchor)`, and the key is the multiset of
      these over the parts plus the colors left.
    - `turn` is dropped. Each move colors one vertex, so the turn is the
      parity of the colored total, which the parts fix.
    - The two marks single out the parts a rule names by index: the
      anchor, and the part just played, which the echo and mirror
      clauses answer in. Every other part is read only through its size
      and colored count. The last move is marked for every rule; a mark
      a rule does not read only splits positions of equal value.
    - The multiset forgets which of two equal-size parts is which.
      Clauses pick parts by these four fields alone, so from two
      positions with one key the pinned seat's picks carry the same
      fields and lead to positions with one key again. The exception is
      a clause that offers equal-size parts with different counts, where
      the lowest-index tie-break may pick differently: a3's fill (the
      fill of `_start_or_fill` acts only once every part is started,
      where the search stops). a3 reuses whenever some part is partial
      and otherwise starts an odd part chosen by size, so its moves, and
      its value, depend only on the pooled key of `canonicalize`, which
      both picks leave equal.
    - The rule value is left out. Only acomposite's changes in play: its
      script's rows hand over to the a2 or a2p row anchored on a triple,
      or to a1p. Its positions with one key hold values that act alike:
      1. a2 and a2p differ only by a2p's singleton clause. The a2
         hand-over comes only once both singletons are colored, so any
         key it shares with an a2p position has no uncolored singleton,
         and both rows allow the same moves.
      2. The script's rows (open, fill, join, close) step only on the
         opponent's replies; each covers one of Alice's moves and the
         reply. The fill row for triple j needs no anchor mark: in its
         phase j is the only started triple, and at Alice's turn it
         carries the last-move mark, so its fields single it out. So at
         Alice's turn any two values present at one move count differ in
         the marked parts' codes or in the size-4 part's colored count.
         At the opponent's turn a row acts only through the value the
         reply steps it to. The one row that may share a key with another
         value there, the fill row with the a2 hand-over after three
         moves, steps to a2 on the marked part.
    """
    sizes = state.partition.sizes
    base = sizes[0] + 1
    codes = [4 * (size * base + colored) for size, colored in zip(sizes, state.colored)]
    if state.last_move is not None:
        codes[state.last_move.part] += 2
    anchor = rule.anchor_part(state)
    if anchor is not None:
        codes[anchor] += 1
    return (tuple(sorted(codes)), state.budget - state.used)


def _pinned_moves(state: GameState, rule: Rule, universal: bool) -> list[Move]:
    """The moves the pinned search tries at `state`: every legal move on the
    free seat's turn; on the pinned seat's, every move `rule` allows in
    universal mode, else the one it chooses, as `simulate` plays it. The
    pinned seat is `rule.side`, which every rule `advance` returns keeps."""
    if state.turn != rule.side:
        return legal_moves(state)
    return rule.admissible(state) if universal else [rule.choose(state)]


def _refute(
    state: GameState, rule: Rule, universal: bool, won: set[tuple]
) -> Optional[list[Move]]:
    """Game search with one seat pinned to `rule`, the rule as it stands at
    `state`: None if the pinned seat reaches its goal from `state` against
    every line; otherwise the first failing line in search order (at each
    position, the first allowed move that is not won), walked to the end of
    play so it replays to a full game. `won` holds the `_pinned_key`s of
    positions the pinned seat has won; the caller owns it, and may share it
    between searches of one partition, budget, mode and root rule.

    The value is an AND over the moves `_pinned_moves` allows at every
    position, so the first lost position decides it and only won keys are
    stored.

    The walk is depth first on an explicit stack. A position `decided` for
    the pinned seat is won. One decided against it is lost only once play
    has ended, the one place `status` is asked, so the walk goes on through
    it: no continuation is won, so it goes down by each frame's first move
    to a lost terminal. The moves on the stack are the line.

    No allowed move reads the colors left at a position `decided` leaves
    open, where u >= 1 and left >= u >= 1. The free seat's `legal_moves`
    offers a fresh color whenever one is left. The one clause that reads the
    budget, b1's `_echo_or_fill`, takes a new color while `used < budget`,
    which always holds there, and `acomposite` reads no budget. So, as in
    `win_vector`'s argument, with one more color every position keeps its
    allowed moves, and `decided` is a threshold in `left`: an Alice rule's
    verdict is an up-set in the budget, and a Bob rule's a down-set.
    """
    goal_alice = rule.side == ALICE
    stack: list[tuple] = []
    while True:
        settled = decided(state.colored.count(0), state.budget - state.used)
        if settled != goal_alice:
            if settled is not None and status(state) is not GameStatus.ONGOING:
                break
            key = _pinned_key(state, rule)
            if key not in won:
                stack.append((key, state, rule, iter(_pinned_moves(state, rule, universal))))
        while stack:
            key, state, rule, moves = stack[-1]
            move = next(moves, None)
            if move is not None:
                break
            won.add(key)
            stack.pop()
        else:
            return None
        state = apply_move(state, move)
        rule = rule.advance(state)
    states = [frame[1] for frame in stack] + [state]
    return [s.last_move for s in states[1:]]


def restricted_value(
    partition: Partition,
    budget: int,
    fixed_side: str,
    strategy: Strategy | str,
    mode: str = DETERMINISTIC,
) -> bool:
    """Does `fixed_side`, pinned to `strategy`, reach its goal against every
    opponent line? (Alice's goal: full coloring; Bob's: a stuck part.)"""
    return refute_restricted(partition, budget, fixed_side, strategy, mode) is None


def refute_restricted(
    partition: Partition,
    budget: int,
    fixed_side: str,
    strategy: Strategy | str,
    mode: str = DETERMINISTIC,
) -> Optional[list[Move]]:
    """None when the pinned seat's goal is guaranteed; otherwise the first
    failing line in deterministic search order, walked to the end of play."""
    strategy = as_strategy(strategy)
    if not isinstance(strategy, Rule):  # random and human pick by part order, which the keys drop
        raise InapplicableStrategyError(f"{strategy.id} is not an analyzed rule")
    check_budget(partition, budget)
    check_mode(mode)
    check_seat(strategy, partition, fixed_side)
    return _refute(initial_state(partition, budget), strategy, mode == UNIVERSAL, set())
