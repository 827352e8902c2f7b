"""Closed-form values and bounds for the game chromatic number of
K_{r1,...,rk}, each reported together with its applicability conditions.

The exact-value table covers every shape without singletons (and the two
small-k rows); shapes with a singleton and k >= 3 are exactly the open
territory, so the table answers "not applicable" there and the solver is
the only authority.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Optional

from .core import ALICE, Partition, check_partition
from .strategies import get_strategy

EXACT = "exact"
UPPER = "upper"
LOWER = "lower"


class _BoundFields(NamedTuple):
    source: str  # table1 | cor_a1 | cor_a2 | cor_a3 | cor_b1_main | cor_b1_2 | cor_b1_3
    kind: str  # exact | upper | lower
    value: Optional[int]  # None when the report does not apply
    reason: str = ""


class BoundReport(_BoundFields):
    """One bound (or exact value) with its provenance and applicability.
    `reason` is keyword-only, so no positional argument sets it."""

    __slots__ = ()

    def __new__(cls, source, kind, value, *, reason=""):
        return super().__new__(cls, source, kind, value, reason)

    def __getnewargs_ex__(self):  # for copy and pickle, which call `__new__`
        return self[:3], {"reason": self.reason}

    @property
    def applicable(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        d = {
            "source": self.source,
            "kind": self.kind,
            "value": self.value,
            "applicable": self.applicable,
        }
        if not self.applicable:
            d["reason"] = self.reason
        return d


def ceil_half_sum(partition: Partition) -> int:
    """Sum over parts of ceil(r_i / 2)."""
    check_partition(partition)
    return sum((r + 1) // 2 for r in partition.sizes)


def table1_chi_g(partition: Partition) -> Optional[int]:
    """Exact game chromatic number per the summary table; None when the
    shape has a singleton with k >= 3 (no formula is known there)."""
    check_partition(partition)
    sizes = partition.sizes
    k = partition.k
    if k == 1:
        return 1
    if k == 2:
        return 2 if sizes[1] == 1 else 3
    smallest = sizes[-1]
    if smallest == 1:
        return None
    has_triple = 3 in sizes
    if smallest == 2:
        if partition.n % 2 == 0:
            return 2 * k - 2 if has_triple else 2 * k - 1
        cap = ceil_half_sum(partition)
        return min(2 * k - 2, cap) if has_triple else min(2 * k - 1, cap)
    if smallest == 3:
        return 2 * k - 2
    return 2 * k - 1


def table1_report(partition: Partition) -> BoundReport:
    value = table1_chi_g(partition)
    if value is None:
        return BoundReport("table1", EXACT, None, reason="singleton present with k >= 3")
    return BoundReport("table1", EXACT, value)


class Guarantee(NamedTuple):
    """One strategy guarantee of the paper: the rule named `strategy`, in
    its own seat, reaches its goal with `budget(partition)` colors on every
    shape whose `conditions` hold. An Alice rule's guarantee proves chi_g <=
    budget; a Bob rule's proves that budget colors do not suffice, chi_g >=
    budget + 1. `source` names the bound it proves; each condition is a
    test paired with the reason reported when it fails."""

    label: str
    source: str
    strategy: str
    budget: Callable[[Partition], int]
    conditions: tuple[tuple[Callable[[Partition], bool], str], ...] = ()

    def failure(self, partition: Partition) -> Optional[str]:
        """The reason of the first condition that fails; None if all hold."""
        for test, why in self.conditions:
            if not test(partition):
                return why
        return None


_K3 = (lambda p: p.k >= 3, "needs k >= 3")
_TRIPLE = (lambda p: 3 in p.sizes, "no part of size exactly 3")
_NO_TRIPLE = (lambda p: 3 not in p.sizes, "a part of size exactly 3 is present")
_NO_SINGLETON = (lambda p: p.sizes[-1] >= 2, "singleton present")
_ODD = (lambda p: p.n % 2 == 1, "n is even")
_EVEN = (lambda p: p.n % 2 == 0, "n is odd")


def fresh_starter_budget(partition: Partition) -> int:
    """2k - 1: with this many colors or more, Alice wins by a1, the fresh
    starter, which puts a new color on an unstarted part at each of its
    turns (any move once every part is started).

    Let u be the number of unstarted parts. At Alice's first turn u = k and
    `left >= 2u - 1`. A round of two moves spends at most two colors and
    starts at least one part (Alice's), so `left >= 2u - 1` holds again at
    her next turn until every part is started. Alice therefore always has a
    color for an unstarted part, and after her move `left >= 2u`, so Bob's
    one move cannot spend the last color while a part is unstarted. No part
    is ever stranded, and once every part is started the game is
    `solver.decided`.
    """
    check_partition(partition)
    return 2 * partition.k - 1


# Records of one source are adjacent, in the order `bounds` reports them,
# and their rules play one seat.
GUARANTEES = (
    Guarantee("alice_fresh_starter", "cor_a1", "a1", fresh_starter_budget),
    Guarantee("alice_triple_anchor", "cor_a2", "a2", lambda p: 2 * p.k - 2, (_K3, _TRIPLE)),
    Guarantee("alice_odd_opener", "cor_a3", "a3", ceil_half_sum, (_ODD,)),
    Guarantee("bob_echo_large_parts", "cor_b1_main", "b1", lambda p: 2 * p.k - 2,
              ((lambda p: p.sizes[-1] >= 4, "smallest part is below 4"),)),
    Guarantee("bob_echo_no_triples", "cor_b1_2", "b1",
              lambda p: min(2 * p.k - 2, ceil_half_sum(p) - 1), (_K3, _NO_SINGLETON, _NO_TRIPLE)),
    Guarantee("bob_echo_no_triples_even", "cor_b1_2", "b1", lambda p: 2 * p.k - 2,
              (_K3, _NO_SINGLETON, _NO_TRIPLE, _EVEN)),
    # The size-3 counterpart also needs no singletons: with one present the
    # bound is simply false (e.g. three colors finish K_{3,3,1}).
    Guarantee("bob_echo_with_triple", "cor_b1_3", "b1",
              lambda p: min(2 * p.k - 3, ceil_half_sum(p) - 1), (_K3, _TRIPLE, _NO_SINGLETON)),
    Guarantee("bob_echo_with_triple_even", "cor_b1_3", "b1", lambda p: 2 * p.k - 3,
              (_K3, _TRIPLE, _NO_SINGLETON, _EVEN)),
)
_BY_SOURCE = [  # (source, the kind of bound its rules' seat proves, its records)
    (source, UPPER if get_strategy(first.strategy).side == ALICE else LOWER, (first, *rest))
    for source, (first, *rest) in groupby(GUARANTEES, lambda g: g.source)
]


def bounds(partition: Partition) -> list[BoundReport]:
    """Every bound with its side conditions evaluated for this shape: the
    table, the one exact source, and one report per `GUARANTEES` source.
    A source's upper bound is the smallest Alice budget among its records
    that apply, its lower bound the largest Bob budget plus one; when none
    applies, the reason is the first failing condition of its first record."""
    reports = [table1_report(partition)]
    for source, kind, group in _BY_SOURCE:
        values = [g.budget(partition) for g in group if g.failure(partition) is None]
        if not values:
            reports.append(BoundReport(source, kind, None, reason=group[0].failure(partition)))
        else:
            value = min(values) if kind == UPPER else max(values) + 1
            reports.append(BoundReport(source, kind, value))
    return reports


def best_bounds(partition: Partition) -> tuple[Optional[int], Optional[int]]:
    """(max applicable lower bound, min applicable upper bound)."""
    reports = [r for r in bounds(partition) if r.applicable]
    lower = [r.value for r in reports if r.kind == LOWER]
    upper = [r.value for r in reports if r.kind == UPPER]
    return (max(lower) if lower else None, min(upper) if upper else None)
