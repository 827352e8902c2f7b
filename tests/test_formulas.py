"""Formula tests: the exact-value table (also against the uniform-shape
formula written out in the acceptance suite), and the individual bounds with
their side conditions."""

from __future__ import annotations

import pytest

from chromagame.core import Partition
from chromagame.formulas import (
    BoundReport,
    best_bounds,
    bounds,
    ceil_half_sum,
    table1_chi_g,
    table1_report,
)
from chromagame.harness import all_partitions
from chromagame.solver import chi_g
from test_acceptance import uniform_chi_g


def P(text):
    return Partition.parse(text)


class TestTable:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1", 1),
            ("7", 1),
            ("5,1", 2),
            ("2,2", 3),
            ("9,2", 3),
            ("4,4,4", 5),
            ("3,3,2", 4),  # even n with a size-3 part
            ("5,2,2", 5),  # odd n, no size-3 part: min(5, 3+1+1)
            ("3,2,2", 4),  # odd n with a size-3 part: min(4, 4)
            ("2,2,2", 5),  # even n, no size-3 part
            ("3,3,3", 4),
            ("5,4,4,4", 7),
            ("3,2,2,2", 5),  # odd n, triple: min(2k-2=6, 2+1+1+1=5)
            ("2,2,2,2,2,2", 11),  # even n, no triples: 2k-1
        ],
    )
    def test_values(self, text, expected):
        assert table1_chi_g(P(text)) == expected

    @pytest.mark.parametrize("text", ["4,3,1", "5,5,1", "2,2,1,1", "3,1,1"])
    def test_not_applicable_with_singletons(self, text):
        assert table1_chi_g(P(text)) is None
        report = table1_report(P(text))
        assert not report.applicable
        assert "singleton" in report.reason

    def test_rows_are_mutually_exclusive(self):
        """Re-derive the table as independent row predicates and check that
        exactly one row matches every shape in its domain."""

        def rows(p: Partition):
            k, n, sizes = p.k, p.n, p.sizes
            cap = ceil_half_sum(p)
            has3 = 3 in sizes
            matched = []
            if k == 1:
                matched.append(1)
            if k == 2 and sizes[1] == 1:
                matched.append(2)
            if k == 2 and sizes[1] >= 2:
                matched.append(3)
            if k >= 3 and sizes[-1] == 2 and n % 2 == 0 and has3:
                matched.append(2 * k - 2)
            if k >= 3 and sizes[-1] == 2 and n % 2 == 0 and not has3:
                matched.append(2 * k - 1)
            if k >= 3 and sizes[-1] == 2 and n % 2 == 1 and has3:
                matched.append(min(2 * k - 2, cap))
            if k >= 3 and sizes[-1] == 2 and n % 2 == 1 and not has3:
                matched.append(min(2 * k - 1, cap))
            if k >= 3 and sizes[-1] == 3:
                matched.append(2 * k - 2)
            if k >= 3 and sizes[-1] >= 4:
                matched.append(2 * k - 1)
            return matched

        for p in all_partitions(12):
            matches = rows(p)
            if p.k >= 3 and p.sizes[-1] == 1:
                assert matches == []
                assert table1_chi_g(p) is None
            else:
                assert len(matches) == 1, str(p)
                assert table1_chi_g(p) == matches[0], str(p)


class TestDunn:
    @pytest.mark.parametrize(
        "k,r,expected",
        [
            (1, 1, 1),
            (1, 9, 1),
            (2, 2, 3),
            (2, 3, 3),
            (3, 3, 4),
            (4, 3, 6),
            (3, 4, 5),
            (3, 2, 5),
            (5, 2, 9),
        ],
    )
    def test_values(self, k, r, expected):
        """The table's value on uniform shapes, against hand-computed values."""
        assert table1_chi_g(Partition.of([r] * k)) == uniform_chi_g(k, r) == expected

    def test_agrees_with_table_on_uniform_shapes(self):
        """Reaches n = 16, past the solver check of acceptance criterion 1."""
        for k in range(1, 7):
            for r in range(2, 7):
                if k * r <= 16:
                    assert table1_chi_g(Partition.of([r] * k)) == uniform_chi_g(k, r)


def by_source(reports, source):
    (r,) = [r for r in reports if r.source == source]
    return r


class TestBounds:
    def test_large_uniform_sandwich(self):
        reports = bounds(P("4,4,4"))
        assert by_source(reports, "cor_a1") == BoundReport("cor_a1", "upper", 5)
        assert by_source(reports, "cor_b1_main") == BoundReport("cor_b1_main", "lower", 5)
        assert not by_source(reports, "cor_a2").applicable
        assert not by_source(reports, "cor_a3").applicable

    def test_triple_odd_shape(self):
        reports = bounds(P("3,2,2"))
        assert by_source(reports, "cor_a2").value == 4
        assert by_source(reports, "cor_a3").value == 4
        assert by_source(reports, "cor_b1_3").value == 4
        assert not by_source(reports, "cor_b1_main").applicable
        assert not by_source(reports, "cor_b1_2").applicable

    def test_even_strengthening(self):
        reports = bounds(P("2,2,2"))
        assert by_source(reports, "cor_b1_2").value == 5  # strengthened for even n
        assert by_source(reports, "cor_a1").value == 5
        reports = bounds(P("3,3,2"))
        assert by_source(reports, "cor_b1_3").value == 4  # 2k-2 for even n

    def test_singletons_disable_lower_bounds(self):
        reports = bounds(P("3,3,1"))
        b13 = by_source(reports, "cor_b1_3")
        assert not b13.applicable and "singleton" in b13.reason
        # upper bounds stay valid with singletons
        assert by_source(reports, "cor_a2").applicable
        assert by_source(reports, "cor_a3").value == ceil_half_sum(P("3,3,1")) == 5
        assert chi_g(P("3,3,1")) == 3 <= 5

    def test_table_is_the_one_exact_source(self):
        """The table is the only exact report, each source is reported once,
        and a report applies exactly when it has a value."""
        for p in all_partitions(14):
            reports = bounds(p)
            sources = [r.source for r in reports]
            assert len(set(sources)) == len(sources), str(p)
            assert [r.source for r in reports if r.kind == "exact"] == ["table1"], str(p)
            for r in reports:
                assert r.to_dict()["applicable"] == (r.value is not None), (str(p), r)

    def test_applicability_is_not_positional(self):
        """`applicable` is read from the value, so no argument sets it."""
        with pytest.raises(TypeError):
            BoundReport("cor_a1", "upper", 5, True)

    def test_sandwich_equals_table_for_k_ge_3(self):
        for p in all_partitions(12, "no-singletons"):
            if p.k < 3:
                continue
            lo, hi = best_bounds(p)
            assert lo == table1_chi_g(p) == hi, str(p)

    def test_sandwich_contains_solver_value_small(self):
        for p in all_partitions(8):
            lo, hi = best_bounds(p)
            value = chi_g(p)
            if lo is not None:
                assert lo <= value, str(p)
            if hi is not None:
                assert value <= hi, str(p)

    def test_report_serialization(self):
        reports = bounds(P("4,3,1"))
        for r in reports:
            d = r.to_dict()
            assert d["source"] == r.source
            if not r.applicable:
                assert d["reason"]
