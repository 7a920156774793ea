"""Tests for point/set distances and the modified Hausdorff distance."""

import pytest

from repro.metrics.hausdorff import (
    boolean_point_distance,
    jaccard_distance,
    modified_hausdorff,
    point_set_distance,
)


class TestPointDistances:
    def test_boolean_equal(self):
        assert boolean_point_distance("a", "a") == 0.0

    def test_boolean_different(self):
        assert boolean_point_distance("a", "b") == 1.0

    def test_point_set_member(self):
        assert point_set_distance("a", {"a", "b"}) == 0.0

    def test_point_set_non_member(self):
        assert point_set_distance("c", {"a", "b"}) == 1.0

    def test_point_set_empty(self):
        assert point_set_distance("a", set()) == 1.0


class TestModifiedHausdorff:
    def test_identical_sets(self):
        assert modified_hausdorff({"a", "b"}, {"a", "b"}) == 0.0

    def test_disjoint_sets(self):
        assert modified_hausdorff({"a"}, {"b"}) == 1.0

    def test_thesis_superset_example(self):
        # {university} vs {university, college} -> max(0, 1/2) = 1/2
        d = modified_hausdorff({"university"}, {"university", "college"})
        assert d == pytest.approx(0.5)

    def test_thesis_in_set_example(self):
        # IN(v2) in Q1 {e1,e3} vs Q2 {e1}: max(0/1, (0+1)/2) = 1/2
        d = modified_hausdorff({"e1"}, {"e1", "e3"})
        assert d == pytest.approx(0.5)

    def test_symmetry(self):
        a, b = {"x", "y", "z"}, {"x", "q"}
        assert modified_hausdorff(a, b) == modified_hausdorff(b, a)

    def test_bounded_in_unit_interval(self):
        a, b = {1, 2, 3}, {3, 4}
        assert 0.0 <= modified_hausdorff(a, b) <= 1.0

    def test_both_empty(self):
        assert modified_hausdorff(set(), set()) == 0.0

    def test_one_empty(self):
        assert modified_hausdorff({"a"}, set()) == 1.0
        assert modified_hausdorff(set(), {"a"}) == 1.0

    def test_monotone_growth(self):
        """The thesis cites MHD as increasing monotonically with the
        amount of difference between the sets."""
        base = {1, 2, 3, 4}
        d1 = modified_hausdorff(base, {1, 2, 3, 5})
        d2 = modified_hausdorff(base, {1, 2, 5, 6})
        d3 = modified_hausdorff(base, {1, 5, 6, 7})
        assert d1 <= d2 <= d3


class TestJaccard:
    def test_identity(self):
        assert jaccard_distance({"a"}, {"a"}) == 0.0

    def test_disjoint(self):
        assert jaccard_distance({"a"}, {"b"}) == 1.0

    def test_empty_sets(self):
        assert jaccard_distance(set(), set()) == 0.0
