import pytest
from hypothesis import given, strategies as st

from rastube.geometry import Box, Interval


def iv(lo, hi):
    return Interval(lo, hi)


class TestInterval:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_disjoint_intervals(self):
        assert not iv(0.0, 0.5).intersects(iv(1.5, 2.0))

    def test_touching_counts_as_intersecting(self):
        assert iv(0.0, 1.0).intersects(iv(1.0, 2.0))

    def test_identical_intervals_intersect(self):
        assert iv(0.0, 1.0).intersects(iv(0.0, 1.0))


class TestBox:
    def test_contains(self):
        outer = Box.from_pairs([[0, 0.5], [0, 0.5]])
        assert outer.contains(Box.from_pairs([[0.1, 0.2], [0.1, 0.2]]))

    def test_contains_fails_on_one_dim(self):
        outer = Box.from_pairs([[0, 0.5], [0, 0.5]])
        inner = Box.from_pairs([[0.1, 0.6], [0.1, 0.2]])
        assert not outer.contains(inner)

    def test_contains_is_reflexive(self):
        box = Box.from_pairs([[0, 0.5], [0, 0.5]])
        assert box.contains(box)

    def test_contains_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Box.from_pairs([[0, 1]]).contains(Box.from_pairs([[0, 1], [0, 1]]))

    def test_disjoint_case_study_obstacle(self):
        start_region = Box.from_pairs([[0, 0.5], [0, 0.5]])
        obstacle = Box.from_pairs([[1.5, 2.0], [0.5, 3.0]])
        assert start_region.disjoint_from(obstacle)

    def test_overlapping_boxes(self):
        assert not Box.from_pairs([[1, 3], [1, 3]]).disjoint_from(
            Box.from_pairs([[2, 4], [2, 4]]))

    def test_disjoint_in_second_dimension(self):
        assert Box.from_pairs([[0, 1], [0, 1]]).disjoint_from(
            Box.from_pairs([[1, 2], [5, 6]]))


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def boxes(draw, n=2):
    pairs = []
    for _ in range(n):
        a = draw(finite)
        b = draw(finite)
        pairs.append([min(a, b), max(a, b)])
    return Box.from_pairs(pairs)


@given(boxes(), boxes())
def test_disjoint_is_symmetric(a, b):
    assert a.disjoint_from(b) == b.disjoint_from(a)


@given(boxes())
def test_contains_is_reflexive_property(a):
    assert a.contains(a)


@given(boxes(), st.floats(min_value=0.0, max_value=0.4), st.floats(min_value=0.0, max_value=0.4))
def test_contains_is_transitive_on_shrunk_chain(a, f1, f2):
    # b shrinks a, c shrinks b; containment must chain
    def shrink(box, f):
        return Box.from_pairs([[d.lo + f * d.width, d.hi - f * d.width] for d in box.dims])

    b = shrink(a, f1)
    c = shrink(b, f2)
    assert a.contains(b) and b.contains(c) and a.contains(c)
