import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rastube.geometry import Box, Interval, fold_columns
from rastube.plant import _rows_in_box
from rastube.tube import Tube, verify_tube
from rastube.tube_core import first_nonfinite_row


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


def clearance_rows(box, rows):
    """Box.clearance of ``rows``, each a Box, as a list."""
    lower = np.array([r.lower for r in rows])
    upper = np.array([r.upper for r in rows])
    return box.clearance(lower, upper).tolist()


class TestClearance:
    obstacle = Box.from_pairs([[1.0, 2.0], [1.0, 3.0]])

    def assert_matches_disjoint_from(self, rows):
        for row, gap in zip(rows, clearance_rows(self.obstacle, rows)):
            assert (gap > 0.0) == row.disjoint_from(self.obstacle)

    def test_separated_in_one_dimension_only(self):
        rows = [Box.from_pairs([[2.5, 3.0], [1.5, 2.5]]),    # right, overlapping in y
                Box.from_pairs([[1.2, 1.8], [-1.0, 0.75]]),  # below, overlapping in x
                Box.from_pairs([[0.0, 0.5], [0.0, 4.0]])]    # left, spanning y
        assert clearance_rows(self.obstacle, rows) == [0.5, 0.25, 0.5]
        self.assert_matches_disjoint_from(rows)

    def test_largest_gap_wins_when_separated_in_two_dimensions(self):
        rows = [Box.from_pairs([[3.0, 4.0], [3.5, 4.0]])]
        assert clearance_rows(self.obstacle, rows) == [1.0]
        self.assert_matches_disjoint_from(rows)

    def test_touching_rows_are_not_clear(self):
        rows = [Box.from_pairs([[2.0, 2.5], [1.5, 2.5]]),   # shares the face x = 2
                Box.from_pairs([[0.0, 1.0], [3.0, 4.0]])]   # shares the corner (1, 3)
        assert clearance_rows(self.obstacle, rows) == [0.0, 0.0]
        self.assert_matches_disjoint_from(rows)

    def test_overlapping_and_nested_rows_are_not_clear(self):
        rows = [Box.from_pairs([[1.5, 2.5], [2.0, 4.0]]),   # overlap
                Box.from_pairs([[1.2, 1.8], [1.5, 2.5]]),   # inside the obstacle
                Box.from_pairs([[0.0, 3.0], [0.0, 4.0]])]   # around the obstacle
        assert clearance_rows(self.obstacle, rows) == pytest.approx([-0.5, -0.8, -2.0])
        self.assert_matches_disjoint_from(rows)


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


@given(boxes(), st.lists(boxes(), min_size=1, max_size=8))
def test_clearance_agrees_with_disjoint_from_row_by_row(a, rows):
    gaps = clearance_rows(a, rows)
    assert [g > 0.0 for g in gaps] == [r.disjoint_from(a) for r in rows]


# entries of the folded arrays: the special values that decide a fold's
# bits (NaN of either sign, infinities, zeros of either sign) among
# ordinary floats
special = st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
entries = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True, width=64))


@st.composite
def tables(draw, n=None, m=None):
    """An (m, n) float table, n in 1..3 and m in 1..12 unless given."""
    n = draw(st.integers(1, 3)) if n is None else n
    m = draw(st.integers(1, 12)) if m is None else m
    return np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m, max_size=m)), dtype=float).reshape(m, n)


def assert_same_values(got, want):
    """Bit for bit, the sign of a zero included; a NaN must stay a NaN,
    whichever sign and payload it has, which numpy's row reductions leave
    to their SIMD kernels."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestColumnFolds:
    """Each column fold gives the values of the ``axis=1`` reduction it
    replaced."""

    # np.minimum is verify_tube's ordered_bounds row minimum
    @given(tables(), st.sampled_from([np.maximum, np.minimum]))
    def test_fold_matches_row_reduction(self, a, ufunc):
        assert_same_values(fold_columns(ufunc, a), ufunc.reduce(a, axis=1))

    @given(tables(), st.lists(st.tuples(finite, finite), min_size=3, max_size=3),
           st.data())
    def test_clearance_matches_row_maximum(self, lower, pairs, data):
        upper = data.draw(tables(*lower.shape[::-1]))
        box = Box.from_pairs([sorted(p) for p in pairs[:lower.shape[1]]])
        with np.errstate(invalid="ignore"):
            want = np.maximum(box.lower - upper, lower - box.upper).max(axis=1)
            got = box.clearance(lower, upper)
        assert_same_values(got, want)

    @given(tables(), st.lists(st.tuples(finite, finite), min_size=3, max_size=3),
           st.data())
    def test_rows_in_box_matches_row_all(self, states, pairs, data):
        dims = data.draw(st.lists(st.integers(0, states.shape[1] - 1), min_size=1,
                                  max_size=states.shape[1], unique=True))
        box = Box.from_pairs([sorted(p) for p in pairs[:len(dims)]])
        x = states[:, dims]
        want = np.all((x >= box.lower) & (x <= box.upper), axis=1)
        assert_same_values(_rows_in_box(states, box, dims), want)

    @given(tables())
    def test_first_nonfinite_row_matches_row_all(self, grid):
        finite = np.isfinite(grid[1:]).all(axis=1)
        want = -1 if finite.all() else int(1 + np.flatnonzero(~finite)[0])
        assert first_nonfinite_row(grid) == want

    @pytest.mark.parametrize("edge", [0.0, -0.0])
    def test_verify_margin_keeps_the_sign_of_zero(self, edge):
        # row 1 touches the unsafe box at g1 = 0: the gap edge - 0.0 is a
        # zero whose sign the box's lower edge decides, and it is the
        # smallest clearance of the corridor
        lower = np.array([[-1.0, 0.0], [-0.3, 0.0], [-1.0, 0.0]])
        tube = Tube(ts=[0.0, 1.0, 2.0], lower=lower, width=[0.3, 0.3])
        unsafe = Box.from_pairs([[edge, 1.0], [-5.0, 5.0]])
        wide = Box.from_pairs([[-10.0, 10.0], [-10.0, 10.0]])
        task = SimpleNamespace(initial_set=wide, target_set=wide, unsafe_sets=(unsafe,))
        margin = verify_tube(tube, task).by_name("avoids_unsafe").margin
        want = float(np.maximum(unsafe.lower - tube.upper, lower - unsafe.upper)
                     .max(axis=1).min())
        assert json.dumps(margin) == json.dumps(want) == json.dumps(edge)
