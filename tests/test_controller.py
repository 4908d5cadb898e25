import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rastube.controller import (ControllerConfig, TubeFrame, control_input,
                                gain_diagonal, normalized_error,
                                transformed_error)
from rastube.errors import ConfigurationError, TubeViolationError


def frame(lower, upper):
    return TubeFrame(lower=np.asarray(lower, float), upper=np.asarray(upper, float))


class TestTubeFrame:
    def test_lists_and_arrays_give_same_arrays(self):
        lo, hi = [0.1, -2.0, 3.0], [0.7, 1.5, 3.25]
        a = TubeFrame(lo, hi)
        b = TubeFrame(np.array(lo), np.array(hi))
        for name in ("lower", "upper", "sum_bounds", "widths"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(a.sum_bounds, np.array(hi) + np.array(lo))
        np.testing.assert_array_equal(a.widths, np.array(hi) - np.array(lo))

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("lower, upper", [
        ([0.0, 1.0], [1.0, 1.0]),          # zero width
        ([0.0, 1.0], [1.0, 0.5]),          # negative width
        ([0.0, 1.0], [1.0, 2.0, 3.0])])    # unequal lengths
    def test_rejects_bad_bounds(self, as_array, lower, upper):
        if as_array:
            lower, upper = np.array(lower), np.array(upper)
        with pytest.raises(ConfigurationError) as err:
            TubeFrame(lower, upper)
        assert [path for path, _ in err.value.issues] == ["frame"]

    def test_rejects_two_dimensional_array(self):
        with pytest.raises(ConfigurationError) as err:
            TubeFrame(np.zeros((2, 2)), np.ones((2, 2)))
        assert [path for path, _ in err.value.issues] == ["frame"]


class TestNormalizedError:
    def test_zero_at_center(self):
        f = frame([0.0, 1.0], [2.0, 3.0])
        np.testing.assert_allclose(normalized_error(np.array([1.0, 2.0]), f), 0.0)

    def test_one_at_upper_bound(self):
        f = frame([0.0], [2.0])
        assert normalized_error(np.array([2.0]), f)[0] == pytest.approx(1.0)

    def test_direct_substitution(self):
        f = frame([1.0], [3.0])
        assert normalized_error(np.array([2.5]), f)[0] == pytest.approx(0.5, abs=1e-15)


class TestTransformedError:
    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(transformed_error(np.zeros(3)), np.zeros(3))

    def test_half_maps_to_log_three(self):
        got = transformed_error(np.array([0.5]))[0]
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_odd(self):
        got = transformed_error(np.array([-0.5]))[0]
        assert got == pytest.approx(-math.log(3.0), abs=1e-12)

    def test_out_of_corridor_raises_with_dimension(self):
        with pytest.raises(TubeViolationError) as err:
            transformed_error(np.array([0.2, 1.0]))
        assert err.value.dim == 1


class TestGainDiagonal:
    def test_center_value(self):
        f = frame([0.0], [2.0])
        assert gain_diagonal(np.zeros(1), f)[0] == pytest.approx(2.0, abs=1e-15)

    def test_half_value(self):
        f = frame([0.0], [2.0])
        got = gain_diagonal(np.array([0.5]), f)[0]
        assert got == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_barrier_divergence(self):
        f = frame([0.0], [2.0])
        vals = [gain_diagonal(np.array([e]), f)[0] for e in (0.9, 0.99, 0.999)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e3


class TestControlInput:
    def test_zero_at_center(self):
        f = frame([0.0, 1.0], [2.0, 3.0])
        u = control_input(np.array([1.0, 2.0]), f, ControllerConfig(gain=2.0))
        np.testing.assert_array_equal(u, np.zeros(2))

    def test_pushes_down_near_upper_bound(self):
        f = frame([0.0], [2.0])
        u = control_input(np.array([1.8]), f, ControllerConfig(gain=2.0))
        assert u[0] < 0.0

    def test_composed_value(self):
        f = frame([0.0], [2.0])
        u = control_input(np.array([1.5]), f, ControllerConfig(gain=1.0))
        assert u[0] == pytest.approx(-(8.0 / 3.0) * math.log(3.0), abs=1e-12)

    def test_gain_sign_flips_direction(self):
        f = frame([0.0], [2.0])
        up = control_input(np.array([1.5]), f, ControllerConfig(gain=1.0, gain_sign=1))
        dn = control_input(np.array([1.5]), f, ControllerConfig(gain=1.0, gain_sign=-1))
        np.testing.assert_array_equal(up, -dn)

    def test_input_limit_clamps(self):
        f = frame([0.0], [2.0])
        u = control_input(np.array([1.99]), f, ControllerConfig(gain=10.0, input_limit=5.0))
        assert abs(u[0]) == 5.0

    def test_list_state_gets_same_list(self):
        f = frame([0.0, -1.0, 2.0], [2.0, 0.5, 2.5])
        x = [1.7, -0.2, 2.1]
        cfg = ControllerConfig(gain=1.3)
        got = control_input(x, f, cfg)
        assert type(got) is list
        assert got == control_input(np.array(x), f, cfg).tolist()

    @pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 0.5]])
    def test_state_length_must_match_frame(self, x):
        # one state value per frame dimension; no component is dropped
        f = frame([0.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            control_input(x, f, ControllerConfig())

    def test_model_free_signature(self):
        import inspect
        names = list(inspect.signature(control_input).parameters)
        assert names == ["x", "frame", "cfg", "t"]

    def test_violation_carries_state_value(self):
        f = frame([0.0], [2.0])
        with pytest.raises(TubeViolationError) as err:
            control_input(np.array([2.5]), f, ControllerConfig(), t=3.0)
        assert err.value.dim == 0
        assert err.value.time == 3.0
        assert err.value.value == pytest.approx(2.5)


inside = st.floats(min_value=-0.99, max_value=0.99, allow_nan=False,
                   allow_subnormal=False)
widths = st.floats(min_value=0.05, max_value=10.0, allow_nan=False,
                   allow_subnormal=False)


@given(st.lists(st.tuples(inside, widths), min_size=1, max_size=4))
def test_componentwise_sign(rows):
    e = np.array([r[0] for r in rows])
    w = np.array([r[1] for r in rows])
    f = frame(-0.5 * w, 0.5 * w)
    x = 0.5 * e * w
    u = control_input(x, f, ControllerConfig(gain=1.5))
    assert np.all(u * e <= 0.0)
    for ui, ei in zip(u, e):
        if ei == 0.0:
            assert ui == 0.0


@given(st.lists(st.tuples(inside, widths), min_size=1, max_size=4),
       st.floats(min_value=0.1, max_value=20.0))
def test_gain_scaling_exact(rows, gain):
    e = np.array([r[0] for r in rows])
    e[np.abs(e) < 1e-12] = 0.0  # scaling near the subnormal range is inexact
    w = np.array([r[1] for r in rows])
    f = frame(-0.5 * w, 0.5 * w)
    x = 0.5 * e * w
    u1 = control_input(x, f, ControllerConfig(gain=gain))
    u2 = control_input(x, f, ControllerConfig(gain=2.0 * gain))
    np.testing.assert_array_equal(2.0 * u1, u2)


def test_barrier_divergence_along_ray():
    f = frame([0.0], [2.0])
    norms = []
    for e in np.linspace(0.0, 0.999999, 40):
        u = control_input(np.array([1.0 + e]), f, ControllerConfig(gain=1.0))
        norms.append(abs(u[0]))
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 1e5


@given(st.lists(st.tuples(inside, widths, st.floats(min_value=-50.0, max_value=50.0)),
                min_size=1, max_size=4),
       st.floats(min_value=0.1, max_value=20.0), st.sampled_from([1, -1]))
def test_law_is_gain_times_barrier_bit_for_bit(rows, gain, sign):
    # the one-pass law keeps the operand order of the separate helpers
    e, w, lo = (np.array(col) for col in zip(*rows))
    f = frame(lo, lo + w)
    x = lo + 0.5 * (1.0 + e) * w
    err = normalized_error(x, f)
    want = -sign * gain * gain_diagonal(err, f) * transformed_error(err)
    cfg = ControllerConfig(gain=gain, gain_sign=sign)
    assert control_input(x, f, cfg).tobytes() == want.tobytes()
    assert control_input(x.tolist(), f, cfg) == want.tolist()
