import math

import numpy as np
import pytest

from rastube.avoidance import _fraction
from rastube.reach import ReachMargin


def random_margin(rng: np.random.Generator, n: int = 1):
    """Random (start, end, deadline) triple for margin-level tests."""
    start = rng.uniform(-5.0, 5.0, n)
    end = start + rng.uniform(0.5, 12.0, n) * rng.choice([-1.0, 1.0], n)
    deadline = float(rng.uniform(5.0, 100.0))
    return start, end, deadline


def margin(start, end, deadline):
    return ReachMargin(np.array([float(start)]), np.array([float(end)]), deadline)


def margin_rate(m, t):
    """The margin rate the corridor integrator runs, at one time in dim 0."""
    return float(m.rates([t])[0, 0])


def crossing_time(m, level):
    """Time at which value(0, .) reaches ``level``, from the crossing
    fraction the planner uses."""
    return m.deadline * _fraction(level - m.start[0], m.end[0] - m.start[0])


def integrate_rate_equation(start, end, t_c, n_steps=40000, horizon=None):
    """Independent RK4 integration of the defining boundary rate equation."""
    horizon = 0.999 * t_c if horizon is None else horizon
    span = end - start

    def rate(t):
        if t >= t_c:
            return 0.0
        w = t_c - t
        z = t / w
        if z > 300.0:
            return 0.0
        return t_c * span / (w * w) / math.cosh(z) ** 2

    dt = horizon / n_steps
    ts = np.linspace(0.0, horizon, n_steps + 1)
    vals = np.empty(n_steps + 1)
    vals[0] = y = start
    for i in range(n_steps):
        t = ts[i]
        k1 = rate(t)
        k2 = rate(t + 0.5 * dt)
        k4 = rate(t + dt)
        y += dt / 6.0 * (k1 + 4.0 * k2 + k4)
        vals[i + 1] = y
    return ts, vals


class TestValue:
    def test_starts_at_start_corner(self):
        assert margin(0.0, 11.0, 80.0).value(0, 0.0) == 0.0

    def test_constant_after_deadline(self):
        m = margin(0.0, 11.0, 80.0)
        assert m.value(0, 80.0) == 11.0
        assert m.value(0, 200.0) == 11.0

    def test_midpoint_matches_rate_equation_oracle(self):
        # frozen from the independent integration: 11 * tanh(1)
        m = margin(0.0, 11.0, 80.0)
        assert m.value(0, 40.0) == pytest.approx(8.377535715513414, abs=1e-12)
        _, oracle = integrate_rate_equation(0.0, 11.0, 80.0, horizon=40.0)
        assert m.value(0, 40.0) == pytest.approx(oracle[-1], abs=1e-7)

    def test_degenerate_dimension_is_constant(self):
        m = margin(3.0, 3.0, 10.0)
        for t in (0.0, 2.5, 9.0, 10.0, 20.0):
            assert m.value(0, t) == 3.0
            assert margin_rate(m, t) == 0.0


class TestRate:
    def test_zero_at_and_after_deadline(self):
        m = margin(0.0, 11.0, 80.0)
        assert margin_rate(m, 80.0) == 0.0
        assert margin_rate(m, 81.0) == 0.0

    def test_initial_rate_is_span_over_deadline(self):
        m = margin(0.0, 11.0, 80.0)
        assert margin_rate(m, 0.0) == pytest.approx(11.0 / 80.0, rel=1e-12)

    def test_vanishes_near_deadline(self):
        # finite-difference oracle at t = 79.9 with h = 1e-4
        m = margin(0.0, 11.0, 80.0)
        h = 1e-4
        fd = (m.value(0, 79.9 + h) - m.value(0, 79.9 - h)) / (2 * h)
        assert margin_rate(m, 79.9) == pytest.approx(fd, abs=1e-9)
        assert margin_rate(m, 79.9) < 1e-6


def test_rate_consistent_with_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        start, end, t_c = random_margin(rng)
        m = ReachMargin(start, end, t_c)
        t = rng.uniform(0.0, 0.995 * t_c)
        h = 1e-5 * t_c
        fd = (m.value(0, t + h) - m.value(0, t - h)) / (2 * h)
        r = margin_rate(m, t)
        assert abs(fd - r) <= 1e-4 * max(1.0, abs(r))


def test_monotone_on_dense_grid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        start, end, t_c = random_margin(rng)
        m = ReachMargin(start, end, t_c)
        vals = m.value_grid(np.linspace(0.0, t_c, 2000))[:, 0]
        diffs = np.diff(vals)
        if end[0] >= start[0]:
            assert np.all(diffs >= -1e-12)
        else:
            assert np.all(diffs <= 1e-12)


def test_boundary_exactness():
    rng = np.random.default_rng(11)
    for _ in range(50):
        start, end, t_c = random_margin(rng)
        m = ReachMargin(start, end, t_c)
        assert m.value(0, 0.0) == start[0]
        for t in (t_c, 1.5 * t_c, 10.0 * t_c):
            assert m.value(0, t) == end[0]


def test_crossing_time_inverts_value():
    rng = np.random.default_rng(3)
    for _ in range(200):
        start, end, t_c = random_margin(rng)
        m = ReachMargin(start, end, t_c)
        frac = rng.uniform(0.05, 0.95)
        level = start[0] + frac * (end[0] - start[0])
        t = crossing_time(m, level)
        assert m.value(0, t) == pytest.approx(level, abs=1e-9 * abs(end[0] - start[0]))


def test_crossing_time_clamps():
    m = margin(0.0, 11.0, 80.0)
    assert crossing_time(m, -1.0) == 0.0
    assert crossing_time(m, 12.0) == 80.0
    const = margin(3.0, 3.0, 10.0)
    assert crossing_time(const, 2.0) == 0.0
    assert crossing_time(const, 4.0) == 10.0
