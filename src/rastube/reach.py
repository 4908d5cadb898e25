"""Nominal reach margin: the corridor's lower boundary from start box to target box.

The margin runs from the start-box corner to the target-box corner over the
deadline and is constant afterwards.  The closed form is the exact solution
of the defining rate equation, and ``rates`` is its derivative, the one the
corridor integrator runs; tests cross-check both against an independent
integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative distance to the deadline below which evaluation switches to the
# constant branch; avoids overflowing tanh/sech arguments.
_DEADLINE_GUARD = 1e-9


def _tanh(x):
    """math.tanh of a float, or elementwise of an array.

    numpy's tanh picks a SIMD kernel at run time, and its AVX2 and AVX-512
    kernels round differently from libm, so arrays go through math.tanh
    too.  From |x| >= 20 on math.tanh returns exactly +-1, so array
    entries there skip the call.
    """
    if isinstance(x, np.ndarray):
        out = np.sign(x)
        live = ~(np.abs(x) >= 20.0)
        out[live] = np.fromiter(map(math.tanh, x[live].tolist()), float)
        return out
    return math.tanh(x)


def _sech_sq(z):
    """1 / cosh(z)^2 of a float, or elementwise of an array; zero for |z| > 300.

    Arrays go through ``math.cosh`` too (numpy's cosh rounds differently),
    so both forms give the same bits.
    """
    if isinstance(z, np.ndarray):
        z = np.abs(z)
        c = np.fromiter(map(math.cosh, np.minimum(z, 300.0).ravel().tolist()),
                        float, z.size).reshape(z.shape)
        return np.where(z > 300.0, 0.0, 1.0 / (c * c))
    z = abs(z)
    if z > 300.0:
        return 0.0
    c = math.cosh(z)
    return 1.0 / (c * c)


@dataclass(frozen=True)
class ReachMargin:
    """Per-dimension lower corridor boundary with prescribed arrival time.

    start[i] is the value at t = 0, end[i] the value held for all
    t >= deadline.  Either corner pair may be used (lower or upper box
    corners); avoidance planning evaluates both.
    """

    start: np.ndarray
    end: np.ndarray
    deadline: float
    _span: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        if start.shape != end.shape or start.ndim != 1:
            raise ValueError("start and end must be 1-d arrays of equal length")
        if not self.deadline > 0:
            raise ValueError("deadline must be positive")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "_span", end - start)

    @property
    def n(self) -> int:
        return self.start.shape[0]

    def _blend(self, t: float) -> float:
        tc = self.deadline
        if t <= 0.0:
            return 0.0
        if t >= tc * (1.0 - _DEADLINE_GUARD):
            return 1.0
        return math.tanh(t / (tc - t))

    def value(self, dim: int, t: float) -> float:
        """Boundary value in one dimension at time t."""
        return float(self.start[dim] + self._span[dim] * self._blend(t))

    def value_vec(self, t: float) -> np.ndarray:
        return self.start + self._span * self._blend(t)

    def value_grid(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised value() over a time grid; shape (len(ts), n)."""
        ts = np.asarray(ts, dtype=float)
        tc = self.deadline
        blend = np.ones_like(ts)
        inside = ts < tc * (1.0 - _DEADLINE_GUARD)
        blend[inside] = _tanh(np.maximum(ts[inside], 0.0) / (tc - ts[inside]))
        blend[ts <= 0.0] = 0.0
        return self.start[None, :] + blend[:, None] * self._span[None, :]

    def rates(self, ts) -> np.ndarray:
        """Time derivative of value() over a time grid, shape (len(ts), n);
        exactly zero from the deadline guard on."""
        ts = np.asarray(ts, dtype=float)
        tc = self.deadline
        live = ts < tc * (1.0 - _DEADLINE_GUARD)
        tt = np.where(live & (ts > 0.0), ts, 0.0)
        w = tc - tt
        coef = tc / (w * w) * _sech_sq(tt / w)
        # built one dimension per row: each column of the result is contiguous
        return np.where(live, self._span[:, None] * coef, 0.0).T
