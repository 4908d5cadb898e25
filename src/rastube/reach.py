"""Nominal reach margin: the corridor's lower boundary from start box to target box.

The margin runs from the start-box corner to the target-box corner over the
deadline and is constant afterwards.  The closed form is the exact solution
of the defining rate equation, and ``rates`` is its derivative, the one the
corridor integrator runs; tests cross-check both against an independent
integration.  ``increments`` holds the RK4 increments of that rate on a
uniform grid: the steps of every corridor row that no detour bends, and
``window_block`` keeps the corridor integrator's window kernel blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative distance to the deadline below which evaluation switches to the
# constant branch; avoids overflowing tanh/sech arguments.
_DEADLINE_GUARD = 1e-9

# Runge-Kutta steps evaluated together; bounds the scratch arrays.
_BLOCK = 1024


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


def rk4_increment(a0, am, a1, bm, b1, h):
    """Q of the RK4 step y+ = P * y + Q of y' = a(t) - b(t) * y: the step
    taken from y = 0, with a and b at the step's start (a0), midpoint (am,
    bm) and end (a1, b1), summed in the order the scalar RK4 sums it.
    With b = 0 it is the increment of the rate a alone."""
    half = 0.5 * h
    k1 = a0
    k2 = am - bm * (half * k1)
    k3 = am - bm * (half * k2)
    k4 = a1 - b1 * (h * k3)
    return h / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)


def _sech_sq(z: np.ndarray) -> np.ndarray:
    """1 / cosh(z)^2 elementwise; zero for |z| > 300.

    The cosh goes through ``math.cosh`` (numpy's cosh rounds differently).
    """
    z = np.abs(z)
    c = np.fromiter(map(math.cosh, np.minimum(z, 300.0).ravel().tolist()),
                    float, z.size).reshape(z.shape)
    return np.where(z > 300.0, 0.0, 1.0 / (c * c))


@dataclass(frozen=True)
class ReachMargin:
    """Per-dimension lower corridor boundary with prescribed arrival time.

    start[i] is the value at t = 0, end[i] the value held for all
    t >= deadline.  Either corner pair may be used (lower or upper box
    corners); avoidance planning evaluates both.

    The margin also keeps what the corridor integrations of its task
    share, for the last grid each was asked on: the nominal increments
    (``increments``) and the window kernel blocks (``window_block``),
    each block keyed by every input it reads besides the margin.
    """

    start: np.ndarray
    end: np.ndarray
    deadline: float
    _span: np.ndarray = field(init=False, repr=False)
    # (grid_steps, increments) of the last grid ``increments`` was asked for
    _nominal: tuple = field(init=False, repr=False, compare=False, default=(0, None))
    # (grid_steps, {key: block}) of the last grid ``window_block`` was asked for
    _windows: tuple = field(init=False, repr=False, compare=False, default=(0, None))

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

    def increments(self, grid_steps: int, steps: int) -> np.ndarray:
        """RK4 increments of ``rates`` on the grid t_k = deadline * k /
        grid_steps for its first ``steps`` steps, shape (n, steps): column
        k is the step from row k to row k + 1, as ``rk4_increment`` takes
        it with b = 0.

        Filled for the whole grid on the first call for it, ``_BLOCK``
        steps at a time to bound the scratch arrays, and kept for the last
        grid asked for, so every integration of this margin on one grid
        shares them.
        """
        grid, out = self._nominal
        if grid != grid_steps:
            out = np.empty((self.n, grid_steps))
            t_c = self.deadline
            for g0 in range(0, grid_steps, _BLOCK):
                g1 = min(g0 + _BLOCK, grid_steps)
                m = g1 - g0
                rows_t = t_c * np.arange(g0, g1 + 1) / grid_steps
                h = rows_t[1:] - rows_t[:-1]
                a = self.rates(np.concatenate((rows_t, rows_t[:-1] + 0.5 * h))).T
                out[:, g0:g1] = rk4_increment(a[:, :m], a[:, m + 1:], a[:, 1:m + 1],
                                              0.0, 0.0, h)
            object.__setattr__(self, "_nominal", (grid_steps, out))
        return out[:, :steps]

    def window_block(self, grid_steps: int, key, compute):
        """The window kernel block stored under ``key`` on the grid of
        ``grid_steps`` steps, ``compute()`` on the first call for it.

        ``tube_core`` keys each block by every input it reads besides this
        margin, so a stored block has the bits a fresh one would.  Only
        the last grid asked for is kept; its arrays are read-only.
        """
        grid, blocks = self._windows
        if grid != grid_steps:
            blocks = {}
            object.__setattr__(self, "_windows", (grid_steps, blocks))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = compute()
            for array in block:
                array.flags.writeable = False
        return block
