"""Adaptive corridor synthesis and verification.

The corridor lower bound follows the nominal reach margin and, inside each
detour window, blends toward the plan's level and back through three
smoothly weighted phases.  The upper bound is the lower bound shifted by
the corridor width.  Synthesis integrates the blended derivative with
fixed-step RK4; verification and smoothness checks run on the stored grid.

``Tube.to_csv`` and ``plant.SimTrace.to_csv`` write every grid row through
``_write_rows``: each value as ``%.17g``, one ``%`` operation per slice of
256 rows, with the second half of a large table formatted by a forked
child (``in_child``).  The bytes are those of ``%.17g`` applied value by
value, in one process or two.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import tube_core
from .avoidance import ObstaclePlan
from .errors import InfeasibleScenarioError, SynthesisError
from .geometry import Box
from .scenario import RasTask, TubeParams


@dataclass
class Tube:
    """Sampled corridor: uniform time grid, lower bounds, constant width."""

    ts: np.ndarray        # (N+1,)
    lower: np.ndarray     # (N+1, n)
    width: np.ndarray     # (n,)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.width = np.asarray(self.width, dtype=float)
        if self.lower.shape != (self.ts.shape[0], self.width.shape[0]):
            raise ValueError("inconsistent tube grid shapes")

    @property
    def n(self) -> int:
        return self.width.shape[0]

    @property
    def upper(self) -> np.ndarray:
        return self.lower + self.width[None, :]

    def bounds_at(self, times) -> Tuple[np.ndarray, np.ndarray]:
        """Linearly interpolated (lower, upper) at each of ``times``, as
        arrays of shape (len(times), n).

        Clamped to the first/last grid row outside the synthesis horizon;
        the corridor is constant past the deadline.
        """
        t = np.asarray(times, dtype=float)
        ts = self.ts
        rows = ts.shape[0]
        t0 = float(ts[0])
        t1 = float(ts[-1])
        lo = np.where((t <= t0)[:, None], self.lower[0], self.lower[-1])
        inner = np.flatnonzero((t > t0) & (t < t1))
        if inner.size:
            pos = (t[inner] - t0) / ((t1 - t0) / (rows - 1))
            i = np.minimum(pos.astype(np.intp), rows - 2)
            frac = (pos - i)[:, None]
            lo[inner] = (1.0 - frac) * self.lower[i] + frac * self.lower[i + 1]
        return lo, lo + self.width

    def bounds(self, t: float) -> Tuple[List[float], List[float]]:
        """``bounds_at`` at the one time t, as float lists."""
        lo, hi = self.bounds_at([t])
        return lo[0].tolist(), hi[0].tolist()

    def rates(self) -> np.ndarray:
        """Finite-difference derivative on the grid, shape (N, n)."""
        dt = np.diff(self.ts)[:, None]
        return np.diff(self.lower, axis=0) / dt

    def to_csv(self, path) -> None:
        header = ["t"]
        for i in range(self.n):
            header += [f"g{i + 1}L", f"g{i + 1}U"]
        _write_rows(path, header, self.ts.shape[0], lambda a, b: np.column_stack(
            (self.ts[a:b], _pairs(self.lower[a:b], self.lower[a:b] + self.width))))

    @classmethod
    def from_csv(cls, path) -> "Tube":
        with warnings.catch_warnings():
            # a header-only file is reported by the shape check below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] < 3 or (data.shape[1] - 1) % 2:
            raise ValueError("tube CSV needs columns t,g1L,g1U,...")
        n = (data.shape[1] - 1) // 2
        ts = data[:, 0]
        lower = data[:, 1::2]
        upper = data[:, 2::2]
        width = upper[0] - lower[0]
        tube = cls(ts=ts, lower=lower, width=width)
        # keep any row-wise width variation the file carries so that
        # verification sees exactly what was loaded
        tube._upper_override = upper
        return tube

    _upper_override: Optional[np.ndarray] = field(default=None, repr=False)

    def upper_grid(self) -> np.ndarray:
        if self._upper_override is not None:
            return self._upper_override
        return self.upper


def _pairs(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Columns lower_1, upper_1, lower_2, upper_2, ..."""
    return np.stack((lower, upper), axis=2).reshape(lower.shape[0], -1)


# rows formatted by one ``%`` operation
_SLICE = 256
# bytes copied from a writer child's pipe at a time
_COPY_CHUNK = 1 << 20
# set in a child forked by ``in_child``: it does its work in-line and
# forks no child of its own
_forked = False


def _can_fork() -> bool:
    return hasattr(os, "fork") and not _forked


@contextlib.contextmanager
def in_child(work, what: str):
    """Run ``work()`` in a forked child while the body runs.

    The child leaves through ``os._exit``, so it flushes no inherited
    buffers and runs no exit handlers.  It is waited for on the way out,
    and a failed child raises OSError naming ``what`` unless the body is
    raising already.  Where ``os.fork`` is missing, and inside such a
    child, ``work()`` runs in-line before the body instead.
    """
    global _forked
    if not _can_fork():
        work()
        yield
        return
    pid = os.fork()
    if pid == 0:
        _forked = True
        code = 1
        try:
            work()
            code = 0
        except Exception as exc:
            os.write(2, f"error: {exc}\n".encode())
        finally:
            os._exit(code)
    try:
        yield
    finally:
        _, status = os.waitpid(pid, 0)
    if status:
        raise OSError(f"{what} failed in a child process "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")


def _formatted(block, ints, a: int, b: int):
    """Rows a..b-1 as CSV bytes, one ``%`` operation per slice of
    ``_SLICE`` rows: the row format repeated once per row, applied to the
    slice's values flattened row by row, with each row's ``ints`` entry
    as a Python int after its floats."""
    for lo in range(a, b, _SLICE):
        values = block(lo, min(lo + _SLICE, b))
        rows, cols = values.shape
        flat = values.ravel().tolist()
        fmt = ",".join(["%.17g"] * cols)
        if ints is not None:
            fmt += ",%d"
            merged = [0] * (rows * (cols + 1))
            for j in range(cols):
                merged[j::cols + 1] = flat[j::cols]
            merged[cols::cols + 1] = ints[lo:lo + rows].tolist()
            flat = merged
        yield ((fmt + "\n") * rows % tuple(flat)).encode()


def _write_rows(path, header: Sequence[str], n_rows: int, block, ints=None) -> None:
    """CSV with a header line and ``n_rows`` rows of values, each written
    as ``%.17g`` (17 significant digits).  ``block(a, b)`` returns rows
    a..b-1 as a 2-d array; ``ints`` adds a last integer column, written
    as ``%d``.  Rows are built and formatted a slice at a time, which
    keeps memory flat.

    From ``2 * _SLICE`` rows on, and where ``in_child`` can fork, a child
    formats the second half (from a slice boundary) into a pipe while
    this process writes the header and the first half; the pipe is then
    copied into the file ``_COPY_CHUNK`` bytes at a time.  The file's
    bytes are the same either way.
    """
    head = n_rows // (2 * _SLICE) * _SLICE if _can_fork() else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not head:
            fh.writelines(_formatted(block, ints, 0, n_rows))
            return
        read_end, write_end = os.pipe()
        with open(read_end, "rb", buffering=0) as source, open(write_end, "wb") as sink:

            def tail():
                source.close()
                # formatted in full before writing, so that a full pipe does
                # not hold the child back while the parent formats its half
                sink.writelines(list(_formatted(block, ints, head, n_rows)))
                sink.close()

            with in_child(tail, f"writing {path}"):
                sink.close()
                # the read end closes before the child is waited for, so an
                # error in this half leaves no child blocked on a full pipe
                with source:
                    fh.writelines(_formatted(block, ints, 0, head))
                    while chunk := source.read(_COPY_CHUNK):
                        fh.write(chunk)


def evolve_tube(task: RasTask, plans: Sequence[ObstaclePlan], params: TubeParams) -> Tube:
    """Integrate the corridor lower bound over [0, deadline].

    Raises InfeasibleScenarioError when two plans overlap in time and
    SynthesisError when the integration produces non-finite values.
    """
    spans = [(p.prep_time, p.release_time, p.index) for p in plans]
    spans.sort()
    for (a_lo, a_hi, ja), (b_lo, b_hi, jb) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            raise InfeasibleScenarioError(
                f"plans for obstacles {ja} and {jb} overlap in time")

    margin = task.lower_margin()
    t_c = task.deadline
    n_steps = max(8, int(round(t_c / params.step)))
    grid, bad = tube_core.integrate_lower(margin, n_steps, plans, params)
    if bad >= 0:
        t_bad = t_c * bad / n_steps
        raise SynthesisError(f"corridor integration diverged at t={t_bad:.6g}", time=t_bad)
    ts = np.linspace(0.0, t_c, n_steps + 1)
    return Tube(ts=ts, lower=grid, width=2.0 * task.band_halfwidth)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    margin: float
    detail: str
    witness_times: tuple = ()


@dataclass(frozen=True)
class VerificationReport:
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def by_name(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "margin": c.margin,
                 "detail": c.detail, "witness_times": list(c.witness_times)}
                for c in self.conditions
            ],
        }


def _containment_slack(lower_row, upper_row, box: Box) -> float:
    slack = np.minimum(lower_row - box.lower, box.upper - upper_row)
    return float(np.min(slack))


# slack tolerated on start and arrival containment
_BOUNDARY_TOL = 1e-6
# witness times reported per condition
_MAX_WITNESSES = 5


def verify_tube(tube: Tube, task: RasTask) -> VerificationReport:
    """Grid check of the four corridor guarantees.

    start / arrival containment allow a tolerance of ``_BOUNDARY_TOL`` on
    the slack; unsafe-set clearance and bound ordering are strict, so a
    tangent corridor fails.
    """
    lower = tube.lower
    upper = tube.upper_grid()
    conditions = []

    s0 = _containment_slack(lower[0], upper[0], task.initial_set)
    conditions.append(ConditionResult(
        name="starts_inside", passed=s0 >= -_BOUNDARY_TOL, margin=s0,
        detail="corridor at t=0 inside the initial set"))

    s1 = _containment_slack(lower[-1], upper[-1], task.target_set)
    conditions.append(ConditionResult(
        name="arrives_inside", passed=s1 >= -_BOUNDARY_TOL, margin=s1,
        detail="corridor at the deadline inside the target set"))

    worst = math.inf
    witnesses: List[float] = []
    for u in task.unsafe_sets:
        gaps = np.maximum(u.lower[None, :] - upper, lower - u.upper[None, :])
        clearance = gaps.max(axis=1)
        worst = min(worst, float(clearance.min()))
        bad = np.nonzero(clearance <= 0.0)[0]
        witnesses.extend(tube.ts[bad[:_MAX_WITNESSES]].tolist())
    if not task.unsafe_sets:
        worst = math.inf
    conditions.append(ConditionResult(
        name="avoids_unsafe", passed=not witnesses,
        margin=worst if math.isfinite(worst) else float("inf"),
        detail="strictly positive clearance from every unsafe set",
        witness_times=tuple(sorted(witnesses)[:_MAX_WITNESSES])))

    gap = upper - lower
    min_gap = float(gap.min())
    bad_rows = np.nonzero(gap.min(axis=1) <= 0.0)[0]
    conditions.append(ConditionResult(
        name="ordered_bounds", passed=min_gap > 0.0, margin=min_gap,
        detail="lower bound strictly below upper bound",
        witness_times=tuple(tube.ts[bad_rows[:_MAX_WITNESSES]].tolist())))

    return VerificationReport(conditions=tuple(conditions))


@dataclass(frozen=True)
class SmoothnessReport:
    max_rate: float
    max_jump: float
    threshold: float
    flagged: tuple   # (time, dim) pairs

    @property
    def passed(self) -> bool:
        return not self.flagged

    def as_dict(self) -> dict:
        return {"max_rate": self.max_rate, "max_jump": self.max_jump,
                "threshold": self.threshold, "passed": self.passed,
                "flagged": [list(f) for f in self.flagged]}


def smoothness_check(tube: Tube) -> SmoothnessReport:
    """Flag grid steps whose rate spikes far above the tube's own typical rate.

    The threshold is 10 times the 99th percentile of the finite-difference
    rate magnitudes; a smooth corridor never reaches it, a step-like one
    does at every ramp.
    """
    rates = tube.rates()
    mags = np.abs(rates)
    max_rate = float(mags.max()) if mags.size else 0.0
    dt = float(np.diff(tube.ts).max()) if tube.ts.shape[0] > 1 else 0.0
    max_jump = float(np.abs(np.diff(tube.lower, axis=0)).max()) if tube.ts.shape[0] > 1 else 0.0
    threshold = 10.0 * float(np.percentile(mags, 99.0)) if mags.size else 0.0
    rows, dims = np.nonzero(mags > threshold)
    flagged = tuple((float(tube.ts[r + 1]), int(d)) for r, d in zip(rows, dims))
    return SmoothnessReport(max_rate=max_rate, max_jump=max_jump,
                            threshold=threshold, flagged=flagged)
