"""Control-effort metrics and the reconstructed abrupt-corridor baseline.

The baseline replaces each smooth detour with near-step ramps at the
window edges, standing in for older corridor constructions that displace
the bounds abruptly.  It exists only for effort comparisons and is
labelled "reconstructed" in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .avoidance import ObstaclePlan
from .geometry import fold_columns
from .plant import SimTrace
from .reach import _tanh
from .scenario import RasTask, TubeParams
from .tube import Tube

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class EffortReport:
    energy: float   # integral of ||u||^2
    peak: float     # max ||u||
    l1: float       # integral of ||u||

    def as_dict(self) -> dict:
        return {"energy": self.energy, "peak": self.peak, "l1": self.l1}


def control_effort(trace: SimTrace) -> EffortReport:
    """Trapezoidal effort integrals over the recorded grid up to the task
    deadline; failed traces are integrated up to the failure time.
    """
    if trace.ts.shape[0] == 0:
        raise ValueError("empty trace")
    mask = trace.ts <= trace.deadline + 1e-12
    ts = trace.ts[mask]
    if ts.shape[0] == 0:
        raise ValueError("no trace rows before the deadline")
    u = trace.inputs[mask]
    # the bits of np.linalg.norm(u, axis=1), one call per input column
    norms = np.sqrt(fold_columns(np.add, u * u))
    if ts.shape[0] == 1:
        return EffortReport(energy=0.0, peak=float(norms[0]), l1=0.0)
    return EffortReport(energy=float(_trapezoid(norms ** 2, ts)),
                        peak=float(norms.max()),
                        l1=float(_trapezoid(norms, ts)))


def baseline_tube(task: RasTask, plans: Sequence[ObstaclePlan], params: TubeParams) -> Tube:
    """Abrupt-detour corridor on the same grid as the smooth one.

    Identical to nominal-margin tracking outside the detour windows; inside
    each window the bound sits at the plan level, entered and left through
    steep tanh ramps at the window edges.
    """
    ts = params.grid(task.deadline)
    lower = task.lower_margin().value_grid(ts)
    # tanh time constant of the ramps: a small fraction of the window
    # margin, so ramps are an order of magnitude steeper than any
    # smooth-corridor transient while still trackable at a reduced step
    scale = params.window_margin / 50.0
    for p in plans:
        gate = 0.5 * (_tanh((ts - p.prep_time) / scale)
                      - _tanh((ts - p.release_time) / scale))
        lower[:, p.dim] += (p.level - lower[:, p.dim]) * gate
    return Tube(ts=ts, lower=lower, width=2.0 * task.band_halfwidth)


def comparison_report(scenario_name: str, seed: int, smooth: EffortReport,
                      baseline: EffortReport, smooth_flags: dict,
                      baseline_flags: dict) -> dict:
    def ratio(a, b):
        return a / b if b > 0 else float("inf")

    return {
        "scenario": scenario_name,
        "seed": seed,
        "baseline_kind": "reconstructed",
        "smooth": smooth.as_dict(),
        "baseline": baseline.as_dict(),
        "energy_ratio": ratio(smooth.energy, baseline.energy),
        "peak_ratio": ratio(smooth.peak, baseline.peak),
        "l1_ratio": ratio(smooth.l1, baseline.l1),
        "smooth_flags": smooth_flags,
        "baseline_flags": baseline_flags,
    }
