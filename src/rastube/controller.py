"""Model-free corridor-keeping feedback.

The law reads only the current state and the corridor bounds: the state is
mapped to a normalized coordinate in (-1, 1) per dimension, stretched
through a logarithmic barrier, and scaled by a gain that diverges at the
corridor boundary.  No plant model enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, TubeViolationError


@dataclass(frozen=True)
class ControllerConfig:
    gain: float = 2.0
    gain_sign: int = 1          # -1 for plants whose symmetric input map is negative definite
    input_limit: Optional[float] = None   # optional actuator clamp, off by default

    def __post_init__(self):
        if not self.gain > 0:
            raise ConfigurationError([("controller.gain", "must be positive")])
        if self.gain_sign not in (1, -1):
            raise ConfigurationError([("controller.gain_sign", "must be +1 or -1")])
        if self.input_limit is not None and not self.input_limit > 0:
            raise ConfigurationError([("controller.input_limit", "must be positive when set")])


@dataclass(frozen=True)
class TubeFrame:
    """Corridor bounds at one instant."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigurationError([("frame", "bounds must be 1-d arrays of equal length")])
        if (upper - lower <= 0).any():
            raise ConfigurationError([("frame", "upper bound must exceed lower bound")])
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def sum_bounds(self) -> np.ndarray:
        return self.upper + self.lower

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


# The law works on lists of floats, which is far faster than numpy on
# three-element vectors.  The logarithms go through np.log1p, so every
# value has the same bits as numpy's array arithmetic.

def _normalized(x, sums, widths) -> list:
    return [(2.0 * xi - si) / wi for xi, si, wi in zip(x, sums, widths)]


def _barrier(e) -> list:
    logs = np.log1p(list(e) + [-v for v in e]).tolist()
    n = len(logs) // 2
    return [a - b for a, b in zip(logs[:n], logs[n:])]


def _gain(e, widths) -> list:
    return [4.0 / (wi * (1.0 - v * v)) for v, wi in zip(e, widths)]


def _check_inside(e, lower, upper, sums, widths, t: Optional[float]):
    for d, v in enumerate(e):
        if abs(v) >= 1.0:
            raise TubeViolationError(dim=d, value=float(0.5 * (v * widths[d] + sums[d])),
                                     lower=float(lower[d]), upper=float(upper[d]), time=t)


def normalized_error(x: np.ndarray, frame: TubeFrame) -> np.ndarray:
    """Map the state to corridor coordinates; inside the corridor iff in (-1, 1)."""
    return np.array(_normalized(np.asarray(x, dtype=float).tolist(),
                                frame.sum_bounds.tolist(), frame.widths.tolist()))


def transformed_error(e: np.ndarray, frame: Optional[TubeFrame] = None,
                      t: Optional[float] = None) -> np.ndarray:
    """Barrier coordinate ln((1+e)/(1-e)); diverges at the corridor boundary.

    Raises TubeViolationError when any |e| >= 1; pass ``frame``/``t`` to
    enrich the error with state-space values.
    """
    e = np.asarray(e, dtype=float).tolist()
    if frame is not None:
        _check_inside(e, frame.lower, frame.upper, frame.sum_bounds, frame.widths, t)
    for d, v in enumerate(e):
        if abs(v) >= 1.0:
            raise TubeViolationError(dim=d, value=v, lower=-1.0, upper=1.0, time=t)
    return np.array(_barrier(e))


def gain_diagonal(e: np.ndarray, frame: TubeFrame, t: Optional[float] = None) -> np.ndarray:
    """Diagonal of the barrier gain matrix, 4 / (width * (1 - e^2))."""
    e = np.asarray(e, dtype=float).tolist()
    _check_inside(e, frame.lower, frame.upper, frame.sum_bounds, frame.widths, t)
    return np.array(_gain(e, frame.widths.tolist()))


def control_input(x: np.ndarray, frame: TubeFrame, cfg: ControllerConfig,
                  t: Optional[float] = None) -> np.ndarray:
    """Feedback input for one instant; pushes each component toward the
    corridor center with a gain diverging at the boundary.

    Raises TubeViolationError when the state is not strictly inside.
    """
    sums = frame.sum_bounds.tolist()
    widths = frame.widths.tolist()
    e = _normalized(np.asarray(x, dtype=float).tolist(), sums, widths)
    _check_inside(e, frame.lower, frame.upper, sums, widths, t)
    scale = -cfg.gain_sign * cfg.gain
    u = [scale * g * b for g, b in zip(_gain(e, widths), _barrier(e))]
    if cfg.input_limit is not None:
        lim = cfg.input_limit
        u = [min(max(v, -lim), lim) for v in u]
    return np.array(u)
