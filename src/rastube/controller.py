"""Model-free corridor-keeping feedback.

The law reads only the current state and the corridor bounds: the state is
mapped to a normalized coordinate in (-1, 1) per dimension, stretched
through a logarithmic barrier, and scaled by a gain that diverges at the
corridor boundary.  No plant model enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p
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


class TubeFrame:
    """Corridor bounds at one instant.

    Built from two equal-length 1-d sequences: float lists are kept as
    they are, anything else is converted through a float array.  The frame
    is validated once, here, and keeps the float lists the control law
    reads (``lo``, ``hi``, ``sums``, ``ws``); ``lower``, ``upper``,
    ``sum_bounds`` and ``widths`` return them as float arrays.
    """

    __slots__ = ("lo", "hi", "sums", "ws")

    def __init__(self, lower, upper):
        lo, hi = _float_list(lower), _float_list(upper)
        if lo is None or hi is None or len(lo) != len(hi):
            raise ConfigurationError([("frame", "bounds must be 1-d sequences of equal length")])
        ws = [b - a for a, b in zip(lo, hi)]
        for w in ws:
            if w <= 0:
                raise ConfigurationError([("frame", "upper bound must exceed lower bound")])
        self.lo = lo
        self.hi = hi
        self.sums = [b + a for a, b in zip(lo, hi)]
        self.ws = ws

    @property
    def lower(self) -> np.ndarray:
        return np.array(self.lo, dtype=float)

    @property
    def upper(self) -> np.ndarray:
        return np.array(self.hi, dtype=float)

    @property
    def sum_bounds(self) -> np.ndarray:
        return np.array(self.sums, dtype=float)

    @property
    def widths(self) -> np.ndarray:
        return np.array(self.ws, dtype=float)


def _float_list(values) -> Optional[list]:
    """``values`` as a list of floats, or None when it is not 1-d."""
    if isinstance(values, list):
        return values
    arr = np.asarray(values, dtype=float)
    return arr.tolist() if arr.ndim == 1 else None


# The law works on lists of floats, which is far faster than numpy on
# three-element vectors.  The logarithms go through math.log1p (the
# platform's libm), never np.log1p: numpy picks its log1p kernel by the
# CPU's SIMD level at run time, and its AVX-512 kernel rounds differently,
# so a trace would depend on the machine that wrote it.

def _normalized(x, sums, widths) -> list:
    return [(2.0 * xi - si) / wi for xi, si, wi in zip(x, sums, widths)]


def _barrier(e) -> list:
    return [log1p(v) - log1p(-v) for v in e]


def _gain(e, widths) -> list:
    return [4.0 / (wi * (1.0 - v * v)) for v, wi in zip(e, widths)]


def _check_inside(e, frame: TubeFrame, t: Optional[float]):
    for d, v in enumerate(e):
        if abs(v) >= 1.0:
            raise TubeViolationError(dim=d, value=0.5 * (v * frame.ws[d] + frame.sums[d]),
                                     lower=frame.lo[d], upper=frame.hi[d], time=t)


def normalized_error(x: np.ndarray, frame: TubeFrame) -> np.ndarray:
    """Map the state to corridor coordinates; inside the corridor iff in (-1, 1)."""
    return np.array(_normalized(np.asarray(x, dtype=float).tolist(), frame.sums, frame.ws))


def transformed_error(e: np.ndarray, frame: Optional[TubeFrame] = None,
                      t: Optional[float] = None) -> np.ndarray:
    """Barrier coordinate ln((1+e)/(1-e)); diverges at the corridor boundary.

    Raises TubeViolationError when any |e| >= 1; pass ``frame``/``t`` to
    enrich the error with state-space values.
    """
    e = np.asarray(e, dtype=float).tolist()
    if frame is not None:
        _check_inside(e, frame, t)
    for d, v in enumerate(e):
        if abs(v) >= 1.0:
            raise TubeViolationError(dim=d, value=v, lower=-1.0, upper=1.0, time=t)
    return np.array(_barrier(e))


def gain_diagonal(e: np.ndarray, frame: TubeFrame, t: Optional[float] = None) -> np.ndarray:
    """Diagonal of the barrier gain matrix, 4 / (width * (1 - e^2))."""
    e = np.asarray(e, dtype=float).tolist()
    _check_inside(e, frame, t)
    return np.array(_gain(e, frame.ws))


def _law(x, sums, ws, scale, lim) -> Optional[list]:
    """The feedback on float lists, in one pass: ``u``, or None when some
    |e_i| >= 1.  ``sums`` and ``ws`` are the frame's bound sums and widths,
    ``scale`` is -gain_sign * gain and ``lim`` the input limit or None."""
    u = []
    for xi, si, wi in zip(x, sums, ws):
        v = (2.0 * xi - si) / wi
        if abs(v) >= 1.0:
            return None
        # gain times barrier, in the operand order of _gain and _barrier
        ui = scale * (4.0 / (wi * (1.0 - v * v))) * (log1p(v) - log1p(-v))
        u.append(ui if lim is None else min(max(ui, -lim), lim))
    return u


def control_input(x, frame: TubeFrame, cfg: ControllerConfig,
                  t: Optional[float] = None):
    """Feedback input for one instant; pushes each component toward the
    corridor center with a gain diverging at the boundary.

    A state given as a list of floats gets a list back, anything else a
    float array.  Raises TubeViolationError when the state is not strictly
    inside.
    """
    as_list = isinstance(x, list)
    if not as_list:
        x = np.asarray(x, dtype=float).tolist()
    u = _law(x, frame.sums, frame.ws, -cfg.gain_sign * cfg.gain, cfg.input_limit)
    if u is None:
        _check_inside(_normalized(x, frame.sums, frame.ws), frame, t)
    return u if as_list else np.array(u)
