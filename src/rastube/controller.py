"""Model-free corridor-keeping feedback.

The law reads only the current state and the corridor bounds: the state is
mapped to a normalized coordinate in (-1, 1) per dimension, stretched
through a logarithmic barrier, and scaled by a gain that diverges at the
corridor boundary.  No plant model enters anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigurationError, TubeViolationError


@dataclass(frozen=True)
class ControllerConfig:
    gain: float = 2.0
    gain_sign: int = 1          # -1 for plants whose symmetric input map is negative definite
    input_limit: Optional[float] = None   # optional actuator clamp, off by default

    def __post_init__(self):
        issues = []
        if not self.gain > 0:
            issues.append(("controller.gain", "must be positive"))
        # an integer: 1.0 and True compare equal to 1
        if not isinstance(self.gain_sign, int) or isinstance(self.gain_sign, bool) \
                or self.gain_sign not in (1, -1):
            issues.append(("controller.gain_sign", "must be +1 or -1"))
        if self.input_limit is not None and not self.input_limit > 0:
            issues.append(("controller.input_limit", "must be positive when set"))
        if issues:
            raise ConfigurationError(issues)


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


# The law is written once, below, as Python source for one component.
# Everything that evaluates it is compiled from that text: control_input
# through compiled_law, the helpers normalized_error, transformed_error and
# gain_diagonal through their one-line functions, and the closed loop's
# block runner (plant._runner), which inlines it at every stage.  The
# logarithms go through math.log1p (the platform's libm), never np.log1p:
# numpy picks its log1p kernel by the CPU's SIMD level at run time, and its
# AVX-512 kernel rounds differently, so a trace would depend on the
# machine that wrote it.
_NORMALIZED = "(2.0 * {x} - {s}) / {w}"
_GAIN = "(4.0 / ({w} * (1.0 - {e} * {e})))"
_BARRIER = "(log1p({e}) - log1p(-{e}))"


def law_lines(i: int, x: str, s: str, w: str, reject: str, clamped: bool) -> List[str]:
    """Source lines that set ``u{i}``, component ``i`` of the law, from the
    state ``x``, bound sum ``s`` and width ``w`` (names of float locals).
    They run the statement ``reject`` when |e| >= 1; written as two
    comparisons, a NaN passes as it does ``abs(e) >= 1.0``.  The code that
    runs them binds ``scale`` (-gain_sign * gain) and, when ``clamped``,
    the input limit ``lim``."""
    e = f"e{i}"
    lines = [f"{e} = " + _NORMALIZED.format(x=x, s=s, w=w),
             f"if {e} >= 1.0 or {e} <= -1.0: {reject}",
             f"u{i} = scale * " + _GAIN.format(w=w, e=e) + " * " + _BARRIER.format(e=e)]
    if clamped:
        lines.append(f"u{i} = min(max(u{i}, -lim), lim)")
    return lines


def local_names(p: str, n: int) -> List[str]:
    return [f"{p}{i}" for i in range(n)]


def vec(names: List[str]) -> str:
    return f"[{', '.join(names)}]"


def compiled(name: str, params: str, body: List[str]):
    """The function ``def name(params)`` whose lines are ``body``, compiled
    with the public names of ``math`` (``log1p``, ``inf``, ``cos``, ...)
    bound."""
    scope = {k: v for k, v in vars(math).items() if not k.startswith("_")}
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<rastube {name}>", "exec"), scope)
    return scope[name]


def _one_line(params: str, expr: str):
    return compiled("f", params, [f"return {expr}"])


_normalized_1 = _one_line("x, s, w", _NORMALIZED.format(x="x", s="s", w="w"))
_barrier_1 = _one_line("e", _BARRIER.format(e="e"))
_gain_1 = _one_line("e, w", _GAIN.format(e="e", w="w"))


@functools.cache
def compiled_law(n: int, clamped: bool):
    """The law for ``n`` components, compiled from ``law_lines``:
    ``law(x, sums, ws, scale, lim)`` returns ``u`` as a list of floats, or
    None when some |e_i| >= 1.  ``sums`` and ``ws`` are the frame's bound
    sums and widths; ``x``, ``sums`` and ``ws`` must hold ``n`` values."""
    x, s, w, u = (local_names(p, n) for p in "xswu")
    body = [f"{vec(x)} = x", f"{vec(s)} = sums", f"{vec(w)} = ws"]
    for i in range(n):
        body += law_lines(i, x[i], s[i], w[i], "return None", clamped)
    body.append(f"return {vec(u)}")
    return compiled("law", "x, sums, ws, scale, lim", body)


def _normalized(x, sums, widths) -> list:
    return list(map(_normalized_1, x, sums, widths))


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
    return np.array(list(map(_barrier_1, e)))


def gain_diagonal(e: np.ndarray, frame: TubeFrame, t: Optional[float] = None) -> np.ndarray:
    """Diagonal of the barrier gain matrix, 4 / (width * (1 - e^2))."""
    e = np.asarray(e, dtype=float).tolist()
    _check_inside(e, frame, t)
    return np.array(list(map(_gain_1, e, frame.ws)))


def control_input(x, frame: TubeFrame, cfg: ControllerConfig,
                  t: Optional[float] = None):
    """Feedback input for one instant; pushes each component toward the
    corridor center with a gain diverging at the boundary.

    A state given as a list of floats gets a list back, anything else a
    float array.  Raises TubeViolationError when the state is not strictly
    inside, and ValueError when it has not one value per frame dimension.
    """
    as_list = isinstance(x, list)
    if not as_list:
        x = np.asarray(x, dtype=float).tolist()
    law = compiled_law(len(x), cfg.input_limit is not None)
    u = law(x, frame.sums, frame.ws, -cfg.gain_sign * cfg.gain, cfg.input_limit)
    if u is None:
        _check_inside(_normalized(x, frame.sums, frame.ws), frame, t)
    return u if as_list else np.array(u)
