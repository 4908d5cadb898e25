"""Adaptive corridor synthesis and verification.

The corridor lower bound follows the nominal reach margin and, inside each
detour window, blends toward the plan's level and back through three
smoothly weighted phases.  The upper bound is the lower bound shifted by
the corridor width.  Synthesis integrates the blended derivative with
fixed-step RK4; verification and smoothness checks run on the stored grid.

``Tube.to_csv`` and ``plant.SimTrace.to_csv`` write every grid row through
``_write_rows``, in one process: each value as ``%.17g``, integer columns
included (an integer below 2**53 then has the bytes of ``%d``), formatted
``_SLICE`` rows at a time by array operations.  The kernel
(``_float_fields``) finds each value's 17 correctly rounded digits with a
double-double product and leaves to ``%`` only what it cannot decide:
non-finite values, magnitudes outside [1e-280, 1e280) other than zero, and
roundings within 1e-12 of a tie.  The bytes are those of ``%.17g`` applied
value by value.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import tube_core
from .avoidance import ObstaclePlan
from .errors import InfeasibleScenarioError, SynthesisError
from .geometry import Box, fold_columns
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
        t0, t1 = float(self.ts[0]), float(self.ts[-1])
        inner = (t > t0) & (t < t1)
        lo = np.where((t <= t0)[:, None], self.lower[0], self.lower[-1])
        if inner.any():
            lo[inner] = self._between(t[inner])
        return lo, lo + self.width

    def _between(self, t: np.ndarray) -> np.ndarray:
        """The lower bounds interpolated at times strictly inside the grid."""
        rows = self.ts.shape[0]
        t0, t1 = float(self.ts[0]), float(self.ts[-1])
        pos = (t - t0) / ((t1 - t0) / (rows - 1))
        i = np.minimum(pos.astype(np.intp), rows - 2)
        frac = (pos - i)[:, None]
        return (1.0 - frac) * self.lower[i] + frac * self.lower[i + 1]

    def bounds(self, t: float) -> Tuple[List[float], List[float]]:
        """``bounds_at`` at the one time t, as float lists."""
        lo, hi = self.bounds_at([t])
        return lo[0].tolist(), hi[0].tolist()

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
        if not np.isfinite(data).all():
            raise ValueError("tube CSV holds a non-finite value")
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


# rows formatted together
_SLICE = 1024


# -- ``%.17g`` as array operations ------------------------------------------
#
# Every value gets a field of 32 bytes, built as four little-endian uint64
# words (byte b of a word is bits 8b..8b+7), and every byte the value does
# not use is NUL:
#
#   0       '-' for a negative value
#   1-5     "0." and up to three zeros, for decimal exponents -4..-1
#   7-24    the 17 significant digits, with '.' after the integer digits
#           (after the first digit in scientific notation) and the
#           trailing zeros of the fraction dropped
#   25-29   "e+dd", "e-ddd" and so on, in scientific notation
#   31      the separator
#
# Dropping the NULs of a slice's fields leaves the CSV text.  The digits
# are N = round(|x| * 10**(16 - X)) with X = floor(log10 |x|), the
# correctly rounded 17 digits that ``%`` prints.

# decimal exponents with a 10**(16 - X) table entry, one either side of
# those of the magnitudes [_LOW, _HIGH) the kernel formats; outside them the
# Veltkamp split below could overflow
_X_LO, _X_HI = -282, 282
_LOW, _HIGH = 1e-280, 1e280
# |fraction - 0.5| of the scaled value below which the rounding goes
# through ``%``: the double-double product is within 1e-14 of the exact one
_TIE = 1e-12


def _split(v):
    """Veltkamp's split of v into a high part of 26 bits and the rest,
    so that the product of two high or two low parts is exact."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


def _pow10(k: int) -> Tuple[float, float]:
    """10**k as hi + lo, both correctly rounded, from exact integers."""
    if k >= 0:
        hi = float(10 ** k)
        return hi, float(10 ** k - int(hi))
    hi = 1 / 10 ** -k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10 ** -k) / (den * 10 ** -k)


def _byte_word(text: bytes, at: int) -> int:
    """The field word holding ``text`` from byte ``at`` on."""
    return int.from_bytes(bytes(at) + text, "little")


def _mask(lo: int, hi: int, word: int) -> int:
    """The bytes lo <= 8 * word + b < hi of a field word, set."""
    start, end = max(lo - 8 * word, 0), min(hi - 8 * word, 8)
    return (1 << 8 * end) - (1 << 8 * start) if start < end else 0


class _Tables(NamedTuple):
    # per decimal exponent X, at index X - _X_LO: 10**(16 - X) as hi + lo
    # and the split of hi, and the word 0 and word 3 bytes ("0.00",
    # "e+17"); at (X - _X_LO) * 17 + z, for z trailing zeros, the body
    # index point * 18 + kept: the index of the decimal point in the body
    # (17: none) and the digits kept, trailing zeros dropped except the
    # integer digits of fixed notation
    scale_hi: np.ndarray
    scale_lo: np.ndarray
    scale_hh: np.ndarray
    scale_hl: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    body: np.ndarray
    # per body index point * 18 + kept digits, for words 1..3: where the
    # digits before the point stay, where those after it go, moved one
    # byte on, and the point itself
    keep: tuple
    move: tuple
    dot: tuple
    # "0000".."9999" as little-endian words (in the low 32 bits of a
    # uint64), and their trailing zeros
    digits: np.ndarray
    zeros: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built on the first write, so that a
    process that writes no CSV does not pay for them."""
    xs = range(_X_LO, _X_HI + 1)
    scale = np.array([_pow10(16 - x) for x in xs]).T.copy()
    prefix = np.zeros(len(xs), np.uint64)
    suffix = np.zeros(len(xs), np.uint64)
    point = np.ones(len(xs), np.intp)
    kept = np.ones(len(xs), np.intp)
    for i, x in enumerate(xs):
        if -4 <= x < 0:
            prefix[i] = _byte_word(b"0.000"[:1 - x], 1)
            point[i] = 17
        elif 0 <= x < 17:
            point[i] = kept[i] = x + 1
        else:
            suffix[i] = _byte_word(b"e%+03d" % x, 1)
    masks = np.zeros((3, 3, 18 * 18), np.uint64)
    for p in range(1, 18):
        at = 7 + p
        for k in range(1, 18):
            for w in range(3):
                masks[:, w, p * 18 + k] = (
                    _mask(0, min(at, 7 + k), w + 1), _mask(at + 1, 8 + k, w + 1),
                    _mask(at, at + 1, w + 1) & 0x2E2E2E2E2E2E2E2E if k > p else 0)
    n = np.arange(10000)
    return _Tables(
        scale[0], scale[1], *_split(scale[0]), prefix, suffix,
        (point[:, None] * 18 + np.maximum(17 - np.arange(17), kept[:, None])).ravel(),
        *(tuple(m) for m in masks),
        sum((0x30 + n.astype(np.uint64) // 10 ** (3 - k) % 10) << 8 * k for k in range(4)),
        sum((n % 10 ** k == 0).astype(np.int8) for k in range(1, 5)))


_COMMA = 0x2C << 56


def _scaled(a, X, t: _Tables):
    """a * 10**(16 - X) as ph + pl: ph the rounded product, an integer
    from 2**53 on, and pl the rest (Dekker's product)."""
    i = X - _X_LO
    ph = a * t.scale_hi[i]
    ah, al = _split(a)
    bh, bl = t.scale_hh[i], t.scale_hl[i]
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    return ph, pl + a * t.scale_lo[i]


def _outside(ph, pl):
    """Where ph + pl >= 1e17, and where it is below 1e16."""
    return (ph - 1e17) + pl >= 0, (ph - 1e16) + pl < 0


def _digit_words(n, digits):
    """The last 16 decimal digits of int64 n >= 0 as ASCII, in two uint64
    words (bytes 8..15 and 16..23 of a field).  Returns the number the
    digits before them form, the two words, and the 16 digits as four
    numbers below 10**4."""
    q = n // 10 ** 8
    head = q // 10 ** 8
    chunks = []
    for part in (q - head * 10 ** 8, n - q * 10 ** 8):
        high = part // 10 ** 4
        chunks += [high, part - high * 10 ** 4]
    c1, c2, c3, c4 = chunks
    return head, digits[c1] | digits[c2] << 32, digits[c3] | digits[c4] << 32, chunks


def _float_fields(x, t: _Tables):
    """The 32-byte fields of ``"%.17g" % v`` for each v of 1-d float64 x,
    each ended by a comma, and the indices the kernel left to ``%``:
    non-finite values, magnitudes outside [_LOW, _HIGH) other than zero,
    and roundings too close to a tie."""
    a = np.abs(x)
    ok = (a >= _LOW) & (a < _HIGH)
    a = np.where(ok, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    ph, pl = _scaled(a, X, t)
    # np.log10 only estimates X: the product says where it is one off
    over, under = _outside(ph, pl)
    fix = np.flatnonzero(over | under)
    if fix.size:
        X[fix] += over[fix].astype(np.intp) - under[fix]
        ph[fix], pl[fix] = again = _scaled(a[fix], X[fix], t)
        over, under = _outside(*again)
        ok[fix] &= ~(over | under)
    r = np.rint(pl)
    ok &= np.abs(np.abs(pl - r) - 0.5) >= _TIE
    N = ph.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(N == 10 ** 17)
    if carry.size:
        N[carry] = 10 ** 16
        X[carry] += 1
    head, w1, w2, (c1, c2, c3, c4) = _digit_words(N, t.digits)
    zeros = t.zeros[c4]
    z = np.flatnonzero(c4 == 0)
    if z.size:
        c1, c2, c3 = c1[z], c2[z], c3[z]
        zeros[z] = 4 + np.where(c3 != 0, t.zeros[c3], 4 + np.where(
            c2 != 0, t.zeros[c2], 4 + t.zeros[c1]))
    i = X - _X_LO
    j = t.body[i * 17 + zeros]
    keep, move, dot = t.keep, t.move, t.dot
    h = (head + 0x30).astype(np.uint64)
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = (h << 56) | t.prefix[i] | (x.view(np.uint64) >> 63) * 0x2D
    out[:, 1] = (w1 & keep[0][j]) | (((w1 << 8) | h) & move[0][j]) | dot[0][j]
    out[:, 2] = (w2 & keep[1][j]) | (((w2 << 8) | (w1 >> 56)) & move[1][j]) | dot[1][j]
    out[:, 3] = ((w2 >> 56) & move[2][j]) | t.suffix[i] | _COMMA
    # a zero keeps its sign and gets one digit
    zero = np.flatnonzero(x == 0.0)
    if zero.size:
        out[zero, 0] = (out[zero, 0] & 0xFF) | 0x30 << 56
        out[zero, 1:3] = 0
        out[zero, 3] = _COMMA
    return out, np.flatnonzero(~ok & (x != 0.0))


def _patch(fields, at, texts) -> None:
    """Overwrite fields ``at`` with ``texts`` (the ``%`` fallback), keeping
    each field's last byte, the separator."""
    raw = fields.view(np.uint8)
    for k, text in zip(at.tolist(), texts):
        raw[k, :31] = 0
        raw[k, :len(text)] = np.frombuffer(text.encode(), np.uint8)


def _formatted(block, n_rows: int):
    """Rows 0..n_rows-1 as CSV bytes, ``_SLICE`` rows at a time: each
    value's field from ``_float_fields``, the row's last separator a
    newline, NULs dropped."""
    t = _tables()
    for lo in range(0, n_rows, _SLICE):
        values = np.asarray(block(lo, min(lo + _SLICE, n_rows)), dtype=float)
        rows, cols = values.shape
        x = values.ravel()
        fields, rest = _float_fields(x, t)
        _patch(fields, rest, ["%.17g" % v for v in x[rest].tolist()])
        row = fields.view(np.uint8).reshape(rows, 32 * cols)
        row[:, -1] = 0x0A
        yield row.tobytes().translate(None, b"\0")


def _write_rows(path, header: Sequence[str], n_rows: int, block) -> None:
    """CSV with a header line and ``n_rows`` rows of values, each written
    with the bytes of ``%.17g`` (17 significant digits), which for an
    integer below 2**53 are those of ``%d``.  ``block(a, b)`` returns rows
    a..b-1 as a 2-d array.  Rows are built and formatted ``_SLICE`` at a
    time by ``_formatted``, which keeps memory flat: a slice's fields take
    32 bytes per value."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(_formatted(block, n_rows))


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

    ts = params.grid(task.deadline)
    n_steps = ts.size - 1
    grid, bad = tube_core.integrate_lower(task.lower_margin(), n_steps, plans, params)
    if bad >= 0:
        t_bad = task.deadline * bad / n_steps
        raise SynthesisError(f"corridor integration diverged at t={t_bad:.6g}", time=t_bad)
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
        """The report as JSON values; a margin that is not finite (the
        vacuous clearance of a task without unsafe sets) becomes None, so
        the written file holds no ``Infinity`` literal."""
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed,
                 "margin": c.margin if math.isfinite(c.margin) else None,
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
        clearance = u.clearance(lower, upper)
        worst = min(worst, float(clearance.min()))
        bad = np.nonzero(clearance <= 0.0)[0]
        witnesses.extend(tube.ts[bad[:_MAX_WITNESSES]].tolist())
    conditions.append(ConditionResult(
        name="avoids_unsafe", passed=not witnesses, margin=worst,
        detail="strictly positive clearance from every unsafe set",
        witness_times=tuple(sorted(witnesses)[:_MAX_WITNESSES])))

    gap = upper - lower
    min_gap = float(gap.min())
    bad_rows = np.nonzero(fold_columns(np.minimum, gap) <= 0.0)[0]
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
    d = np.diff(tube.lower, axis=0)
    mags = np.abs(d / np.diff(tube.ts)[:, None])
    max_rate = float(mags.max()) if mags.size else 0.0
    max_jump = float(np.abs(d).max()) if d.size else 0.0
    threshold = 10.0 * float(np.percentile(mags, 99.0)) if mags.size else 0.0
    rows, dims = np.nonzero(mags > threshold)
    flagged = tuple((float(tube.ts[r + 1]), int(d)) for r, d in zip(rows, dims))
    return SmoothnessReport(max_rate=max_rate, max_jump=max_jump,
                            threshold=threshold, flagged=flagged)
