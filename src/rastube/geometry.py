"""Closed intervals and axis-aligned boxes.

These are the value types every other module builds on.  Touching sets
count as intersecting: safety checks treat tangency as a violation, so
disjointness always means a strictly positive gap in some dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` for a 2-d ``a`` of few columns, as one
    call per column, left to right: numpy's row reduction costs about 50
    times as much.

    A non-NaN result has the reduction's bits, the sign of a zero
    included, with numpy's AVX2 and AVX-512 kernels.  Which NaN a row
    gives, and with older kernels the sign of a zero among three
    mixed-sign zeros, follow the reduction's internal order and may
    differ; a NaN stays a NaN.
    """
    out = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        ufunc(out, a[:, c], out=out)
    return out


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi enforced at construction."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains_value(self, x: float, strict: bool = False) -> bool:
        if strict:
            return self.lo < x < self.hi
        return self.lo <= x <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True when the closed intervals share at least one point."""
        return max(self.lo, other.lo) <= min(self.hi, other.hi)


@dataclass(frozen=True)
class Box:
    """Axis-aligned hyperrectangle as a tuple of per-dimension intervals."""

    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("box needs at least one dimension")
        for d in self.dims:
            if not isinstance(d, Interval):
                raise ValueError(f"box dimensions must be Interval, got {type(d).__name__}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "Box":
        return cls(tuple(Interval(float(lo), float(hi)) for lo, hi in pairs))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def lower(self) -> np.ndarray:
        return np.array([d.lo for d in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([d.hi for d in self.dims])

    def _check_dims(self, other: "Box"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def contains(self, inner: "Box") -> bool:
        """True iff every dimension of ``inner`` lies inside this box."""
        self._check_dims(inner)
        return all(o.contains(i) for o, i in zip(self.dims, inner.dims))

    def contains_point(self, x: Sequence[float], strict: bool = False) -> bool:
        if len(x) != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {len(x)}")
        return all(d.contains_value(float(v), strict=strict) for d, v in zip(self.dims, x))

    def disjoint_from(self, other: "Box") -> bool:
        """True iff some dimension separates the boxes with a positive gap."""
        self._check_dims(other)
        return any(not a.intersects(b) for a, b in zip(self.dims, other.dims))

    def clearance(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Each row's largest per-dimension gap to this box, for rows of
        boxes given by ``lower`` and ``upper`` of shape (m, n): positive
        iff the row's box is disjoint from this one, the row-wise form of
        ``disjoint_from``."""
        # in place, to allocate one (m, n) temporary fewer: a corridor
        # holds up to 1e6 rows
        gaps = self.lower - upper
        np.maximum(gaps, lower - self.upper, out=gaps)
        return fold_columns(np.maximum, gaps)

    def as_pairs(self) -> list:
        return [[d.lo, d.hi] for d in self.dims]
