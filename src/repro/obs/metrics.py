"""The bounded streaming histogram behind every obs latency and depth.

Serving shards record one latency sample per decision, a long stream
records millions, and the pre-obs telemetry kept every sample in an
unbounded ``list[float]``.  :class:`Histogram` replaces that with
**fixed log-spaced bins** — O(1) memory regardless of sample count,
O(1) record, mergeable across processes (bin-wise addition), with
quantiles read off the cumulative bin counts.  Default geometry covers
1 µs .. 1000 s at 30 bins per decade (≈ ±4 % relative quantile error),
which spans every latency this repo measures; callers recording
non-time values (queue depths) pick their own ``lo``/``decades``.

Counters and gauges are plain dict entries of the live
:class:`~repro.obs.collect.ObsSnapshot`; the global recorder lives in
:mod:`repro.obs.collect`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Histogram"]


class Histogram:
    """Bounded streaming histogram over fixed log-spaced bins.

    Bin ``b`` (1-based) covers ``[lo * 10**((b-1)/bpd), lo * 10**(b/bpd))``
    with ``bpd = bins_per_decade``; slot 0 is the underflow bucket
    (``x < lo``, including zeros and negatives) and the last slot is
    overflow.  Alongside the bins it tracks exact count/sum/min/max, so
    the mean is exact and quantiles are clamped into the observed range.
    Instances with identical geometry merge by bin-wise addition.
    """

    __slots__ = ("lo", "decades", "bins_per_decade", "counts",
                 "count", "total", "vmin", "vmax")

    def __init__(self, lo: float = 1e-6, decades: int = 9,
                 bins_per_decade: int = 30) -> None:
        if lo <= 0 or decades < 1 or bins_per_decade < 1:
            raise ValueError(
                f"bad histogram geometry: lo={lo}, decades={decades}, "
                f"bins_per_decade={bins_per_decade}"
            )
        self.lo = float(lo)
        self.decades = int(decades)
        self.bins_per_decade = int(bins_per_decade)
        self.counts = np.zeros(self.nbins + 2, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    @property
    def nbins(self) -> int:
        return self.decades * self.bins_per_decade

    @property
    def hi(self) -> float:
        return self.lo * 10.0 ** self.decades

    def geometry(self) -> tuple[float, int, int]:
        return (self.lo, self.decades, self.bins_per_decade)

    # -- recording -----------------------------------------------------

    def record(self, x: float) -> None:
        """Record one sample (non-finite values are dropped)."""
        x = float(x)
        if not math.isfinite(x):
            return
        if x < self.lo:
            i = 0
        elif x >= self.hi:
            i = self.nbins + 1
        else:
            i = min(int(math.log10(x / self.lo) * self.bins_per_decade) + 1,
                    self.nbins)
        self.counts[i] += 1
        self.count += 1
        self.total += x
        if x < self.vmin:
            self.vmin = x
        if x > self.vmax:
            self.vmax = x

    def record_many(self, values) -> None:
        """Vectorized :meth:`record` (non-finite values are dropped)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size:
            arr = arr[np.isfinite(arr)]
        if not arr.size:
            return
        idx = np.zeros(arr.shape, dtype=np.int64)
        pos = arr >= self.lo
        if np.any(pos):
            idx[pos] = (
                np.floor(np.log10(arr[pos] / self.lo) * self.bins_per_decade)
                .astype(np.int64) + 1
            )
        np.clip(idx, 0, self.nbins + 1, out=idx)
        np.add.at(self.counts, idx, 1)
        self.count += int(arr.size)
        self.total += float(arr.sum())
        self.vmin = min(self.vmin, float(arr.min()))
        self.vmax = max(self.vmax, float(arr.max()))

    # -- reading -------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bin_value(self, b: int) -> float:
        """Representative value for slot ``b`` (geometric bin midpoint)."""
        if b <= 0:
            return self.vmin if self.count else 0.0
        if b >= self.nbins + 1:
            return self.vmax if self.count else 0.0
        return self.lo * 10.0 ** ((b - 0.5) / self.bins_per_decade)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, clamped to [min, max]."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.vmin
        if q >= 1.0:
            return self.vmax
        rank = max(1, int(math.ceil(q * self.count)))
        b = int(np.searchsorted(np.cumsum(self.counts), rank, side="left"))
        return float(min(max(self._bin_value(b), self.vmin), self.vmax))

    # -- combination ---------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s samples into this histogram (same geometry)."""
        if self.geometry() != other.geometry():
            raise ValueError(
                f"cannot merge histograms with geometries {self.geometry()} "
                f"and {other.geometry()}"
            )
        self.counts += other.counts
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        return self

    def copy(self) -> "Histogram":
        out = Histogram(self.lo, self.decades, self.bins_per_decade)
        out.counts = self.counts.copy()
        out.count = self.count
        out.total = self.total
        out.vmin = self.vmin
        out.vmax = self.vmax
        return out

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready sparse encoding (occupied bins only)."""
        occupied = np.flatnonzero(self.counts)
        return {
            "lo": self.lo,
            "decades": self.decades,
            "bins_per_decade": self.bins_per_decade,
            "count": self.count,
            "total": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "bins": {str(int(b)): int(self.counts[b]) for b in occupied},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        out = cls(data["lo"], data["decades"], data["bins_per_decade"])
        for b, n in data.get("bins", {}).items():
            out.counts[int(b)] = int(n)
        out.count = int(data["count"])
        out.total = float(data["total"])
        if out.count:
            out.vmin = float(data["min"])
            out.vmax = float(data["max"])
        return out

    # __slots__ classes need explicit pickle state (no __dict__).
    def __getstate__(self):
        return (self.lo, self.decades, self.bins_per_decade, self.counts,
                self.count, self.total, self.vmin, self.vmax)

    def __setstate__(self, state):
        (self.lo, self.decades, self.bins_per_decade, self.counts,
         self.count, self.total, self.vmin, self.vmax) = state

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.6g}, "
            f"p50={self.quantile(0.5):.6g}, p99={self.quantile(0.99):.6g})"
        )
