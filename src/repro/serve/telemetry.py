"""Per-shard serving telemetry: throughput and decision-latency stats.

The serving loop records one latency sample per decision (a QSSF
micro-batch ordering or a CES control step) into a plain bounded
:class:`~repro.obs.metrics.Histogram` — O(1) memory however long the
stream runs, and mergeable, so the fleet rollup in
:func:`aggregate_reports` computes p50/p99 over the *merged*
cross-shard distribution instead of discarding per-shard percentiles.
:class:`LatencyStats` is the JSON-ready summary (p50/p99/mean in
milliseconds) of one histogram that the shard reports and the
benchmark suite's BENCH lines carry.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import Histogram

__all__ = [
    "LatencyStats",
    "aggregate_reports",
    "parity_surface",
]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one decision path's latencies (milliseconds)."""

    count: int
    p50_ms: float
    p99_ms: float
    mean_ms: float

    @classmethod
    def from_histogram(cls, hist: Histogram) -> "LatencyStats":
        """Summary over a (possibly merged) latency histogram.  The mean
        is exact; p50/p99 carry the histogram's bin quantization (≈ ±4 %
        at the default 30 bins/decade)."""
        if hist.count == 0:
            return cls(count=0, p50_ms=0.0, p99_ms=0.0, mean_ms=0.0)
        return cls(
            count=hist.count,
            p50_ms=hist.quantile(0.5) * 1e3,
            p99_ms=hist.quantile(0.99) * 1e3,
            mean_ms=hist.mean * 1e3,
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
        }


def parity_surface(reports) -> bytes:
    """Canonical bytes of a fleet's deterministic surface.

    Concatenates every shard report's
    :meth:`~repro.serve.server.ShardReport.parity_bytes` in the given
    order — the byte string the chaos-parity guarantees compare: a run
    that crashed, partitioned, rerouted, and resumed must produce
    exactly these bytes again.
    """
    return b"\n".join(r.parity_bytes() for r in reports)


def _merged_latency(reports, attr: str) -> LatencyStats | None:
    """Merge one latency route's histograms across shard reports.

    ``None`` when no report carries a histogram (pre-obs payloads and
    test doubles), so legacy rollups keep their exact schema.
    """
    hists = [h for r in reports if (h := getattr(r, attr, None)) is not None]
    if not hists:
        return None
    merged = hists[0].copy()
    for h in hists[1:]:
        merged.merge(h)
    return LatencyStats.from_histogram(merged)


def aggregate_reports(reports, wall_seconds: float | None = None) -> dict:
    """Fleet-level rollup of :class:`~repro.serve.server.ShardReport`s.

    ``wall_seconds`` should be the caller-measured wall clock of the
    whole fan-out; without it the rollup assumes shards ran
    sequentially (sums the per-shard walls), which is exact for
    ``jobs=1`` and a conservative floor for a parallel pool.

    When the reports carry latency histograms, the rollup also emits
    ``qssf_latency`` / ``ces_latency`` computed over the **merged**
    distribution — a true fleet p99, not an average of per-shard p99s.
    """
    reports = list(reports)
    events = sum(r.events for r in reports)
    if wall_seconds is None:
        wall_seconds = sum(r.wall_seconds for r in reports)
    # Two shards may replay the same cluster (e.g. a re-sharded stream);
    # their refit counters must add up per service, not overwrite.
    refits: dict[str, dict[str, int]] = {}
    for r in reports:
        agg = refits.setdefault(r.cluster, {})
        for service, counters in r.refits.items():
            svc = agg.setdefault(service, {})
            for key, n in counters.items():
                svc[key] = svc.get(key, 0) + n
    out = {
        "shards": len(reports),
        "events": events,
        "wall_seconds": round(wall_seconds, 4),
        "events_per_s": round(events / wall_seconds, 1) if wall_seconds > 0 else 0.0,
        "qssf_decisions": sum(r.qssf_decisions for r in reports),
        "ces_steps": sum(r.node_samples for r in reports),
        "refits": refits,
    }
    # Merged-distribution latency rollups (getattr: pre-obs report
    # objects and test doubles carry no histograms — keys stay absent).
    for key, attr in (("qssf_latency", "qssf_hist"), ("ces_latency", "ces_hist")):
        stats = _merged_latency(reports, attr)
        if stats is not None:
            out[key] = stats.as_dict()
    # Fault-tolerance rollups (getattr: pre-chaos report objects — and
    # the test doubles modeled on them — lack these fields entirely).
    # Emitted only when nonzero so fault-free payloads keep their schema.
    retries = sum(getattr(r, "retries", 0) or 0 for r in reports)
    if retries:
        out["retries"] = retries
    degraded: dict[str, int] = {}
    for r in reports:
        for key, n in (getattr(r, "degraded", None) or {}).items():
            if key == "qssf_rung" or key == "ces_rung":
                degraded[key] = max(degraded.get(key, 0), n)
            else:
                degraded[key] = degraded.get(key, 0) + n
    if degraded:
        out["degraded"] = degraded
    node_health: dict[str, int] = {}
    for r in reports:
        for key, n in (getattr(r, "node_health", None) or {}).items():
            if key == "max_down":
                node_health[key] = max(node_health.get(key, 0), n)
            else:
                node_health[key] = node_health.get(key, 0) + n
    if node_health:
        out["node_health"] = node_health
    return out
