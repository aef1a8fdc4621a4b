"""Telemetry edge cases: empty stats, mixed-schema report rollups."""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import Histogram
from repro.serve import LatencyStats, aggregate_reports


def _report(cluster="Venus", events=10, wall=1.0, decisions=3, samples=2,
            refits=None, **extra):
    ns = SimpleNamespace(
        cluster=cluster,
        refits=refits or {},
        events=events,
        wall_seconds=wall,
        qssf_decisions=decisions,
        node_samples=samples,
    )
    for key, value in extra.items():
        setattr(ns, key, value)
    return ns


class TestLatencyStats:
    def test_empty_samples_all_zero(self):
        stats = LatencyStats.from_histogram(Histogram())
        assert stats == LatencyStats(count=0, p50_ms=0.0, p99_ms=0.0, mean_ms=0.0)
        assert stats.as_dict() == {
            "count": 0, "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0,
        }

    def test_single_sample(self):
        hist = Histogram()
        hist.record(0.002)
        # One sample: every quantile clamps to it, so all three are exact.
        stats = LatencyStats.from_histogram(hist)
        assert stats.count == 1
        assert stats.p50_ms == pytest.approx(2.0)
        assert stats.p99_ms == pytest.approx(2.0)
        assert stats.mean_ms == pytest.approx(2.0)

    def test_recorder_round_trip(self):
        hist = Histogram()
        assert LatencyStats.from_histogram(hist).count == 0
        for s in (0.001, 0.003, 0.002):
            hist.record(s)
        stats = LatencyStats.from_histogram(hist)
        assert stats.count == 3
        # Quantiles come out of the log-binned histogram: exact to its
        # ~±4% bin resolution, not to the float.
        assert stats.p50_ms == pytest.approx(2.0, rel=0.08)
        assert stats.p99_ms <= 3.0 * 1.08
        assert stats.mean_ms == pytest.approx(2.0)


class TestAggregateFaultFields:
    def test_empty_reports(self):
        agg = aggregate_reports([])
        assert agg["shards"] == 0
        assert agg["events"] == 0
        assert agg["events_per_s"] == 0.0
        assert "retries" not in agg and "degraded" not in agg

    def test_pre_chaos_reports_unchanged_schema(self):
        """Reports without fault-tolerance fields (older payloads, test
        doubles) aggregate exactly as before — no new keys appear."""
        agg = aggregate_reports([_report(), _report(cluster="Earth")])
        assert set(agg) == {
            "shards", "events", "wall_seconds", "events_per_s",
            "qssf_decisions", "ces_steps", "refits",
        }

    def test_zero_valued_fault_fields_stay_absent(self):
        agg = aggregate_reports(
            [_report(retries=0, degraded={}, node_health={})]
        )
        assert "retries" not in agg
        assert "degraded" not in agg
        assert "node_health" not in agg

    def test_mixed_schema_reports_merge(self):
        """A degraded shard and a pre-chaos shard roll up together."""
        degraded = _report(
            retries=2,
            degraded={"qssf_rung": 2, "qssf_decisions": 7},
            node_health={"node_down": 3, "node_up": 2, "max_down": 2},
        )
        plain = _report(cluster="Earth")
        agg = aggregate_reports([degraded, plain])
        assert agg["retries"] == 2
        assert agg["degraded"] == {"qssf_rung": 2, "qssf_decisions": 7}
        assert agg["node_health"] == {"node_down": 3, "node_up": 2, "max_down": 2}

    def test_rungs_take_max_counters_sum(self):
        a = _report(
            retries=1,
            degraded={"qssf_rung": 1, "ces_rung": 1, "qssf_decisions": 5,
                      "ces_steps": 4},
            node_health={"node_down": 1, "node_up": 1, "max_down": 1},
        )
        b = _report(
            cluster="Earth",
            retries=2,
            degraded={"qssf_rung": 3, "qssf_decisions": 2},
            node_health={"node_down": 2, "node_up": 0, "max_down": 2},
        )
        agg = aggregate_reports([a, b])
        assert agg["retries"] == 3
        assert agg["degraded"] == {
            "qssf_rung": 3,  # worst rung, not the sum
            "ces_rung": 1,
            "qssf_decisions": 7,
            "ces_steps": 4,
        }
        assert agg["node_health"] == {"node_down": 3, "node_up": 1, "max_down": 2}

    def test_wall_seconds_override(self):
        agg = aggregate_reports([_report(wall=2.0), _report(wall=3.0)],
                                wall_seconds=4.0)
        assert agg["wall_seconds"] == 4.0
        assert agg["events_per_s"] == pytest.approx(20 / 4.0)
