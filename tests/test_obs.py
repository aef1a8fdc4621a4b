"""Unit tests for the repro.obs tracing + metrics layer.

Covers the bounded histogram (accuracy, merge, serialization), span
nesting and re-parenting ids, the enable/disable cost contract, the
piggyback carrier protocol, JSONL/Chrome exports, and the
summarize/diff CLI.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest

from repro import obs
from repro.framework.parallel import fork_available, run_forked
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import Histogram
from repro.serve.telemetry import LatencyStats, aggregate_reports

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


def _pool_work(n: int) -> int:
    """Module-level pool task (must be picklable) that records obs state."""
    obs.counter_add("pool.calls")
    obs.histogram("pool.value").record(float(n))
    return n * n


@pytest.fixture(autouse=True)
def clean_recorder():
    """Every test starts and ends with a pristine, disabled recorder."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


class TestHistogram:
    def test_quantiles_within_bin_resolution(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-4.0, sigma=1.2, size=50_000)
        h = Histogram()
        h.record_many(samples)
        assert h.count == samples.size
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(samples, q))
            assert h.quantile(q) == pytest.approx(exact, rel=0.06)
        assert h.mean == pytest.approx(float(samples.mean()))
        assert h.vmin == pytest.approx(float(samples.min()))
        assert h.vmax == pytest.approx(float(samples.max()))

    def test_scalar_matches_vectorized(self):
        values = [1e-7, 1e-6, 0.001, 0.5, 3.0, 999.0, 1e6]
        a, b = Histogram(), Histogram()
        for v in values:
            a.record(v)
        b.record_many(np.array(values))
        assert a.to_dict() == b.to_dict()

    def test_non_finite_dropped(self):
        h = Histogram()
        h.record(float("nan"))
        h.record(float("inf"))
        h.record_many(np.array([1.0, float("nan"), float("-inf"), 2.0]))
        assert h.count == 2
        assert h.total == pytest.approx(3.0)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(11)
        xs = rng.exponential(0.01, size=5000)
        whole = Histogram()
        whole.record_many(xs)
        left, right = Histogram(), Histogram()
        left.record_many(xs[:2000])
        right.record_many(xs[2000:])
        left.merge(right)
        assert left.to_dict() == whole.to_dict()

    def test_merge_rejects_mismatched_geometry(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram(lo=1.0, decades=6))

    def test_pickle_and_dict_round_trip(self):
        h = Histogram()
        h.record_many(np.array([0.001, 0.02, 5.0]))
        assert pickle.loads(pickle.dumps(h)).to_dict() == h.to_dict()
        assert Histogram.from_dict(h.to_dict()).to_dict() == h.to_dict()

    def test_bounded_memory(self):
        h = Histogram()
        h.record_many(np.random.default_rng(3).exponential(1.0, size=100_000))
        assert len(h.counts) == h.nbins + 2  # fixed: bins + under/overflow

    def test_quantile_of_empty_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0


class TestSpans:
    def test_nesting_and_parent_ids(self):
        obs.enable()
        with obs.trace("outer", layer=1):
            with obs.trace("inner"):
                pass
        spans = {s.name: s for s in obs.snapshot().spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs["layer"] == 1
        assert spans["inner"].end >= spans["inner"].start

    def test_exception_marks_error_and_unwinds(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.trace("boom"):
                raise RuntimeError("x")
        (span,) = obs.snapshot().spans
        assert span.attrs["error"] == "RuntimeError"
        with obs.trace("after"):
            pass
        spans = {s.name: s for s in obs.snapshot().spans}
        assert spans["after"].parent_id is None  # stack fully unwound

    def test_disabled_records_nothing(self):
        with obs.trace("ghost"):
            obs.counter_add("ghost.counter")
            obs.histogram("ghost.hist").record(1.0)
            obs.gauge_set("ghost.gauge", 3.0)
        obs.record_span("ghost.span", 0.0, 1.0)
        assert obs.snapshot().empty

    def test_traced_decorator_checks_flag_per_call(self):
        @obs.traced("deco.fn")
        def fn():
            return 42

        assert fn() == 42  # disabled at call time
        obs.enable()
        assert fn() == 42
        assert [s.name for s in obs.snapshot().spans] == ["deco.fn"]


class TestCarrier:
    def test_round_trip_merges_on_absorb(self):
        obs.enable()
        obs.counter_add("work.items", 3)
        carried = obs.carry_result({"ok": True})
        assert obs.snapshot().empty  # drained into the carrier
        blob = pickle.dumps(carried)  # must survive the result pipe
        result = obs.absorb_result(pickle.loads(blob))
        assert result == {"ok": True}
        assert obs.snapshot().counters["work.items"] == 3

    def test_passthrough_when_disabled(self):
        payload = {"x": 1}
        assert obs.carry_result(payload) is payload
        assert obs.absorb_result(payload) is payload

    @needs_fork
    def test_forked_pool_piggybacks_worker_metrics(self):
        obs.enable()
        assert run_forked(_pool_work, list(range(8)), jobs=4) == [
            n * n for n in range(8)
        ]
        snap = obs.snapshot()
        assert snap.counters["pool.calls"] == 8
        assert snap.histograms["pool.value"].count == 8


class TestExport:
    def _sample_snapshot(self):
        obs.enable()
        with obs.trace("parent", cluster="Venus"):
            with obs.trace("child"):
                pass
        obs.counter_add("events", 10)
        obs.gauge_set("rate", 2.5)
        obs.histogram("lat_s").record_many(np.array([0.001, 0.002, 0.004]))
        return obs.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        snap = self._sample_snapshot()
        path = obs.write_jsonl(snap, tmp_path / "trace.jsonl")
        back = obs.read_jsonl(path)
        # JSONL is written in start-time order; compare order-insensitively.
        assert {s.name for s in back.spans} == {s.name for s in snap.spans}
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        assert back.histograms["lat_s"].to_dict() == snap.histograms["lat_s"].to_dict()

    def test_chrome_trace_validates_and_keeps_hierarchy(self, tmp_path):
        snap = self._sample_snapshot()
        doc = obs.chrome_trace(snap)
        obs.validate_chrome_trace(doc)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["child"]["args"]["parent_id"] == by_name["parent"]["args"]["span_id"]
        assert by_name["parent"]["args"]["cluster"] == "Venus"
        # written file parses as strict JSON
        path = obs.write_chrome_trace(snap, tmp_path / "trace.chrome.json")
        obs.validate_chrome_trace(json.loads(path.read_text()))

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1,
                                  "ts": -5, "dur": 1}]}
            )

    def test_dump_dir_writes_both_files(self, tmp_path):
        self._sample_snapshot()
        jsonl_path, chrome_path = obs.dump(tmp_path / "out")
        assert jsonl_path.exists() and chrome_path.exists()


class TestCLI:
    def _dump(self, tmp_path, name, n):
        obs.reset()
        obs.enable()
        with obs.trace("phase"):
            pass
        obs.counter_add("items", n)
        obs.histogram("lat_s").record_many(np.full(n, 0.002))
        path = obs.write_jsonl(obs.snapshot(), tmp_path / name)
        obs.reset()
        obs.disable()
        return path

    def test_summarize_renders(self, tmp_path, capsys):
        path = self._dump(tmp_path, "a.jsonl", 5)
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "items" in out and "lat_s" in out

    def test_summarize_json(self, tmp_path, capsys):
        path = self._dump(tmp_path, "a.jsonl", 5)
        assert obs_main(["summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["items"] == 5
        assert doc["histograms"]["lat_s"]["count"] == 5
        assert doc["spans"]["phase"]["count"] == 1

    def test_diff_flags_changed_metrics(self, tmp_path, capsys):
        old = self._dump(tmp_path, "old.jsonl", 5)
        new = self._dump(tmp_path, "new.jsonl", 9)
        assert obs_main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "* items" in out
        assert "5 -> 9" in out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestLatencyFromHistogram:
    def test_stats_derived_from_histogram(self):
        hist = Histogram()
        for _ in range(100):
            hist.record(0.002)
        for _ in range(5):
            hist.record(0.050)
        stats = LatencyStats.from_histogram(hist)
        assert stats.count == 105
        assert stats.p50_ms == pytest.approx(2.0, rel=0.08)
        assert stats.p99_ms == pytest.approx(50.0, rel=0.08)

    def test_aggregate_merges_cross_shard_distribution(self):
        class FakeReport:
            def __init__(self, seconds):
                self.cluster = "X"
                self.events = len(seconds)
                self.wall_seconds = 1.0
                self.qssf_decisions = 0
                self.node_samples = 0
                self.refits = {}
                self.qssf_hist = Histogram()
                for s in seconds:
                    self.qssf_hist.record(s)
                self.ces_hist = None

        # One fast shard, one slow shard: the merged p99 must reflect the
        # slow shard's tail, which an average of per-shard p99s would not.
        fast = FakeReport([0.001] * 99)
        slow = FakeReport([0.100] * 99)
        agg = aggregate_reports([fast, slow])
        assert agg["qssf_latency"]["count"] == 198
        assert agg["qssf_latency"]["p99_ms"] == pytest.approx(100.0, rel=0.08)
        assert "ces_latency" not in agg  # no shard carried a CES histogram

    def test_reports_without_hists_keep_legacy_schema(self):
        class Legacy:
            cluster = "X"
            events = 0
            wall_seconds = 1.0
            qssf_decisions = 0
            node_samples = 0
            refits: dict = {}

        agg = aggregate_reports([Legacy()])
        assert "qssf_latency" not in agg and "ces_latency" not in agg

    def test_from_histogram_empty(self):
        assert LatencyStats.from_histogram(Histogram()) == LatencyStats(
            count=0, p50_ms=0.0, p99_ms=0.0, mean_ms=0.0
        )


class TestRegistryMerge:
    """The recorder's one live state: ``snapshot`` copies it, ``drain``
    hands it off, ``merge_snapshot`` folds a snapshot into it."""

    def test_merge_snapshot_accumulates(self):
        obs.enable()
        obs.counter_add("c", 2)
        first = obs.drain()
        obs.counter_add("c", 3)
        obs.merge_snapshot(first)
        assert obs.snapshot().counters["c"] == 5

    def test_histogram_geometry_fixed_at_creation(self):
        obs.enable()
        h = obs.histogram("depth", lo=1.0, decades=6)
        again = obs.histogram("depth", lo=99.0)  # geometry ignored: exists
        assert again is h
        assert h.lo == 1.0 and h.hi == pytest.approx(1e6)

    def test_snapshot_is_a_copy(self):
        obs.enable()
        obs.counter_add("c", 1)
        obs.histogram("h").record(1.0)
        snap = obs.snapshot()
        obs.counter_add("c", 1)
        obs.histogram("h").record(2.0)
        assert snap.counters["c"] == 1 and snap.histograms["h"].count == 1
        assert obs.snapshot().counters["c"] == 2

    def test_drain_hands_off_the_live_state(self):
        """A histogram handle taken before a drain records into the
        drained snapshot; the recorder starts over empty."""
        obs.enable()
        hist = obs.histogram("lat_s")
        obs.counter_add("c", 2)
        drained = obs.drain()
        hist.record(0.5)
        assert drained.counters == {"c": 2}
        assert drained.histograms["lat_s"] is hist and hist.count == 1
        assert obs.snapshot().empty

    def test_span_open_across_a_drain_closes_into_the_new_state(self):
        obs.enable()
        with obs.trace("outer"):
            with obs.trace("inner"):
                drained = obs.drain()
        assert drained.spans == []
        spans = {s.name: s for s in obs.snapshot().spans}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"].parent_id == spans["outer"].span_id
        with obs.trace("after"):
            pass
        assert obs.snapshot().spans[-1].parent_id is None  # stack unwound
