"""Serving-loop tests: online/batch parity, online updates, telemetry.

The parity tests are the subsystem's acceptance criterion: decisions
produced by the serving loop over a replayed stream must be
byte-identical to the batch path on the same trace — QSSF queue
orderings against the scheduler's batch priorities (what the simulator
pops), CES active-pool control against :func:`repro.energy.drs.run_drs`
with the batch forecast.
"""

import pickle

import numpy as np
import pytest

from helpers import make_trace
from repro.energy.drs import DRSParams, run_drs
from repro.energy.forecaster import ForecastFeatures
from repro.ml.gbdt import GBDTParams
from repro.sched.qssf import QSSFScheduler
from repro.serve import EventStream, PredictionServer, ServeConfig
from repro.serve.stream import SUBMIT


# ----------------------------------------------------------------------
# shared builders
# ----------------------------------------------------------------------

_CES_FEATURES = ForecastFeatures(bin_seconds=600, lags=(1, 2, 3, 6), windows=(3, 6))
_CES_GBDT = GBDTParams(n_estimators=30, max_depth=4, min_samples_leaf=5)


def _train_history():
    rows = [(i * 60, 1 + (i % 4) * 2, 30.0 + 50.0 * (i % 7)) for i in range(80)]
    return make_trace(rows)


def _qssf_window(n=48):
    rows = [
        (i * 90, 1 + ((i * 3) % 6), 40.0 + 25.0 * (i % 5), f"vc{i % 2}")
        for i in range(n)
    ]
    return make_trace(rows)


def _frozen_config(**overrides):
    kwargs = dict(
        lam=1.0,
        bin_seconds=600,
        horizon_bins=3,
        ces_features=_CES_FEATURES,
        ces_gbdt=_CES_GBDT,
        online_updates=False,
        record_decisions=True,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def _demand_series(n, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.round(40 + 12 * np.sin(2 * np.pi * t / 144.0) + rng.normal(0, 1.5, n))


def _batch_qssf_orderings(scheduler, window, stream, window_s):
    """The batch `sched/` side: priorities computed once over the whole
    prefix (exactly what Simulator._build_jobs consumes), then each
    micro-batch's per-VC queues ordered by (priority, arrival)."""
    pri = scheduler.predicted_gpu_time(window)
    expected = []
    for batch in stream.batches(window_s):
        if batch.kind != SUBMIT:
            continue
        groups: dict[str, list[int]] = {}
        for ref in batch.refs:
            groups.setdefault(str(window["vc"][ref]), []).append(int(ref))
        for vc, idx in groups.items():
            idx = np.asarray(idx)
            order = np.argsort(pri[idx], kind="stable")
            expected.append(
                (vc, tuple(str(j) for j in window["job_id"][idx[order]]))
            )
    return expected


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------


class TestQSSFParity:
    def test_orderings_byte_identical_to_batch(self):
        history = _train_history()
        window = _qssf_window()
        server = PredictionServer(_frozen_config())
        server.install_qssf(history)
        stream = EventStream.from_trace(window, "T", t0=0.0, t1=90.0 * 50)
        report = server.run(stream, window_s=300.0)

        oracle = QSSFScheduler(history, lam=1.0)
        expected = _batch_qssf_orderings(oracle, window, stream, 300.0)
        assert report.decisions == expected
        assert pickle.dumps(report.decisions) == pickle.dumps(expected)

    def test_parity_holds_with_gbdt_blend(self):
        """lam=0.5 exercises the ML estimator too: per-row features are
        row-independent, so batch-vs-batched predictions stay equal."""
        gbdt = GBDTParams(n_estimators=40, max_depth=4, min_samples_leaf=5)
        history = _train_history()
        window = _qssf_window()
        server = PredictionServer(_frozen_config(lam=0.5, qssf_gbdt=gbdt))
        server.install_qssf(history)
        stream = EventStream.from_trace(window, "T", t0=0.0, t1=90.0 * 50)
        report = server.run(stream, window_s=300.0)

        oracle = QSSFScheduler(history, lam=0.5, gbdt_params=gbdt)
        assert report.decisions == _batch_qssf_orderings(
            oracle, window, stream, 300.0
        )

    def test_frozen_runs_are_deterministic(self):
        history = _train_history()
        window = _qssf_window()
        digests = []
        for _ in range(2):
            server = PredictionServer(_frozen_config())
            server.install_qssf(history)
            stream = EventStream.from_trace(window, "T", t0=0.0, t1=90.0 * 50)
            digests.append(server.run(stream, window_s=300.0).qssf_digest)
        assert digests[0] == digests[1]


class TestCESParity:
    def test_control_byte_identical_to_run_drs(self):
        total_nodes = 64
        series = _demand_series(360)
        history, eval_demand = series[:300], series[300:]
        server = PredictionServer(_frozen_config())
        server.install_ces(history, total_nodes)
        stream = EventStream.from_trace(
            make_trace([]),
            "T",
            t0=300 * 600.0,
            t1=360 * 600.0,
            bin_seconds=600,
            demand=eval_demand,
        )
        report = server.run(stream)

        forecaster = server.orchestrator.service("ces").forecaster
        fc = forecaster.predict_at(series, np.arange(300, 360))
        expected = run_drs(
            eval_demand, fc, total_nodes, DRSParams.scaled(total_nodes, 600)
        )
        assert report.ces_active is not None
        assert report.ces_active.tobytes() == expected.active.tobytes()
        assert report.ces_summary["wake_events"] == expected.wake_events
        assert report.ces_summary["affected_jobs"] == expected.affected_jobs


class TestEndToEndParity:
    """Satellite: stream a small real trace through engine + orchestrator
    and assert online QSSF orderings match the batch replay prefix."""

    @pytest.fixture(scope="class")
    def venus(self):
        from repro.traces import HeliosTraceGenerator, SynthParams, is_gpu_job

        gen = HeliosTraceGenerator(SynthParams(months=1, scale=0.05, seed=13))
        trace = gen.generate_cluster("Venus")
        return trace.filter(is_gpu_job(trace))

    def test_real_trace_prefix_parity(self, venus):
        from repro.traces import SECONDS_PER_DAY, slice_period

        split = 20 * SECONDS_PER_DAY
        history = slice_period(venus, 0, split)
        window = slice_period(venus, split, split + 5 * SECONDS_PER_DAY)
        window = window.sort_by("submit_time").head(300)

        server = PredictionServer(_frozen_config())
        server.install_qssf(history)
        stream = EventStream.from_trace(
            window, "Venus", t0=split, t1=split + 5 * SECONDS_PER_DAY
        )
        report = server.run(stream, window_s=120.0)

        oracle = QSSFScheduler(history, lam=1.0)
        expected = _batch_qssf_orderings(oracle, window, stream, 120.0)
        assert len(expected) > 10
        assert report.decisions == expected


# ----------------------------------------------------------------------
# online updates
# ----------------------------------------------------------------------


class TestOnlineUpdates:
    def test_observes_advance_models(self):
        cfg = _frozen_config(online_updates=True, ces_update_every=10)
        total_nodes = 64
        series = _demand_series(360)
        window = _qssf_window()
        server = PredictionServer(cfg)
        server.install_qssf(_train_history())
        server.install_ces(series[:300], total_nodes)
        stream = EventStream.from_trace(
            window,
            "T",
            t0=0.0,
            t1=60 * 600.0,
            bin_seconds=600,
            demand=series[300:360],
        )
        report = server.run(stream, window_s=300.0)
        assert report.finishes > 0 and report.node_samples == 60

        # CES: node samples drove incremental extends between refits
        ces = server.orchestrator.service("ces")
        assert ces.updates_applied >= 1
        assert ces.forecaster._train_end > 300 - 3  # advanced past the fit

        # QSSF: finished jobs reached the rolling estimator
        qssf = server.orchestrator.service("qssf")
        finished = window.row(0)
        est = qssf.scheduler.rolling.estimate(
            str(finished["user"]), str(finished["name"]), int(finished["gpu_num"])
        )
        assert est > 0

    def test_engine_refits_fire_on_interval(self):
        cfg = _frozen_config(
            online_updates=True,
            update_interval_s=4 * 3_600.0,
            ces_update_every=1_000_000,
        )
        series = _demand_series(360)
        # jobs spread over the full 10 h window so finish observations
        # straddle the 4 h refit interval
        window = make_trace(
            [(i * 800, 1 + (i % 4), 120.0, f"vc{i % 2}") for i in range(40)]
        )
        server = PredictionServer(cfg)
        server.install_qssf(_train_history())
        server.install_ces(series[:300], 64)
        stream = EventStream.from_trace(
            window, "T", t0=0.0, t1=60 * 600.0, bin_seconds=600,
            demand=series[300:360],
        )
        report = server.run(stream, window_s=300.0)
        # stream spans 10 h -> at least one engine-driven refresh each;
        # both services take the incremental path by default
        assert report.refits["ces"]["incremental"] >= 1
        assert report.refits["qssf"]["refits"] >= 1
        assert report.refits["qssf"]["incremental"] == report.refits["qssf"]["refits"]

    def test_qssf_scratch_refit_mode_forces_full_refits(self):
        cfg = _frozen_config(
            online_updates=True,
            update_interval_s=4 * 3_600.0,
            ces_update_every=1_000_000,
            qssf_refit_mode="scratch",
        )
        series = _demand_series(360)
        window = make_trace(
            [(i * 800, 1 + (i % 4), 120.0, f"vc{i % 2}") for i in range(40)]
        )
        server = PredictionServer(cfg)
        server.install_qssf(_train_history())
        server.install_ces(series[:300], 64)
        stream = EventStream.from_trace(
            window, "T", t0=0.0, t1=60 * 600.0, bin_seconds=600,
            demand=series[300:360],
        )
        report = server.run(stream, window_s=300.0)
        assert report.refits["qssf"]["refits"] >= 1
        assert report.refits["qssf"]["incremental"] == 0


class TestGrowingSeries:
    def test_growth_keeps_prefix_sums_aligned(self):
        """Regression: growing past capacity must resize all three
        buffers consistently (the values buffer used to grow alone,
        crashing the next append)."""
        from repro.serve.server import _GrowingSeries

        series = _GrowingSeries(capacity=4)
        xs = [float(i) for i in range(50)]
        for x in xs:
            series.append(x)
        assert series.values.tolist() == xs
        c1, c2 = series.cumsums
        arr = np.asarray(xs)
        assert np.array_equal(c1, np.cumsum(np.insert(arr, 0, 0.0)))
        assert np.array_equal(c2, np.cumsum(np.insert(arr * arr, 0, 0.0)))

    def test_seeded_series_grows(self):
        from repro.serve.server import _GrowingSeries

        series = _GrowingSeries(np.arange(5.0), capacity=1)
        for x in range(100):
            series.append(float(x))
        assert series.n == 105
        assert series.cumsums[0][-1] == np.arange(5.0).sum() + sum(range(100))


# ----------------------------------------------------------------------
# routes & errors
# ----------------------------------------------------------------------


class TestRoutes:
    def test_duration_prediction_route(self):
        cfg = _frozen_config(predict_durations=True)
        server = PredictionServer(cfg)
        server.install_qssf(_train_history())
        window = _qssf_window(12)
        stream = EventStream.from_trace(window, "T", t0=0.0, t1=90.0 * 13)
        report = server.run(stream, window_s=300.0)
        assert report.duration_requests == 12

    def test_node_samples_require_ces(self):
        server = PredictionServer(_frozen_config())
        server.install_qssf(_train_history())
        stream = EventStream.from_trace(
            make_trace([]), "T", t0=0.0, t1=3_000.0, bin_seconds=600,
            demand=np.zeros(5),
        )
        with pytest.raises(RuntimeError, match="CES not installed"):
            server.run(stream)

    def test_latency_and_throughput_reported(self):
        server = PredictionServer(_frozen_config())
        server.install_qssf(_train_history())
        window = _qssf_window()
        stream = EventStream.from_trace(window, "T", t0=0.0, t1=90.0 * 50)
        report = server.run(stream, window_s=300.0)
        assert report.events == len(stream)
        assert report.events_per_s > 0
        assert report.qssf_latency.count == report.qssf_batches > 0
        assert report.qssf_latency.p99_ms >= report.qssf_latency.p50_ms >= 0


# ----------------------------------------------------------------------
# fleet telemetry rollup
# ----------------------------------------------------------------------


class TestAggregateReports:
    @staticmethod
    def _report(cluster, refits, events=10, wall=1.0, decisions=3, samples=2):
        from types import SimpleNamespace

        return SimpleNamespace(
            cluster=cluster,
            refits=refits,
            events=events,
            wall_seconds=wall,
            qssf_decisions=decisions,
            node_samples=samples,
        )

    def test_single_report_serializes_unchanged(self):
        from repro.serve import aggregate_reports

        refits = {"qssf": {"refits": 2, "incremental": 5}}
        agg = aggregate_reports([self._report("Venus", refits)])
        assert agg["refits"] == {"Venus": refits}

    def test_duplicate_cluster_refits_sum_not_overwrite(self):
        """Regression: two shards replaying the same cluster used to
        silently overwrite each other's refit counters in the rollup."""
        from repro.serve import aggregate_reports

        a = self._report("Venus", {"qssf": {"refits": 2, "incremental": 5}})
        b = self._report(
            "Venus",
            {"qssf": {"refits": 1, "incremental": 4}, "ces": {"refits": 3}},
        )
        agg = aggregate_reports([a, b])
        assert agg["refits"] == {
            "Venus": {
                "qssf": {"refits": 3, "incremental": 9},
                "ces": {"refits": 3},
            }
        }
        assert agg["shards"] == 2
        assert agg["events"] == 20

    def test_distinct_clusters_stay_separate(self):
        from repro.serve import aggregate_reports

        a = self._report("Venus", {"qssf": {"refits": 1, "incremental": 0}})
        b = self._report("Earth", {"qssf": {"refits": 2, "incremental": 1}})
        agg = aggregate_reports([a, b])
        assert agg["refits"] == {
            "Venus": {"qssf": {"refits": 1, "incremental": 0}},
            "Earth": {"qssf": {"refits": 2, "incremental": 1}},
        }
