"""End-to-end integration tests: the full paper pipeline at mini scale.

generate → validate → replay → characterize → schedule (QSSF) →
energy-manage (CES) → persist/reload, all in one flow, exercising the
public API exactly as the examples and experiments do.
"""

import numpy as np
import pytest

from repro.analysis import (
    duration_summary,
    gpu_time_by_status,
    status_distribution,
    user_resource_curve,
)
from repro.energy import CESService
from repro.framework import (
    CESNodeService,
    ModelUpdateEngine,
    QSSFService,
    ResourceOrchestrator,
    UpdatePolicy,
)
from repro.ml import GBDTParams
from repro.sched import (
    FIFOScheduler,
    QSSFScheduler,
    compute_metrics,
)
from repro.sim import Simulator, running_nodes_series
from repro.stats import TimeGrid
from repro.traces import (
    HeliosTraceGenerator,
    SynthParams,
    is_gpu_job,
    load_trace,
    save_trace,
    split_train_eval,
    validate_trace,
)

pytestmark = pytest.mark.slow  # full-pipeline flows dominate the suite wall-clock

MONTH = 30 * 86_400


@pytest.fixture(scope="module")
def pipeline():
    """Shared mini deployment: 3 months of Venus at 10% scale."""
    gen = HeliosTraceGenerator(SynthParams(months=3, scale=0.1, seed=99))
    trace = gen.generate_cluster("Venus")
    gpu = trace.filter(is_gpu_job(trace))
    replay = Simulator(gen.specs["Venus"], FIFOScheduler()).run(gpu)
    return gen, trace, gpu, replay


class TestFullPipeline:
    def test_trace_valid_and_persistable(self, pipeline, tmp_path):
        gen, trace, _, _ = pipeline
        validate_trace(trace, gen.specs["Venus"])
        path = tmp_path / "venus.csv"
        save_trace(trace.head(500), path)
        back = load_trace(path)
        assert len(back) == 500

    def test_replay_then_characterize(self, pipeline):
        _, trace, gpu, replay = pipeline
        summary = duration_summary(trace)
        assert summary["n_gpu_jobs"] == len(gpu)
        shares = gpu_time_by_status(trace)
        assert sum(shares.values()) == pytest.approx(1.0)
        dist = status_distribution(trace)
        assert len(dist) == 2
        frac, share = user_resource_curve(trace, "gpu")
        assert share[-1] == pytest.approx(1.0)
        validate_trace(replay.replayed_trace(), replayed=True)

    def test_qssf_on_top_of_replay(self, pipeline):
        gen, _, gpu, fifo_replay = pipeline
        history, evalp = split_train_eval(gpu, eval_month=2)
        qssf = QSSFScheduler(
            history, lam=0.5,
            gbdt_params=GBDTParams(n_estimators=30, max_depth=5),
        )
        res = Simulator(gen.specs["Venus"], qssf).run(evalp)
        fifo_eval = Simulator(gen.specs["Venus"], FIFOScheduler()).run(evalp)
        q = compute_metrics("QSSF", res)
        f = compute_metrics("FIFO", fifo_eval)
        assert q.avg_queue_time <= f.avg_queue_time

    def test_ces_on_top_of_replay(self, pipeline):
        _, _, _, replay = pipeline
        report = CESService().evaluate(
            replay, eval_start=2 * MONTH, eval_end=3 * MONTH - 9 * 86_400,
            cluster="Venus",
        )
        assert np.all(report.ces.active >= report.ces.demand)
        assert report.smape_forecast < 30.0

    def test_framework_composition(self, pipeline):
        """Both case studies side by side behind the §4.1 framework."""
        gen, _, gpu, replay = pipeline
        history, evalp = split_train_eval(gpu, eval_month=2)

        orch = ResourceOrchestrator()
        qssf_svc = QSSFService(lam=1.0).fit(history)
        grid = TimeGrid(0.0, 600.0, 2 * 30 * 144)
        demand = running_nodes_series(replay, grid)
        ces_svc = CESNodeService().fit(demand[: 30 * 144 * 2 - 200])
        orch.install(qssf_svc)
        orch.install(ces_svc)
        assert set(orch.installed) == {"qssf", "ces"}

        # QSSF decision: sort a queue snapshot.
        queue = evalp.head(50)
        ordered = orch.decide("qssf", queue)
        pri = qssf_svc.predict(ordered)
        assert np.all(np.diff(pri) >= -1e-9)

        # CES decision: control a demand window.
        outcome = orch.decide("ces", (demand[-500:], replay.num_nodes))
        assert outcome.total_nodes == replay.num_nodes

    def test_model_update_engine_with_qssf(self, pipeline):
        """The engine refits QSSF on the finished jobs it observed."""
        _, _, gpu, _ = pipeline
        first = gpu.filter(gpu["submit_time"] < MONTH)
        second = gpu.filter(
            (gpu["submit_time"] >= MONTH) & (gpu["submit_time"] < 2 * MONTH)
        )
        engine = ModelUpdateEngine(UpdatePolicy(interval_seconds=MONTH))
        svc = QSSFService(lam=1.0).fit(first)
        engine.register(svc)
        assert engine.orchestrator.service("qssf") is svc
        fitted = svc.scheduler
        engine.reset_clock(float(MONTH))
        rows = [second.row(i) for i in range(len(second))]
        for row in rows[:-1]:
            engine.observe("qssf", row, now=float(MONTH))
        assert engine.refit_count("qssf") == 0  # within the interval
        # the last of month 2's jobs lands a month on: a scratch refit
        # on month 1 plus every job of month 2
        engine.observe("qssf", rows[-1], now=float(2 * MONTH))
        assert engine.refit_count("qssf") == 1
        assert engine.incremental_refit_count("qssf") == 0
        assert svc.scheduler is not fitted
        assert svc.scheduler.rolling._global[1] == len(first) + len(second)
        pred = svc.predict(gpu.head(5))
        assert pred.shape == (5,)


class TestCrossClusterConsistency:
    def test_all_clusters_flow_through(self):
        """Every cluster generates, validates and replays at tiny scale."""
        gen = HeliosTraceGenerator(SynthParams(months=1, scale=0.05, seed=4))
        for name in ("Venus", "Earth", "Saturn", "Uranus"):
            trace = gen.generate_cluster(name)
            validate_trace(trace, gen.specs[name])
            gpu = trace.filter(is_gpu_job(trace))
            res = Simulator(gen.specs[name], FIFOScheduler()).run(gpu)
            assert np.all(res.end_times >= res.start_times)
            assert res.total_gpus == gen.specs[name].num_gpus
