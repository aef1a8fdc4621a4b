"""Crash-recovery parity and graceful degradation for serving shards.

The headline guarantee: a shard SIGKILLed mid-stream and resumed from
its last checkpoint produces a report whose parity surface is
byte-identical to a never-failed run.  Plus the degradation ladder:
model failures step exactly one rung per failure and decisions keep
flowing at every rung.
"""

import numpy as np
import pytest

from repro.framework import (
    FaultPlan,
    FaultSpec,
    PassthroughQueueService,
    QSSFService,
    SupervisionLog,
    fork_available,
)
from repro.serve import (
    NetConfig,
    PredictionServer,
    ServeConfig,
    ShardTask,
    build_shard,
    serve_clusters_net,
)

from helpers import make_trace

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")

_TASK = dict(history_days=14, stream_days=1.0, max_jobs=400)

#: one worker, fast backoff: the crashed shard comes back on the
#: respawned worker
FAST_NET = NetConfig(
    workers=1, max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01,
)


def _config(**overrides):
    from repro.experiments.serving import smoke_serve_config

    cfg = smoke_serve_config()
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


@pytest.fixture(scope="module")
def task():
    return ShardTask(cluster="Venus", config=_config(), **_TASK)


@pytest.fixture(scope="module")
def baseline(task):
    server, stream = build_shard(task)
    return server.run(stream)


class TestCheckpointResume:
    def test_resume_parity_from_every_checkpoint(self, task, baseline):
        ckpts = []
        server, stream = build_shard(task)
        full = server.run(stream, checkpoint_every=40, checkpoint_sink=ckpts.append)
        assert full.parity_bytes() == baseline.parity_bytes()
        assert len(ckpts) >= 3
        assert [c.cursor for c in ckpts] == [40 * (i + 1) for i in range(len(ckpts))]
        for pick in (0, len(ckpts) // 2, -1):
            server2, stream2 = build_shard(task)
            resumed = server2.run(stream2, resume=ckpts[pick])
            assert resumed.parity_bytes() == baseline.parity_bytes(), (
                f"resume from checkpoint {pick} broke parity"
            )

    def test_checkpoint_cluster_mismatch_rejected(self, task):
        ckpts = []
        server, stream = build_shard(task)
        server.run(stream, checkpoint_every=40, checkpoint_sink=ckpts.append)
        other_task = ShardTask(cluster="Saturn", config=_config(), **_TASK)
        server2, stream2 = build_shard(other_task)
        with pytest.raises(ValueError, match="checkpoint is for shard"):
            server2.run(stream2, resume=ckpts[0])


@needs_fork
class TestSigkillRecovery:
    def test_sigkill_mid_stream_parity(self, baseline):
        """The acceptance test: kill at batch 130, resume, byte-compare."""
        plan = FaultPlan(
            seed=7, faults=(FaultSpec(key="Venus", kind="crash", at=130),)
        )
        log = SupervisionLog()
        (recovered,), _ = serve_clusters_net(
            ("Venus",), _config(), **_TASK, net=FAST_NET, fault_plan=plan,
            checkpoint_every=50, log=log,
        )
        assert recovered.parity_bytes() == baseline.parity_bytes()
        assert log.events == [("Venus", 0, "crash"), ("Venus", 1, "ok")]
        assert recovered.retries == 1
        assert recovered.as_dict()["retries"] == 1

    def test_same_plan_same_seed_identical_fault_sequence(self):
        plan = FaultPlan(
            seed=7, faults=(FaultSpec(key="Venus", kind="crash", at=130),)
        )
        runs = []
        for _ in range(2):
            log = SupervisionLog()
            (report,), _ = serve_clusters_net(
                ("Venus",), _config(), **_TASK, net=FAST_NET, fault_plan=plan,
                checkpoint_every=50, log=log,
            )
            runs.append((log.events, report.parity_bytes()))
        assert runs[0] == runs[1]


class TestDegradationLadder:
    def test_one_rung_per_decision_failure(self, task, baseline):
        """Each ordering failure steps exactly one rung; decisions keep
        flowing and every degraded decision is counted."""
        server, stream = build_shard(task)
        svc = server.orchestrator.service("qssf")
        fails = {"n": 0}
        orig_act = svc.act

        def flaky_act(state):
            if fails["n"] < 1:
                fails["n"] += 1
                raise RuntimeError("injected model failure")
            return orig_act(state)

        svc.act = flaky_act
        report = server.run(stream)
        assert report.degraded["qssf_rung"] == 1  # exactly one rung
        assert report.degraded["qssf_failures"] == 1
        assert report.degraded["qssf_decisions"] > 0  # kept deciding
        # every submit batch still produced an ordering
        assert report.qssf_batches == baseline.qssf_batches
        assert report.qssf_decisions == baseline.qssf_decisions

    def test_ladder_steps_in_order_and_sticks(self, task):
        server, _ = build_shard(task)
        assert "qssf_rung" not in server.degraded  # healthy
        server._degrade_qssf()
        assert server.degraded.get("qssf_rung", 0) == 1
        assert isinstance(server.orchestrator.service("qssf"), QSSFService)
        assert server.orchestrator.service("qssf").refit_mode == "scratch"
        server._degrade_qssf()
        assert server.degraded.get("qssf_rung", 0) == 2
        svc = server.orchestrator.service("qssf")
        assert isinstance(svc, QSSFService) and svc.lam == 1.0
        server._degrade_qssf()
        assert server.degraded.get("qssf_rung", 0) == 3
        assert isinstance(
            server.orchestrator.service("qssf"), PassthroughQueueService
        )
        server._degrade_qssf()  # beyond the last rung: sticks
        assert server.degraded.get("qssf_rung", 0) == 3

    def test_fifo_passthrough_still_orders(self, task, baseline):
        """Even at the last rung the stream is served to exhaustion."""
        server, stream = build_shard(task)
        for _ in range(3):
            server._degrade_qssf()
        report = server.run(stream)
        assert report.qssf_batches == baseline.qssf_batches
        assert report.events == baseline.events
        assert report.degraded["qssf_rung"] == 3
        assert report.degraded["qssf_decisions"] == report.qssf_decisions

    def test_refit_failure_degrades_not_crashes(self, monkeypatch):
        """A raising incremental refit mid-stream downgrades the service
        instead of killing the shard; the pending count survives so the
        next observation retries at the new rung."""
        cfg = _config(
            lam=0.5,
            qssf_gbdt=None,
            update_interval_s=3_600.0,  # refits fire every stream-hour
            update_max_buffered=50,
        )
        task = ShardTask(cluster="Venus", config=cfg, **_TASK)
        server, stream = build_shard(task)
        calls = {"n": 0}
        orig = QSSFService.apply_update

        def flaky_update(self):
            if calls["n"] < 1:
                calls["n"] += 1
                raise RuntimeError("injected refit failure")
            return orig(self)

        monkeypatch.setattr(QSSFService, "apply_update", flaky_update)
        report = server.run(stream)
        assert report.degraded["refit_failures"] == 1
        assert report.degraded["qssf_rung"] == 1
        assert report.events > 0
        # scratch refits took over after the rung step
        assert report.refits["qssf"]["refits"] > 0

    def test_rolling_only_rung_refits_on_window_and_every_observed_job(
            self, monkeypatch):
        """Rung 2's scratch refit trains on the training window plus
        every finished job, those observed before the swap included."""
        from repro.frame import Table
        from repro.framework import plugins

        history = make_trace(
            [(i * 60, 1 + i % 4, 30.0 + 10.0 * (i % 5)) for i in range(60)]
        )
        finished = make_trace(
            [(4_000 + i * 60, 1 + i % 3, 21.0 + 7.0 * i) for i in range(9)]
        )
        rows = [finished.row(i) for i in range(len(finished))]
        server = PredictionServer(ServeConfig(lam=1.0, update_interval_s=1e9))
        server.install_qssf(history)
        for row in rows[:6]:
            server.engine.observe("qssf", row, now=0.0)
        server._degrade_qssf()
        server._degrade_qssf()
        assert server.degraded.get("qssf_rung", 0) == 2
        for row in rows[6:]:
            server.engine.observe("qssf", row, now=0.0)

        trained = []
        real = plugins.QSSFScheduler

        def recording(table, **kwargs):
            trained.append(table)
            return real(table, **kwargs)

        monkeypatch.setattr(plugins, "QSSFScheduler", recording)
        assert server.engine.refit("qssf", now=1.0) == "scratch"
        want = Table.concat([history, Table.from_rows(rows)])
        assert len(trained) == 1
        assert np.array_equal(trained[0]["duration"], want["duration"])
        assert np.array_equal(trained[0]["submit_time"], want["submit_time"])

    def test_ces_failure_degrades_to_always_on(self, task, baseline):
        server, stream = build_shard(task)
        svc = server.orchestrator.service("ces")

        def broken_predict(*a, **k):
            raise RuntimeError("forecast model lost")

        svc.forecaster.predict_at = broken_predict
        report = server.run(stream)
        assert report.degraded["ces_rung"] == 1
        # every sample after the failure was a degraded (always-on) step
        assert report.degraded["ces_steps"] == report.node_samples
        assert report.node_samples == baseline.node_samples
        # always-on forecasts keep the controller from parking anything
        assert report.ces_summary["avg_parked"] <= baseline.ces_summary["avg_parked"]


class TestAggregatedFaultTelemetry:
    def test_rollup_counts_degraded_and_retries(self, task):
        from repro.serve import aggregate_reports

        server, stream = build_shard(task)
        for _ in range(2):
            server._degrade_qssf()
        report = server.run(stream)
        report.retries = 3
        agg = aggregate_reports([report])
        assert agg["retries"] == 3
        assert agg["degraded"]["qssf_rung"] == 2
        assert agg["degraded"]["qssf_decisions"] == report.qssf_decisions
