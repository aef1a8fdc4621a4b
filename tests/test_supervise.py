"""Shard supervision: backoff, fault firing, and the router's recovery
of crashed, hung and failing shard workers.

The serve-net router is the one supervised execution plane.  Every
attempt at serving a shard ends in one ``SupervisionLog`` event —
``crash`` when its worker hung up, ``timeout`` when a deadline
expired, ``ok`` when its report arrived — and a recovered
shard's parity surface equals the never-failed run's.
"""

import time

import pytest

from repro.framework import (
    FaultPlan,
    FaultSpec,
    SupervisionLog,
    TransientWorkerFault,
    WorkerContext,
    fork_available,
)
from repro.framework.supervise import backoff_delay
from repro.serve import NetConfig, ShardTask, build_shard, serve_clusters_net

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires os.fork"
)

_TASK = dict(history_days=14, stream_days=1.0, max_jobs=400)

#: one worker, fast backoff; individual tests override deadlines
FAST = dict(workers=1, max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01)


def _config():
    from repro.experiments.serving import smoke_serve_config

    return smoke_serve_config()


@pytest.fixture(scope="module")
def baseline():
    """Never-failed direct runs, by cluster."""
    out = {}
    for cluster in ("Venus", "Uranus"):
        server, stream = build_shard(
            ShardTask(cluster=cluster, config=_config(), **_TASK)
        )
        out[cluster] = server.run(stream)
    return out


def _routed(clusters=("Venus",), plan=None, **net):
    log = SupervisionLog()
    reports, stats = serve_clusters_net(
        clusters, _config(), **_TASK, checkpoint_every=50, fault_plan=plan,
        net=NetConfig(**{**FAST, **net}), log=log,
    )
    return reports, stats, log


def _events(log, label):
    return [(a, o) for lbl, a, o in log.events if lbl == label]


class TestSupervisionKnobs:
    def test_validation(self):
        """The retry and backoff knobs live on NetConfig."""
        with pytest.raises(ValueError, match="max_retries"):
            NetConfig(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            NetConfig(backoff_base_s=-0.1)
        with pytest.raises(ValueError, match="backoff"):
            NetConfig(backoff_cap_s=-1.0)
        NetConfig(backoff_base_s=0.0, backoff_cap_s=0.0)

    def test_backoff_deterministic_and_bounded(self):
        assert backoff_delay("x", 0, 0.1, 1.0) == 0.0
        d1 = backoff_delay("x", 1, 0.1, 1.0)
        d2 = backoff_delay("x", 2, 0.1, 1.0)
        # same inputs, same jitter — no wall clock involved
        assert d1 == backoff_delay("x", 1, 0.1, 1.0)
        assert d1 != backoff_delay("y", 1, 0.1, 1.0)
        assert 0.1 <= d1 <= 0.2
        assert 0.2 <= d2 <= 0.4
        assert backoff_delay("x", 30, 0.1, 1.0) == 1.0


@needs_fork
class TestHappyPath:
    def test_matches_plain_map(self, baseline):
        """Supervision is a pure wrapper: a fault-free routed shard
        equals the direct run and reports no retries."""
        (report,), stats, log = _routed()
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()
        assert log.events == [("Venus", 0, "ok")]
        assert report.retries == 0
        assert "retries" not in report.as_dict()
        assert stats.reroutes == 0 and stats.link_failures == 0

    def test_empty_items(self):
        reports, stats, log = _routed(clusters=())
        assert reports == [] and log.events == []
        assert stats.frames_sent == 0


@needs_fork
class TestErrorPaths:
    def test_failures_isolated_per_item(self, baseline):
        """Isolation is per worker process: killing Venus's worker
        (w1 of 3) leaves Uranus's attempt on w2 alone."""
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="crash", at=130),))
        reports, _, log = _routed(("Venus", "Uranus"), plan, workers=3)
        assert _events(log, "Venus") == [(0, "crash"), (1, "ok")]
        assert _events(log, "Uranus") == [(0, "ok")]
        assert [r.retries for r in reports] == [1, 0]
        for report in reports:
            assert report.parity_bytes() == baseline[report.cluster].parity_bytes()


@needs_fork
class TestInjectedFaults:
    def test_transient_exception_retried_to_success(self, baseline):
        """An exception kills the worker process; the router sees the
        hangup and resumes the shard on the respawned worker."""
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="exception", at=130),))
        (report,), stats, log = _routed(plan=plan)
        assert log.events == [("Venus", 0, "crash"), ("Venus", 1, "ok")]
        assert log.retries() == report.retries == 1
        assert stats.respawns == 1
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()

    def test_exhausted_retries_terminal(self, baseline):
        """With no respawn budget the dead worker stays down and the
        shard takes the last rung: the router serves it in-process from
        its checkpoint."""
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="crash", at=130),))
        (report,), stats, log = _routed(plan=plan, max_retries=0)
        assert log.events == [("Venus", 0, "crash"), ("Venus", 1, "ok")]
        assert stats.respawns == 0 and stats.passthroughs == 1
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()


@needs_fork
class TestForkedCrashes:
    def test_sigkill_crash_recovers_from_checkpoint(self, baseline):
        """Two SIGKILLs on consecutive attempts: each resumed attempt
        restarts from the latest checkpoint it was handed."""
        plan = FaultPlan(faults=(
            FaultSpec(key="Venus", kind="crash", attempt=0, at=60),
            FaultSpec(key="Venus", kind="crash", attempt=1, at=130),
        ))
        (report,), stats, log = _routed(plan=plan)
        assert log.events == [
            ("Venus", 0, "crash"), ("Venus", 1, "crash"), ("Venus", 2, "ok"),
        ]
        assert report.retries == 2 and stats.respawns == 2
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()

    def test_hang_killed_by_timeout(self, baseline):
        """A hung worker stops acking: the RPC deadline expires past the
        retry budget, the router kills it and resumes the shard."""
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="hang", at=130),))
        t0 = time.monotonic()
        (report,), stats, log = _routed(plan=plan, rpc_deadline_s=1.0)
        assert time.monotonic() - t0 < 60.0
        assert log.events == [("Venus", 0, "timeout"), ("Venus", 1, "ok")]
        assert stats.retries >= 3
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()


class TestMultiFaultAttempts:
    def test_context_fires_every_planned_fault(self):
        """One attempt may stack several faults: the startup one fires
        in fire_startup_faults, the indexed one at its progress."""
        plan = FaultPlan(faults=(
            FaultSpec(key="m", kind="slow_start", delay_s=0.0),
            FaultSpec(key="m", kind="exception", at=2),
        ))
        ctx = WorkerContext("m", 0, faults=plan.process_faults_for("m", 0))
        assert len(ctx.faults) == 2
        ctx.fire_startup_faults()  # zero-delay slow_start returns
        ctx.maybe_fault(0)
        ctx.maybe_fault(1)
        with pytest.raises(TransientWorkerFault):
            ctx.maybe_fault(2)

    def test_multi_fault_plan_under_inprocess_fallback(self, baseline, monkeypatch):
        """Without fork the router serves in-process, where there is no
        worker process to slow, fail or kill: a stacked process-fault
        plan fires nothing and the single attempt succeeds."""
        import repro.serve.net.router as router_mod

        monkeypatch.setattr(router_mod, "fork_available", lambda: False)
        plan = FaultPlan(faults=(
            FaultSpec(key="Venus", kind="slow_start", delay_s=0.001),
            FaultSpec(key="Venus", kind="exception", at=1),
            FaultSpec(key="Venus", kind="crash", at=130),
        ))
        (report,), stats, log = _routed(plan=plan)
        assert log.events == [("Venus", 0, "ok")]
        assert stats.passthroughs == 1
        assert report.parity_bytes() == baseline["Venus"].parity_bytes()
