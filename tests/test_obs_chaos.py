"""Chaos coverage for the obs layer: spans/metrics must survive
SIGKILLed router workers and checkpoint-resume without double-counting,
and the router's in-process passthrough (no fork) must report the same
metric totals as a forked worker pool.

The comparison surface is the published ``serve.*`` counters, which the
server derives from its checkpointed loop state exactly once at the end
of a completed run — the crash-recovery analogue of the payload parity
guarantee.  Live wall-clock histograms (phase timings, RPC latencies)
are per-attempt by construction and excluded.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.framework import FaultPlan, FaultSpec, SupervisionLog, fork_available
from repro.serve import NetConfig, serve_clusters_net

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")

FAST_NET = NetConfig(
    workers=1,
    max_retries=2,
    backoff_base_s=0.001,
    backoff_cap_s=0.01,
)

_TASK = dict(history_days=14, stream_days=1.0, max_jobs=400, checkpoint_every=50)

_CRASH_PLAN = FaultPlan(
    seed=7, faults=(FaultSpec(key="Venus", kind="crash", at=130),)
)


@pytest.fixture(autouse=True)
def clean_recorder():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _serve_counters(snap) -> dict:
    return {k: v for k, v in snap.counters.items() if k.startswith("serve.")}


def _routed_run(fault_plan):
    from repro.experiments.serving import smoke_serve_config

    log = SupervisionLog()
    (report,), _ = serve_clusters_net(
        ["Venus"], smoke_serve_config(), **_TASK, net=FAST_NET,
        fault_plan=fault_plan, log=log,
    )
    return report, log


@needs_fork
class TestCrashRecoveryObsParity:
    def test_sigkill_resume_totals_match_clean_run(self):
        """A SIGKILLed worker's obs state dies with it; the resumed
        attempt republishes full totals from its checkpointed state —
        so a chaos run's serve.* counters equal a clean run's (replayed
        batches are not double-counted)."""
        obs.enable()
        report_chaos, log = _routed_run(_CRASH_PLAN)
        chaos = _serve_counters(obs.snapshot())
        assert [e[2] for e in log.events] == ["crash", "ok"]
        assert chaos  # the resumed attempt did publish

        obs.reset()
        obs.enable()
        report_clean, _ = _routed_run(None)
        clean = _serve_counters(obs.snapshot())

        assert chaos == clean
        assert report_chaos.parity_bytes() == report_clean.parity_bytes()

    def test_supervisor_plane_saw_the_crash(self):
        """The router is the supervisor plane: its recovery counters
        record the hangup, the respawn and the reroute."""
        obs.enable()
        _routed_run(_CRASH_PLAN)
        snap = obs.snapshot()
        assert snap.counters["net.link_down.hangup"] == 1
        assert snap.counters["net.respawns"] == 1
        assert snap.counters["net.reroutes"] == 1
        # The dead worker's serve.run span died with it; only the
        # resumed attempt's shard spans survive.
        assert sum(1 for s in snap.spans if s.name == "serve.run") == 1

    def test_disabled_obs_changes_nothing(self):
        """Chaos runs with obs off produce the identical report (the
        whole layer is out-of-band)."""
        report_off, _ = _routed_run(_CRASH_PLAN)
        assert obs.snapshot().empty
        obs.enable()
        report_on, _ = _routed_run(_CRASH_PLAN)
        assert report_off.parity_bytes() == report_on.parity_bytes()


@needs_fork
class TestInProcessFallbackParity:
    def test_inprocess_fallback_same_metric_totals(self, monkeypatch):
        """Without fork the router serves the shard in-process (its
        passthrough rung), where a plan's process faults have no worker
        to kill: it must publish the same serve.* totals as the forked
        run that crashed and resumed."""
        obs.enable()
        report_forked, forked_log = _routed_run(_CRASH_PLAN)
        forked = _serve_counters(obs.snapshot())

        import repro.serve.net.router as router_mod

        monkeypatch.setattr(router_mod, "fork_available", lambda: False)
        obs.reset()
        obs.enable()
        report_inproc, inproc_log = _routed_run(_CRASH_PLAN)
        inproc = _serve_counters(obs.snapshot())

        assert [e[2] for e in forked_log.events] == ["crash", "ok"]
        assert inproc_log.events == [("Venus", 0, "ok")]
        # The passthrough is the last rung — nothing could resume from
        # a checkpoint it took — so it takes none; every other total
        # matches.
        assert forked.pop("serve.checkpoints") > 0
        assert inproc.pop("serve.checkpoints", 0) == 0
        assert forked == inproc
        assert report_forked.parity_bytes() == report_inproc.parity_bytes()


@needs_fork
class TestTwoShardsOneWorker:
    def test_phase_timings_cover_every_batch(self):
        """One worker serves two shards at once and drains its obs state
        into the first shard's report when that shard finishes: the
        second shard's phase timings must still reach the trace, one
        per served batch."""
        from repro.experiments.serving import smoke_serve_config

        obs.enable()
        serve_clusters_net(
            ["Venus", "Earth"], smoke_serve_config(), history_days=14,
            stream_days=1.0, max_jobs=300, net=FAST_NET,
        )
        snap = obs.snapshot()
        phases = sum(
            h.count for name, h in snap.histograms.items()
            if name.startswith("serve.phase.")
        )
        assert snap.counters["serve.batches"] > 0
        assert phases == snap.counters["serve.batches"]
