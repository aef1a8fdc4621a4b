"""Shard fan-out tests: build_shard scenario wiring + fork determinism."""

import numpy as np
import pytest

from repro.serve import ServeConfig, ShardTask, build_shard, serve_clusters

#: small windows keep the shared-scenario slices cheap; 14 days of
#: 10-minute bins still clears the default forecaster's 1008-bin warmup.
_TASK = dict(history_days=14, stream_days=1.0, max_jobs=250)


@pytest.fixture(scope="module")
def frozen_config():
    return ServeConfig(lam=1.0, online_updates=False)


@pytest.fixture(scope="module")
def light_config():
    """Hourly bins + a small CES model: replay streams run past the
    window until the last simulated finish, so per-bin cost matters."""
    from repro.energy.forecaster import ForecastFeatures
    from repro.ml.gbdt import GBDTParams

    return ServeConfig(
        lam=1.0,
        online_updates=False,
        bin_seconds=3_600,
        horizon_bins=6,
        ces_features=ForecastFeatures(
            bin_seconds=3_600, lags=(1, 2, 3, 6, 24), windows=(6, 24)
        ),
        ces_gbdt=GBDTParams(n_estimators=40, max_depth=4, min_samples_leaf=10),
    )


class TestBuildShard:
    def test_scenario_wiring(self, frozen_config):
        from repro.experiments.common import EVAL_MONTH, MONTH_SECONDS, cluster_spec

        server, stream = build_shard(
            ShardTask("Venus", config=frozen_config, **_TASK)
        )
        assert stream.cluster == "Venus"
        eval_start = EVAL_MONTH * MONTH_SECONDS
        assert stream.times[0] >= eval_start - 600
        assert len(stream.jobs) <= 250
        # demand series capacity-normalized to the physical node count
        total = cluster_spec("Venus").num_nodes
        assert stream.demand is not None
        assert stream.demand.max() <= total
        assert {"qssf", "ces"} <= set(server.orchestrator.installed)

    def test_task_validation(self, frozen_config):
        with pytest.raises(ValueError):
            ShardTask("Venus", config=frozen_config, history_days=0)
        with pytest.raises(ValueError):
            ShardTask("Venus", config=frozen_config, stream_days=0.0)
        with pytest.raises(ValueError, match="source"):
            ShardTask("Venus", config=frozen_config, source="oracle")
        with pytest.raises(ValueError, match="max_jobs"):
            ShardTask("Venus", config=frozen_config, max_jobs=0)
        with pytest.raises(ValueError, match="max_jobs"):
            ShardTask("Venus", config=frozen_config, max_jobs=-5)
        with pytest.raises(ValueError, match="speedup"):
            ShardTask("Venus", config=frozen_config, speedup=0.0)
        with pytest.raises(ValueError, match="speedup"):
            ShardTask("Venus", config=frozen_config, speedup=-1.0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            ShardTask("Venus", config=frozen_config, checkpoint_every=0)


class TestReplaySource:
    def test_stream_finishes_at_simulated_end_times(self, light_config):
        """source="replay": finish events fall at the replayed end_time,
        not the as-if-unqueued submit + duration."""
        from repro.experiments.common import (
            EVAL_MONTH,
            MONTH_SECONDS,
            cluster_gpu_trace,
            cluster_spec,
        )
        from repro.sched import FIFOScheduler
        from repro.serve.stream import FINISH
        from repro.sim import Simulator
        from repro.traces import SECONDS_PER_DAY, slice_period

        server, stream = build_shard(
            ShardTask("Venus", config=light_config, source="replay", **_TASK)
        )
        eval_start = EVAL_MONTH * MONTH_SECONDS
        # independent replay of the same shard window -> expected ends
        gpu = cluster_gpu_trace("Venus")
        window = slice_period(
            gpu,
            eval_start - 14 * SECONDS_PER_DAY,
            eval_start + 1.0 * SECONDS_PER_DAY,
        )
        replay = Simulator(cluster_spec("Venus"), FIFOScheduler()).run(window)
        rt = replay.replayed_trace()
        ends = {
            str(j): float(e)
            for j, e in zip(rt["job_id"], rt["end_time"])
        }
        fin = stream.kinds == FINISH
        streamed = stream.jobs
        for t, ref in zip(stream.times[fin], stream.refs[fin]):
            assert t == ends[str(streamed["job_id"][int(ref)])]
        # replay-derived demand is physical (never exceeds node count)
        assert stream.demand is not None
        assert stream.demand.max() <= cluster_spec("Venus").num_nodes

    def test_replay_shard_serves_end_to_end(self, light_config):
        (report,) = serve_clusters(
            ("Venus",), config=light_config, jobs=1, source="replay", **_TASK
        )
        assert report.events > 0
        assert report.node_samples > 0
        assert report.qssf_decisions > 0

    def test_replay_shard_deterministic(self, light_config):
        a, b = (
            serve_clusters(
                ("Venus",), config=light_config, jobs=1, source="replay", **_TASK
            )[0]
            for _ in range(2)
        )
        assert a.qssf_digest == b.qssf_digest
        assert a.ces_digest == b.ces_digest


class TestServeClusters:
    def test_fork_pool_matches_serial(self, frozen_config):
        """Shard decisions are byte-identical whether shards run
        in-process or fanned out across forked workers."""
        clusters = ("Venus", "Saturn")
        serial = serve_clusters(clusters, config=frozen_config, jobs=1, **_TASK)
        forked = serve_clusters(clusters, config=frozen_config, jobs=2, **_TASK)
        assert [r.cluster for r in serial] == list(clusters)
        for a, b in zip(serial, forked):
            assert a.cluster == b.cluster
            assert a.qssf_digest == b.qssf_digest
            assert a.ces_digest == b.ces_digest
            assert a.events == b.events
        assert all(r.events > 0 for r in serial)

    def test_reports_carry_telemetry(self, frozen_config):
        (report,) = serve_clusters(
            ("Venus",), config=frozen_config, jobs=1, **_TASK
        )
        d = report.as_dict()
        assert d["events"] == d["submits"] + d["finishes"] + d["node_samples"]
        assert d["events_per_s"] > 0
        assert d["qssf_latency"]["count"] == report.qssf_batches
        assert np.isfinite(d["ces_latency"]["p99_ms"])
