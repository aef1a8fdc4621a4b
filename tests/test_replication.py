"""Cross-host model replication: the unit half (no fork needed).

Covers the engine's delegated refit path (versioned outbox, version-
gated installs, pending re-observe, ``replicable=False`` bypass), the
:class:`~repro.serve.net.replicate.ModelUpdateHub`'s idempotent
train-once contract, the deterministic replica stream partition, and
the front-door client's capped deterministic busy-retry loop.  The
forked end-to-end parity and chaos tests live in test_net_chaos.py.
"""

import pickle
import time

import numpy as np
import pytest

from repro.framework import ModelUpdateEngine, PredictionService, UpdatePolicy
from repro.framework.supervise import backoff_delay
from repro.serve import ShardTask
from repro.serve.net import FrontDoorClient, ModelUpdateHub, replica_slice
from repro.serve.stream import FINISH, NODE_SAMPLE, SUBMIT, EventBatch


class RecordingService(PredictionService):
    """Minimal incremental service for delegation mechanics."""

    service_name = "svc"
    supports_incremental = True

    def __init__(self):
        self.fit_calls = 0
        self.update_calls = 0
        self.observed = []

    def fit(self, history):
        self.fit_calls += 1
        return self

    def apply_update(self, new_history):
        self.update_calls += 1
        return self

    def predict(self, request):
        return len(self.observed)

    def act(self, state):
        return state

    def observe(self, event):
        self.observed.append(event)


class OwnerLocalService(RecordingService):
    """Same mechanics, but opts out of replication."""

    service_name = "owner"
    replicable = False


def _engine(service=None, max_buffered=1_000_000):
    eng = ModelUpdateEngine(
        policy=UpdatePolicy(interval_seconds=1e12, max_buffered=max_buffered)
    )
    svc = service or RecordingService()
    eng.register(svc, history_builder=list, prefitted=True)
    return eng, svc


class TestDelegatedEngine:
    def test_delegated_refit_queues_versioned_request(self):
        eng, svc = _engine()
        eng.delegated = True
        for ev in ("a", "b", "c"):
            eng.observe("svc", ev, now=1.0)
        assert eng.refit("svc", 5.0) == "delegated"
        assert svc.fit_calls == 0 and svc.update_calls == 0
        assert eng.fits_performed("svc") == 0
        (req,) = eng.sync_requests()
        assert req["service"] == "svc"
        assert req["version"] == 1
        assert req["deltas"] == ["a", "b", "c"]
        assert req["now"] == 5.0
        assert eng.pending_count("svc") == 0
        assert eng.sync_pending("svc")
        assert eng.sync_versions("svc") == (1, 0)

    def test_bookkeeping_mirrors_local_refit(self):
        # The delegated path advances refit_count/incremental_refits
        # exactly as a local refit would — replica reports must show the
        # same ``refits`` dict as the merged-stream run.
        local_eng, _ = _engine()
        deleg_eng, _ = _engine()
        deleg_eng.delegated = True
        for eng in (local_eng, deleg_eng):
            eng.observe("svc", "x", now=0.0)
            eng.refit("svc", 1.0)
        assert deleg_eng.refit_count("svc") == local_eng.refit_count("svc") == 1
        assert (
            deleg_eng.incremental_refit_count("svc")
            == local_eng.incremental_refit_count("svc")
            == 1
        )
        # ...but only the local engine did model work.
        assert local_eng.fits_performed("svc") == 1
        assert deleg_eng.fits_performed("svc") == 0

    def test_requests_persist_until_install(self):
        # The crash-safety contract: the outbox survives repeated reads
        # (and hence a checkpoint pickled mid-flight); only the install
        # consumes it.
        eng, _ = _engine()
        eng.delegated = True
        eng.observe("svc", "a", now=0.0)
        eng.refit("svc", 1.0)
        assert len(eng.sync_requests()) == 1
        assert len(eng.sync_requests()) == 1
        assert eng.install_snapshot("svc", 1, RecordingService())
        assert eng.sync_requests() == []
        assert not eng.sync_pending("svc")
        assert eng.sync_versions("svc") == (1, 1)

    def test_install_is_version_gated(self):
        eng, _ = _engine()
        eng.delegated = True
        for v in range(3):
            eng.observe("svc", f"e{v}", now=float(v))
            eng.refit("svc", float(v))
        assert eng.sync_versions("svc") == (3, 0)
        with pytest.raises(ValueError, match="snapshot gap"):
            eng.install_snapshot("svc", 2, RecordingService())  # skips v1
        with pytest.raises(ValueError, match="snapshot gap"):
            eng.install_snapshot("svc", 4, RecordingService())  # never cut
        assert eng.install_snapshot("svc", 1, RecordingService())
        assert not eng.install_snapshot("svc", 1, RecordingService())  # stale
        assert eng.install_snapshot("svc", 2, RecordingService())
        assert eng.install_snapshot("svc", 3, RecordingService())
        assert eng.sync_versions("svc") == (3, 3)

    def test_install_reobserves_pending(self):
        # Events observed after the delta was cut are re-fed into the
        # incoming service: the installed model is byte-identical to one
        # that refit locally at the cut and kept observing.
        eng, _ = _engine()
        eng.delegated = True
        eng.observe("svc", "before", now=0.0)
        eng.refit("svc", 1.0)
        eng.observe("svc", "late1", now=2.0)
        eng.observe("svc", "late2", now=2.0)
        incoming = RecordingService()
        assert eng.install_snapshot("svc", 1, incoming)
        assert incoming.observed == ["late1", "late2"]
        assert eng.service("svc") is incoming
        assert eng.pending_count("svc") == 2  # still pending for v2

    def test_replicable_false_trains_locally(self):
        eng, svc = _engine(OwnerLocalService())
        eng.delegated = True
        eng.observe("owner", "n0", now=0.0)
        assert eng.refit("owner", 1.0) == "incremental"
        assert svc.update_calls == 1
        assert eng.sync_requests() == []
        assert not eng.sync_pending("owner")
        assert eng.fits_performed("owner") == 1

    def test_skip_snapshot_consumes_version(self):
        # Degraded-shard escape hatch: the version vector advances (so
        # serving unblocks) without reverting the fallback service.
        eng, svc = _engine()
        eng.delegated = True
        eng.observe("svc", "a", now=0.0)
        eng.refit("svc", 1.0)
        eng.skip_snapshot("svc", 1)
        assert not eng.sync_pending("svc")
        assert eng.sync_requests() == []
        assert eng.service("svc") is svc
        # Skipping past the requested version clamps to it.
        eng.skip_snapshot("svc", 99)
        assert eng.sync_versions("svc") == (1, 1)

    def test_outbox_survives_pickle(self):
        # A checkpoint pickles the whole engine: a respawned worker
        # resumes with the in-flight request intact and re-sends it.
        eng, _ = _engine()
        eng.delegated = True
        eng.observe("svc", "a", now=0.0)
        eng.refit("svc", 1.0)
        clone = pickle.loads(pickle.dumps(eng))
        assert clone.delegated
        (req,) = clone.sync_requests()
        assert (req["service"], req["version"], req["deltas"]) == (
            "svc", 1, ["a"])
        assert clone.sync_versions("svc") == (1, 0)


def _batches(kinds):
    return [
        EventBatch(kind=k, time=float(i), refs=np.array([i], dtype=np.int64))
        for i, k in enumerate(kinds)
    ]


class TestReplicaSlice:
    KINDS = [SUBMIT, SUBMIT, FINISH, SUBMIT, NODE_SAMPLE, SUBMIT, FINISH,
             SUBMIT]

    def test_single_replica_gets_everything(self):
        batches = _batches(self.KINDS)
        out = replica_slice(batches, 0, 1)
        assert out == batches
        assert out is not batches  # a copy, not an alias

    def test_submits_round_robin_finishes_broadcast_nodes_owned(self):
        batches = _batches(self.KINDS)
        s0 = replica_slice(batches, 0, 2)
        s1 = replica_slice(batches, 1, 2)
        # Submit ranks 0,2,4 → replica 0; ranks 1,3 → replica 1.
        assert [b.time for b in s0 if b.kind == SUBMIT] == [0.0, 3.0, 7.0]
        assert [b.time for b in s1 if b.kind == SUBMIT] == [1.0, 5.0]
        # Every replica feeds its rolling estimator with every finish.
        for s in (s0, s1):
            assert [b.time for b in s if b.kind == FINISH] == [2.0, 6.0]
        # The CES owner (replica 0) alone sees node samples.
        assert [b.time for b in s0 if b.kind == NODE_SAMPLE] == [4.0]
        assert all(b.kind != NODE_SAMPLE for b in s1)

    def test_partition_is_exact_and_order_preserving(self):
        batches = _batches([SUBMIT] * 10)
        slices = [replica_slice(batches, j, 3) for j in range(3)]
        seen = sorted(b.time for s in slices for b in s)
        assert seen == [b.time for b in batches]  # disjoint and covering
        for s in slices:
            assert [b.time for b in s] == sorted(b.time for b in s)


def _finish_event(i):
    return {"user": f"u{i % 3}", "name": f"job{i}", "gpu_num": 1,
            "duration": 60.0 + i}


class TestModelUpdateHub:
    def _task(self):
        from repro.experiments.serving import smoke_serve_config

        return ShardTask(cluster="Venus", config=smoke_serve_config(),
                         history_days=14, stream_days=1.0, max_jobs=300)

    def test_sync_trains_once_per_version(self):
        hub = ModelUpdateHub()
        task = self._task()
        deltas = [_finish_event(i) for i in range(5)]
        blob, fresh = hub.sync(task, "qssf", 1, deltas, now=100.0)
        assert fresh and hub.refits == 1
        assert pickle.loads(blob).service_name == "qssf"
        # Duplicate (retry / respawned replica): cached, byte-identical.
        blob2, fresh2 = hub.sync(task, "qssf", 1, deltas, now=100.0)
        assert not fresh2 and blob2 == blob
        assert hub.refits == 1 and hub.cached_hits == 1
        assert hub.fits_performed("Venus", "qssf") == 1

    def test_sync_version_gap_is_a_protocol_error(self):
        hub = ModelUpdateHub()
        with pytest.raises(RuntimeError, match="version gap"):
            hub.sync(self._task(), "qssf", 2, [_finish_event(0)], now=1.0)

    def test_replicas_share_one_lineage(self):
        # Two replicas of one cluster requesting the same version get
        # the same blob from one fit — the whole point of central mode.
        hub = ModelUpdateHub()
        t0 = self._task()
        t1 = ShardTask(cluster=t0.cluster, config=t0.config,
                       history_days=t0.history_days,
                       stream_days=t0.stream_days, max_jobs=t0.max_jobs,
                       replica_index=1, replica_count=2)
        deltas = [_finish_event(i) for i in range(4)]
        blob0, fresh0 = hub.sync(t0, "qssf", 1, deltas, now=50.0)
        blob1, fresh1 = hub.sync(t1, "qssf", 1, deltas, now=50.0)
        assert fresh0 and not fresh1
        assert blob0 == blob1
        assert hub.refits == 1


class TestFrontDoorClientRetry:
    def _client(self, max_retries, monkeypatch, replies):
        """A socketless client whose request() pops canned replies and
        whose sleeps are recorded instead of taken."""
        client = FrontDoorClient.__new__(FrontDoorClient)
        client.max_retries = max_retries
        client.retry_base_s = 0.01
        client.retry_cap_s = 0.05
        sleeps = []
        monkeypatch.setattr(client, "request", lambda msg: replies.pop(0))
        monkeypatch.setattr(time, "sleep", sleeps.append)
        return client, sleeps

    def _batch(self):
        return EventBatch(kind=SUBMIT, time=0.0,
                          refs=np.array([0], dtype=np.int64))

    def test_busy_then_accepted_backs_off_deterministically(self, monkeypatch):
        replies = [
            {"op": "busy", "retry_after_s": 0.02},
            {"op": "busy", "retry_after_s": 0.02},
            {"op": "accepted", "bi": 0},
        ]
        client, sleeps = self._client(5, monkeypatch, replies)
        reply = client.send_event("Venus", 0, self._batch())
        assert reply["op"] == "accepted"
        assert len(sleeps) == 2
        cap = client.retry_cap_s
        # Each wait honors the server hint, rides the shared
        # deterministic backoff, and never exceeds the cap.
        for attempt, slept in enumerate(sleeps, start=1):
            expected = max(0.02, backoff_delay(
                f"frontdoor:Venus:{0}", attempt, client.retry_base_s, cap))
            assert slept == min(expected, cap)
            assert slept <= cap

    def test_gives_up_with_clear_error_after_budget(self, monkeypatch):
        busy = {"op": "busy", "retry_after_s": 0.3}
        client, sleeps = self._client(3, monkeypatch, [dict(busy)] * 4)
        with pytest.raises(TimeoutError, match="after 3 retries"):
            client.send_event("Venus", 7, self._batch())
        assert len(sleeps) == 3  # no sleep after the final attempt
        # The 0.3s hint is clamped to the cap: give-up is prompt.
        assert all(s == client.retry_cap_s for s in sleeps)
