"""Replica groups and the front-door client: the unit half (no fork
needed).

Covers the deterministic replica stream partition and the front-door
client's capped deterministic busy-retry loop.  The forked end-to-end
replica parity and chaos tests live in test_net_chaos.py.
"""

import time

import numpy as np
import pytest

from repro.framework.supervise import backoff_delay
from repro.serve.net import FrontDoorClient, replica_slice
from repro.serve.stream import FINISH, NODE_SAMPLE, SUBMIT, EventBatch


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
