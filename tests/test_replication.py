"""Replica groups: the unit half (no fork needed).

Covers the deterministic replica stream partition and which replica
fits a CES forecaster.  The forked end-to-end replica parity and chaos
tests live in test_net_chaos.py.
"""

import pickle

import numpy as np
import pytest

from repro.serve.net import replica_slice
from repro.serve.runtime import ShardTask, build_shard
from repro.serve.server import ServingSession
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


class TestCesOwner:
    @pytest.fixture(scope="class")
    def shards(self):
        """Replicas 0 and 1 of a 2-replica Venus group, smoke-sized."""
        from repro.experiments.serving import smoke_serve_config

        return [
            build_shard(ShardTask(
                cluster="Venus", config=smoke_serve_config(), history_days=14,
                stream_days=1.0, max_jobs=300, replica_index=j, replica_count=2,
            ))
            for j in range(2)
        ]

    def test_whole_cluster_shards_and_replica_zero_own_ces(self):
        assert ShardTask(cluster="Venus").owns_ces
        assert ShardTask(cluster="Venus", replica_index=0, replica_count=3).owns_ces
        assert not ShardTask(cluster="Venus", replica_index=2, replica_count=3).owns_ces

    def test_only_replica_zero_fits_a_forecaster(self, shards):
        (owner, _), (other, _) = shards
        assert owner.orchestrator.service("ces").forecaster is not None
        # The other replica lists the service, unfitted, and arms no
        # controller; its checkpoints carry no forecaster.
        assert other.engine.services == owner.engine.services
        assert other.orchestrator.service("ces").forecaster is None
        assert other._ces_controller is None
        assert len(pickle.dumps(other.__dict__)) < len(pickle.dumps(owner.__dict__))

    def test_a_node_sample_at_another_replica_fails_loudly(self, shards):
        _, (other, stream) = shards
        batch = next(b for b in stream.batches(other.config.batch_window_s)
                     if b.kind == NODE_SAMPLE)
        with pytest.raises(RuntimeError, match="CES not installed"):
            ServingSession(other, stream).process(0, batch)
