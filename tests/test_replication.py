"""Replica groups: the unit half (no fork needed).

Covers the deterministic replica stream partition.  The forked
end-to-end replica parity and chaos tests live in test_net_chaos.py.
"""

import numpy as np

from repro.serve.net import replica_slice
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

