"""Replica groups: one cluster's stream served by several shards.

:func:`replica_slice` is the deterministic stream partition for a
replica group: submit batches round-robin by submit rank (each job is
decided exactly once, by exactly one replica), finish batches broadcast
to every replica (each must feed its rolling estimator with every
finished job, or decisions would diverge from the merged-stream run),
node batches to replica 0 only (the CES controller is a sequential
stateful owner).

Every replica refits its own models on the observations it sees, and
only replica 0 fits a CES forecaster (:attr:`ShardTask.owns_ces
<repro.serve.runtime.ShardTask.owns_ces>`).  A
replica's QSSF models see every finish, so they follow the same lineage
as the merged-stream run's and its decisions equal that run's for the
submit batches it owns; replica 0's CES controller sees every node
sample, as the merged run's does.
"""

from __future__ import annotations

from ..stream import FINISH, SUBMIT

__all__ = ["replica_slice"]


def replica_slice(batches: list, index: int, count: int) -> list:
    """The micro-batches replica ``index`` of ``count`` serves.

    Deterministic in the batch sequence alone: submit batches partition
    round-robin by submit rank, finish batches go to every replica,
    node-sample/node-fail batches to replica 0 (the CES owner).  Batch
    indices are re-numbered implicitly — a replica's session sees its
    own slice as a dense ``0..n`` sequence.
    """
    if count == 1:
        return list(batches)
    out = []
    rank = 0
    for batch in batches:
        if batch.kind == SUBMIT:
            take = rank % count == index
            rank += 1
        elif batch.kind == FINISH:
            take = True
        else:
            take = index == 0
        if take:
            out.append(batch)
    return out
