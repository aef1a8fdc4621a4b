"""Socket shard worker: a forked process serving batches pushed by the
router.

One worker may host several shard sessions (shard id → fitted
:class:`~repro.serve.server.PredictionServer` +
:class:`~repro.serve.server.ServingSession`).  The router drives it
with three RPCs over one framed socket:

* ``resume``   — open a shard session: from a piggybacked checkpoint
  when the router holds one (it carries the models, so only the stream
  is built), else on a freshly built shard (models fit here, not in
  the router); replies ``resume_ok`` with the session cursor.
* ``batch``    — serve a group of consecutive micro-batches (the
  router coalesces its send window into group frames; ``items`` holds
  the group, ``bi`` the first index).  Acks are *cumulative* and
  coalesced: one ``ack`` per drain round covers every batch up to its
  ``bi``, carrying any checkpoint the session emitted.  A duplicate
  (``bi`` below the cursor) folds into the ack without side effects; a
  future index (frames lost in between) is answered with ``gap``
  naming the expected cursor so the router rewinds.
* ``finish``   — close the session; replies ``report`` with the shard
  report (this process's obs state piggybacked on it, so a worker that
  dies first ships nothing and nothing is double-counted).

The worker blocks in one wait on its link, with no timeout: until the
router sends, or, while a reply is queued, until the link can take
more of it, so a multi-MB checkpoint ack drains as fast as the router
reads it.  EOF is its one stop signal: the router closed the link (at
shutdown, or to take the worker down) or died.  Frames read in the same
pass as EOF are dropped unserved, since no one is left to read their
replies.

A shard never moves off a live worker: the router kills a link's
process before rerouting its shards, so no session is left to drop.
A replica of a cluster is just another shard session here: it serves
its slice of the stream and refits its own models.

Process faults from the :class:`~repro.framework.faults.FaultPlan` the
router forked this worker with fire here, in the one process the
router can afford to lose: a
:class:`~repro.framework.supervise.WorkerContext` keyed by ``(shard id,
attempt)`` — ``attempt`` counts the router's resume attempts for that
shard — SIGKILLs, stalls, slows or fails this process at startup or at
the planned batch index.
"""

from __future__ import annotations

import selectors

from ...framework.faults import FaultPlan
from ...framework.supervise import WorkerContext
from ...obs import collect as obs
from ..runtime import ShardTask, open_session

__all__ = ["ShardHost", "worker_main"]


class ShardHost:
    """One hosted shard: its session, fault context and unsent checkpoint.

    Startup faults fire before the session opens.  A host resumed from
    ``ckpt`` takes its models from the checkpoint and fits none.
    """

    __slots__ = ("session", "ctx", "attempt", "pending_ckpt")

    def __init__(self, task: ShardTask, attempt: int, ckpt,
                 plan: FaultPlan | None) -> None:
        self.attempt = attempt
        self.pending_ckpt = None
        faults = plan.process_faults_for(task.shard_id, attempt) if plan else ()
        self.ctx = WorkerContext(task.shard_id, attempt, faults=faults)
        self.ctx.fire_startup_faults()
        self.session = open_session(
            task, ckpt,
            checkpoint_every=task.checkpoint_every,
            checkpoint_sink=self._sink,
        )

    def _sink(self, ckpt) -> None:
        self.pending_ckpt = ckpt

    def take_ckpt(self):
        ckpt, self.pending_ckpt = self.pending_ckpt, None
        return ckpt


def worker_main(sock, plan: FaultPlan | None = None) -> None:
    """Serve RPCs on ``sock`` until the router hangs up.

    A read that hits EOF ends the loop before the frames it decoded are
    handled: a router closes a link only once its routes are done, or
    after killing the worker, so those frames have no reader left.
    """
    # Import here keeps FramedConn construction after the fork.
    from .framing import FramedConn

    conn = FramedConn(sock)
    hosts: dict[str, ShardHost] = {}
    with selectors.DefaultSelector() as sel:
        sel.register(sock, selectors.EVENT_READ)
        while not conn.closed:
            writable = selectors.EVENT_WRITE if conn.want_write else 0
            sel.modify(sock, selectors.EVENT_READ | writable)
            sel.select()
            conn.pump()
            msgs = conn.receive()
            if conn.closed:
                break
            acks: dict[str, int] = {}
            for msg in msgs:
                op = msg.get("op")
                if op == "batch":
                    _handle_batch(conn, hosts, msg, acks)
                elif op == "resume":
                    _handle_resume(conn, hosts, msg, plan)
                elif op == "finish":
                    host = hosts.pop(msg["cluster"], None)
                    if host is not None:
                        report = host.session.finish()
                        conn.send({
                            "op": "report",
                            "cluster": msg["cluster"],
                            "report": obs.carry_result(report),
                        })
            # Acks coalesce per drain round: one cumulative ack per
            # shard covers every batch served this round, halving the
            # return-path frame count.
            for cluster, bi in acks.items():
                host = hosts.get(cluster)
                if host is None:
                    continue  # finished in this same round
                conn.send({
                    "op": "ack",
                    "cluster": cluster,
                    "bi": bi,
                    "ckpt": host.take_ckpt(),
                })
    conn.close()


def _handle_resume(conn, hosts, msg, plan) -> None:
    task: ShardTask = msg["task"]
    shard = task.shard_id
    attempt = int(msg.get("attempt", 0))
    host = hosts.get(shard)
    if host is None or host.attempt != attempt:
        # A same-attempt re-resume (router retrying a lost reply) keeps
        # the live session; anything else rebuilds from the checkpoint.
        host = ShardHost(task, attempt, msg.get("ckpt"), plan)
        hosts[shard] = host
    conn.send({
        "op": "resume_ok",
        "cluster": shard,
        "attempt": attempt,
        "cursor": host.session.cursor,
    })


def _handle_batch(conn, hosts, msg, acks: dict) -> None:
    cluster = msg["cluster"]
    bi0 = int(msg["bi"])
    # The router coalesces consecutive batches into one group frame.
    items = msg["items"]
    host = hosts.get(cluster)
    if host is None:
        conn.send({"op": "gap", "cluster": cluster, "expected": 0})
        return
    cursor = host.session.cursor
    if bi0 > cursor:
        # Frames between cursor and bi0 were lost: ask for a rewind.
        conn.send({"op": "gap", "cluster": cluster, "expected": cursor})
        acks.pop(cluster, None)
        return
    served = -1
    for i, batch in enumerate(items):
        bi = bi0 + i
        if bi < host.session.cursor:
            served = bi
            continue  # duplicate: folds into the ack, no side effects
        # Fault hook: progress == batch index, fired only for batches
        # actually about to be served.
        host.ctx.maybe_fault(bi)
        host.session.process(bi, batch)
        served = bi
    # Served and duplicate batches alike fold into this round's
    # cumulative ack (sent after the drain loop).
    if served >= 0:
        acks[cluster] = max(acks.get(cluster, -1), served)
