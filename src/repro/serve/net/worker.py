"""Socket shard worker: a forked process serving batches pushed by the
router.

One worker may host several shard sessions (shard id → fitted
:class:`~repro.serve.server.PredictionServer` +
:class:`~repro.serve.server.ServingSession`).  The router drives it
with a tiny RPC vocabulary over one framed socket:

* ``resume``   — build the shard (models fit here, not in the router)
  and open a session, resuming from a piggybacked checkpoint when the
  router holds one; replies ``resume_ok`` with the session cursor.
* ``batch``    — serve a group of consecutive micro-batches (the
  router coalesces its send window into group frames; ``items`` holds
  the group, ``bi`` the first index).  Acks are *cumulative* and
  coalesced: one ``ack`` per drain round covers every batch served in
  it, carrying the session cursor, any checkpoint the session emitted,
  and — under central replication — the shard's model version vector.
  A duplicate (``bi`` below the cursor) folds into the ack without
  side effects; a future index (frames lost in between) is answered
  with ``gap`` naming the expected cursor so the router rewinds.
* ``model_sync`` — a versioned model snapshot broadcast from the
  router-side trainer.  Installs are version-gated: stale versions are
  dropped, early versions stashed until the shard's own refit-due
  point requests them, and the next-expected version hot-swaps in via
  the idempotent ``orchestrator.replace``.  While any version is in
  flight the shard *defers* incoming batches unacked (decisions must
  never run against a model the merged-stream run would not have
  used); the parked frames drain the moment the snapshot installs.
* ``finish``   — close the session; replies ``report`` with the shard
  report (this process's obs state piggybacked on it, so a worker that
  dies first ships nothing and nothing is double-counted).
* ``forget``   — drop a session (the shard was rerouted elsewhere).
* ``ping``/``shutdown`` — liveness probe / clean exit.

In the reverse direction a delegating shard emits
``model_sync_request`` frames (the observation delta since its last
refit).  Requests stay on the engine's outbox until their version
installs, and sent-ness is tracked per host *instance* — a worker
respawned from a checkpoint re-sends every outstanding request, so a
snapshot lost to a crash or partition is always re-requested (the hub
answers duplicates from its version cache).

Process faults from the installed
:class:`~repro.framework.faults.FaultPlan` fire here, in the one
process the router can afford to lose: a
:class:`~repro.framework.supervise.WorkerContext` keyed by ``(shard id,
attempt)`` — ``attempt`` counts the router's resume attempts for that
shard — SIGKILLs, stalls, slows or fails this process at startup or at
the planned batch index.
"""

from __future__ import annotations

import selectors
from collections import deque

from ...framework.faults import FaultPlan, installed_fault_plan
from ...framework.supervise import WorkerContext
from ...obs import collect as obs
from ..runtime import ShardTask, build_shard
from ..server import ServingSession

__all__ = ["ShardHost", "worker_main"]


class ShardHost:
    """One hosted shard: session, fault context, and replication state."""

    __slots__ = ("task", "session", "ctx", "attempt", "pending_ckpt",
                 "deferred", "stash", "sent_syncs")

    def __init__(self, task: ShardTask, attempt: int, ckpt,
                 plan: FaultPlan | None) -> None:
        server, stream = build_shard(task)
        if task.config.replicate == "central":
            server.enable_central_refits()
        self.task = task
        self.attempt = attempt
        self.pending_ckpt = None
        #: batch groups parked while a model sync is in flight
        self.deferred: deque[tuple[int, list]] = deque()
        #: early snapshot broadcasts, service -> {version: blob}
        self.stash: dict[str, dict[int, bytes]] = {}
        #: sync requests already forwarded by *this* host instance — a
        #: rebuilt host (respawn/reroute) starts empty and re-sends
        self.sent_syncs: set[tuple[str, int]] = set()
        faults = plan.process_faults_for(task.shard_id, attempt) if plan else ()
        self.ctx = WorkerContext(task.shard_id, attempt, faults=faults)
        self.ctx.fire_startup_faults()
        self.session = ServingSession(
            server,
            stream,
            checkpoint_every=task.checkpoint_every,
            checkpoint_sink=self._sink,
            resume=ckpt,
            partial=task.replica_count > 1,
        )

    def _sink(self, ckpt) -> None:
        self.pending_ckpt = ckpt

    def take_ckpt(self):
        ckpt, self.pending_ckpt = self.pending_ckpt, None
        return ckpt

    # -- replication ---------------------------------------------------

    @property
    def engine(self):
        return self.session.server.engine

    def blocked(self) -> bool:
        """True while any service awaits a snapshot install: batches
        defer rather than serve against a not-yet-synced model."""
        return self.engine.sync_pending()

    def offer(self, name: str, version: int, blob: bytes) -> None:
        """Accept one snapshot broadcast (stash or install)."""
        self.stash.setdefault(name, {})[version] = blob
        self.pump_sync()

    def pump_sync(self) -> None:
        """Install every stashed snapshot that is now due, in version
        order; prune stale stash entries."""
        progressed = True
        while progressed:
            progressed = False
            for name, versions in self.stash.items():
                requested, installed = self.engine.sync_versions(name)
                for v in [v for v in versions if v <= installed]:
                    del versions[v]  # stale: already installed or skipped
                nxt = installed + 1
                if nxt in versions and nxt <= requested:
                    blob = versions.pop(nxt)
                    self.session.server.install_sync(name, nxt, blob)
                    progressed = True

    def unsent_syncs(self) -> list[dict]:
        """Outstanding sync requests this host has not yet forwarded."""
        out = []
        for req in self.engine.sync_requests():
            key = (req["service"], req["version"])
            if key not in self.sent_syncs:
                self.sent_syncs.add(key)
                out.append(req)
        return out


def worker_main(sock, name: str, plan: FaultPlan | None = None) -> None:
    """Serve RPCs on ``sock`` until shutdown or router hangup."""
    # Import here keeps FramedConn construction after the fork.
    from .framing import FramedConn

    if plan is None:
        plan = installed_fault_plan()
    conn = FramedConn(sock)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    hosts: dict[str, ShardHost] = {}
    running = True
    while running and not conn.closed:
        sel.select(timeout=0.05)
        conn.pump()
        acks: dict[str, int] = {}
        for msg in conn.receive():
            op = msg.get("op")
            if op == "batch":
                _handle_batch(conn, hosts, msg, acks)
            elif op == "model_sync":
                _handle_model_sync(hosts, msg)
            elif op == "resume":
                _handle_resume(conn, hosts, msg, plan)
            elif op == "finish":
                host = hosts.pop(msg["cluster"], None)
                if host is not None:
                    report = host.session.finish()
                    conn.send({
                        "op": "report",
                        "cluster": msg["cluster"],
                        "worker": name,
                        "report": obs.carry_result(report),
                    })
            elif op == "forget":
                hosts.pop(msg["cluster"], None)
            elif op == "ping":
                conn.send({"op": "pong", "worker": name})
            elif op == "shutdown":
                running = False
        # Replication round: install any now-due stashed snapshots,
        # drain batches parked behind completed syncs, and forward new
        # sync requests (including the re-sends of a resumed host).
        for key, host in hosts.items():
            host.pump_sync()
            while host.deferred and not host.blocked():
                bi0, items = host.deferred.popleft()
                _process_items(conn, host, key, bi0, items, acks)
            for req in host.unsent_syncs():
                conn.send({
                    "op": "model_sync_request",
                    "cluster": key,
                    "service": req["service"],
                    "version": req["version"],
                    "deltas": req["deltas"],
                    "now": req["now"],
                    "mode": req["mode"],
                })
        # Acks coalesce per drain round: one cumulative ack per shard
        # covers every batch served this round (the cursor is what the
        # router trusts anyway), halving the return-path frame count.
        for cluster, bi in acks.items():
            host = hosts.get(cluster)
            if host is None:
                continue  # finished or forgotten in this same round
            ack = {
                "op": "ack",
                "cluster": cluster,
                "bi": bi,
                "cursor": host.session.cursor,
                "ckpt": host.take_ckpt(),
            }
            if host.engine.delegated:
                # The version vector rides the cumulative ack stream.
                ack["sync"] = {
                    svc: host.engine.sync_versions(svc)
                    for svc in host.engine.services
                }
            conn.send(ack)
        if conn.want_write:
            conn.pump()
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


def _handle_model_sync(hosts, msg) -> None:
    """Apply one snapshot broadcast to every matching hosted replica
    (the frame is keyed by *cluster*; a worker may host several of its
    replicas, each version-gated independently)."""
    for host in hosts.values():
        if host.task.cluster == msg["cluster"]:
            host.offer(msg["service"], int(msg["version"]), msg["blob"])


def _handle_batch(conn, hosts, msg, acks: dict) -> None:
    cluster = msg["cluster"]
    bi0 = int(msg["bi"])
    # The router coalesces consecutive batches into one group frame
    # (``items``); a bare ``batch`` frame is the single-batch case.
    items = msg["items"] if "items" in msg else [msg["batch"]]
    host = hosts.get(cluster)
    if host is None:
        conn.send({"op": "gap", "cluster": cluster, "expected": 0,
                   "reason": "no session"})
        return
    if host.deferred or host.blocked():
        # A model sync is in flight: park the group unacked, ordered
        # behind anything already deferred.  The router's bounded
        # window throttles how much can pile up here.
        host.deferred.append((bi0, items))
        return
    _process_items(conn, host, cluster, bi0, items, acks)


def _process_items(conn, host, cluster, bi0, items, acks: dict) -> None:
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
        if host.blocked() and i + 1 < len(items):
            # This batch cut a sync request: the rest of the group
            # parks (front of the queue — order is everything) until
            # the snapshot installs.
            host.deferred.appendleft((bi + 1, items[i + 1:]))
            break
    # Served and duplicate batches alike fold into this round's
    # cumulative ack (sent after the drain loop).
    if served >= 0:
        acks[cluster] = max(acks.get(cluster, -1), served)
