"""The serving control plane's router: links, routes, and resilience.

This is the one fault-tolerant execution plane for serving shards.
The router owns a pool of forked socket workers (one
:class:`WorkerLink` each, talking framed messages over a socketpair)
and a :class:`RouteState` per shard.  Each shard ranks the workers in
one fixed order (:func:`shard_order`: rendezvous hashing on its
cluster, rotated by its replica index) and starts on the first;
batches stream to that worker behind a bounded in-flight window
(``queue_bound`` — the explicit backpressure: the router never buffers
unacked work beyond it), and every route walks a circuit-breaker
ladder when its worker stops making progress:

1. **healthy** — stream batches, collect acks (checkpoints piggyback).
2. **retrying** — the per-RPC deadline expired: rewind to the acked
   cursor and resend after a capped exponential backoff whose jitter is
   deterministic (:func:`~repro.framework.supervise.backoff_delay` over
   ``stable_seed``, never the wall clock).  Workers skip duplicate
   batch indices, so resends are idempotent by construction.
3. **degraded-to-sibling** — the retry budget is spent or the link hit
   EOF (the one dead-worker signal; a hung worker is left to the RPC
   deadline): the link is taken down, its process killed and
   reaped (and respawned with a fresh epoch when budget remains), and
   each of its routes is re-resumed *from its latest checkpoint* on the
   first live worker in its order, other than the one it left, that
   hosts no live replica of the same cluster — else on the first other
   live worker, else on the respawned one.
4. **in-process passthrough** — no worker can host the shard (fork
   unavailable, or reroute budget exhausted): the router serves the
   route itself, with the shard's full models, through the same
   :class:`~repro.serve.server.ServingSession` loop a worker runs,
   resuming from the route's latest checkpoint — decisions never stop
   flowing, mirroring the in-shard degradation ladder.  Each step
   serves the batches admitted since the last one, so in listen mode a
   client's batches are served and acked as they arrive.

Every attempt at serving a shard ends in one
:class:`~repro.framework.supervise.SupervisionLog` event (``Router.log``):
``crash`` when its worker hung up, ``timeout`` when a deadline expired,
``ok`` when its report arrived (passthrough included); the report's
``retries`` counts the failed attempts.
Failure isolation is per worker process — shards sharing a worker
share its crash, and each resumes from its own checkpoint.  Without
fork there is no worker process, so a plan's process faults (crash,
hang, ...) do not fire in the passthrough.

The drive loop and the listen-mode front door block only in
:meth:`Router.wait`.  A worker blocks on its link and exits on EOF:
when :meth:`Router.shutdown` closes the link, or when the router dies.

A replica group (``--replicas K``) is K routes over one cluster's
stream, each opened with its slice of it
(:func:`~repro.serve.net.replicate.replica_slice`).  The router treats
them as independent shards, and each replica refits its own models.
Replica ``i`` starts on worker ``i`` of the cluster's order, so a
group's K replicas start on K different workers; with more replicas
than workers the order wraps round and replica ``i`` shares the worker
of replica ``i - workers``.

Network faults (``drop``/``delay``/``duplicate``/``partition``) inject
at each link's framing layer, keyed by ``("link:<worker>", epoch,
frame seq)`` — see :class:`~repro.serve.net.framing.NetFaultFilter`.
Observability: queue-depth and RPC-latency histograms plus
retry/reroute/breaker counters flow through :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import selectors
import socket
import time
from dataclasses import asdict, dataclass

from ...framework.faults import FaultPlan
from ...framework.parallel import fork_available
from ...framework.supervise import SupervisionLog, backoff_delay
from ...obs import collect as obs
from ..runtime import ShardTask, build_stream, open_session
from ..server import ServingSession
from .framing import FramedConn, NetFaultFilter
from .replicate import replica_slice
from .worker import worker_main

__all__ = ["NetConfig", "NetStats", "Router", "RouteState", "WorkerLink",
           "shard_order"]

#: the longest :meth:`Router.wait` blocks when no socket turns readable
POLL_S = 0.005
#: deadline for a resume or a finish reply (the worker fits models, or
#: closes its session, before replying)
RESUME_DEADLINE_S = 600.0
#: the route phases in which a worker hosts the route's session
_ON_WORKER = ("resuming", "streaming", "finishing")


def shard_order(task: ShardTask, workers) -> list[str]:
    """``workers`` in the order ``task``'s shard prefers them: ranked
    by the md5 of ``"<cluster>:<worker>"``, highest first (rendezvous
    hashing; md5, not the salted ``hash()``, so every process and run
    agrees, whatever order ``workers`` come in), then rotated by the
    shard's replica index."""
    ranked = sorted(
        workers,
        key=lambda w: hashlib.md5(f"{task.cluster}:{w}".encode()).digest(),
        reverse=True,
    )
    if not ranked:
        raise ValueError("a shard needs at least one worker to rank")
    k = task.replica_index % len(ranked)
    return ranked[k:] + ranked[:k]


@dataclass(frozen=True)
class NetConfig:
    """Control-plane knobs: pool size, backpressure, the RPC deadline,
    retry shape.  The CLI's ``--max-retries``/``--retry-base``/``--retry-cap``
    set ``max_retries``/``backoff_base_s``/``backoff_cap_s``."""

    workers: int = 2
    #: max unacked batches in flight per shard (the bounded queue)
    queue_bound: int = 32
    #: progress deadline per streamed RPC window
    rpc_deadline_s: float = 60.0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {self.queue_bound}")
        if self.rpc_deadline_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff parameters must be >= 0")


@dataclass
class NetStats:
    """Wall-clock-plane counters for one router run (never part of the
    parity surface — chaos runs rack these up, fault-free runs don't)."""

    frames_sent: int = 0
    acks: int = 0
    retries: int = 0
    gap_rewinds: int = 0
    reroutes: int = 0
    respawns: int = 0
    link_failures: int = 0
    passthroughs: int = 0
    dropped_frames: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class WorkerLink:
    """One worker process + its framed socket, from the router's side."""

    __slots__ = ("name", "epoch", "proc", "conn", "alive", "spawns")

    def __init__(self, name: str, epoch: int, proc, conn: FramedConn,
                 spawns: int = 0) -> None:
        self.name = name
        self.epoch = epoch
        self.proc = proc
        self.conn = conn
        self.alive = True
        self.spawns = spawns


class RouteState:
    """One shard's routing state: cursors, checkpoint, breaker position."""

    __slots__ = (
        "cluster", "task", "batches", "total", "worker", "attempt",
        "retries", "next_send", "acked", "ckpt", "report",
        "phase", "deadline", "backoff_until", "need_resume", "sent_at",
        "session",
    )

    def __init__(self, task: ShardTask, batches: list | None = None,
                 total: int | None = None) -> None:
        # The wire/route key: equals the cluster name for a
        # whole-cluster shard, ``cluster@index`` for a replica.
        self.cluster = task.shard_id
        self.task = task
        self.batches = batches if batches is not None else []
        self.total = total
        self.worker: str | None = None
        self.attempt = 0
        self.retries = 0
        self.next_send = 0
        self.acked = 0
        self.ckpt = None
        self.report = None
        self.phase = "resuming"
        self.deadline: float | None = None
        self.backoff_until = 0.0
        self.need_resume = False
        self.sent_at: dict[int, float] = {}
        #: the passthrough's in-process session (phase "local" only)
        self.session: ServingSession | None = None


def _worker_entry(sock, router_ends, plan) -> None:
    # The fork copied the router's end of this link and of every link
    # opened before it; closing them lets each worker read EOF, and
    # exit, as soon as the router closes its link or dies.  worker_main
    # is looked up here, at call time, so a rebinding of it takes effect.
    for end in router_ends:
        end.close()
    worker_main(sock, plan)


class Router:
    """Single-threaded event-loop router over a forked worker pool."""

    def __init__(self, tasks, net: NetConfig | None = None,
                 fault_plan: FaultPlan | None = None) -> None:
        tasks = list(tasks)
        self.cfg = net or NetConfig()
        self.plan = fault_plan
        self.order = [t.shard_id for t in tasks]
        self.tasks = {t.shard_id: t for t in tasks}
        if len(self.tasks) != len(tasks):
            raise ValueError("duplicate shard in tasks")
        self.stats = NetStats()
        self.routes: dict[str, RouteState] = {}
        self.links: dict[str, WorkerLink] = {}
        self.log = SupervisionLog()
        self._mp = multiprocessing.get_context("fork") if fork_available() else None
        enabled = obs.is_enabled()
        self._qdepth = obs.histogram("net.queue_depth") if enabled else None
        self._rpc_hist = obs.histogram("net.rpc_s") if enabled else None

    # -- pool lifecycle ------------------------------------------------

    def start(self) -> None:
        if self._mp is None:
            return  # no fork: every route takes the passthrough rung
        for i in range(self.cfg.workers):
            name = f"w{i}"
            self.links[name] = self._spawn(name, epoch=0, spawns=0)

    def _spawn(self, name: str, epoch: int, spawns: int) -> WorkerLink:
        parent_sock, child_sock = socket.socketpair()
        ends = [parent_sock] + [link.conn.sock for link in self.links.values()]
        proc = self._mp.Process(
            target=_worker_entry, args=(child_sock, ends, self.plan),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        conn = FramedConn(
            parent_sock, NetFaultFilter(self.plan, f"link:{name}", epoch)
        )
        return WorkerLink(name, epoch, proc, conn, spawns=spawns)

    def shutdown(self) -> None:
        """Close every live link, then join its worker, which reads EOF
        and exits.  Every link closes before any join, so the workers
        exit together.  A worker still alive when its join times out is
        killed."""
        live = [link for link in self.links.values() if link.alive]
        for link in live:  # the dead were reaped, and counted, in _link_down
            self.stats.dropped_frames += link.conn.faults.dropped
            link.conn.close()
            link.alive = False
        for link in live:
            link.proc.join(timeout=2.0)
            if link.proc.is_alive():
                link.proc.kill()
                link.proc.join()

    # -- route lifecycle -----------------------------------------------

    def open_route(self, task: ShardTask, batches: list | None = None,
                   total: int | None = None) -> RouteState:
        route = RouteState(task, batches=batches, total=total)
        self.routes[task.shard_id] = route
        if not self.links:
            self._go_local(route)
            return route
        route.worker = shard_order(task, self.links)[0]
        self._send_resume(route, time.monotonic())
        return route

    def _send_resume(self, route: RouteState, now: float) -> None:
        link = self.links[route.worker]
        link.conn.send({
            "op": "resume",
            "cluster": route.cluster,
            "task": route.task,
            "attempt": route.attempt,
            "ckpt": route.ckpt,
        })
        route.phase = "resuming"
        route.need_resume = False
        route.sent_at.clear()
        route.deadline = now + RESUME_DEADLINE_S

    # -- the event loop ------------------------------------------------

    def done(self) -> bool:
        return all(r.phase == "done" for r in self.routes.values())

    def step(self) -> bool:
        """One pump: drain links, advance routes, enforce deadlines.
        Returns whether any message moved (the idle signal its callers
        use to decide between stepping again and :meth:`wait`)."""
        now = time.monotonic()
        busy = False
        for link in list(self.links.values()):
            if not link.alive:
                continue
            link.conn.pump()
            for msg in link.conn.receive():
                busy = True
                self._handle(link, msg, now)
            if link.conn.closed:
                self._link_down(link, now, reason="hangup")
        for route in self.routes.values():
            if route.phase == "local":
                if self._serve_local(route):
                    busy = True
            elif self._advance(route, now):
                busy = True
        now = time.monotonic()
        for route in self.routes.values():
            if (
                route.phase in _ON_WORKER
                and route.deadline is not None
                and now > route.deadline
            ):
                self._route_stalled(route, now)
        return busy

    def wait(self, socks=()) -> None:
        """Block until a live link socket or one of ``socks`` turns
        readable, or :data:`POLL_S` elapses: a caller whose step moved
        nothing wakes on the next ack or request instead of sleeping
        blind.  A selector, not ``select.select``, so descriptor numbers
        past ``FD_SETSIZE`` work."""
        with selectors.DefaultSelector() as sel:
            for link in self.links.values():
                if link.alive:
                    sel.register(link.conn.sock, selectors.EVENT_READ)
            for sock in socks:
                sel.register(sock, selectors.EVENT_READ)
            if sel.get_map():
                sel.select(POLL_S)
            else:
                time.sleep(POLL_S)

    def drive(self) -> tuple[list, NetStats]:
        """Local-drive mode: build every shard's stream here, route all
        batches, run to completion; reports in task order."""
        t0 = obs.wall_now()
        self.start()
        # One stream build per *cluster*: replicas share the merged batch
        # sequence and each takes its deterministic slice of it.
        full_batches: dict[str, list] = {}
        for shard in self.order:
            task = self.tasks[shard]
            full = full_batches.get(task.cluster)
            if full is None:
                full = list(build_stream(task).batches(task.config.batch_window_s))
                full_batches[task.cluster] = full
            batches = replica_slice(full, task.replica_index, task.replica_count)
            self.open_route(task, batches=batches, total=len(batches))
        try:
            while not self.done():
                # Back off only when a step moved nothing: while acks
                # are streaming, polling again immediately keeps the
                # in-flight window full instead of draining it 5 ms at
                # a time.
                if not self.step():
                    self.wait()
        finally:
            self.shutdown()
        if obs.is_enabled():
            obs.record_span(
                "net.drive", t0, obs.wall_now(),
                clusters=self.order, workers=self.cfg.workers,
            )
        return [self.routes[c].report for c in self.order], self.stats

    # -- message handling ----------------------------------------------

    def _handle(self, link: WorkerLink, msg: dict, now: float) -> None:
        op = msg.get("op")
        route = self.routes.get(msg.get("cluster"))
        if route is None or route.worker != link.name:
            return  # stale: the shard moved on
        if op == "resume_ok":
            if route.phase == "resuming" and msg.get("attempt") == route.attempt:
                # The worker's cursor is authoritative: it restarted from
                # the checkpoint, so acked progress past it is rewound.
                cursor = int(msg["cursor"])
                route.acked = cursor
                route.next_send = cursor
                route.phase = "streaming"
                route.deadline = now + self.cfg.rpc_deadline_s
        elif op == "ack":
            # Acks are cumulative (a worker coalesces one per drain
            # round): bi covers every batch at or below it.
            bi = int(msg["bi"])
            sent = route.sent_at.pop(bi, None)
            if sent is not None and self._rpc_hist is not None:
                self._rpc_hist.record(now - sent)
            for k in [k for k in route.sent_at if k <= bi]:
                del route.sent_at[k]
            route.acked = max(route.acked, bi + 1)
            ckpt = msg.get("ckpt")
            if ckpt is not None and (route.ckpt is None or ckpt.seq >= route.ckpt.seq):
                route.ckpt = ckpt
            route.deadline = now + self.cfg.rpc_deadline_s
            self.stats.acks += 1
        elif op == "gap":
            # Frames to this worker were lost: rewind to its cursor.
            expected = int(msg["expected"])
            route.acked = max(route.acked, expected)
            if expected < route.next_send:
                route.next_send = expected
                route.sent_at.clear()
                self.stats.gap_rewinds += 1
                obs.counter_add("net.gap_rewinds")
            route.deadline = now + self.cfg.rpc_deadline_s
        elif op == "report":
            if route.phase == "finishing":
                report, snap = obs.split_carrier(msg["report"])
                obs.merge_snapshot(snap)
                self._deliver(route, report)

    def _deliver(self, route: RouteState, report) -> None:
        """The route's current attempt produced its report."""
        self.log.record(route.cluster, route.attempt, "ok")
        report.retries = self.log.retries(route.cluster)
        route.report = report
        route.phase = "done"
        route.deadline = None

    # -- route advancement ----------------------------------------------

    def _advance(self, route: RouteState, now: float) -> bool:
        """Returns whether this route sent anything (the busy signal)."""
        if route.phase not in ("resuming", "streaming"):
            return False
        if now < route.backoff_until:
            return False
        if route.phase == "resuming":
            if route.need_resume:
                self._send_resume(route, now)
                return True
            return False
        link = self.links.get(route.worker)
        if link is None or not link.alive:
            return False  # _link_down is about to reroute this route
        sent_any = False
        # Batches coalesce into group frames: one pickle + one syscall
        # per group instead of per batch.  The group cap stays well
        # below the window so several frames ride in flight — losing
        # one still leaves later frames to trigger the worker's gap
        # reply instead of stalling until the RPC deadline.
        group_cap = max(1, min(32, self.cfg.queue_bound // 4))
        while (
            route.next_send < len(route.batches)
            and route.next_send - route.acked < self.cfg.queue_bound
        ):
            bi = route.next_send
            end = min(
                len(route.batches),
                route.acked + self.cfg.queue_bound,
                bi + group_cap,
            )
            link.conn.send({
                "op": "batch",
                "cluster": route.cluster,
                "bi": bi,
                "items": route.batches[bi:end],
            })
            route.sent_at[end - 1] = now
            route.next_send = end
            sent_any = True
            self.stats.frames_sent += 1
            depth = route.next_send - route.acked
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            if self._qdepth is not None:
                self._qdepth.record(depth)
        outstanding = route.next_send > route.acked
        if outstanding:
            if sent_any and route.deadline is None:
                route.deadline = now + self.cfg.rpc_deadline_s
        elif (
            route.total is not None
            and route.acked >= route.total
        ):
            link.conn.send({"op": "finish", "cluster": route.cluster})
            route.phase = "finishing"
            route.deadline = now + RESUME_DEADLINE_S
            return True
        else:
            route.deadline = None  # caught up; nothing to wait for
        return sent_any

    # -- the breaker ladder ---------------------------------------------

    def _route_stalled(self, route: RouteState, now: float) -> None:
        route.retries += 1
        self.stats.retries += 1
        obs.counter_add("net.retries")
        link = self.links.get(route.worker)
        if route.retries > self.cfg.max_retries or link is None or not link.alive:
            # Rung 3: the link is unresponsive past its budget — take it
            # down (a partitioned worker is alive but unreachable; the
            # respawn/reroute path treats both identically).
            if link is not None and link.alive:
                self._link_down(link, now, reason="unresponsive")
            else:
                self._reroute(route, now, outcome="timeout")
            return
        # Rung 2: rewind to the acked cursor and resend after backoff.
        delay = backoff_delay(
            f"net:{route.cluster}", route.retries,
            self.cfg.backoff_base_s, self.cfg.backoff_cap_s,
        )
        route.backoff_until = now + delay
        route.next_send = route.acked
        route.sent_at.clear()
        if route.phase == "resuming":
            route.need_resume = True
            route.deadline = now + delay + RESUME_DEADLINE_S
        else:
            if route.phase == "finishing":
                route.phase = "streaming"  # re-advance resends finish
            route.deadline = now + delay + self.cfg.rpc_deadline_s

    def _link_down(self, link: WorkerLink, now: float, reason: str) -> None:
        if not link.alive:
            return
        link.alive = False
        self.stats.link_failures += 1
        obs.counter_add(f"net.link_down.{reason}")
        self.stats.dropped_frames += link.conn.faults.dropped
        if link.proc.is_alive():
            link.proc.kill()
        link.proc.join()
        link.conn.close()
        if link.spawns < self.cfg.max_retries:
            # Fresh epoch: new process, re-keyed fault filter.
            self.links[link.name] = self._spawn(
                link.name, epoch=link.epoch + 1, spawns=link.spawns + 1
            )
            self.stats.respawns += 1
            obs.counter_add("net.respawns")
        outcome = "crash" if reason == "hangup" else "timeout"
        for route in self.routes.values():
            if route.worker == link.name and route.phase in _ON_WORKER:
                self._reroute(route, now, outcome=outcome)

    def _reroute(self, route: RouteState, now: float, outcome: str) -> None:
        """End the route's current attempt as ``outcome`` and start the
        next one on another worker (or in-process)."""
        self.log.record(route.cluster, route.attempt, outcome)
        route.attempt += 1
        route.retries = 0
        self.stats.reroutes += 1
        obs.counter_add("net.reroutes")
        if route.attempt > self.cfg.max_retries + len(self.links):
            self._go_local(route)
            return
        alive = [w for w in shard_order(route.task, self.links)
                 if self.links[w].alive]
        if not alive:
            self._go_local(route)
            return
        # Move off the worker the route left, to one hosting no live
        # replica of its cluster when there is one (a group keeps its
        # fault isolation); a respawned self is the fallback home.
        others = [w for w in alive if w != route.worker] or alive
        group = {r.worker for r in self.routes.values()
                 if r.task.cluster == route.task.cluster
                 and r.phase in _ON_WORKER}
        route.worker = next((w for w in others if w not in group), others[0])
        route.next_send = route.acked
        route.backoff_until = 0.0
        self._send_resume(route, now)

    def _go_local(self, route: RouteState) -> None:
        # Rung 4: in-process passthrough — the router serves the shard
        # itself, with its full models.
        route.phase = "local"
        route.worker = None
        self.stats.passthroughs += 1
        obs.counter_add("net.passthrough")

    def _serve_local(self, route: RouteState) -> bool:
        """Serve a passthrough route's admitted batches in-process;
        returns whether it served or delivered anything.

        The first call opens a session resuming from the route's latest
        checkpoint, or on a freshly built shard when there is none (the
        same parity path as a worker).  Every call serves the batches
        admitted since and acks them, and the call that reaches
        ``route.total`` delivers the report.  A route opened with an explicit batch list (drive mode)
        serves exactly those batches — a replica's slice, not the full
        stream — in one call.
        """
        session = route.session
        if session is None:
            session = route.session = open_session(route.task, route.ckpt)
        start = session.cursor
        for bi in range(start, len(route.batches)):
            session.process(bi, route.batches[bi])
        route.acked = session.cursor
        if route.total is None or session.cursor < route.total:
            return session.cursor > start
        route.session = None
        self._deliver(route, session.finish())
        return True
