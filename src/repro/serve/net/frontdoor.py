"""The socket front door: where events enter the serving control plane.

Two entry modes drive one :class:`~repro.serve.net.router.Router`:

* **Local drive** (:func:`serve_clusters_net`) — the router builds each
  shard's event stream itself and routes every micro-batch to the
  worker pool; the network-parity sibling of
  :func:`repro.serve.runtime.serve_clusters`.
* **Listen** (:meth:`FrontDoor.serve`) — a TCP accept loop on
  loopback/LAN: external clients ``open`` a shard, push submit/finish/
  node events in stream order, and ``close``.  Every request but
  ``bye`` gets one reply, sent when the request is done, and the reply
  is the flow control: an event whose shard window is full waits,
  unanswered, until a worker's ack makes room, and ``close`` is
  answered with the shard's parity digest once its report arrives.  A
  client link decodes one request at a time, so a client whose request
  waits is read no further and TCP pushes back; the router never
  buffers unacked work without bound.  The protocol is strict request-reply over the same
  length-prefixed framing workers use, JSON only in both directions:
  a client link never unpickles, and a malformed request — including a
  frame over the 1 MiB client cap and an event whose refs fall outside
  the shard's tables — gets ``{"op": "error"}`` and disconnects only
  the client that sent it.
  An event the shard's own stream could never produce — out of batch
  order, earlier than the last admitted batch, or a finish before its
  job's submit — is refused with ``{"op": "error"}`` too, as is an
  event for a shard already closed, but the client stays connected.
  A client that lets more than 1 MiB of replies pile up unread is
  disconnected without a reply: it is not reading, and buffering for
  it would grow without bound.  Nor is a
  client read more than one maximum-size frame ahead: TCP pushes back.
  The loop blocks only in the router's one wait, which also watches the
  listening socket, every client with nothing waiting, and every client
  with replies still unsent for writability, so a request is served on
  arrival and an idle front door takes no CPU.

:class:`FrontDoorClient` is the matching blocking client.
"""

from __future__ import annotations

import hashlib
import math
import selectors
import socket
import struct

import numpy as np

from ...experiments import common
from ...framework.faults import FaultPlan
from ...framework.supervise import SupervisionLog
from ..runtime import ShardTask, build_stream
from ..server import ServeConfig
from ..stream import FINISH, NODE_FAIL, NODE_SAMPLE, SUBMIT, EventBatch
from .framing import FramedConn, pack, unpack_json
from .router import NetConfig, NetStats, Router

__all__ = ["FrontDoor", "FrontDoorClient", "serve_clusters_net"]

_HEADER = struct.Struct(">I")

_EVENT_KINDS = (FINISH, NODE_SAMPLE, SUBMIT, NODE_FAIL)

#: client frame cap, and the cap on a client's unread replies; a 30-day
#: stream of any Helios cluster sends event frames of at most 144 bytes
_CLIENT_MAX_FRAME = 1 << 20


class _ClientConn(FramedConn):
    """A front-door client link: JSON frames only, never unpickled, one
    request decoded at a time.  An undecodable frame decodes to
    ``None`` (not a request)."""

    max_frame = _CLIENT_MAX_FRAME
    max_messages = 1

    def __init__(self, sock) -> None:
        super().__init__(sock)
        #: the request that waits for its answer (None: none waits)
        self.waiting: dict | None = None

    def send(self, msg: object, fmt: str = "pickle") -> None:
        super().send(msg, fmt)
        if len(self._out) > _CLIENT_MAX_FRAME:
            # The client is not reading its replies: hang up without
            # one, since it would only add to the pile.
            self.close()

    def _decode(self, body) -> object:
        try:
            return unpack_json(body)
        except (ValueError, RecursionError):
            # wrong tag, bad UTF-8, bad JSON, or JSON nested too deep
            return None

    def _oversized(self, length: int) -> None:
        self.drop(f"a {length}-byte frame is over the "
                  f"{_CLIENT_MAX_FRAME}-byte client cap")

    def drop(self, problem: str) -> None:
        """Answer a malformed request and disconnect only this client."""
        self.send({"op": "error", "error": f"malformed request: {problem}"},
                  fmt="json")
        self.pump()
        self.close()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return _is_int(value) and 0 <= value < 2**63


def _is_time(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value) and abs(value) < 2**63


def _request_problem(msg) -> str | None:
    """Why a decoded client frame is not a well-formed request, or
    None when it is (whether its op and cluster exist is checked when
    it is served)."""
    if not isinstance(msg, dict) or not isinstance(msg.get("op"), str):
        return "not a request object"
    op = msg["op"]
    if op in ("open", "event", "close", "status") and not isinstance(
        msg.get("cluster"), str
    ):
        return f"{op} needs a cluster name"
    if op == "event":
        if not _is_index(msg.get("bi")):
            return "event needs a batch index bi >= 0"
        if not _is_int(msg.get("kind")) or msg["kind"] not in _EVENT_KINDS:
            return "event needs a known kind"
        if not _is_time(msg.get("time")):
            return "event needs a finite numeric time"
        refs = msg.get("refs")
        if not isinstance(refs, list) or not all(_is_index(r) for r in refs):
            return "event needs refs, a list of indices >= 0"
    return None


def _shard_tables(task: ShardTask) -> tuple[dict[int, int], np.ndarray]:
    """What admission checks an event against: for each event kind the
    shard serves, the row count of the table its refs index (a kind the
    shard has no table for is absent; a ref past these would crash the
    worker serving it), and the jobs' submit times."""
    stream = build_stream(task)
    jobs = len(stream.jobs)
    limits = {SUBMIT: jobs, FINISH: jobs}
    if stream.demand is not None:
        bins = len(stream.demand)
        if stream.arrivals is not None:
            bins = min(bins, len(stream.arrivals))
        limits[NODE_SAMPLE] = bins
    if stream.node_events is not None:
        limits[NODE_FAIL] = len(stream.node_events)
    return limits, stream.jobs["submit_time"].astype(float)


def _parity_sha(report) -> str:
    return hashlib.sha256(report.parity_bytes()).hexdigest()


class FrontDoor:
    """Socket front door over a router + worker pool."""

    def __init__(self, tasks, net: NetConfig | None = None,
                 fault_plan: FaultPlan | None = None) -> None:
        self.router = Router(tasks, net=net, fault_plan=fault_plan)
        self.port: int | None = None
        #: per opened shard, :func:`_shard_tables` — checked at admission
        self._tables: dict[str, tuple[dict[int, int], np.ndarray]] = {}

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              ready=None) -> tuple[list, NetStats]:
        """Accept clients until every opened shard is served and all
        clients have disconnected.  ``ready`` (a ``threading.Event``) is
        set once the socket is bound — ``self.port`` then holds the
        ephemeral port.  The socket is bound before the worker pool is
        forked, so an address that cannot be bound raises ``OSError``
        with ``self.port`` still None and no worker started."""
        router = self.router
        if any(t.replica_count > 1 for t in router.tasks.values()):
            # Clients address shards by cluster name; fanning one event
            # stream across a replica group is a drive-mode feature.
            raise ValueError("listen mode does not support replica groups")
        lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        clients: list[_ClientConn] = []
        try:
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind((host, port))
            lsock.listen(16)
            lsock.setblocking(False)
            self.port = lsock.getsockname()[1]
            router.start()
            if ready is not None:
                ready.set()
            while True:
                moved = False
                try:
                    csock, _ = lsock.accept()
                    clients.append(_ClientConn(csock))
                    moved = True
                except (BlockingIOError, InterruptedError):
                    pass
                for client in clients:
                    client.pump()
                    if self._serve_client(client):
                        moved = True
                for client in clients:
                    if client.closed:
                        client.close()  # a hangup leaves the socket open
                clients = [c for c in clients if not c.closed]
                if router.step():
                    moved = True
                if router.routes and not clients and router.done():
                    break
                if not moved:
                    # A waiting client is read no further, so only an
                    # ack or a report (on a link) can move it along.
                    watch = [(lsock, selectors.EVENT_READ)]
                    for c in clients:
                        events = (
                            (selectors.EVENT_READ if c.waiting is None else 0)
                            | (selectors.EVENT_WRITE if c.want_write else 0)
                        )
                        if events:
                            watch.append((c.sock, events))
                    router.wait(watch)
        finally:
            lsock.close()
            router.shutdown()
        return [
            router.routes[c].report
            for c in router.order
            if c in router.routes
        ], router.stats

    def _serve_client(self, client: _ClientConn) -> bool:
        """Answer the client's requests, the waiting one first, until
        one must wait or none is buffered; returns whether any was
        answered.  A client that hung up is answered no more."""
        answered = False
        while not client.closed:
            msg = client.waiting
            if msg is None:
                msgs = client.receive()
                if not msgs or client.closed:
                    break
                msg = msgs[0]
            if not self._client_msg(client, msg):
                client.waiting = msg
                break
            client.waiting = None
            answered = True
        return answered

    def _client_msg(self, client: _ClientConn, msg) -> bool:
        """Answer one client request; returns False, with nothing sent,
        when it must wait: an event while its shard's window is full,
        or a close until its shard's report arrives."""
        problem = _request_problem(msg)
        if problem is not None:
            client.drop(problem)
            return True
        router = self.router
        op = msg["op"]
        cluster = msg.get("cluster")
        # Only the ops that name a shard have their cluster checked; any
        # other op's may be any JSON value, an unhashable one included.
        route = (router.routes.get(cluster)
                 if isinstance(cluster, str) else None)
        if op == "open":
            task = router.tasks.get(cluster)
            if task is None:
                reply = {"op": "error", "cluster": cluster,
                         "error": "unknown cluster"}
            else:
                if route is None:
                    self._tables[cluster] = _shard_tables(task)
                    router.open_route(task, batches=[], total=None)
                reply = {"op": "opened", "cluster": cluster}
        elif op in ("event", "close") and route is None:
            reply = {"op": "error", "cluster": cluster, "error": "not opened"}
        elif op == "event" and route.total is not None:
            reply = {"op": "error", "cluster": cluster, "error": "closed"}
        elif op == "event":
            limits, submit_time = self._tables[cluster]
            limit = limits.get(msg["kind"])
            if limit is None or any(r >= limit for r in msg["refs"]):
                client.drop(f"refs out of range for kind {msg['kind']}")
                return True
            # Admission control: the per-shard queue is everything
            # buffered but not yet acked by a worker.  Full → the event
            # waits, unanswered, until an ack makes room.
            if len(route.batches) - route.acked >= router.cfg.queue_bound:
                return False
            bi = int(msg["bi"])
            when = float(msg["time"])
            refs = np.asarray(msg["refs"], dtype=np.int64)
            # Refuse what the shard's own stream never yields: batch
            # times run non-decreasing, and a job finishes after it
            # was submitted.
            problem = None
            if bi != len(route.batches):
                problem = f"out of order: expected {len(route.batches)}"
            elif route.batches and when < route.batches[-1].time:
                problem = (f"time {when:g} is before the last admitted "
                           f"batch's {route.batches[-1].time:g}")
            elif msg["kind"] == FINISH and len(refs):
                submitted = float(submit_time[refs].max())
                if when < submitted:
                    problem = (f"finish at {when:g} is before its job's "
                               f"submit at {submitted:g}")
            if problem is not None:
                reply = {"op": "error", "cluster": cluster, "error": problem}
            else:
                route.batches.append(EventBatch(
                    kind=int(msg["kind"]), time=when, refs=refs,
                ))
                reply = {"op": "accepted", "cluster": cluster, "bi": bi}
        elif op == "close":
            route.total = len(route.batches)
            if route.report is None:
                return False
            reply = {"op": "closed", "cluster": cluster, "total": route.total,
                     "parity_sha": _parity_sha(route.report)}
        elif op == "status":
            reply = {"op": "status", "cluster": cluster,
                     "phase": route.phase if route else "unknown"}
            if route is not None and route.report is not None:
                reply["parity_sha"] = _parity_sha(route.report)
        elif op == "stats":
            reply = {"op": "stats", **router.stats.as_dict()}
        elif op == "bye":
            client.pump()
            client.close()
            return True
        else:
            reply = {"op": "error", "error": f"unknown op {op!r}"}
        client.send(reply, fmt="json")
        return True


class FrontDoorClient:
    """Blocking request-reply client for a listening front door.

    Each request gets one reply, sent when the request is done: an
    event's once it is admitted (the front door holds it while its
    shard's window is full), and ``close``'s once the shard has
    reported, carrying its ``parity_sha``.  ``timeout_s`` bounds the
    wait for each reply, so a shard that stops draining raises
    :class:`TimeoutError` instead of hanging the client.  Requests and
    replies are JSON only.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self._buf = bytearray()

    def request(self, msg: dict) -> dict:
        self.sock.sendall(pack(msg, fmt="json"))
        return self._read_frame()

    def _read_frame(self) -> dict:
        while True:
            if len(self._buf) >= _HEADER.size:
                (length,) = _HEADER.unpack_from(self._buf)
                if len(self._buf) >= _HEADER.size + length:
                    body = bytes(self._buf[_HEADER.size:_HEADER.size + length])
                    del self._buf[:_HEADER.size + length]
                    return unpack_json(body)
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("front door hung up")
            self._buf += chunk

    def send_event(self, cluster: str, bi: int, batch: EventBatch) -> dict:
        """Push one event batch; the reply comes once it is admitted."""
        return self.request({
            "op": "event", "cluster": cluster, "bi": bi,
            "kind": int(batch.kind), "time": float(batch.time),
            "refs": [int(r) for r in batch.refs],
        })

    def close(self) -> None:
        try:
            self.sock.sendall(pack({"op": "bye"}, fmt="json"))
        except OSError:
            pass
        self.sock.close()


def serve_clusters_net(
    clusters,
    config: ServeConfig | None = None,
    *,
    history_days: int = 30,
    stream_days: float = 3.0,
    max_jobs: int | None = None,
    source: str = "trace",
    checkpoint_every: int | None = None,
    fault_plan: FaultPlan | None = None,
    net: NetConfig | None = None,
    replicas: int = 1,
    log: SupervisionLog | None = None,
) -> tuple[list, NetStats]:
    """Serve one shard per cluster through the socket control plane.

    The fault-tolerant sibling of
    :func:`~repro.serve.runtime.serve_clusters`: same tasks, same
    reports (the parity surface is byte-identical to a direct run), but
    batches travel over sockets to forked workers with
    bounded queues, retries, reroutes, checkpoint resume every
    ``checkpoint_every`` batches, and chaos injection.  ``net`` sets the
    pool size, queue bound and retry shape (default :class:`NetConfig`);
    ``fault_plan`` is the only way faults are injected (None: none);
    ``log`` collects every shard attempt's outcome, and each report's
    ``retries`` counts its shard's failed attempts.

    ``replicas > 1`` splits every cluster's stream across a replica
    group (see :func:`~repro.serve.net.replicate.replica_slice`), and
    each replica refits its own models.  Returns ``(reports, stats)``;
    reports come back grouped per cluster in ``clusters`` order,
    replicas in index order.
    """
    cfg = config or ServeConfig()
    tasks = [
        ShardTask(
            cluster=c,
            config=cfg,
            history_days=history_days,
            stream_days=stream_days,
            max_jobs=max_jobs,
            source=source,
            checkpoint_every=checkpoint_every,
            replica_index=j,
            replica_count=replicas,
        )
        for c in clusters
        for j in range(replicas)
    ]
    # Warm the shared trace memos so forked workers inherit them
    # copy-on-write instead of regenerating the cluster per process.
    for c in clusters:
        common.cluster_gpu_trace(c)
    router = Router(tasks, net=net, fault_plan=fault_plan)
    if log is not None:
        router.log = log
    return router.drive()
