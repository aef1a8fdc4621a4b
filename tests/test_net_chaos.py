"""Socket control plane: framing, routing, backpressure, chaos parity.

The headline guarantee extends the in-shard one: kill *or partition*
any shard worker mid-stream and the merged report parity surface stays
byte-identical to a fault-free run.  Alongside it: the framing layer's
deterministic network faults, rendezvous placement, the bounded
in-flight queue (asserted via the obs queue-depth histogram), the
worker's wait on its link and its EOF-only exit, the listen-mode front
door, which holds a client's request until it is done, and the
in-process passthrough rung when no worker pool exists.
"""

import gc
import hashlib
import json
import os
import pickle
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.framework import FaultPlan, FaultSpec, WorkerContext, fork_available
from repro.obs import collect as obs
from repro.sched.qssf import QSSFScheduler
from repro.serve import (
    NetConfig,
    ShardTask,
    build_shard,
    build_stream,
    parity_surface,
    serve_clusters_net,
)
from repro.serve.net import worker as worker_mod
from repro.serve.net import (
    FrontDoor,
    FrontDoorClient,
    NetFaultFilter,
    pack,
    unpack,
)
from repro.serve.net.framing import TAG_JSON, unpack_json
from repro.serve.net.frontdoor import _CLIENT_MAX_FRAME, _ClientConn
from repro.serve.net.router import Router, shard_order
from repro.serve.server import ServingSession, encode_decisions
from repro.serve.stream import FINISH, NODE_FAIL, NODE_SAMPLE, SUBMIT, EventBatch

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")

_TASK = dict(history_days=14, stream_days=1.0, max_jobs=300)

#: tight deadlines/backoff so breaker rungs trip in test time, not
#: production time (mirrors FAST_SUP in test_chaos_recovery)
FAST_NET = dict(
    rpc_deadline_s=1.5, max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05,
)


@pytest.fixture(autouse=True)
def clean_recorder():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _config(**overrides):
    from repro.experiments.serving import smoke_serve_config

    cfg = smoke_serve_config()
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _task(cluster):
    return ShardTask(cluster=cluster, config=_config(), checkpoint_every=50,
                     **_TASK)


@pytest.fixture(scope="module")
def baseline():
    """Direct (no-net) reports for Venus and Earth, in that order."""
    reports = []
    for cluster in ("Venus", "Earth"):
        server, stream = build_shard(_task(cluster))
        reports.append(server.run(stream))
    return reports


def _serve_net(clusters, *, workers, fault_plan=None, queue_bound=16,
               **net_overrides):
    net = NetConfig(workers=workers, queue_bound=queue_bound,
                    **{**FAST_NET, **net_overrides})
    return serve_clusters_net(
        clusters, config=_config(), checkpoint_every=50,
        fault_plan=fault_plan, net=net, **_TASK,
    )


class TestFraming:
    def test_pickle_round_trip(self):
        import numpy as np

        msg = {"op": "batch", "refs": np.arange(5), "nested": (1, 2.5)}
        out = unpack(pack(msg)[4:])
        assert out["op"] == "batch"
        assert list(out["refs"]) == [0, 1, 2, 3, 4]

    def test_json_round_trip_and_tag(self):
        frame = pack({"op": "status", "bi": 3}, fmt="json")
        assert frame[4:5] == TAG_JSON
        assert unpack(frame[4:]) == {"op": "status", "bi": 3}

    def test_bodies_decode_from_a_memoryview(self):
        # FramedConn.receive decodes each body in place, as a view of
        # its input buffer.
        for fmt in ("pickle", "json"):
            frame = pack({"op": "ack", "bi": 7}, fmt=fmt)
            assert unpack(memoryview(frame)[4:]) == {"op": "ack", "bi": 7}
        json_frame = memoryview(pack([1, 2], fmt="json"))
        assert unpack_json(json_frame[4:]) == [1, 2]
        with pytest.raises(ValueError, match="tag b'P'"):
            unpack_json(memoryview(pack({"op": "status"}))[4:])
        with pytest.raises(ValueError):
            unpack_json(memoryview(b"J\xff\xfe"))

    def test_length_prefix_covers_tag_and_payload(self):
        frame = pack({"a": 1}, fmt="json")
        (length,) = __import__("struct").unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_unknown_format_and_tag_rejected(self):
        with pytest.raises(ValueError, match="format"):
            pack({}, fmt="xml")
        with pytest.raises(ValueError, match="tag"):
            unpack(b"Xjunk")

    def test_json_decoder_never_unpickles(self):
        assert unpack_json(pack([1, 2], fmt="json")[4:]) == [1, 2]
        with pytest.raises(ValueError, match="tag"):
            unpack_json(pack({"op": "status"})[4:])  # a pickle frame
        with pytest.raises(ValueError):
            unpack_json(b"J\xff\xfe")  # not UTF-8

    def test_client_link_reads_at_most_one_frame_ahead(self):
        """A flooding client is read one maximum-size frame ahead, not
        drained: the rest stays in the kernel, where TCP pushes back."""
        sock = _FloodSocket(16 << 20)
        msgs = _ClientConn(sock).receive()
        assert msgs == [{"op": "stats"}]  # one request decoded at a time
        assert sock.read <= _CLIENT_MAX_FRAME + 4 + 65_536


class _FloodSocket:
    """A non-blocking socket stand-in offering ``total`` bytes of
    ``{"op": "stats"}`` frames; ``read`` counts the bytes taken."""

    def __init__(self, total: int) -> None:
        frame = pack({"op": "stats"}, fmt="json")
        self.data = frame * (total // len(frame))
        self.read = 0

    def setblocking(self, flag: bool) -> None:
        pass

    def recv(self, n: int) -> bytes:
        if self.read >= len(self.data):
            raise BlockingIOError
        chunk = self.data[self.read:self.read + n]
        self.read += len(chunk)
        return chunk


def _filter(faults, label="link:w0", epoch=0):
    return NetFaultFilter(FaultPlan(faults=tuple(faults)), label, epoch)


class TestNetFaultFilter:
    def test_drop_discards_span_frames(self):
        filt = _filter([FaultSpec(key="link:w0", kind="drop", at=1, span=2)])
        sent = [filt.outgoing(b"f%d" % i, now=0.0) for i in range(4)]
        assert sent == [[b"f0"], [], [], [b"f3"]]
        assert filt.dropped == 2

    def test_duplicate_doubles_one_frame(self):
        filt = _filter([FaultSpec(key="link:w0", kind="duplicate", at=0)])
        assert filt.outgoing(b"x", now=0.0) == [b"x", b"x"]
        assert filt.outgoing(b"y", now=0.0) == [b"y"]

    def test_delay_holds_frame_until_due(self):
        filt = _filter(
            [FaultSpec(key="link:w0", kind="delay", at=0, delay_s=0.5)]
        )
        assert filt.outgoing(b"late", now=10.0) == []
        assert filt.due(now=10.4) == []
        assert filt.due(now=10.6) == [b"late"]
        assert filt.due(now=11.0) == []  # released exactly once

    def test_partition_silences_both_directions(self):
        filt = _filter(
            [FaultSpec(key="link:w0", kind="partition", at=0, span=2)]
        )
        assert filt.outgoing(b"a", now=0.0) == []
        assert filt.outgoing(b"b", now=0.0) == []
        assert filt.outgoing(b"c", now=0.0) == [b"c"]
        assert [filt.incoming() for _ in range(3)] == [False, False, True]
        assert filt.dropped == 4

    def test_rekey_resets_counters_and_selects_epoch(self):
        filt = _filter(
            [FaultSpec(key="link:w0", kind="drop", attempt=1, at=0)]
        )
        assert filt.outgoing(b"ok", now=0.0) == [b"ok"]  # epoch 0: no faults
        filt.rekey(1)
        assert filt.out_seq == 0
        assert filt.outgoing(b"gone", now=0.0) == []  # epoch 1 drops seq 0
        filt.rekey(2)
        assert filt.outgoing(b"ok2", now=0.0) == [b"ok2"]

    def test_other_labels_untouched(self):
        filt = _filter(
            [FaultSpec(key="link:w1", kind="drop", at=0, span=99)],
            label="link:w0",
        )
        assert filt.outgoing(b"mine", now=0.0) == [b"mine"]

    def test_delay_honors_span_beyond_one(self):
        # Regression: delay (and duplicate) used to fire only at ``at``
        # exactly, ignoring span — every kind honors [at, at+span).
        filt = _filter(
            [FaultSpec(key="link:w0", kind="delay", at=1, span=2,
                       delay_s=0.5)]
        )
        assert filt.outgoing(b"f0", now=0.0) == [b"f0"]
        assert filt.outgoing(b"f1", now=0.0) == []
        assert filt.outgoing(b"f2", now=0.0) == []
        assert filt.outgoing(b"f3", now=0.0) == [b"f3"]
        assert sorted(filt.due(now=1.0)) == [b"f1", b"f2"]

    def test_duplicate_honors_span_beyond_one(self):
        filt = _filter(
            [FaultSpec(key="link:w0", kind="duplicate", at=1, span=2)]
        )
        sent = [filt.outgoing(b"f%d" % i, now=0.0) for i in range(4)]
        assert sent == [[b"f0"], [b"f1", b"f1"], [b"f2", b"f2"], [b"f3"]]


def _order(cluster, workers, replica_index=0, replica_count=1):
    return shard_order(ShardTask(cluster=cluster, replica_index=replica_index,
                                 replica_count=replica_count), workers)


class TestHashRing:
    """Shard placement (:func:`shard_order`, rendezvous hashing), which
    replaced the vnode hash ring; each ring property keeps its test
    name here, checked on the order the router now uses."""

    HELIOS = ("Venus", "Earth", "Saturn", "Uranus")

    def test_deterministic_and_owner_heads_preference(self, monkeypatch):
        # The router opens a shard on the head of its order, and the
        # order is a permutation of the pool that does not depend on
        # how the worker list is ordered.
        monkeypatch.setattr(Router, "_send_resume", lambda *a: None)
        tasks = [ShardTask(cluster=c) for c in self.HELIOS + ("Philly",)]
        router = Router(tasks)
        router.links = dict.fromkeys(["w2", "w0", "w1"])
        for task in tasks:
            order = shard_order(task, ["w0", "w1", "w2"])
            assert sorted(order) == ["w0", "w1", "w2"]
            assert shard_order(task, ["w2", "w0", "w1"]) == order
            assert router.open_route(task).worker == order[0]

    def test_two_worker_ring_spreads_helios_clusters(self):
        # The chaos fixtures and the serve_frontdoor exhibit rely on
        # Venus and Earth starting on different workers.
        owners = {c: _order(c, ["w0", "w1"])[0] for c in self.HELIOS}
        assert set(owners.values()) == {"w0", "w1"}
        assert owners == {"Venus": "w1", "Earth": "w0", "Saturn": "w1",
                          "Uranus": "w1"}

    def test_ring_rejects_empty(self):
        with pytest.raises(ValueError, match="worker"):
            _order("Venus", [])

    def test_preference_stable_across_restarts(self):
        # Placement is a pure md5 of (cluster, worker name), never the
        # salted hash(): a new process with another hash seed, given
        # the pool in another order, computes the identical full order
        # for every shard and replica, so reroute targets reproduce.
        workers = ["w0", "w1", "w2", "w3"]
        keys = [(f"shard-{i}", 0, 1) for i in range(50)]
        keys += [("Venus", 0, 2), ("Venus", 1, 2)]
        script = (
            "import json, sys\n"
            "from repro.serve.net.router import shard_order\n"
            "from repro.serve.runtime import ShardTask\n"
            "keys, workers = json.loads(sys.stdin.read())\n"
            "print(json.dumps([shard_order(ShardTask(cluster=c, "
            "replica_index=j, replica_count=k), workers) "
            "for c, j, k in keys]))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps([keys, list(reversed(workers))]),
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            assert json.loads(out) == [_order(c, workers, j, k)
                                       for c, j, k in keys]

    def test_vnode_distribution_is_bounded(self):
        # Ownership stays balanced without vnodes: across many keys no
        # worker is ranked first for a wildly outsized share.
        workers = ["w0", "w1", "w2", "w3"]
        counts = {w: 0 for w in workers}
        n = 1000
        for i in range(n):
            counts[_order(f"cluster-{i}", workers)[0]] += 1
        fair = n / len(workers)
        for w, c in counts.items():
            assert 0.4 * fair <= c <= 2.0 * fair, (w, counts)

    def test_single_surviving_worker_owns_everything(self):
        for key in ("Venus", "Earth", "anything"):
            assert _order(key, ["w0"]) == ["w0"]
        for j in range(3):
            assert _order("Venus", ["w0"], j, 3) == ["w0"]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_replica_groups_start_on_distinct_workers(self, workers):
        names = [f"w{i}" for i in range(workers)]
        for cluster in self.HELIOS:
            base = _order(cluster, names)
            for k in range(1, workers + 1):
                orders = [_order(cluster, names, j, k) for j in range(k)]
                assert len({o[0] for o in orders}) == k, (cluster, orders)
                # Each replica's order is its cluster's, rotated.
                for j, order in enumerate(orders):
                    assert order == base[j:] + base[:j]

    def test_replicas_past_the_pool_wrap_round(self):
        names = ["w0", "w1"]
        starts = [_order("Venus", names, j, 3)[0] for j in range(3)]
        assert starts == ["w1", "w0", "w1"]


class TestNetConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            NetConfig(workers=0)
        with pytest.raises(ValueError, match="queue_bound"):
            NetConfig(queue_bound=0)
        with pytest.raises(ValueError, match="deadlines"):
            NetConfig(rpc_deadline_s=0.0)


@needs_fork
class TestNetParity:
    def test_fault_free_parity_and_bounded_queue(self, baseline):
        obs.enable()
        reports, stats = _serve_net(["Venus", "Earth"], workers=2,
                                    queue_bound=8)
        assert parity_surface(reports) == parity_surface(baseline)
        # Acks coalesce per worker drain round: at least one, never
        # more than the batch frames they cover.
        assert 0 < stats.acks <= stats.frames_sent
        assert stats.retries == 0 and stats.reroutes == 0
        # The backpressure contract: in-flight never exceeds the bound —
        # asserted on the obs queue-depth histogram, not just the stat.
        depth = obs.snapshot().histograms["net.queue_depth"]
        assert depth.count > 0
        assert depth.vmax <= 8
        assert stats.max_queue_depth <= 8

    def test_gap_rewind_after_dropped_frames(self, baseline):
        # Drop two group frames on the single link: a later in-flight
        # frame still reaches the worker, which answers its first index
        # with a gap; the router rewinds and the replayed prefix is
        # skipped idempotently.  (The router keeps the group cap at a
        # quarter of the window precisely so drops shorter than the
        # in-flight frame count recover via gap, not the RPC deadline.)
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(key="link:w0", kind="drop", at=10, span=2),
            FaultSpec(key="link:w0", kind="duplicate", at=30),
        ))
        reports, stats = _serve_net(["Venus"], workers=1, fault_plan=plan)
        assert parity_surface(reports) == baseline[0].parity_bytes()
        assert stats.gap_rewinds >= 1
        assert stats.reroutes == 0  # recovered without touching the ladder

    def test_held_frame_goes_out_when_its_delay_ends(self, baseline,
                                                    monkeypatch):
        # A frame a delay fault holds is a due time of the router's
        # wait.  Holding the resume, the one frame in flight, for 1 s
        # stalls nothing: it goes out when the second is up, well
        # before the (shortened) resume deadline would send it again.
        import repro.serve.net.router as router_mod

        monkeypatch.setattr(router_mod, "RESUME_DEADLINE_S", 5.0)
        plan = FaultPlan(seed=3, faults=(
            FaultSpec(key="link:w0", kind="delay", at=0, delay_s=1.0),
        ))
        reports, stats = _serve_net(["Venus"], workers=1, fault_plan=plan)
        assert parity_surface(reports) == baseline[0].parity_bytes()
        assert (stats.retries, stats.reroutes) == (0, 0)

    def test_sigkill_and_partition_chaos_parity(self, baseline):
        # The headline: SIGKILL Venus's worker mid-stream AND partition
        # Earth's link indefinitely; both shards reroute/respawn from
        # checkpoints and the merged parity surface is byte-identical.
        # (2-worker ring places Venus on w1, Earth on w0.)
        plan = FaultPlan(seed=11, faults=(
            FaultSpec(key="Venus", kind="crash", attempt=0, at=130),
            FaultSpec(key="link:w0", kind="partition", at=60, span=100_000),
        ))
        reports, stats = _serve_net(["Venus", "Earth"], workers=2,
                                    fault_plan=plan)
        assert parity_surface(reports) == parity_surface(baseline)
        assert stats.link_failures >= 2  # the kill and the partition
        assert stats.respawns >= 1
        assert stats.reroutes >= 2
        assert stats.retries >= 1


@needs_fork
class TestListenMode:
    def test_client_stream_backpressure_and_parity(self, baseline):
        task = _task("Venus")
        net = NetConfig(workers=1, queue_bound=4, **FAST_NET)
        door = FrontDoor([task], net=net)
        ready = threading.Event()
        out = {}

        def _serve():
            out["result"] = door.serve(host="127.0.0.1", port=0, ready=ready)

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        assert ready.wait(timeout=30.0)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"}) == {
                "op": "opened", "cluster": "Venus"}
            batches = list(build_stream(task).batches(
                task.config.batch_window_s))
            for bi, batch in enumerate(batches):
                reply = client.send_event("Venus", bi, batch)
                assert reply["op"] == "accepted", reply
            closed = client.request({"op": "close", "cluster": "Venus"})
            assert closed["op"] == "closed"
            assert closed["total"] == len(batches)
            status = client.request({"op": "status", "cluster": "Venus"})
            stats = client.request({"op": "stats"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        reports, door_stats = out["result"]
        assert parity_surface(reports) == baseline[0].parity_bytes()
        # Direct-run sha published to the client without unpickling.
        sha = hashlib.sha256(baseline[0].parity_bytes()).hexdigest()
        assert closed["parity_sha"] == sha
        assert status["phase"] == "done" and status["parity_sha"] == sha
        # queue_bound=4 against a fast client: the window held.
        assert door_stats.max_queue_depth <= 4
        assert stats["max_queue_depth"] <= 4

    def test_unknown_cluster_and_out_of_order_rejected(self):
        task = _task("Venus")
        net = NetConfig(workers=1, queue_bound=4, **FAST_NET)
        door = FrontDoor([task], net=net)
        ready = threading.Event()
        out = {}

        def _serve():
            out["result"] = door.serve(host="127.0.0.1", port=0, ready=ready)

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        assert ready.wait(timeout=30.0)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            reply = client.request({"op": "open", "cluster": "Pluto"})
            assert reply["op"] == "error"
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            batches = list(build_stream(task).batches(
                task.config.batch_window_s))
            bad = client.send_event("Venus", 5, batches[5])
            assert bad["op"] == "error" and "out of order" in bad["error"]
            # Times the shard's own stream never produces are refused
            # without admitting the batch or dropping the link: a batch
            # earlier than the last admitted one, and a finish before
            # its job's submit (the last job submitted, finishing at the
            # last admitted time).
            k = 3
            for bi, batch in enumerate(batches[:k]):
                assert client.send_event("Venus", bi, batch)["op"] == "accepted"
            last = batches[k - 1].time
            earlier = EventBatch(kind=batches[k].kind, time=last - 1.0,
                                 refs=batches[k].refs)
            bad = client.send_event("Venus", k, earlier)
            assert bad["op"] == "error" and "before the last" in bad["error"]
            late_job = [b for b in batches if b.kind == SUBMIT][-1].refs[-1:]
            early_finish = EventBatch(kind=FINISH, time=last, refs=late_job)
            bad = client.send_event("Venus", k, early_finish)
            assert bad["op"] == "error" and "before its job's submit" in bad["error"]
            for bi, batch in enumerate(batches[k:], start=k):
                assert client.send_event("Venus", bi, batch)["op"] == "accepted"
            client.request({"op": "close", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()

    def test_malformed_client_input_disconnects_only_that_client(
        self, baseline
    ):
        """Hostile frames get ``{"op": "error"}`` and a hangup — nothing
        is unpickled, nothing raises out of the serve loop — and a
        well-behaved client's shard still finishes with parity."""
        task = _task("Venus")
        door = FrontDoor([task], net=NetConfig(workers=1, queue_bound=4,
                                               **FAST_NET))
        ready = threading.Event()
        out = {}

        def _serve():
            out["result"] = door.serve(host="127.0.0.1", port=0, ready=ready)

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        assert ready.wait(timeout=30.0)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            event = {"op": "event", "cluster": "Venus", "bi": 0,
                     "time": 0.0}
            hostile = [
                b"J[1, 2]",                              # not an object
                b"J" + json.dumps({"op": "event", "cluster": "Venus",
                                   "kind": 2, "time": 0.0,
                                   "refs": [0]}).encode(),  # no bi
                b"J{not json",                           # undecodable
                b"J\xff\xfe",                            # not UTF-8
                b"J" + b"[" * 100_000,                   # nested too deep
                b"P" + pickle.dumps(_Unpickled()),       # code in a pickle
                # refs past the shard's job table / demand bins, and a
                # node-fail event on a shard without node events
                b"J" + json.dumps({**event, "kind": SUBMIT,
                                   "refs": [0, 2**62]}).encode(),
                b"J" + json.dumps({**event, "kind": NODE_SAMPLE,
                                   "refs": [10**6]}).encode(),
                b"J" + json.dumps({**event, "kind": NODE_FAIL,
                                   "refs": []}).encode(),
            ]
            for body in hostile:
                reply, rest = _raw_exchange(door.port, body)
                assert reply["op"] == "error", (body, reply)
                assert rest == b""  # one reply, then the server hung up
            assert _UNPICKLED == []
            # A header announcing 1 GiB is refused at the header, not
            # buffered toward.
            reply, rest = _raw_exchange(door.port, b"J{", length=1 << 30)
            assert reply["op"] == "error" and "client cap" in reply["error"]
            assert rest == b""
            batches = list(build_stream(task).batches(
                task.config.batch_window_s))
            for bi, batch in enumerate(batches):
                assert client.send_event("Venus", bi, batch)["op"] == "accepted"
            client.request({"op": "close", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        reports, _ = out["result"]
        assert parity_surface(reports) == baseline[0].parity_bytes()

    def test_client_requests_do_not_wait_out_the_poll(self):
        """The front door blocks in the router's one wait, which watches
        the clients too: a request is served when it arrives.  Nothing
        else would wake the wait, since it has no poll interval."""
        door = FrontDoor([_task("Venus")], net=NetConfig(workers=1, **FAST_NET))
        server, _ = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            t0 = time.monotonic()
            for _ in range(20):
                assert client.request({"op": "stats"})["op"] == "stats"
            elapsed = time.monotonic() - t0
            client.request({"op": "close", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert elapsed < 5.0  # 20 round trips, each served on arrival

    def test_idle_front_door_does_not_step(self):
        """A listening front door with no client and no shard blocks in
        its wait until something arrives: it steps its router a handful
        of times in a second, not once per poll interval."""
        door = FrontDoor([_task("Venus")], net=NetConfig(workers=1, **FAST_NET))
        steps = []
        step = door.router.step
        door.router.step = lambda: steps.append(1) or step()
        server, _ = _listen(door)
        time.sleep(1.0)
        idle_steps = len(steps)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            assert client.request({"op": "close", "cluster": "Venus"})[
                "total"] == 0
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert idle_steps <= 5, idle_steps

    def test_client_that_never_reads_is_dropped(self, baseline):
        """A client that keeps sending requests but never reads a reply
        is disconnected once 1 MiB of replies piles up unread; a
        well-behaved client's shard still finishes with parity."""
        task = _task("Venus")
        door = FrontDoor([task], net=NetConfig(workers=1, queue_bound=4,
                                               **FAST_NET))
        server, out = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            assert _flood_without_reading(door.port, total=20 << 20)
            batches = list(build_stream(task).batches(
                task.config.batch_window_s))
            for bi, batch in enumerate(batches):
                assert client.send_event("Venus", bi, batch)["op"] == "accepted"
            client.request({"op": "close", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        reports, _ = out["result"]
        assert parity_surface(reports) == baseline[0].parity_bytes()

    def test_close_of_unopened_shard_is_answered(self):
        """A close for a shard nobody opened gets an error reply instead
        of silence, and the link then serves a shard as usual."""
        task = _task("Venus")
        door = FrontDoor([task], net=NetConfig(workers=1, **FAST_NET))
        server, _ = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port, timeout_s=5.0)
        try:
            assert client.request({"op": "close", "cluster": "Venus"}) == {
                "op": "error", "cluster": "Venus", "error": "not opened"}
            # The worker fits the shard's models before the close below
            # is answered: give that the default timeout.
            client.sock.settimeout(60.0)
            closed = _stream(client, task, 20)
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert closed["op"] == "closed" and closed["total"] == 20

    def test_event_after_close_is_refused(self):
        """An event for a shard its client already closed is refused
        and not admitted; the client stays connected, and the report
        covers exactly the events sent before the close."""
        task = _task("Venus")
        batches = list(build_stream(task).batches(task.config.batch_window_s))
        door = FrontDoor([task], net=NetConfig(workers=1, **FAST_NET))
        server, out = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            closed = _stream(client, task, 5)
            late = client.send_event("Venus", 5, batches[5])
            status = client.request({"op": "status", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert closed["op"] == "closed" and closed["total"] == 5
        assert late == {"op": "error", "cluster": "Venus", "error": "closed"}
        assert status["phase"] == "done"
        (report,), _ = out["result"]
        assert report.events == sum(len(b) for b in batches[:5])

    def test_clients_that_hang_up_without_bye_are_closed(self):
        """The front door closes the socket of a client that hangs up
        without ``bye``, instead of leaving it to the garbage collector
        (which warns about it)."""
        task = _task("Venus")
        door = FrontDoor([task], net=NetConfig(workers=1, **FAST_NET))
        ready = threading.Event()
        out = {}

        def _clients():
            try:
                assert ready.wait(timeout=30.0)
                for _ in range(3):
                    socket.create_connection(("127.0.0.1", door.port)).close()
            finally:
                # Serve one small shard whatever happened above, so
                # that serve() returns.
                client = FrontDoorClient("127.0.0.1", door.port)
                try:
                    out["closed"] = _stream(client, task, 20)
                finally:
                    client.close()

        helper = threading.Thread(target=_clients, daemon=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            helper.start()
            door.serve(host="127.0.0.1", port=0, ready=ready)
            gc.collect()
        helper.join(timeout=60.0)
        assert not helper.is_alive()
        assert out["closed"]["op"] == "closed"
        # Only the door's side of a link has the door's port as its
        # local port; sockets other tests leaked do not.
        door_side = f"laddr=('127.0.0.1', {door.port})"
        assert [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
            and door_side in str(w.message)
        ] == []

    def test_pipelined_events_are_held_and_answered_in_order(self):
        """A client that writes its events back to back, far past its
        shard's window, gets every one answered ``accepted`` in order:
        the front door holds an event until an ack makes room, and
        reads that client no further meanwhile."""
        task = _task("Venus")
        batches = list(build_stream(task).batches(
            task.config.batch_window_s))[:20]
        session = ServingSession(*build_shard(task))
        for bi, batch in enumerate(batches):
            session.process(bi, batch)
        expected = session.finish()

        door = FrontDoor([task], net=NetConfig(workers=1, queue_bound=1,
                                               **FAST_NET))
        server, out = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            client.sock.sendall(b"".join([
                pack({"op": "open", "cluster": "Venus"}, fmt="json"),
                *(pack({"op": "event", "cluster": "Venus", "bi": bi,
                        "kind": int(batch.kind), "time": float(batch.time),
                        "refs": [int(r) for r in batch.refs]}, fmt="json")
                  for bi, batch in enumerate(batches)),
            ]))
            assert client._read_frame()["op"] == "opened"
            replies = [client._read_frame() for _ in batches]
            closed = client.request({"op": "close", "cluster": "Venus"})
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert [(r["op"], r.get("bi")) for r in replies] == [
            ("accepted", bi) for bi in range(len(batches))]
        (report,), stats = out["result"]
        assert report.parity_bytes() == expected.parity_bytes()
        assert closed["parity_sha"] == hashlib.sha256(
            expected.parity_bytes()).hexdigest()
        assert stats.max_queue_depth <= 1

    def test_fuzzed_client_bytes_leave_the_door_serving(self, baseline):
        """Generated client bytes (broken frames, malformed and valid
        requests) never take the front door down: after each fuzzed
        client hangs up a fresh client is answered, and a well-behaved
        client's shard still finishes with the in-process parity."""
        venus, earth = _task("Venus"), _task("Earth")
        door = FrontDoor([venus, earth], net=NetConfig(workers=1, **FAST_NET))
        server, out = _listen(door)

        @settings(derandomize=True, max_examples=40, deadline=None)
        @given(_CLIENT_BYTES)
        def _fuzz(data):
            probe = None
            try:
                with socket.create_connection(("127.0.0.1", door.port),
                                              timeout=30.0) as sock:
                    sock.sendall(data)
                    # The door serves its clients in the order it
                    # accepted them, so a later client's answer means
                    # it has served what it could of ``data``; only then
                    # does the fuzzed client hang up (a hangup drops
                    # its unserved requests).
                    probe = FrontDoorClient("127.0.0.1", door.port,
                                            timeout_s=30.0)
                    assert probe.request({"op": "stats"})["op"] == "stats"
                assert probe.request({"op": "stats"})["op"] == "stats"
            finally:
                if probe is not None:
                    probe.close()

        # Connected throughout: serve() returns once no client is
        # connected and every opened shard is served, which a fuzzed
        # open and close of Earth could otherwise bring about mid-run.
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            _fuzz()
            closed = _stream(client, venus)
            # A fuzzed request may have opened Earth: close it too, so
            # that serve() returns.
            if client.request({"op": "status", "cluster": "Earth"})[
                    "phase"] != "unknown":
                assert client.request({"op": "close", "cluster": "Earth"})[
                    "op"] == "closed"
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        assert closed["parity_sha"] == hashlib.sha256(
            baseline[0].parity_bytes()).hexdigest()


def _listen(door):
    """Run ``door.serve`` on an ephemeral loopback port in a thread;
    returns the thread and the dict its result lands in."""
    ready = threading.Event()
    out = {}

    def _serve():
        out["result"] = door.serve(host="127.0.0.1", port=0, ready=ready)

    server = threading.Thread(target=_serve, daemon=True)
    server.start()
    assert ready.wait(timeout=30.0)
    return server, out


def _flood_without_reading(port: int, total: int,
                           deadline_s: float = 30.0) -> bool:
    """Send ``total`` bytes of ``{"op": "stats"}`` requests, then one
    more every 10 ms, without ever reading a reply; returns whether the
    server hung up within ``deadline_s``.  (The server may read the
    whole flood before it handles any of it, so the hang-up can come
    after the flood is sent.)"""
    frame = pack({"op": "stats"}, fmt="json")
    chunk = frame * ((64 << 10) // len(frame))
    sock = socket.create_connection(("127.0.0.1", port), timeout=deadline_s)
    deadline = time.monotonic() + deadline_s
    try:
        for _ in range(total // len(chunk)):
            sock.sendall(chunk)
        while time.monotonic() < deadline:
            sock.sendall(frame)
            time.sleep(0.01)
    except (BrokenPipeError, ConnectionResetError):
        return True
    finally:
        sock.close()
    return False


def _stream(client, task, n=None) -> dict:
    """Open ``task``'s shard, send its first ``n`` batches (default:
    all) and close it; returns the close reply."""
    assert client.request({"op": "open", "cluster": task.cluster})[
        "op"] == "opened"
    batches = list(build_stream(task).batches(task.config.batch_window_s))
    for bi, batch in enumerate(batches[:n]):
        reply = client.send_event(task.cluster, bi, batch)
        assert reply["op"] == "accepted", (bi, reply)
    return client.request({"op": "close", "cluster": task.cluster})


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _json_frame(value) -> bytes:
    return _framed(TAG_JSON + json.dumps(value).encode())


#: the shards a fuzzed request may name: never Venus, which the fuzz
#: test's well-behaved client streams
_FUZZ_CLUSTER = st.sampled_from(["Earth", "Mars", ""])
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
    st.lists(st.integers(-2, 40), max_size=3), st.just({}),
)
_REQUEST = st.one_of(
    st.fixed_dictionaries({"op": st.sampled_from(["stats", "dance", "bye"])},
                          optional={"cluster": _JUNK}),
    st.fixed_dictionaries({
        "op": st.sampled_from(["open", "status", "close"]),
        "cluster": _FUZZ_CLUSTER,
    }),
    st.fixed_dictionaries({
        "op": st.just("event"), "cluster": st.just("Earth"),
        "bi": st.integers(0, 2),
        "kind": st.sampled_from([SUBMIT, FINISH, NODE_SAMPLE, NODE_FAIL]),
        "time": st.floats(0.0, 2e7), "refs": st.lists(st.integers(0, 30),
                                                      max_size=3),
    }),
)
#: a request with fields missing or of the wrong type
_MALFORMED = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(["open", "event", "close"]), _JUNK)},
    optional={"cluster": st.one_of(_FUZZ_CLUSTER, _JUNK), "bi": _JUNK,
              "kind": _JUNK, "time": _JUNK, "refs": _JUNK},
)
#: a frame the door answers by hanging up (or, truncated, never answers)
_BROKEN = st.one_of(
    _MALFORMED.map(_json_frame),
    # JSON that is not a request object
    st.one_of(_JUNK, st.text(alphabet="xyz", max_size=4)).map(_json_frame),
    # wrong tags, and bad UTF-8 (0xff never occurs in UTF-8)
    st.tuples(st.sampled_from([b"", b"P", b"X"]), st.binary(max_size=16)).map(
        lambda t: _framed(t[0] + t[1])),
    st.binary(max_size=16).map(lambda b: _framed(TAG_JSON + b"\xff" + b)),
    # a header over the client cap, and a truncated frame
    st.integers(_CLIENT_MAX_FRAME + 1, 2**32 - 1).map(
        lambda n: struct.pack(">I", n) + b"J{"),
    st.tuples(_REQUEST, st.integers(1, 8)).map(
        lambda t: _json_frame(t[0])[:-t[1]]),
    st.binary(min_size=1, max_size=12),
)
#: one fuzzed client's bytes: valid requests pipelined behind each
#: other, then at most one broken frame (the door reads nothing after it)
_CLIENT_BYTES = st.tuples(
    st.lists(_REQUEST, max_size=6).map(
        lambda reqs: b"".join(map(_json_frame, reqs))),
    st.one_of(st.just(b""), _BROKEN),
).map(b"".join)


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie (from /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _socket_inodes(pid: int) -> set[int]:
    """Inodes of the sockets process ``pid`` holds open (from /proc)."""
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed since the listing
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


@needs_fork
class TestWorkerLifetime:
    def test_workers_exit_when_router_dies(self):
        """A worker holds no copy of the router's end of its link, so
        when the router is SIGKILLed its workers read EOF and exit."""
        if not os.path.isdir("/proc/self"):
            pytest.skip("requires /proc")
        script = (
            "import time\n"
            "from repro.serve.net import NetConfig, Router\n"
            "router = Router([], net=NetConfig(workers=2))\n"
            "router.start()\n"
            "print(*(l.proc.pid for l in router.links.values()), flush=True)\n"
            "time.sleep(600)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        pids: list[int] = []
        try:
            # A start that hangs fails the test instead of hanging it.
            assert select.select([proc.stdout], [], [], 60.0)[0]
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [p for p in pids if _running(p)]
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_workers_hold_no_router_end(self):
        """The fork copies the router's end of the new link and of every
        link opened before it; each worker, a respawned one included,
        closes them all, so it reads EOF as soon as its own link closes
        and never keeps another worker's link open."""
        if not os.path.isdir("/proc/self"):
            pytest.skip("requires /proc")
        router = Router([], net=NetConfig(workers=2))
        router.start()
        try:
            # w0 respawns after w1, so the fork copies w1's router end.
            router._link_down(router.links["w0"], time.monotonic(), "hangup")
            ends = {os.fstat(link.conn.sock.fileno()).st_ino
                    for link in router.links.values()}
            for link in router.links.values():
                # A reply shows the worker is past its closes: a batch
                # for a shard it does not host is answered with a gap.
                link.conn.send({"op": "batch", "cluster": "none", "bi": 0,
                                "group": worker_mod.encode_group([])})
                replies: list = []
                deadline = time.monotonic() + 30.0
                while not replies and time.monotonic() < deadline:
                    writes = [link.conn.sock] if link.conn.want_write else []
                    select.select([link.conn.sock], writes, [], 0.5)
                    link.conn.pump()
                    replies = list(link.conn.receive())
                assert [r["op"] for r in replies] == ["gap"]
                assert not _socket_inodes(link.proc.pid) & ends, link.name
        finally:
            router.shutdown()
        assert [link.proc.exitcode for link in router.links.values()] == [0, 0]

    def test_shutdown_closes_every_link_and_workers_exit_cleanly(
            self, monkeypatch):
        """Shutdown closes every link before it joins any worker, and
        EOF alone stops a worker: after a drive whose crashed worker
        was respawned, every worker exits with code 0, well inside the
        2 s join timeout.  (The respawned w1 was forked after w0 and
        closed its copy of w0's router end, so w0 reads EOF as soon as
        its own link closes.)"""
        seen = {}
        shutdown = Router.shutdown

        def _timed(router):
            t0 = time.monotonic()
            shutdown(router)
            seen["s"] = time.monotonic() - t0
            seen["links"] = list(router.links.values())

        monkeypatch.setattr("repro.serve.net.router.Router.shutdown", _timed)
        plan = FaultPlan(faults=(FaultSpec(key="Venus", kind="crash", at=130),))
        _, stats = _serve_net(["Venus"], workers=2, fault_plan=plan)
        assert stats.respawns == 1
        assert [link.proc.exitcode for link in seen["links"]] == [0, 0]
        assert seen["s"] < 1.0


class TestGroupFrame:
    """A ``batch`` frame carries its group as four raw columns."""

    @pytest.mark.parametrize("sizes", [[3], [0], [2, 0, 5, 1, 1, 4, 0, 7]],
                             ids=["one-batch", "empty-refs", "full-group"])
    def test_round_trip(self, sizes):
        rng = np.random.default_rng(len(sizes))
        kinds = [SUBMIT, FINISH, NODE_SAMPLE, NODE_FAIL]
        batches = [
            EventBatch(kind=kinds[i % 4], time=float(rng.uniform(0, 1e6)),
                       refs=rng.integers(0, 10**9, size=k).astype(np.int64))
            for i, k in enumerate(sizes)
        ]
        frame = pack({"op": "batch", "cluster": "Venus", "bi": 0,
                      "group": worker_mod.encode_group(batches)})
        got = worker_mod.decode_group(unpack(frame[4:])["group"])
        assert [b.kind for b in got] == [b.kind for b in batches]
        assert [b.time for b in got] == [b.time for b in batches]
        assert all(type(b.kind) is int and type(b.time) is float for b in got)
        for a, b in zip(got, batches):
            assert a.refs.dtype == np.int64
            np.testing.assert_array_equal(a.refs, b.refs)

    def test_empty_group(self):
        assert worker_mod.decode_group(worker_mod.encode_group([])) == []


#: a one-batch group frame's columns, for the stand-in sessions below
_ONE_BATCH = worker_mod.encode_group(
    [EventBatch(kind=SUBMIT, time=0.0, refs=np.zeros(1, dtype=np.int64))]
)


class _BigAckSession:
    """A session stand-in that serves each batch instantly."""

    def __init__(self) -> None:
        self.cursor = 0

    def process(self, bi, batch) -> None:
        self.cursor = bi + 1


class _SlowSession(_BigAckSession):
    """A session stand-in that takes 50 ms per batch and logs it."""

    def __init__(self, served: list) -> None:
        super().__init__()
        self.served = served

    def process(self, bi, batch) -> None:
        time.sleep(0.05)
        self.served.append(bi)
        super().process(bi, batch)


class _BigAckHost:
    """A hosted-shard stand-in whose every ack carries a 4 MB
    checkpoint, about the size of a real Venus shard's (3.4–4.2 MB)."""

    def __init__(self, task, attempt, ckpt, plan) -> None:
        self.attempt = attempt
        self.session = _BigAckSession()
        self.ctx = WorkerContext(task.shard_id, attempt)

    def take_ckpt(self) -> bytes:
        return bytes(4 << 20)


def _recv_frame(sock):
    """Read and decode one frame from a blocking socket."""
    def exactly(n):
        data = bytearray()
        while len(data) < n:
            chunk = sock.recv(min(n - len(data), 1 << 20))
            if not chunk:
                raise ConnectionError("worker hung up")
            data += chunk
        return bytes(data)

    (length,) = struct.unpack(">I", exactly(4))
    return unpack(exactly(length))


class TestWorkerLink:
    def test_checkpoint_acks_reach_a_router_that_sends_nothing(
            self, monkeypatch):
        """A worker waits on its link for writability while a reply is
        queued: three multi-MB checkpoint acks reach a router that
        sends nothing while it reads them, at the pace the router reads
        rather than one socket buffer per timed wakeup; and closing the
        link alone stops the worker."""
        monkeypatch.setattr(worker_mod, "ShardHost", _BigAckHost)
        router_end, worker_end = socket.socketpair()
        worker = threading.Thread(target=worker_mod.worker_main,
                                  args=(worker_end,), daemon=True)
        worker.start()
        try:
            router_end.settimeout(30.0)
            router_end.sendall(pack({"op": "resume", "cluster": "Venus",
                                     "task": _task("Venus"), "attempt": 0,
                                     "ckpt": None}))
            assert _recv_frame(router_end)["op"] == "resume_ok"
            t0 = time.monotonic()
            for bi in range(3):
                router_end.sendall(pack({"op": "batch", "cluster": "Venus",
                                         "bi": bi, "group": _ONE_BATCH}))
                ack = _recv_frame(router_end)
                assert (ack["op"], ack["bi"], len(ack["ckpt"])) == (
                    "ack", bi, 4 << 20)
            elapsed = time.monotonic() - t0
        finally:
            router_end.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        # Socket pace is ~0.1 s on a 2-vCPU VM; draining one socket
        # buffer per 50 ms wakeup takes 1.0-2.5 s there.
        assert elapsed < 0.5, elapsed

    def test_eof_drops_the_frames_read_with_it(self, monkeypatch):
        """A router that wrote a resume and 40 batches and then hung up
        reads no reply: the worker returns at once, serving none of
        them, instead of 40 × 50 ms of batches for no one."""
        served: list[int] = []

        def slow_host(task, attempt, ckpt, plan):
            host = _BigAckHost(task, attempt, ckpt, plan)
            host.session = _SlowSession(served)
            return host

        monkeypatch.setattr(worker_mod, "ShardHost", slow_host)
        router_end, worker_end = socket.socketpair()
        router_end.sendall(pack({"op": "resume", "cluster": "Venus",
                                 "task": _task("Venus"), "attempt": 0,
                                 "ckpt": None}))
        for bi in range(40):
            router_end.sendall(pack({"op": "batch", "cluster": "Venus",
                                     "bi": bi, "group": _ONE_BATCH}))
        router_end.close()
        t0 = time.monotonic()
        worker_mod.worker_main(worker_end)
        elapsed = time.monotonic() - t0
        assert served == []
        assert elapsed < 0.5, elapsed


class TestShardHost:
    def test_resumed_host_takes_its_models_from_the_checkpoint(
            self, monkeypatch, baseline):
        """A host started fresh fits its QSSF model; one resumed from a
        checkpoint fits none, and serves on to the same parity."""
        built = []
        init = QSSFScheduler.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QSSFScheduler, "__init__", counting_init)
        task = _task("Venus")
        fresh = worker_mod.ShardHost(task, 0, None, None)
        assert len(built) == 1
        batches = list(fresh.session.stream.batches(task.config.batch_window_s))
        for bi, batch in enumerate(batches[:task.checkpoint_every]):
            fresh.session.process(bi, batch)
        ckpt = fresh.take_ckpt()
        assert ckpt.cursor == task.checkpoint_every

        built.clear()
        resumed = worker_mod.ShardHost(task, 1, ckpt, None)
        assert built == []
        assert resumed.session.cursor == task.checkpoint_every
        for bi, batch in enumerate(batches):
            resumed.session.process(bi, batch)
        report = resumed.session.finish()
        assert report.parity_bytes() == baseline[0].parity_bytes()


_UNPICKLED: list = []


def _mark_unpickled(note):
    _UNPICKLED.append(note)


class _Unpickled:
    """Unpickling this runs ``_mark_unpickled`` — proof a link decoded
    a pickle it should have refused."""

    def __reduce__(self):
        return (_mark_unpickled, ("code ran in the server",))


def _raw_exchange(port: int, body: bytes,
                  length: int | None = None) -> tuple[dict, bytes]:
    """Send one raw frame body behind a header announcing ``length``
    bytes (default: the true length); read the server's reply frame and
    everything after it until the server hangs up."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    try:
        header = len(body) if length is None else length
        sock.sendall(struct.pack(">I", header) + body)
        data = b""
        while chunk := sock.recv(1 << 16):
            data += chunk
    finally:
        sock.close()
    (length,) = struct.unpack(">I", data[:4])
    return unpack_json(data[4:4 + length]), data[4 + length:]


#: refit-heavy policy for the replication tests: the smoke config's
#: 7-day/50k update policy never fires inside a 1-day stream, so refits
#: trigger on a small buffered-observation threshold instead, and
#: decisions are recorded for the byte-level comparison.
_REPL = dict(update_max_buffered=60, record_decisions=True)


@pytest.fixture(scope="module")
def repl_reference():
    """The merged-stream oracle: one Venus shard, refit-heavy config,
    local refits — the run every replicated variant must match."""
    task = ShardTask(cluster="Venus", config=_config(**_REPL),
                     checkpoint_every=50, **_TASK)
    server, stream = build_shard(task)
    return server.run(stream)


def _ref_slices(report):
    """Reference decisions grouped per submit micro-batch, in submit-
    rank order (what ``decision_index`` exists for)."""
    slices, prev = [], 0
    for _bi, cum in report.decision_index:
        slices.append(report.decisions[prev:cum])
        prev = cum
    return slices


def _expected_for(slices, index, count):
    """The decisions replica ``index`` of ``count`` must make: exactly
    the reference's, for the submit ranks ``replica_slice`` assigns it."""
    return [d for r, s in enumerate(slices) if r % count == index for d in s]


def _serve_repl(replicate, *, replicas=2, fault_plan=None):
    cfg = _config(replicate=replicate, **_REPL)
    net = NetConfig(workers=2, queue_bound=16, **FAST_NET)
    return serve_clusters_net(
        ["Venus"], config=cfg, checkpoint_every=50, replicas=replicas,
        fault_plan=fault_plan, net=net, **_TASK,
    )


@needs_fork
class TestReplication:
    def test_local_replicas_match_but_multiply_fit_work(
            self, repl_reference):
        # Each replica's decision stream is byte-identical to its slice
        # of the single-shard merged-stream run, and each replica pays
        # for every refit itself: every replica sees every finish, so
        # it retrains the same lineage the merged-stream run did.
        reports, _ = _serve_repl("local")
        slices = _ref_slices(repl_reference)
        assert repl_reference.refits["qssf"]["refits"] >= 2  # refits fire
        for j, report in enumerate(reports):
            assert report.decisions == _expected_for(slices, j, 2)
            digest = hashlib.sha256(b"".join(
                encode_decisions(s)
                for r, s in enumerate(slices) if r % 2 == j
            )).hexdigest()
            assert report.qssf_digest == digest
            assert report.refits["qssf"] == repl_reference.refits["qssf"]

    def test_kill_and_partition_mid_broadcast_converges(
            self, repl_reference):
        # The chaos headline: partition a replica's link mid-stream,
        # then SIGKILL the worker it rerouted to.  Each replica resumes
        # from its own checkpoint and refits locally, and the decision
        # streams still match the merged-stream oracle byte for byte.
        # (Venus@0 starts on w1 and Venus@1 on w0.  Link w1 carries one
        # replica's frames, so frame 30 is about batch 116 of it; the
        # crash is keyed to attempt 1 — after the reroute to w0.)
        plan = FaultPlan(seed=11, faults=(
            FaultSpec(key="Venus@0", kind="crash", attempt=1, at=130),
            FaultSpec(key="link:w1", kind="partition", at=30, span=100_000),
        ))
        reports, stats = _serve_repl("local", fault_plan=plan)
        slices = _ref_slices(repl_reference)
        for j, report in enumerate(reports):
            assert report.decisions == _expected_for(slices, j, 2)
            assert report.refits["qssf"] == repl_reference.refits["qssf"]
        # Both fault kinds fired and were recovered from.
        assert stats.link_failures >= 2
        assert stats.respawns >= 1
        assert stats.reroutes >= 2


    def test_reroute_avoids_the_live_sibling(self, repl_reference):
        # On 3 workers Venus@0 starts on w1 and Venus@1 on w0.  When w1
        # dies early in the stream, Venus@0 moves to w2, the live worker
        # hosting no replica of Venus, rather than onto w0 (the first
        # other worker in its order); both decision streams still match
        # the merged-stream oracle.  Venus@1 serves its whole slice in
        # about 60 ms, so it starts a second late: a replica that has
        # finished leaves w0 hosting no live sibling, and one whose
        # worker came up 50 ms sooner did finish before the crash.
        tasks = [
            ShardTask(cluster="Venus", config=_config(**_REPL),
                      checkpoint_every=50, replica_index=j, replica_count=2,
                      **_TASK)
            for j in range(2)
        ]
        plan = FaultPlan(seed=11, faults=(
            FaultSpec(key="Venus@0", kind="crash", at=20),
            FaultSpec(key="Venus@1", kind="slow_start", delay_s=1.0),
        ))
        router = Router(tasks, net=NetConfig(workers=3, queue_bound=16,
                                             **FAST_NET), fault_plan=plan)
        reports, stats = router.drive()
        assert stats.reroutes == 1 and stats.respawns == 1
        assert [router.routes[t.shard_id].worker for t in tasks] == [
            "w2", "w0"]
        slices = _ref_slices(repl_reference)
        for j, report in enumerate(reports):
            assert report.decisions == _expected_for(slices, j, 2)


class TestPassthrough:
    def test_no_fork_serves_in_process_with_parity(self, baseline,
                                                   monkeypatch):
        # Rung 4 of the breaker ladder doubles as the no-fork platform
        # fallback: without a pool, every route serves in-process and
        # the parity surface is unchanged.
        import repro.serve.net.router as router_mod

        monkeypatch.setattr(router_mod, "fork_available", lambda: False)
        reports, stats = _serve_net(["Venus"], workers=2)
        assert parity_surface(reports) == baseline[0].parity_bytes()
        assert stats.passthroughs == 1
        assert stats.frames_sent == 0

    @needs_fork
    def test_unreachable_worker_falls_back_to_the_passthrough(
            self, baseline, monkeypatch):
        # Every epoch of the one link is partitioned from its first
        # frame, so each resume stalls at its deadline until the budget
        # is spent and the route turns local in the step's deadline
        # check.  That step counts as busy, so the passthrough serves
        # the route next, instead of a wait with nothing left to watch.
        import repro.serve.net.router as router_mod

        monkeypatch.setattr(router_mod, "RESUME_DEADLINE_S", 0.3)
        plan = FaultPlan(seed=5, faults=tuple(
            FaultSpec(key="link:w0", kind="partition", attempt=epoch, at=0,
                      span=100_000)
            for epoch in range(3)
        ))
        out = {}
        drive = threading.Thread(
            target=lambda: out.update(result=_serve_net(
                ["Venus"], workers=1, fault_plan=plan)),
            daemon=True,
        )
        drive.start()
        drive.join(timeout=60.0)
        assert not drive.is_alive(), "the router waited with nothing due"
        reports, stats = out["result"]
        assert parity_surface(reports) == baseline[0].parity_bytes()
        assert (stats.respawns, stats.passthroughs) == (2, 1)

    @pytest.mark.parametrize("fork", [
        pytest.param(True, marks=needs_fork, id="fork"),
        pytest.param(False, id="no-fork"),
    ])
    def test_listen_client_prefix_served_exactly(self, fork, monkeypatch):
        # A listen-mode client may close its shard after any prefix of
        # the stream.  On a worker and on the passthrough alike, its
        # batches are admitted and served as they arrive, and the report
        # covers exactly the events it sent.
        from repro.experiments.serving import (
            SERVE_SMOKE_HISTORY_DAYS,
            SERVE_SMOKE_MAX_JOBS,
            SERVE_SMOKE_STREAM_DAYS,
        )
        import repro.serve.net.router as router_mod

        if not fork:
            monkeypatch.setattr(router_mod, "fork_available", lambda: False)
        task = ShardTask(
            cluster="Venus", config=_config(),
            history_days=SERVE_SMOKE_HISTORY_DAYS,
            stream_days=SERVE_SMOKE_STREAM_DAYS,
            max_jobs=SERVE_SMOKE_MAX_JOBS,
        )
        batches = list(build_stream(task).batches(task.config.batch_window_s))
        prefix = batches[:len(batches) // 2]
        session = ServingSession(*build_shard(task))
        for bi, batch in enumerate(prefix):
            session.process(bi, batch)
        expected = session.finish()

        door = FrontDoor([task], net=NetConfig(workers=1, queue_bound=8,
                                               **FAST_NET))
        server, out = _listen(door)
        client = FrontDoorClient("127.0.0.1", door.port)
        try:
            assert client.request({"op": "open", "cluster": "Venus"})[
                "op"] == "opened"
            for bi, batch in enumerate(prefix):
                reply = client.send_event("Venus", bi, batch)
                assert reply["op"] == "accepted", (bi, reply)
            reply = client.request({"op": "close", "cluster": "Venus"})
            assert reply["total"] == len(prefix)
        finally:
            client.close()
        server.join(timeout=60.0)
        assert not server.is_alive()
        (report,), stats = out["result"]
        assert report.events == sum(len(b) for b in prefix) == 575
        assert report.parity_bytes() == expected.parity_bytes()
        assert stats.passthroughs == (0 if fork else 1)
