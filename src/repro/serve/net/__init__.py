"""repro.serve.net — the resilient multi-host serving control plane,
and the one fault-tolerant execution plane for serving shards.

A socket front door (:mod:`.frontdoor`) accepts submit/finish/node
events; the router (:mod:`.router`) places each shard on a forked
socket worker (:mod:`.worker`) by one rendezvous order per cluster,
streams to it behind a bounded per-shard queue with explicit
backpressure, and survives chaos — dropped, delayed, duplicated, and
partitioned links as well as SIGKILLed workers — via its
circuit-breaker ladder: retry with deterministic backoff → degrade to
another worker from the latest checkpoint → an in-process passthrough
that serves the full models.  A worker answers three RPCs
(``resume``, ``batch``, ``finish``), blocks on its link between them,
and exits on EOF.  The headline guarantee extends the
in-shard one: kill *or partition* any worker mid-stream and the merged
report parity surface stays byte-identical to a fault-free run.

Framing (:mod:`.framing`) is length-prefixed JSON-or-pickle over the
stdlib ``socket``/``selectors`` — zero new dependencies — and doubles
as the deterministic injection point for the network fault kinds in
:mod:`repro.framework.faults`.

Replica groups (:mod:`.replicate`) split one cluster's stream across
``--replicas K`` shards: submits round-robin, finishes to every
replica, node samples to replica 0.  The K replicas start on K
different workers (wrapping round past the pool size).  Each replica
refits its own models, and its decisions equal its slice of the
single-shard merged-stream run — including under SIGKILL or partition.
"""

from .framing import FramedConn, NetFaultFilter, pack, unpack
from .frontdoor import FrontDoor, FrontDoorClient, serve_clusters_net
from .replicate import replica_slice
from .router import NetConfig, NetStats, Router
from .worker import worker_main

__all__ = [
    "FramedConn",
    "FrontDoor",
    "FrontDoorClient",
    "NetConfig",
    "NetFaultFilter",
    "NetStats",
    "Router",
    "pack",
    "replica_slice",
    "serve_clusters_net",
    "unpack",
    "worker_main",
]
