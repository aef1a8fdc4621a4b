"""Serving-runtime exhibits: the framework loop as a live system.

``serve_smoke`` streams the first days of the evaluation month for two
clusters through :mod:`repro.serve` — QSSF queue orderings, CES control
steps and online model updates — and reports per-shard throughput and
decision-latency telemetry.  Its stream derives node demand from the
traces alone (the as-if-unqueued approximation), so it exercises the
full serving stack in seconds with no simulator in the loop.

``serve_replay`` closes the loop: the shard window is replayed through
the fast simulator and the server consumes the *live* replay
(``EventStream.from_replay``) — finish events at simulated end times,
CES trained on and fed by the replay's running-nodes telemetry.  The
array-backed engine makes this cheap enough for the smoke profile.

The serve imports are deferred into the builders: the registry must
stay importable without touching :mod:`repro.serve` (which itself
imports the shared experiment scenario — a cycle if resolved at import
time).
"""

from __future__ import annotations

from . import common

__all__ = [
    "exp_serve_chaos",
    "exp_serve_frontdoor",
    "exp_serve_replay",
    "exp_serve_smoke",
    "SERVE_CHAOS_CLUSTERS",
    "SERVE_NET_CLUSTERS",
    "SERVE_REPLAY_CLUSTERS",
    "SERVE_SMOKE_CLUSTERS",
    "smoke_serve_config",
]

#: shards streamed by the smoke exhibit
SERVE_SMOKE_CLUSTERS = ("Venus", "Saturn")
SERVE_SMOKE_HISTORY_DAYS = 14
SERVE_SMOKE_STREAM_DAYS = 3.0
SERVE_SMOKE_MAX_JOBS = 1_200

#: shards streamed from a live simulator replay
SERVE_REPLAY_CLUSTERS = ("Venus",)

#: chaos exhibit: one routed shard, SIGKILLed mid-stream and resumed
SERVE_CHAOS_CLUSTERS = ("Venus",)
SERVE_CHAOS_KILL_BATCH = 130
SERVE_CHAOS_CHECKPOINT_EVERY = 50

#: front-door chaos exhibit: two shards that start on *different*
#: workers of a 2-worker pool (Venus → w1, Earth → w0), so a worker
#: SIGKILL and a link partition each hit one shard
SERVE_NET_CLUSTERS = ("Venus", "Earth")
SERVE_NET_WORKERS = 2
SERVE_NET_QUEUE_BOUND = 16
SERVE_NET_PARTITION_AT = 60


def smoke_serve_config():
    """Replay-free serving knobs sized for the smoke budget.

    Rolling-only QSSF (``lam=1``) skips the GBDT duration model; hourly
    node bins with short-lag features keep the CES forecaster's warmup
    inside a two-week history window.
    """
    from ..energy.forecaster import ForecastFeatures
    from ..ml.gbdt import GBDTParams
    from ..serve import ServeConfig

    return ServeConfig(
        lam=1.0,
        bin_seconds=3_600,
        horizon_bins=6,
        ces_features=ForecastFeatures(
            bin_seconds=3_600, lags=(1, 2, 3, 6, 24, 168), windows=(6, 24)
        ),
        ces_gbdt=GBDTParams(n_estimators=60, max_depth=5, min_samples_leaf=10),
        ces_update_every=24,
    )


def _serve_exhibit(exp_id: str, clusters: tuple[str, ...], source: str) -> dict:
    """Shared builder: serve ``clusters`` shards and package telemetry."""
    from ..serve import aggregate_reports, serve_clusters

    reports = serve_clusters(
        clusters,
        config=smoke_serve_config(),
        jobs=1,
        history_days=SERVE_SMOKE_HISTORY_DAYS,
        stream_days=SERVE_SMOKE_STREAM_DAYS,
        max_jobs=SERVE_SMOKE_MAX_JOBS,
        source=source,
    )
    agg = aggregate_reports(reports)
    lines = [
        f"{exp_id} — streaming serving runtime "
        f"({SERVE_SMOKE_STREAM_DAYS:g} days, {len(reports)} shards, "
        f"{source} source)"
    ]
    for r in reports:
        lines.append(
            f"{r.cluster:7s} {r.events:6d} events  {r.events_per_s:9.0f} ev/s  "
            f"qssf p50/p99 {r.qssf_latency.p50_ms:.2f}/{r.qssf_latency.p99_ms:.2f} ms  "
            f"ces p50/p99 {r.ces_latency.p50_ms:.2f}/{r.ces_latency.p99_ms:.2f} ms  "
            f"wakes {r.ces_summary.get('wake_events', 0)}  "
            f"parked {r.ces_summary.get('avg_parked', 0.0):.1f}  "
            f"updates {r.refits}"
        )
    lines.append(
        f"aggregate: {agg['events']} events, {agg['events_per_s']:.0f} ev/s, "
        f"{agg['qssf_decisions']} queue orderings, {agg['ces_steps']} CES steps"
    )
    return {
        "shards": [r.as_dict() for r in reports],
        "aggregate": agg,
        "clusters": list(clusters),
        "source": source,
        "text": "\n".join(lines),
    }


def exp_serve_smoke() -> dict:
    """Serve two cluster shards end-to-end; returns telemetry + text."""
    return _serve_exhibit("serve_smoke", SERVE_SMOKE_CLUSTERS, "trace")


def exp_serve_replay() -> dict:
    """Serve a shard from a *live* simulator replay (§4.1 closed loop)."""
    return _serve_exhibit("serve_replay", SERVE_REPLAY_CLUSTERS, "replay")


def exp_serve_chaos() -> dict:
    """Kill a serving shard mid-stream; prove crash-recovery parity.

    The baseline serves one shard fault-free.  The chaos run serves the
    *same* shard through the serve-net router on a one-worker pool with
    a deterministic :class:`~repro.framework.faults.FaultPlan` that
    SIGKILLs the worker at micro-batch 130 (between the second and
    third checkpoints); the router respawns it, the new attempt resumes
    from the last checkpoint, and the exhibit asserts the recovered
    report's parity surface is byte-identical to the baseline's.  Every
    field in the payload is deterministic, so this exhibit carries a
    golden.

    Needs ``os.fork``: without it the router serves the shard
    in-process, the crash has no worker to kill, and the payload logs
    one ``ok`` attempt with no retries — not the golden's.
    """
    from ..framework import FaultPlan, FaultSpec, SupervisionLog
    from ..serve import NetConfig, serve_clusters, serve_clusters_net

    shard_kwargs = dict(
        config=smoke_serve_config(),
        history_days=SERVE_SMOKE_HISTORY_DAYS,
        stream_days=SERVE_SMOKE_STREAM_DAYS,
        max_jobs=SERVE_SMOKE_MAX_JOBS,
    )
    baseline = serve_clusters(SERVE_CHAOS_CLUSTERS, jobs=1, **shard_kwargs)[0]

    plan = FaultPlan(
        seed=7,
        faults=tuple(
            FaultSpec(key=c, kind="crash", at=SERVE_CHAOS_KILL_BATCH)
            for c in SERVE_CHAOS_CLUSTERS
        ),
    )
    log = SupervisionLog()
    (recovered,), _ = serve_clusters_net(
        SERVE_CHAOS_CLUSTERS,
        **shard_kwargs,
        checkpoint_every=SERVE_CHAOS_CHECKPOINT_EVERY,
        fault_plan=plan,
        net=NetConfig(
            workers=1, max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05,
        ),
        log=log,
    )

    parity = recovered.parity_bytes() == baseline.parity_bytes()
    if not parity:
        raise RuntimeError(
            "crash-recovery parity violated: the resumed shard's report "
            "differs from the never-failed baseline"
        )
    lines = [
        "serve_chaos — SIGKILL a serving shard mid-stream, resume from "
        "checkpoint, byte-compare against the never-failed run",
        f"shard {baseline.cluster}: {baseline.events} events, "
        f"kill at batch {SERVE_CHAOS_KILL_BATCH}, "
        f"checkpoint every {SERVE_CHAOS_CHECKPOINT_EVERY} batches",
        f"supervision: {log.retries()} retry "
        f"({', '.join(o for _, _, o in log.events)})",
        f"parity: recovered report == baseline report "
        f"(qssf digest {baseline.qssf_digest[:16]}…)",
    ]
    return {
        "parity": parity,
        "baseline": baseline.parity_dict(),
        "recovered": recovered.parity_dict(),
        "retries": recovered.retries,
        "supervision": log.as_dict(),
        "kill_batch": SERVE_CHAOS_KILL_BATCH,
        "checkpoint_every": SERVE_CHAOS_CHECKPOINT_EVERY,
        "clusters": list(SERVE_CHAOS_CLUSTERS),
        "text": "\n".join(lines),
    }


def exp_serve_frontdoor() -> dict:
    """Partition-and-kill chaos parity through the socket control plane.

    The baseline serves two shards directly.  The chaos run routes the
    same shards through :mod:`repro.serve.net` — their rendezvous
    orders place them on different workers — under a plan that SIGKILLs
    Venus's worker at micro-batch 130 *and* partitions Earth's link
    indefinitely from frame 60.  The router's breaker ladder respawns
    and reroutes both shards from their piggybacked checkpoints, and the
    exhibit asserts the merged parity surface is byte-identical to the
    fault-free baseline.  All wall-clock-plane counters land in
    ``net_stats`` (scrubbed from the golden); every other field is
    deterministic.
    """
    from ..framework import FaultPlan, FaultSpec
    from ..serve import (
        NetConfig,
        parity_surface,
        serve_clusters,
        serve_clusters_net,
    )

    shard_kwargs = dict(
        config=smoke_serve_config(),
        history_days=SERVE_SMOKE_HISTORY_DAYS,
        stream_days=SERVE_SMOKE_STREAM_DAYS,
        max_jobs=SERVE_SMOKE_MAX_JOBS,
    )
    baseline = serve_clusters(SERVE_NET_CLUSTERS, jobs=1, **shard_kwargs)

    plan = FaultPlan(
        seed=13,
        faults=(
            FaultSpec(key="Venus", kind="crash", at=SERVE_CHAOS_KILL_BATCH),
            FaultSpec(key="link:w0", kind="partition",
                      at=SERVE_NET_PARTITION_AT, span=100_000),
        ),
    )
    net = NetConfig(
        workers=SERVE_NET_WORKERS, queue_bound=SERVE_NET_QUEUE_BOUND,
        rpc_deadline_s=1.5, max_retries=2,
        backoff_base_s=0.01, backoff_cap_s=0.05,
    )
    recovered, stats = serve_clusters_net(
        SERVE_NET_CLUSTERS,
        shard_kwargs["config"],
        history_days=SERVE_SMOKE_HISTORY_DAYS,
        stream_days=SERVE_SMOKE_STREAM_DAYS,
        max_jobs=SERVE_SMOKE_MAX_JOBS,
        checkpoint_every=SERVE_CHAOS_CHECKPOINT_EVERY,
        fault_plan=plan,
        net=net,
    )

    parity = parity_surface(recovered) == parity_surface(baseline)
    if not parity:
        raise RuntimeError(
            "net chaos parity violated: the rerouted shards' merged "
            "report surface differs from the fault-free baseline"
        )
    lines = [
        "serve_frontdoor — SIGKILL one shard worker and partition the "
        "other's link; reroute from checkpoints through the socket "
        "control plane, byte-compare against the direct run",
        f"shards {', '.join(SERVE_NET_CLUSTERS)} on "
        f"{SERVE_NET_WORKERS} workers, queue bound "
        f"{SERVE_NET_QUEUE_BOUND}, checkpoint every "
        f"{SERVE_CHAOS_CHECKPOINT_EVERY} batches",
        f"faults: crash Venus at batch {SERVE_CHAOS_KILL_BATCH}; "
        f"partition link:w0 from frame {SERVE_NET_PARTITION_AT}",
    ] + [
        f"{r.cluster:7s} {r.events:6d} events  parity ok"
        for r in recovered
    ]
    return {
        "parity": parity,
        "baseline": [r.parity_dict() for r in baseline],
        "recovered": [r.parity_dict() for r in recovered],
        "clusters": list(SERVE_NET_CLUSTERS),
        "workers": SERVE_NET_WORKERS,
        "queue_bound": SERVE_NET_QUEUE_BOUND,
        "kill_batch": SERVE_CHAOS_KILL_BATCH,
        "partition_at": SERVE_NET_PARTITION_AT,
        "checkpoint_every": SERVE_CHAOS_CHECKPOINT_EVERY,
        "net_stats": stats.as_dict(),
        "text": "\n".join(lines),
    }
