"""One benchmark pass, in a fresh interpreter.

``run.py`` starts this script once per pass, with a JSON spec as its
only argument, because the scenario memos in ``repro.experiments.common``
are process-global: a second pass in one process would skip trace
synthesis and model fits.  The pass installs the seed's inputs, drives
one workload through the public entry points its CLI uses, and writes
its measurements as JSON to ``spec["out"]``.

A ``"setup"`` pass stops as soon as set-up ends (first event served,
first ack at the router, or first exhibit started); ``run.py`` uses
these to take the median of several set-ups per run.  Every pass runs
the ``speed`` probe in its process (and in forked net workers) and
reports its set-up and serve times at the reference core speed, beside
the measured ones.  A traced pass installs ``tracer`` first and adds the
per-layer summary.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
clock = time.monotonic

#: The CLI invocations each workload reproduces (flags as typed).
SERVE_INPROC_ARGV = ["--clusters", "Venus", "--jobs", "1", "--days", "8"]
SERVE_NET_ARGV = ["--clusters", "Venus", "--net", "--workers", "2", "--replicas", "2",
                  "--checkpoint-every", "50", "--replicate", "local"]
RUNNER_ARGV = ["fig11", "ces_sweep", "--no-cache", "--jobs", "1"]

#: Payload keys that carry wall-clock values, dropped before digesting
#: (the same set tests/test_goldens.py scrubs).
VOLATILE_KEYS = frozenset(
    {"wall_seconds", "events_per_s", "qssf_latency", "ces_latency", "net_stats"}
)


class SetupDone(BaseException):
    """Ends a set-up-only pass.  A ``BaseException`` so the program's
    ``except Exception`` fault handling lets it through."""


class Pass:
    """Phase bookkeeping shared by the workload functions: when set-up
    and serving end, and the pass's core-speed probe."""

    def __init__(self, spec: dict, probe: speed.Probe | None = None,
                 probe_dir: Path | None = None) -> None:
        self.spec = spec
        self.probe = probe or speed.Probe()
        #: where forked net workers write their probe samples (None: the
        #: workers run no probe)
        self.probe_dir = probe_dir
        self.setup_end: float | None = None
        self.serve_end: float | None = None

    def setup_done(self, now: float | None = None) -> None:
        if self.setup_end is None:
            self.setup_end = clock() if now is None else now
            if self.spec["mode"] == "setup":
                raise SetupDone

    def serve_done(self) -> None:
        self.serve_end = clock()


def reset_peak_rss() -> None:
    """Start the peak-RSS measurement at the program's own run.

    Input generation materializes each seed's raw trace, whose size
    varies with the seed; release what it freed and reset the kernel's
    high-water mark so ``peak_rss_mb`` measures the program on
    equal-sized inputs.  (Where ``clear_refs`` is unavailable the peak
    includes input generation.)"""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_config(args):
    """The ``ServeConfig`` that ``python -m repro.serve`` builds."""
    from repro.experiments.common import QSSF_GBDT
    from repro.serve.server import ServeConfig

    return ServeConfig(
        lam=args.lam,
        qssf_gbdt=QSSF_GBDT,
        bin_seconds=args.bin_seconds,
        online_updates=not args.no_online_updates,
        replicate=args.replicate,
    )


def degraded_events(reports) -> int:
    """Decisions and steps served on a degraded rung, plus model
    failures, as counted in ``ShardReport.degraded``."""
    return sum(
        n for r in reports for key, n in r.degraded.items() if not key.endswith("_rung")
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def serve_inproc(p: Pass) -> dict:
    """``python -m repro.serve --clusters Venus --jobs 1 --days 8``:
    one in-process shard, driven as a closed loop (the next batch goes
    in when the previous ``process`` call returns, as the CLI does
    without ``--speedup``), each call timed from outside."""
    from repro.serve.__main__ import build_parser
    from repro.serve.runtime import ShardTask, build_shard
    from repro.serve.server import ServingSession
    from repro.serve.stream import NODE_SAMPLE, SUBMIT

    args = build_parser().parse_args(SERVE_INPROC_ARGV)
    config = cli_config(args)
    task = ShardTask(
        cluster=args.clusters, config=config, history_days=args.history_days,
        stream_days=args.days, max_jobs=args.max_jobs, speedup=args.speedup,
    )
    server, stream = build_shard(task)
    session = ServingSession(server, stream)
    probe = p.probe
    decide, step = [], []
    for bi, batch in enumerate(stream.play(config.batch_window_s, args.speedup)):
        t0, probed = clock(), probe.spent
        session.process(bi, batch)
        t1 = clock()
        p.setup_done(t1)
        took = t1 - t0 - (probe.spent - probed)
        if batch.kind == SUBMIT:
            decide.append(took)
        elif batch.kind == NODE_SAMPLE:
            step.append(took)
    p.serve_done()
    report = session.finish()
    return {
        "events": report.events,
        "digests": {report.cluster: digest(report.parity_bytes())},
        "attempted": report.events,
        "failed": degraded_events([report]),
        "samples_ms": {
            "qssf_decide": [x * 1e3 for x in decide],
            "ces_step": [x * 1e3 for x in step],
        },
    }


def serve_net_ckpt(p: Pass) -> dict:
    """``python -m repro.serve --clusters Venus --net --workers 2
    --replicas 2 --checkpoint-every 50 --replicate local``: the router
    is the single load generator; set-up ends at its first ack."""
    from repro.serve.__main__ import build_parser
    from repro.serve.net import NetConfig, framing, serve_clusters_net

    args = build_parser().parse_args(SERVE_NET_ARGV)
    config = cli_config(args)
    netcfg = NetConfig(
        workers=args.workers, queue_bound=args.queue_bound,
        max_retries=args.max_retries, backoff_base_s=args.retry_base,
        backoff_cap_s=args.retry_cap,
    )
    conn_cls = framing.FramedConn
    receive = conn_cls.receive
    router_pid = os.getpid()

    def first_ack(conn):
        msgs = receive(conn)
        if os.getpid() == router_pid and any(m.get("op") == "ack" for m in msgs):
            conn_cls.receive = receive
            p.setup_done()
        return msgs

    conn_cls.receive = first_ack
    if p.probe_dir is not None:
        probe_workers(p.probe_dir)
    clusters = tuple(args.clusters.split(","))
    reports, stats = serve_clusters_net(
        clusters, config, history_days=args.history_days, stream_days=args.days,
        max_jobs=args.max_jobs, checkpoint_every=args.checkpoint_every,
        fault_plan=None, net=netcfg, replicas=args.replicas,
    )
    p.serve_done()
    # Replica slices: submits split round-robin, finishes go to every
    # replica, node samples to replica 0 -- count each stream event once.
    k = args.replicas
    events = sum(r.submits for r in reports) + sum(
        r.finishes + r.node_samples for r in reports[::k]
    )
    s = stats.as_dict()
    resends = s["retries"] + s["reroutes"] + s["respawns"]
    return {
        "events": events,
        "digests": {
            f"{r.cluster}@{i % k}": digest(r.parity_bytes()) for i, r in enumerate(reports)
        },
        "attempted": events,
        # A route passed through to the router cannot be told apart in
        # the reports, so a passthrough fails the whole run's events.
        "failed": degraded_events(reports) + resends
        + (events if s["passthroughs"] else 0),
        "net": {"retries": resends, "max_queue_depth": s["max_queue_depth"]},
    }


def probe_workers(out_dir: Path) -> None:
    """Run a probe in each forked net worker; it writes its samples to
    ``out_dir`` when ``worker_main`` returns."""
    from repro.serve.net import router

    worker_main = router.worker_main

    @functools.wraps(worker_main)
    def probed(*args, **kwargs):
        probe = speed.Probe()
        probe.start()
        try:
            return worker_main(*args, **kwargs)
        finally:
            probe.stop()
            probe.dump(out_dir, os.getpid())

    router.worker_main = probed


def scrub(obj):
    """Drop wall-clock keys from a payload, recursively."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        items = [scrub(v) for v in obj]
        return tuple(items) if isinstance(obj, tuple) else items
    return obj


def runner_cold(p: Pass) -> dict:
    """``python -m repro.experiments.runner fig11 ces_sweep --no-cache
    --jobs 1``: both case studies, cold and serial; set-up ends when the
    first exhibit starts."""
    from repro.experiments import registry
    from repro.experiments.cache import dumps_payload
    from repro.experiments.orchestrator import ExperimentOrchestrator
    from repro.experiments.runner import build_parser
    from repro.sim.engine import Simulator

    args = build_parser().parse_args(RUNNER_ARGV)
    ids = list(dict.fromkeys(args.ids))
    for exp_id in ids:
        spec = registry.SPECS[exp_id]
        fn = spec.fn

        def started(fn=fn):
            p.setup_done()
            return fn()

        registry.SPECS[exp_id] = dataclasses.replace(spec, fn=started)
    replayed = [0]
    run = Simulator.run

    def counted(sim, trace, *rest, **kw):
        replayed[0] += len(trace)
        return run(sim, trace, *rest, **kw)

    Simulator.run = counted
    orchestrator = ExperimentOrchestrator(cache=None, jobs=args.jobs, force=args.force)
    result = orchestrator.run(ids)
    p.serve_done()
    ok = [r.exp_id for r in result.reports if r.status != "failed"]
    return {
        # the runner's unit of work: jobs replayed through the simulator
        "events": replayed[0],
        "digests": {e: digest(dumps_payload(scrub(result.payloads[e]))) for e in ok},
        "attempted": len(ids),
        "failed": len(ids) - len(ok),
    }


def phase_times(p: Pass, t_spawn: float, samples) -> dict:
    """Set-up (from spawn) and serve (from set-up's end) times, measured
    and at the reference core speed.  Set-up counts only the pass
    process's own probe samples: a set-up-only pass ends before its net
    workers write theirs."""
    raw = {"setup_s": p.setup_end - t_spawn}
    out = {"setup_s": raw["setup_s"] - speed.deduction(p.probe.samples, t_spawn, p.setup_end)}
    if p.serve_end is not None:
        raw["serve_s"] = p.serve_end - p.setup_end
        out["serve_s"] = raw["serve_s"] - speed.deduction(samples, p.setup_end, p.serve_end)
    out["raw"] = raw
    return out


WORKLOADS = {
    "serve_inproc": (serve_inproc, ("Venus",), False),
    "serve_net_ckpt": (serve_net_ckpt, ("Venus",), False),
    "runner_cold": (runner_cold, ("Venus", "Earth", "Saturn", "Uranus"), True),
}


def main(spec: dict) -> None:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import inputs

    out_dir = Path(spec["out"]).parent
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install(out_dir)
    probe = speed.Probe()
    probe.start()
    workload, clusters, philly = WORKLOADS[spec["workload"]]
    daily = json.loads((HERE / "reference.json").read_text())["daily_jobs"]
    inputs.install(spec["seed"], clusters, philly, daily)
    reset_peak_rss()
    p = Pass(spec, probe, out_dir)
    try:
        result = workload(p)
    except SetupDone:
        result = {}
    probe.stop()
    samples = probe.samples + speed.collect(out_dir)
    result.update(phase_times(p, spec["t_spawn"], samples))
    result["speed"] = {"probes": len(samples), "mean": speed.mean_speed(samples),
                       "deduction_s": speed.deduction(samples)}
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(out_dir)
        summary = tracing.summarize(tracing.collect(out_dir))
        result["layers"] = tracing.layer_metrics(summary, result.get("net"))
        result["spans"] = summary["spans"]
        result["covered_s"] = summary["covered_s"]
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
