"""CLI for the streaming prediction-service runtime.

Usage::

    python -m repro.serve                             # serve all 4 clusters
    python -m repro.serve --clusters Venus,Earth      # shard subset
    python -m repro.serve --jobs 4                    # one worker per shard
    python -m repro.serve --speedup 3600              # 1 stream-hour / wall-second
    python -m repro.serve --days 7 --history-days 60  # bigger windows
    python -m repro.serve --json report.json          # machine-readable report
    python -m repro.serve --net --workers 2           # socket control plane
    python -m repro.serve --checkpoint-every 50       # crash-resumable shards
    python -m repro.serve --listen 7341               # TCP front door
    python -m repro.serve --connect HOST:7341         # replay into a front door

Each cluster becomes one shard: a :class:`PredictionServer` fitted on
the cluster's history serving that cluster's replayed event stream,
with per-shard throughput and decision-latency telemetry.  ``--net``
routes the shards through the :mod:`repro.serve.net` control plane
(rendezvous-hash placement, bounded queues, retries/reroutes, crash
recovery from checkpoints); ``--checkpoint-every`` and
``--fault-plan`` select it too.  ``--listen`` exposes the same plane as
a TCP front door and ``--connect`` drives a remote one as a
load-generating client.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

from .. import obs
from ..experiments.common import CLUSTERS
from ..framework import FaultPlan
from .runtime import serve_clusters
from .server import ServeConfig
from .telemetry import aggregate_reports

__all__ = ["main", "build_parser", "load_fault_plan"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve replayed trace streams through the prediction framework.",
    )
    parser.add_argument(
        "--clusters", default=",".join(CLUSTERS), metavar="A,B,...",
        help=f"comma-separated cluster shards (default {','.join(CLUSTERS)})",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for shard fan-out (default 1; 0 = one per CPU)",
    )
    parser.add_argument(
        "--speedup", type=float, default=None, metavar="X",
        help="stream-seconds per wall-second, in-process serving only "
             "(default: as fast as possible)",
    )
    parser.add_argument(
        "--days", type=float, default=3.0, metavar="D",
        help="stream window: first D days of the evaluation month (default 3)",
    )
    parser.add_argument(
        "--history-days", type=int, default=30, metavar="D",
        help="training window before the evaluation month (default 30)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="cap streamed jobs per shard (default: no cap)",
    )
    parser.add_argument(
        "--bin-seconds", type=int, default=600, metavar="S",
        help="node-sample bin width (default 600)",
    )
    parser.add_argument(
        "--lam", type=float, default=0.5, metavar="L",
        help="QSSF rolling/ML blend (default 0.5; 1.0 skips the GBDT)",
    )
    parser.add_argument(
        "--no-online-updates", action="store_true",
        help="freeze models: serve decisions without observing the stream",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help="checkpoint every K micro-batches; a crashed shard resumes "
             "from its last checkpoint (implies --net)",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="JSON|PATH",
        help="deterministic fault-injection plan (inline JSON or a file "
             "path); implies --net",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="router retry budget per shard attempt and respawn budget "
             "per worker (default 2)",
    )
    parser.add_argument(
        "--retry-base", type=float, default=0.05, metavar="S",
        help="exponential-backoff base in seconds (default 0.05)",
    )
    parser.add_argument(
        "--retry-cap", type=float, default=2.0, metavar="S",
        help="exponential-backoff cap in seconds (default 2.0)",
    )
    parser.add_argument(
        "--net", action="store_true",
        help="serve through the socket control plane (rendezvous-hash "
             "placed shard workers, bounded queues, retries/reroutes)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="shard worker processes behind the net router (default 2)",
    )
    parser.add_argument(
        "--queue-bound", type=int, default=32, metavar="N",
        help="max unacked batches in flight per shard; the front door "
             "holds a client's next event until one is acked (default 32)",
    )
    parser.add_argument(
        "--replicate", choices=("local",), default="local",
        help="where refits train: 'local', on every shard, is the only "
             "value; the flag stays so existing invocations (the "
             "perfbench serve_net_ckpt workload) still parse",
    )
    parser.add_argument(
        "--replicas", type=int, default=1, metavar="K",
        help="serve each cluster's stream across K replica shards "
             "(submits round-robin, finishes broadcast; requires --net "
             "drive mode; default 1)",
    )
    parser.add_argument(
        "--listen", default=None, metavar="[HOST:]PORT",
        help="run the socket front door as a TCP server and wait for "
             "clients to stream events in (implies --net)",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="replay this process's shard streams into a listening front "
             "door as a client load generator",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write per-shard + aggregate telemetry to PATH",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print only the aggregate line",
    )
    parser.add_argument(
        "--obs-out", type=Path, default=None, metavar="DIR",
        help="enable tracing+metrics and dump trace.jsonl + "
             "trace.chrome.json (Perfetto-loadable) under DIR; inspect "
             "with 'python -m repro.obs summarize DIR/trace.jsonl'",
    )
    return parser


def load_fault_plan(text: str) -> FaultPlan:
    """Parse a ``--fault-plan`` value: inline JSON, or a path to it.

    Anything that does not start with ``{`` is treated as a file path;
    every failure mode (missing file, directory, unreadable file,
    malformed JSON, invalid plan) raises :class:`ValueError` with a
    one-line diagnostic — never a raw traceback.
    """
    if not text.lstrip().startswith("{"):
        path = Path(text)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ValueError(
                f"fault-plan file {str(path)!r} not found "
                "(inline plans must be JSON objects starting with '{')"
            ) from None
        except OSError as exc:
            raise ValueError(f"cannot read fault-plan file {path}: {exc}") from None
    try:
        return FaultPlan.from_json(text)
    except ValueError as exc:  # includes json.JSONDecodeError
        raise ValueError(str(exc)) from None
    except Exception as exc:
        raise ValueError(f"invalid fault plan: {exc}") from None


def _parse_endpoint(text: str, default_host: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or default_host, int(port))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    clusters = tuple(c.strip() for c in args.clusters.split(",") if c.strip())
    if not clusters:
        print(
            f"error: no clusters given; known clusters: {', '.join(CLUSTERS)}",
            file=sys.stderr,
        )
        return 2
    unknown = [c for c in clusters if c not in CLUSTERS]
    if unknown:
        for name in unknown:
            close = difflib.get_close_matches(name, CLUSTERS, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            print(f"error: unknown cluster {name!r}{hint}", file=sys.stderr)
        print(f"known clusters: {', '.join(CLUSTERS)}", file=sys.stderr)
        return 2

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = load_fault_plan(args.fault_plan)
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    # Fault injection and checkpoints are the router's business: either
    # flag selects it, the way --listen does.
    net_mode = (args.net or args.listen is not None or fault_plan is not None
                or args.checkpoint_every is not None)
    if args.speedup is not None and (net_mode or args.connect is not None):
        print("error: --speedup paces in-process serving only; the router "
              "(--net, --listen, --connect, --fault-plan, --checkpoint-every) "
              "replays as fast as possible", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print(f"error: --replicas must be >= 1, got {args.replicas}",
              file=sys.stderr)
        return 2
    if args.replicas > 1 and not net_mode:
        print("error: --replicas needs --net", file=sys.stderr)
        return 2
    if args.replicas > 1 and args.listen is not None:
        print("error: --replicas > 1 is a --net drive-mode feature "
              "(listen mode addresses shards by cluster)", file=sys.stderr)
        return 2

    from .net import NetConfig, serve_clusters_net

    try:
        netcfg = NetConfig(
            workers=args.workers,
            queue_bound=args.queue_bound,
            max_retries=args.max_retries,
            backoff_base_s=args.retry_base,
            backoff_cap_s=args.retry_cap,
        )
    except ValueError as exc:
        print(f"error: bad retry knobs: {exc}", file=sys.stderr)
        return 2

    from ..experiments.common import QSSF_GBDT

    config = ServeConfig(
        lam=args.lam,
        qssf_gbdt=QSSF_GBDT,
        bin_seconds=args.bin_seconds,
        online_updates=not args.no_online_updates,
        replicate=args.replicate,
    )
    if args.obs_out is not None:
        obs.enable()
    if args.connect is not None:
        return _run_connect(args, clusters, config)

    if args.listen is not None:
        return _run_listen(args, clusters, config, netcfg, fault_plan)
    net_stats = None
    if net_mode:
        reports, net_stats = serve_clusters_net(
            clusters,
            config,
            history_days=args.history_days,
            stream_days=args.days,
            max_jobs=args.max_jobs,
            checkpoint_every=args.checkpoint_every,
            fault_plan=fault_plan,
            net=netcfg,
            replicas=args.replicas,
        )
    else:
        reports = serve_clusters(
            clusters,
            config=config,
            jobs=args.jobs,
            history_days=args.history_days,
            stream_days=args.days,
            max_jobs=args.max_jobs,
            speedup=args.speedup,
        )

    for report in reports:
        if args.quiet:
            continue
        lat = report.qssf_latency
        print(
            f"[{report.cluster:7s}] {report.events:7d} events in "
            f"{report.wall_seconds:7.2f}s ({report.events_per_s:9.0f} ev/s)  "
            f"qssf p50/p99 {lat.p50_ms:.2f}/{lat.p99_ms:.2f} ms  "
            f"ces p50/p99 {report.ces_latency.p50_ms:.2f}/"
            f"{report.ces_latency.p99_ms:.2f} ms  "
            f"wakes {report.ces_summary.get('wake_events', 0)}"
        )
    agg = aggregate_reports(reports)
    print(
        f"{agg['shards']} shards, {agg['events']} events, "
        f"{agg['events_per_s']:.0f} ev/s aggregate, "
        f"{agg['qssf_decisions']} queue orderings, {agg['ces_steps']} CES steps"
    )
    if "qssf_latency" in agg and not args.quiet:
        print(
            f"fleet qssf p50/p99 {agg['qssf_latency']['p50_ms']:.2f}/"
            f"{agg['qssf_latency']['p99_ms']:.2f} ms over the merged "
            f"distribution ({agg['qssf_latency']['count']} decisions)"
        )

    if net_stats is not None:
        s = net_stats.as_dict()
        print(
            f"net: {s['frames_sent']} frames, {s['retries']} retries, "
            f"{s['reroutes']} reroutes, {s['respawns']} respawns, "
            f"max queue depth {s['max_queue_depth']}"
        )

    if args.json is not None:
        payload = {"shards": [r.as_dict() for r in reports], "aggregate": agg}
        if net_stats is not None:
            payload["net"] = net_stats.as_dict()
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.json}")

    if args.obs_out is not None:
        jsonl_path, chrome_path = obs.dump(args.obs_out)
        print(f"obs trace written to {jsonl_path} and {chrome_path}")
    return 0


def _shard_tasks(args, clusters, config):
    from .runtime import ShardTask

    return [
        ShardTask(
            cluster=c,
            config=config,
            history_days=args.history_days,
            stream_days=args.days,
            max_jobs=args.max_jobs,
            speedup=args.speedup,
            checkpoint_every=args.checkpoint_every,
        )
        for c in clusters
    ]


class _ReadyBanner:
    """Duck-typed ``threading.Event`` that prints the bound endpoint."""

    def __init__(self, door, workers: int, queue_bound: int) -> None:
        self.door, self.workers, self.queue_bound = door, workers, queue_bound

    def set(self) -> None:
        print(f"front door listening on port {self.door.port} "
              f"({self.workers} workers, queue bound {self.queue_bound})",
              flush=True)


def _run_listen(args, clusters, config, netcfg, fault_plan) -> int:
    """Front-door TCP server: serve until every opened shard completes."""
    from .net import FrontDoor

    host, port = _parse_endpoint(args.listen, default_host="127.0.0.1")
    door = FrontDoor(_shard_tasks(args, clusters, config), net=netcfg,
                     fault_plan=fault_plan)
    banner = _ReadyBanner(door, args.workers, args.queue_bound)
    try:
        reports, _ = door.serve(host=host, port=port, ready=banner)
    except OSError as exc:
        if door.port is not None:
            raise  # bound and serving: not a listen failure
        print(f"error: cannot listen on {host}:{port}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    print(f"served {len(reports)} shard(s)")
    return 0


def _run_connect(args, clusters, config) -> int:
    """Client load generator: replay shard streams into a front door.

    Every request must get its expected reply.  A front door that
    cannot be reached, refuses a request, hangs up or times out stops
    the run with one ``error:`` line and exit 1.
    """
    from .net import FrontDoorClient
    from .runtime import build_stream

    host, port = _parse_endpoint(args.connect, default_host="127.0.0.1")
    try:
        client = FrontDoorClient(host, port)
    except OSError as exc:
        print(f"error: cannot connect to {host}:{port}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1

    def ask(expect: str, failure: str, send, *request) -> dict | None:
        """``send(*request)``'s reply, or None after printing why it is
        not ``expect``."""
        try:
            reply = send(*request)
        except OSError as exc:  # the front door hung up or timed out
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        if reply.get("op") == expect:
            return reply
        print(f"error: {failure}: {reply.get('error', reply)}", file=sys.stderr)
        return None

    try:
        for task in _shard_tasks(args, clusters, config):
            cluster = task.cluster
            if ask("opened", f"{cluster} not opened",
                   client.request, {"op": "open", "cluster": cluster}) is None:
                return 1
            batches = list(
                build_stream(task).batches(task.config.batch_window_s)
            )
            for bi, batch in enumerate(batches):
                if ask("accepted", f"{cluster} batch {bi} not accepted",
                       client.send_event, cluster, bi, batch) is None:
                    return 1
            reply = ask("closed", f"{cluster} not closed",
                        client.request, {"op": "close", "cluster": cluster})
            if reply is None:
                return 1
            print(f"[{cluster:7s}] {len(batches)} batches served; "
                  f"parity {reply['parity_sha'][:16]}")
    finally:
        client.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
