"""Scale-out: serve multi-cluster shards on a forked worker pool.

Each cluster is one shard — its own :class:`PredictionServer` (models
fitted on that cluster's history) consuming that cluster's event
stream.  Shards are independent, so they fan out over
:func:`repro.framework.parallel.run_forked`; the parent warms the
shared trace memos first so workers inherit them copy-on-write instead
of regenerating six months of synthetic workload per process.

Fault tolerance lives in one place, the :mod:`repro.serve.net`
router: it serves the same :class:`ShardTask` on watched worker
processes and resumes a crashed shard from its last
:class:`~repro.serve.server.ShardCheckpoint`, with a report whose
parity surface is byte-identical to a never-failed run.

The shard scenario mirrors the batch experiments: QSSF trains on the
``history_days`` before the evaluation month, the CES forecaster on the
same window's node-demand series, and the stream replays the first
``stream_days`` of the evaluation month.

Two stream sources exist:

* ``source="trace"`` — the as-if-unqueued approximation: finishes at
  ``submit + duration``, node demand from capacity-scaled overlap
  concurrency.  No simulator in the loop; the original smoke path.
* ``source="replay"`` — a *live* simulated replay: the shard window is
  replayed through the fast :class:`~repro.sim.engine.Simulator` under
  the production FIFO policy, finish events fall at the *simulated* end
  times, and node demand (both the CES training history and the
  streamed samples) comes from the replay's running-nodes telemetry —
  queueing, placement, and capacity effects included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..experiments import common
from ..framework.parallel import run_forked
from ..obs import collect as obs
from ..sched import FIFOScheduler
from ..sim import Simulator, running_nodes_series
from ..stats.timeseries import TimeGrid
from ..traces import SECONDS_PER_DAY, slice_period
from .server import (
    PredictionServer, ServeConfig, ServingSession, ShardCheckpoint, ShardReport,
)
from .stream import EventStream, approx_node_demand

__all__ = ["ShardTask", "build_shard", "build_stream", "open_session", "run_shard",
           "serve_clusters"]

_SOURCES = ("trace", "replay")


@dataclass(frozen=True)
class ShardTask:
    """One cluster shard's serving scenario (picklable for the pool)."""

    cluster: str
    config: ServeConfig = field(default_factory=ServeConfig)
    history_days: int = 30
    stream_days: float = 3.0
    max_jobs: int | None = None
    speedup: float | None = None
    source: str = "trace"
    #: checkpoint cadence in micro-batches (None = no checkpoints);
    #: read by the serve-net workers, whose router resumes a restarted
    #: shard from its last checkpoint.
    checkpoint_every: int | None = None
    #: replica-group position: the serve-net router splits one cluster's
    #: stream across ``replica_count`` shards (submit batches round-robin
    #: by rank, finish batches broadcast, node batches to replica 0 — the
    #: CES owner, the only replica that fits a CES forecaster).  The
    #: default (0 of 1) is a whole-cluster shard.
    replica_index: int = 0
    replica_count: int = 1

    def __post_init__(self) -> None:
        if self.replica_count < 1:
            raise ValueError(f"replica_count must be >= 1, got {self.replica_count}")
        if not 0 <= self.replica_index < self.replica_count:
            raise ValueError(
                f"replica_index must be in [0, {self.replica_count}), "
                f"got {self.replica_index}"
            )
        if self.history_days < 1:
            raise ValueError("history_days must be >= 1")
        if self.stream_days <= 0:
            raise ValueError("stream_days must be positive")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError(f"max_jobs must be positive, got {self.max_jobs}")
        if self.speedup is not None and self.speedup <= 0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )
        if self.source not in _SOURCES:
            raise ValueError(
                f"source must be one of {_SOURCES}, got {self.source!r}"
            )

    @property
    def shard_id(self) -> str:
        """Route/fault key: the cluster name for a whole-cluster shard,
        ``cluster@index`` for a replica — so single-replica behavior
        (fault-plan keys, route labels) is unchanged byte-for-byte."""
        if self.replica_count == 1:
            return self.cluster
        return f"{self.cluster}@{self.replica_index}"

    @property
    def owns_ces(self) -> bool:
        """Whether node samples reach this shard: every shard but a
        replica other than 0, since
        :func:`~repro.serve.net.replicate.replica_slice` sends node
        batches to replica 0 alone."""
        return self.replica_index == 0


def build_shard(task: ShardTask) -> tuple[PredictionServer, EventStream]:
    """Fit one shard's server and build its event stream.

    Uses the shared experiment scenario's memoized traces, so repeated
    builds (and the smoke exhibits) never regenerate a cluster.
    """
    cfg = task.config
    gpu = common.cluster_gpu_trace(task.cluster)
    eval_start = common.EVAL_MONTH * common.MONTH_SECONDS
    hist_start = eval_start - task.history_days * SECONDS_PER_DAY
    stream_end = eval_start + task.stream_days * SECONDS_PER_DAY

    history = slice_period(gpu, hist_start, eval_start)
    server = PredictionServer(cfg)
    server.install_qssf(history)
    total_nodes = common.cluster_spec(task.cluster).num_nodes

    if task.source == "replay":
        ces_history, stream = _replay_stream(
            task, gpu, hist_start, eval_start, stream_end
        )
    else:
        ces_history, stream = _trace_stream(
            task, gpu, hist_start, eval_start, stream_end, total_nodes
        )
    # A replica that never sees a node sample skips the forecaster fit,
    # most of a shard's set-up.
    server.install_ces(ces_history, total_nodes, fit=task.owns_ces)
    return server, stream


def build_stream(task: ShardTask) -> EventStream:
    """Build only a shard's event stream — no model fitting.

    The serve-net router's half of a shard: it needs the micro-batches
    to route over the wire, not the fitted models (those live in the
    worker that calls :func:`build_shard` on the same task — both sides
    derive the identical stream deterministically).
    """
    eval_start = common.EVAL_MONTH * common.MONTH_SECONDS
    hist_start = eval_start - task.history_days * SECONDS_PER_DAY
    stream_end = eval_start + task.stream_days * SECONDS_PER_DAY
    gpu = common.cluster_gpu_trace(task.cluster)
    if task.source == "replay":
        return _replay_stream(task, gpu, hist_start, eval_start, stream_end)[1]
    total_nodes = common.cluster_spec(task.cluster).num_nodes
    return _trace_stream(
        task, gpu, hist_start, eval_start, stream_end, total_nodes
    )[1]


def open_session(
    task: ShardTask, resume: ShardCheckpoint | None, **kwargs
) -> ServingSession:
    """Open a :class:`ServingSession` (``kwargs`` go to it) on a shard
    from :func:`build_shard`, or, resuming, on a bare server and the
    stream alone: the checkpoint carries the models, so nothing is fit."""
    if resume is None:
        server, stream = build_shard(task)
    else:
        server, stream = PredictionServer(task.config), build_stream(task)
    return ServingSession(server, stream, resume=resume, **kwargs)


def _trace_stream(
    task, gpu, hist_start, eval_start, stream_end, total_nodes
) -> tuple[np.ndarray, EventStream]:
    """Replay-free stream: as-if-unqueued finishes and scaled demand.
    Returns the CES training history alongside the stream."""
    cfg = task.config
    window = slice_period(gpu, eval_start, stream_end).sort_by("submit_time")
    if task.max_jobs is not None:
        window = window.head(task.max_jobs)
    # Node-demand series: as-if-unqueued concurrency over the *full*
    # trace (jobs running into a window count toward it), rescaled so
    # the history peak matches the physical node count — the capacity
    # normalization a queueing simulator would impose, at stream cost.
    hist_grid = TimeGrid.covering(hist_start, eval_start, cfg.bin_seconds)
    raw_hist = approx_node_demand(gpu, hist_grid)
    scale = total_nodes / max(float(raw_hist.max()), 1.0)
    ces_history = _scale_demand(raw_hist, scale, total_nodes)

    stream_grid = TimeGrid.covering(eval_start, stream_end, cfg.bin_seconds)
    return ces_history, EventStream.from_trace(
        window,
        cluster=task.cluster,
        t0=eval_start,
        t1=stream_end,
        bin_seconds=cfg.bin_seconds,
        demand=_scale_demand(
            approx_node_demand(gpu, stream_grid), scale, total_nodes
        ),
    )


def _replay_stream(
    task, gpu, hist_start, eval_start, stream_end
) -> tuple[np.ndarray, EventStream]:
    """Live-replay stream: one fast simulator pass over the shard window.

    The replay covers history + stream window in a single run, so the
    stream's opening cluster state carries the history's queued and
    running jobs.  CES trains on the replay's running-nodes telemetry
    over the history bins (the returned history series); the stream's
    demand samples come from the same telemetry
    (``EventStream.from_replay``), and finish events fall at the
    simulated end times.
    """
    cfg = task.config
    spec = common.cluster_spec(task.cluster)
    window = slice_period(gpu, hist_start, stream_end)
    replay = Simulator(spec, FIFOScheduler()).run(window)

    hist_grid = TimeGrid.covering(hist_start, eval_start, cfg.bin_seconds)
    ces_history = running_nodes_series(replay, hist_grid)

    submit = replay.trace["submit_time"].astype(float)
    idx = np.flatnonzero((submit >= eval_start) & (submit < stream_end))
    idx = idx[np.argsort(submit[idx], kind="stable")]
    if task.max_jobs is not None:
        idx = idx[: task.max_jobs]
    # Window jobs only, but against the full replay's node telemetry
    # (jobs carried over from the history window still occupy nodes).
    return ces_history, EventStream.from_replay(
        replay.restrict(idx),
        cluster=task.cluster,
        bin_seconds=cfg.bin_seconds,
        t0=eval_start,
    )


def _scale_demand(raw: np.ndarray, scale: float, total_nodes: int) -> np.ndarray:
    """Capacity-normalize an as-if-unqueued demand series (whole nodes)."""
    return np.minimum(np.round(raw * scale), float(total_nodes))


def run_shard(task: ShardTask) -> ShardReport:
    """Build and serve one shard to exhaustion (the pool's task unit)."""
    with obs.trace("serve.shard", cluster=task.cluster, source=task.source):
        with obs.trace("serve.build_shard", cluster=task.cluster):
            server, stream = build_shard(task)
        return server.run(stream, speedup=task.speedup)


def serve_clusters(
    clusters: tuple[str, ...] | list[str],
    config: ServeConfig | None = None,
    jobs: int = 1,
    history_days: int = 30,
    stream_days: float = 3.0,
    max_jobs: int | None = None,
    speedup: float | None = None,
    source: str = "trace",
) -> list[ShardReport]:
    """Serve one shard per cluster, fanned out over the fork pool.

    Reports come back in ``clusters`` order.  With ``jobs > 1`` the
    parent warms each cluster's GPU trace before forking, so every
    worker inherits the traces copy-on-write.  ``source="replay"``
    streams each shard from a live simulator replay instead of the
    raw-trace approximation.  Crash recovery, checkpoints and fault
    injection are the router's job:
    :func:`~repro.serve.net.serve_clusters_net` serves the same shards
    with them.
    """
    cfg = config or ServeConfig()
    tasks = [
        ShardTask(
            cluster=c,
            config=cfg,
            history_days=history_days,
            stream_days=stream_days,
            max_jobs=max_jobs,
            speedup=speedup,
            source=source,
        )
        for c in clusters
    ]
    with obs.trace("serve.fanout", clusters=list(clusters), jobs=jobs):
        if jobs > 1:
            for c in clusters:
                common.cluster_gpu_trace(c)
        return run_forked(run_shard, tasks, jobs)
