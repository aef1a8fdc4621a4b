"""The serving loop: framework components behind an event stream.

:class:`PredictionServer` is the paper's §4.1 runtime closed into a
long-running loop.  Requests are routed through the
:class:`~repro.framework.orchestrator.ResourceOrchestrator`:

* **QSSF queue ordering** — each micro-batch of concurrent submits is
  split into per-VC queues and dispatched in one
  ``decide_many("qssf", queues)`` call;
* **job-duration prediction** — optional per-batch predictions from the
  same service (``predict_durations``);
* **CES node control** — every node sample extends the demand series,
  requests an H-bins-ahead forecast (O(1) per bin via maintained prefix
  sums), and steps the shared :class:`~repro.energy.drs.DRSController`
  — the same object the batch :func:`~repro.energy.drs.run_drs` drives,
  so streamed decisions are byte-identical to a batch replay.  The
  serving loop deliberately keeps this *stepwise* controller (bins
  arrive one at a time); it is also the correctness oracle the batched
  sweep engine in :mod:`repro.energy.fast_drs` is parity-tested
  against, so online decisions, batch replays and grid sweeps can never
  disagree.

Between requests the :class:`~repro.framework.engine.ModelUpdateEngine`
hands finished jobs and node samples to the services, which keep what
their refreshes need, and decides when each refreshes; with
``online_updates`` on, the incremental refit path advances models in
place (the forecasters' ``update()``/``extend()`` protocol) while
scratch refits remain the fallback and correctness oracle.  The engine
installs the services in the orchestrator, the one registry.
``online_updates=False`` freezes the models — the mode the online/batch
parity tests run in.

Fault tolerance (two independent planes):

* **Crash recovery** — ``run(..., checkpoint_every=K,
  checkpoint_sink=sink)`` emits a :class:`ShardCheckpoint` every K
  micro-batches: the batch cursor plus the server's attributes (update
  engine with its orchestrator and services, demand series, DRS
  controller, ladder position) and the loop state (counters, decision
  digests), pickled as they are.  A bare server resumed via ``run(...,
  resume=ckpt)`` replays the remaining batches and produces a report
  whose :meth:`ShardReport.parity_dict` is byte-identical to a
  never-failed run — the crash-recovery parity guarantee the chaos
  tests enforce.
* **Graceful degradation** — a *model* failure (a refit or forecast
  raising mid-stream) must not kill the shard.  QSSF failures step a
  one-rung-at-a-time ladder: incremental refits → scratch refits →
  a rolling-only estimator (``lam=1.0``) → FIFO passthrough.  CES
  failures drop node control to always-on (forecast = every node).
  Decisions keep flowing at every rung; every degraded decision is
  counted in ``ShardReport.degraded``.  *Data corruption* (non-finite
  demand, finish-before-submit) is the opposite case: it raises loudly
  rather than degrading, because serving garbage quietly is worse than
  stopping.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..energy.drs import DRSController, DRSParams
from ..energy.forecaster import ForecastFeatures
from ..frame import Table
from ..framework import (
    CESNodeService,
    ModelUpdateEngine,
    PassthroughQueueService,
    QSSFService,
    ResourceOrchestrator,
    UpdatePolicy,
)
from ..ml.gbdt import GBDTParams
from ..obs import collect as obs
from ..obs.metrics import Histogram
from .stream import FINISH, NODE_FAIL, NODE_SAMPLE, SUBMIT, EventStream
from .telemetry import LatencyRecorder, LatencyStats

__all__ = [
    "PredictionServer",
    "ServeConfig",
    "ServingSession",
    "ShardCheckpoint",
    "ShardReport",
    "encode_decisions",
]

#: QSSF degradation ladder rungs (``ShardReport.degraded["qssf_rung"]``).
#: 0 = healthy (as configured), 1 = scratch refits only, 2 = rolling-only
#: estimator (lam=1.0, no GBDT), 3 = FIFO passthrough.
QSSF_LADDER = ("as-configured", "scratch-refits", "rolling-only", "fifo-passthrough")


@dataclass(frozen=True)
class ServeConfig:
    """Serving-loop knobs (model sizes, batching, update policy)."""

    lam: float = 0.5
    qssf_gbdt: GBDTParams | None = None
    #: "incremental" (default): QSSF serving refits continue boosting on
    #: the new jobs only; "scratch": full-history refit (the oracle).
    qssf_refit_mode: str = "incremental"
    horizon_bins: int = 18
    bin_seconds: int = 600
    ces_features: ForecastFeatures | None = None
    ces_gbdt: GBDTParams | None = None
    ces_update_every: int = 36
    batch_window_s: float = 60.0
    predict_durations: bool = False
    online_updates: bool = True
    update_interval_s: float = 7 * 86_400.0
    update_max_buffered: int = 50_000
    record_decisions: bool = False
    #: where refits train: "local", on every shard (the only value).
    #: Kept so ``perfbench/child.py``'s ``ServeConfig(replicate=
    #: args.replicate)`` with ``--replicate local`` still builds.
    replicate: str = "local"

    def __post_init__(self) -> None:
        if self.replicate != "local":
            raise ValueError(f"replicate must be 'local', got {self.replicate!r}")


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard's crash-recovery snapshot.

    ``cursor`` is the index of the next micro-batch to process; ``blob``
    pickles the server's full mutable state (models, engine, controller,
    loop counters, decision digests).  Resuming a fresh server from the
    checkpoint and replaying the remaining batches reproduces the
    never-failed run's :meth:`ShardReport.parity_dict` byte-for-byte.
    """

    cluster: str
    cursor: int
    seq: int
    blob: bytes


@dataclass
class ShardReport:
    """Telemetry + decision digests for one served shard."""

    cluster: str
    events: int
    submits: int
    finishes: int
    node_samples: int
    qssf_batches: int
    qssf_decisions: int
    duration_requests: int
    wall_seconds: float
    events_per_s: float
    qssf_latency: LatencyStats
    ces_latency: LatencyStats
    refits: dict[str, dict[str, int]]
    qssf_digest: str
    ces_digest: str
    ces_summary: dict[str, float] = field(default_factory=dict)
    #: populated only under ``record_decisions`` (parity tests)
    decisions: list[tuple[str, tuple[str, ...]]] | None = None
    #: per-submit-batch decision boundaries ``(bi, decisions_so_far)``,
    #: recorded with ``decisions`` — lets replication parity tests slice
    #: a merged-stream run's decisions by micro-batch
    decision_index: list[tuple[int, int]] | None = None
    ces_active: np.ndarray | None = None
    #: failed attempts the serve-net router retried for this shard (set
    #: by the router, not the server — an in-process shard reports 0)
    retries: int = 0
    #: degradation-ladder telemetry: rung reached + degraded decisions
    degraded: dict[str, int] = field(default_factory=dict)
    #: node down/up event tallies from the stream's ``node_fail`` events
    node_health: dict[str, int] = field(default_factory=dict)
    #: bounded latency histograms behind ``qssf_latency``/``ces_latency``
    #: — mergeable across shards (``aggregate_reports`` computes fleet
    #: p50/p99 over the merged distribution).  Wall-clock plane: excluded
    #: from ``as_dict`` payloads and the parity surface.
    qssf_hist: Histogram | None = None
    ces_hist: Histogram | None = None

    def as_dict(self) -> dict:
        out = {
            "cluster": self.cluster,
            "events": self.events,
            "submits": self.submits,
            "finishes": self.finishes,
            "node_samples": self.node_samples,
            "qssf_batches": self.qssf_batches,
            "qssf_decisions": self.qssf_decisions,
            "duration_requests": self.duration_requests,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_per_s": round(self.events_per_s, 1),
            "qssf_latency": self.qssf_latency.as_dict(),
            "ces_latency": self.ces_latency.as_dict(),
            "refits": self.refits,
            "qssf_digest": self.qssf_digest,
            "ces_digest": self.ces_digest,
            "ces_summary": self.ces_summary,
        }
        # Fault-tolerance fields appear only when something happened, so
        # fault-free payloads (and their goldens) are byte-identical to
        # the pre-chaos schema.
        if self.retries:
            out["retries"] = self.retries
        if self.degraded:
            out["degraded"] = self.degraded
        if self.node_health:
            out["node_health"] = self.node_health
        return out

    def parity_dict(self) -> dict:
        """The deterministic subset of the report: everything except
        wall-clock metrics (latencies, throughput) and router
        retries.  Two runs of the same stream — including a crashed-and-
        resumed one — must agree on this dict exactly."""
        return {
            "cluster": self.cluster,
            "events": self.events,
            "submits": self.submits,
            "finishes": self.finishes,
            "node_samples": self.node_samples,
            "qssf_batches": self.qssf_batches,
            "qssf_decisions": self.qssf_decisions,
            "duration_requests": self.duration_requests,
            "refits": self.refits,
            "qssf_digest": self.qssf_digest,
            "ces_digest": self.ces_digest,
            "ces_summary": self.ces_summary,
            "degraded": self.degraded,
            "node_health": self.node_health,
        }

    def parity_bytes(self) -> bytes:
        """Canonical JSON encoding of :meth:`parity_dict` — the bytes the
        crash-recovery parity tests compare."""
        return json.dumps(
            self.parity_dict(), sort_keys=True, separators=(",", ":")
        ).encode()


class _GrowingSeries:
    """Append-only float series with maintained prefix sums.

    ``c1``/``c2`` mirror ``np.cumsum(np.insert(s, 0, 0.0))`` (and the
    squared variant) by sequential addition, so feature rows built from
    them are bit-identical to the batch path's — while appends stay
    amortized O(1) and a per-bin forecast O(row) instead of O(history).
    """

    def __init__(self, initial: np.ndarray | None = None, capacity: int = 1024) -> None:
        n0 = 0 if initial is None else len(initial)
        cap = max(capacity, 2 * n0 + 1)
        self._values = np.empty(cap)
        self._c1 = np.zeros(cap + 1)
        self._c2 = np.zeros(cap + 1)
        self.n = 0
        if initial is not None:
            for x in np.asarray(initial, dtype=float):
                self.append(float(x))

    def _grow(self) -> None:
        cap = 2 * len(self._values)
        new_values = np.empty(cap)
        new_values[: self.n] = self._values[: self.n]
        new_c1 = np.zeros(cap + 1)
        new_c1[: self.n + 1] = self._c1[: self.n + 1]
        new_c2 = np.zeros(cap + 1)
        new_c2[: self.n + 1] = self._c2[: self.n + 1]
        self._values, self._c1, self._c2 = new_values, new_c1, new_c2

    def append(self, x: float) -> int:
        """Append one value; returns its index."""
        if self.n == len(self._values):
            self._grow()
        i = self.n
        self._values[i] = x
        self._c1[i + 1] = self._c1[i] + x
        self._c2[i + 1] = self._c2[i] + x * x
        self.n = i + 1
        return i

    @property
    def values(self) -> np.ndarray:
        return self._values[: self.n]

    @property
    def cumsums(self) -> tuple[np.ndarray, np.ndarray]:
        return self._c1[: self.n + 1], self._c2[: self.n + 1]


def encode_decisions(ordered: list[tuple[str, tuple[str, ...]]]) -> bytes:
    """Canonical byte encoding of one submit batch's queue decisions.

    Batch-boundary free (each ``(vc, ids)`` entry is self-delimiting), so
    the digest over a stream equals the digest over any re-batching of
    the same decisions — the property the replication parity tests use to
    compare a replica's digest against a slice of the merged run's.
    """
    out = bytearray()
    for vc, ids in ordered:
        out += vc.encode()
        out += b"\x1f".join(i.encode() for i in ids)
        out += b"\x00"
    return bytes(out)


def _fresh_loop_state() -> dict[str, Any]:
    return {
        "cursor": 0,
        "counts": {SUBMIT: 0, FINISH: 0, NODE_SAMPLE: 0, NODE_FAIL: 0},
        "qssf_batches": 0,
        "duration_requests": 0,
        "qssf_bytes": bytearray(),
        "decisions": [],
        "decision_index": [],
        "node_down": 0,
        "node_up": 0,
        "down_now": 0,
        "max_down": 0,
        "ckpt_seq": 0,
    }


class PredictionServer:
    """One shard's serving runtime: update engine + orchestrator + loop.

    The engine installs the services in its orchestrator, which
    :attr:`orchestrator` names; a bare server (no ``install_*`` call
    yet) is what a checkpoint restores into.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.engine = ModelUpdateEngine(
            UpdatePolicy(
                interval_seconds=self.config.update_interval_s,
                max_buffered=self.config.update_max_buffered,
            ),
        )
        self._ces_series: _GrowingSeries | None = None
        self._ces_controller: DRSController | None = None
        self._vc_decisions = 0
        #: degradation ladder position (index into :data:`QSSF_LADDER`)
        self._qssf_rung = 0
        self._ces_degraded = False
        #: degradation telemetry, copied into the shard report
        self.degraded: dict[str, int] = {}

    @property
    def orchestrator(self) -> ResourceOrchestrator:
        """The registry every decision is dispatched through."""
        return self.engine.orchestrator

    # -- installation --------------------------------------------------

    def install_qssf(self, history: Table) -> QSSFService:
        """Fit QSSF on ``history`` and register it for serving.

        With ``qssf_refit_mode="incremental"`` (default) engine
        refreshes continue boosting the fitted GBDT on the newly
        finished jobs; in ``"scratch"`` mode (the oracle) each refresh
        rebuilds the model on ``history`` + every finished job observed
        since, so a long-running server never forgets its training
        window either way.
        """
        cfg = self.config
        service = QSSFService(
            lam=cfg.lam,
            gbdt_params=cfg.qssf_gbdt,
            refit_mode=cfg.qssf_refit_mode,
        ).fit(history)
        self.engine.register(service, prefitted=True)
        return service

    def install_ces(self, demand_history: np.ndarray, total_nodes: int, *,
                    fit: bool = True) -> CESNodeService:
        """Fit the node-demand forecaster and arm the DRS controller.

        ``demand_history`` is the training window of the demand series;
        streamed node samples continue it (index ``len(history) + k``,
        calendar t0 pinned at the history start).

        ``fit=False`` is for a shard that no node sample reaches (a
        replica other than 0): the service is registered unfitted, so
        the shard's report lists it as its siblings' do, and nothing is
        armed; a node sample would fail as if CES were not installed.
        """
        cfg = self.config
        service = CESNodeService(
            horizon_bins=cfg.horizon_bins,
            update_every=cfg.ces_update_every,
            features=cfg.ces_features,
            gbdt_params=cfg.ces_gbdt,
        )
        if not fit:
            self.engine.register(service)
            return service
        history = np.asarray(demand_history, dtype=float)
        service.fit(history)
        self.engine.register(service, prefitted=True)
        self._ces_series = _GrowingSeries(history)
        self._ces_controller = DRSController(
            total_nodes, DRSParams.scaled(total_nodes, cfg.bin_seconds)
        )
        return service

    # -- checkpoint / restore ------------------------------------------

    def _snapshot(self, stream: EventStream, state: dict) -> ShardCheckpoint:
        """Pickle the server's attributes and the loop state as they are.

        Every attribute is serving state, so a new one is checkpointed
        without being listed anywhere.  A GBDT pickles whole, with its
        continuation buffers, so a restored shard's models continue
        incremental boosting exactly where the checkpointed ones stood.
        Wall-clock telemetry (latency recorders) lives on the session
        and is deliberately *not* checkpointed — it is excluded from the
        parity surface.
        """
        blob = pickle.dumps((self.__dict__, state))
        return ShardCheckpoint(
            cluster=stream.cluster,
            cursor=state["cursor"],
            seq=state["ckpt_seq"],
            blob=blob,
        )

    def _restore(self, checkpoint: ShardCheckpoint) -> dict:
        """Replace this server's state with a checkpoint's; returns the
        loop state to resume from."""
        attrs, state = pickle.loads(checkpoint.blob)
        self.__dict__.update(attrs)
        return state

    # -- graceful degradation ------------------------------------------

    def _degrade_qssf(self) -> None:
        """Step the QSSF ladder exactly one rung (jump to passthrough if
        even the fallback install fails)."""
        rung = min(self._qssf_rung + 1, len(QSSF_LADDER) - 1)
        try:
            if rung == 1:
                # Incremental refits implicated: scratch refits only.
                self.orchestrator.service("qssf").refit_mode = "scratch"
            elif rung == 2:
                # Model refits implicated: rolling-only estimator (lam=1
                # never consults the GBDT), scratch-fit on the original
                # training window; its scratch refits train on the same
                # rows the old service's would have.
                old = self.orchestrator.service("qssf")
                svc = QSSFService(lam=1.0, refit_mode="scratch").fit(old.history)
                svc.observed = old.observed
                self.engine.swap("qssf", svc)
            else:
                rung = len(QSSF_LADDER) - 1
                self.engine.swap("qssf", PassthroughQueueService())
        except Exception:
            rung = len(QSSF_LADDER) - 1
            self.engine.swap("qssf", PassthroughQueueService())
        self._qssf_rung = rung
        self.degraded["qssf_rung"] = rung
        obs.counter_add("serve.degrade.qssf_transitions")

    def _degrade_ces(self) -> None:
        """Drop CES node control to always-on (forecast = every node)."""
        self._ces_degraded = True
        self.degraded["ces_rung"] = 1
        obs.counter_add("serve.degrade.ces_transitions")

    def _count_degraded(self, key: str, n: int = 1) -> None:
        self.degraded[key] = self.degraded.get(key, 0) + n

    # -- the loop ------------------------------------------------------

    def run(
        self,
        stream: EventStream,
        speedup: float | None = None,
        window_s: float | None = None,
        *,
        checkpoint_every: int | None = None,
        checkpoint_sink: Callable[[ShardCheckpoint], None] | None = None,
        resume: ShardCheckpoint | None = None,
    ) -> ShardReport:
        """Serve one stream to exhaustion; returns the shard report.

        ``speedup`` paces the stream against the wall clock (``None`` =
        as fast as possible); ``window_s`` overrides the configured
        micro-batch window.  ``checkpoint_every=K`` (with a
        ``checkpoint_sink``) emits a :class:`ShardCheckpoint` every K
        micro-batches; ``resume`` restores one, skipping every batch
        before its cursor.

        ``run`` is a thin wrapper over :class:`ServingSession`: it owns
        the stream iteration and nothing else, so a caller that receives
        batches from elsewhere (the serve-net socket worker) drives the
        identical loop by pushing into a session directly.
        """
        window = self.config.batch_window_s if window_s is None else window_s
        session = ServingSession(
            self,
            stream,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume=resume,
        )
        for bi, batch in enumerate(stream.play(window, speedup)):
            if bi < session.cursor:
                continue  # replayed prefix already served pre-crash
            session.process(bi, batch)
        return session.finish()

    def _publish_obs(self, state: dict, report: ShardReport,
                     qssf_lat: LatencyRecorder, ces_lat: LatencyRecorder) -> None:
        """Publish this run's metrics into the global obs recorder.

        Counters are derived from the *checkpointed* loop state and the
        final report — the same numbers the crash-recovery parity
        guarantee covers — and published exactly once, at the end of a
        completed run.  A SIGKILLed attempt publishes nothing (its
        recorder dies with it) and the resumed attempt publishes the
        full totals, so spans/metrics survive checkpoint-resume without
        double-counting replayed batches, and a router worker and the
        router's in-process passthrough report identical totals by
        construction.
        """
        c = report.cluster
        counts = state["counts"]
        obs.counter_add("serve.batches", state["cursor"])
        obs.counter_add("serve.events.submit", counts[SUBMIT])
        obs.counter_add("serve.events.finish", counts[FINISH])
        obs.counter_add("serve.events.node_sample", counts[NODE_SAMPLE])
        obs.counter_add("serve.events.node_fail", counts[NODE_FAIL])
        obs.counter_add("serve.qssf.batches", state["qssf_batches"])
        obs.counter_add("serve.qssf.decisions", self._vc_decisions)
        obs.counter_add("serve.duration_requests", state["duration_requests"])
        obs.counter_add("serve.checkpoints", state["ckpt_seq"])
        for service, counters in report.refits.items():
            for key, n in counters.items():
                obs.counter_add(f"serve.refits.{service}.{key}", n)
        for key, n in self.degraded.items():
            if key.endswith("_rung"):
                obs.gauge_set(f"serve.degraded.{key}[{c}]", n)
            else:
                obs.counter_add(f"serve.degraded.{key}", n)
        for key, n in report.node_health.items():
            if key == "max_down":
                obs.gauge_set(f"serve.node.max_down[{c}]", n)
            else:
                obs.counter_add(f"serve.node.{key}", n)
        obs.gauge_set(f"serve.events_per_s[{c}]", round(report.events_per_s, 1))
        obs.merge_histogram("serve.qssf.decide_s", qssf_lat.hist)
        obs.merge_histogram("serve.ces.step_s", ces_lat.hist)

    # -- request routes ------------------------------------------------

    def _order_queues(self, queue: Table) -> list[tuple[str, tuple[str, ...]]]:
        """Split a submit micro-batch into per-VC queues and dispatch one
        ``decide_many`` round; returns (vc, ordered job ids) per queue."""
        vcs = queue["vc"]
        groups: dict[str, list[int]] = {}
        for i, vc in enumerate(vcs):
            groups.setdefault(str(vc), []).append(i)
        states = [queue.take(np.asarray(idx)) for idx in groups.values()]
        ordered = self.orchestrator.decide_many("qssf", states)
        self._vc_decisions += len(states)
        return [
            (vc, tuple(str(j) for j in table["job_id"]))
            for vc, table in zip(groups, ordered)
        ]

    def _order_with_fallback(self, queue: Table) -> list[tuple[str, tuple[str, ...]]]:
        """Order a submit batch, stepping the degradation ladder on each
        failure; decisions never stop flowing."""
        for _ in range(len(QSSF_LADDER)):
            try:
                return self._order_queues(queue)
            except Exception:
                self._count_degraded("qssf_failures")
                self._degrade_qssf()
        return self._passthrough_order(queue)

    def _passthrough_order(self, queue: Table) -> list[tuple[str, tuple[str, ...]]]:
        """Last-resort FIFO ordering without touching any service."""
        vcs = queue["vc"]
        ids = queue["job_id"]
        groups: dict[str, list[str]] = {}
        for vc, jid in zip(vcs, ids):
            groups.setdefault(str(vc), []).append(str(jid))
        self._vc_decisions += len(groups)
        return [(vc, tuple(jids)) for vc, jids in groups.items()]

    def _predict_durations(self, queue: Table) -> np.ndarray:
        """The duration-prediction route (expected GPU time per job)."""
        return self.orchestrator.service("qssf").predict(queue)

    def _serve_node_samples(self, stream, batch, ces_lat: LatencyRecorder) -> None:
        series = self._ces_series
        controller = self._ces_controller
        if series is None or controller is None:
            raise RuntimeError("node samples in stream but CES not installed")
        assert stream.demand is not None
        arrivals = stream.arrivals
        always_on = float(controller.total_nodes)
        for ref in batch.refs:
            b = int(ref)
            value = float(stream.demand[b])
            if not np.isfinite(value):
                # Corruption, not failure: serving a poisoned series
                # quietly would silently wreck every downstream decision.
                raise ValueError(
                    f"corrupt node-demand sample at bin {b}: {value!r}"
                )
            arr = float(arrivals[b]) if arrivals is not None else 0.0
            t0 = time.perf_counter()
            i = series.append(value)
            if self._ces_degraded:
                fc = always_on
                self._count_degraded("ces_steps")
            else:
                try:
                    fc = float(
                        self.orchestrator.service("ces").forecaster.predict_at(
                            series.values, np.array([i]), cumsums=series.cumsums
                        )[0]
                    )
                except Exception:
                    self._degrade_ces()
                    fc = always_on
                    self._count_degraded("ces_steps")
            controller.step(value, fc, arr)
            ces_lat.record(time.perf_counter() - t0)
            if self.config.online_updates and not self._ces_degraded:
                try:
                    self.engine.observe("ces", value, now=float(batch.time))
                except Exception:
                    self._count_degraded("refit_failures")
                    self._degrade_ces()


class ServingSession:
    """Push-driven serving loop state: feed micro-batches one at a time.

    Owns everything :meth:`PredictionServer.run` used to keep as locals
    — the loop-state dict, latency recorders, phase-timing buffers and
    checkpoint cadence — so a caller that *receives* batches (the
    serve-net socket worker, fed frame-by-frame by the router, and the
    router's own in-process passthrough) drives the exact loop ``run``
    drives when it owns the stream.  ``run`` is the wrapper: construct
    a session, push every batch from ``stream.play``, call
    :meth:`finish` — so every parity guarantee (crash recovery,
    degradation telemetry, obs totals) holds for every entry point by
    construction.

    :meth:`process` is idempotent under re-delivery: a batch index below
    the session cursor (a network duplicate, or the replayed prefix of a
    resumed stream) is skipped without side effects — the property the
    router's retry/rewind protocol relies on.  The report counts the
    events the session served, so a session fed a replica's slice or a
    client's prefix of the stream reports just those.
    """

    def __init__(
        self,
        server: PredictionServer,
        stream: EventStream,
        *,
        checkpoint_every: int | None = None,
        checkpoint_sink: Callable[[ShardCheckpoint], None] | None = None,
        resume: ShardCheckpoint | None = None,
    ) -> None:
        self.server = server
        self.stream = stream
        self._checkpoint_every = checkpoint_every
        self._checkpoint_sink = checkpoint_sink
        self._resumed = resume is not None
        if resume is not None:
            if resume.cluster != stream.cluster:
                raise ValueError(
                    f"checkpoint is for shard {resume.cluster!r}, "
                    f"stream is {stream.cluster!r}"
                )
            self.state = server._restore(resume)
        else:
            self.state = _fresh_loop_state()
            if len(stream):
                server.engine.reset_clock(float(stream.times[0]))
        self._qssf_lat = LatencyRecorder()
        self._ces_lat = LatencyRecorder()
        self._jobs_table = stream.jobs

        # One hoisted enabled-check: the per-batch cost of disabled obs
        # is the two ``phase_hists is not None`` branches below.  Phase
        # timings buffer into small per-kind lists and flush through the
        # vectorized ``record_many`` — a scalar ``Histogram.record`` per
        # batch would alone eat most of the 2% overhead budget.
        self._phase_hists = None
        if obs.is_enabled():
            self._phase_hists = {
                SUBMIT: obs.histogram("serve.phase.submit_s"),
                FINISH: obs.histogram("serve.phase.finish_s"),
                NODE_SAMPLE: obs.histogram("serve.phase.node_sample_s"),
                NODE_FAIL: obs.histogram("serve.phase.node_fail_s"),
            }
            self._phase_buf: dict[int, list[float]] = {
                k: [] for k in self._phase_hists
            }
            self._phase_pending = 0
        self._span_t0 = obs.wall_now()
        self._t_start = time.perf_counter()

    @property
    def cursor(self) -> int:
        """Index of the next micro-batch this session expects."""
        return self.state["cursor"]

    def process(self, bi: int, batch) -> bool:
        """Serve one micro-batch; returns False for an already-served
        index (replayed prefix or network duplicate), True otherwise.
        ``bi`` must equal the cursor when it is not a duplicate —
        serving out of order would corrupt the decision digests."""
        state = self.state
        if bi < state["cursor"]:
            return False
        if bi > state["cursor"]:
            raise ValueError(
                f"batch {bi} out of order: session cursor is {state['cursor']}"
            )
        server = self.server
        cfg = server.config
        if self._phase_hists is not None:
            t_batch = time.perf_counter()
        state["counts"][batch.kind] += len(batch)
        if batch.kind == SUBMIT:
            state["qssf_batches"] += 1
            queue = self._jobs_table.take(batch.refs)
            t0 = time.perf_counter()
            ordered = server._order_with_fallback(queue)
            self._qssf_lat.record(time.perf_counter() - t0)
            if server._qssf_rung:
                server._count_degraded("qssf_decisions", len(ordered))
            if cfg.predict_durations:
                try:
                    server._predict_durations(queue)
                    state["duration_requests"] += len(batch)
                except Exception:
                    server._count_degraded("duration_failures")
                    server._degrade_qssf()
            state["qssf_bytes"] += encode_decisions(ordered)
            if cfg.record_decisions:
                state["decisions"].extend(ordered)
                state["decision_index"].append((bi, len(state["decisions"])))
        elif batch.kind == FINISH:
            if cfg.online_updates:
                for ref in batch.refs:
                    try:
                        server.engine.observe(
                            "qssf", self._jobs_table.row(int(ref)), now=batch.time
                        )
                    except Exception:
                        # A failed refit leaves the engine's pending
                        # count and the service's rows intact; step the
                        # ladder one rung and let the next observation
                        # retry at it.
                        server._count_degraded("refit_failures")
                        server._degrade_qssf()
        elif batch.kind == NODE_FAIL:
            assert self.stream.node_events is not None
            ups = self.stream.node_events["up"]
            for ref in batch.refs:
                if int(ups[int(ref)]):
                    state["node_up"] += 1
                    state["down_now"] -= 1
                else:
                    state["node_down"] += 1
                    state["down_now"] += 1
                    state["max_down"] = max(state["max_down"], state["down_now"])
        else:  # NODE_SAMPLE
            server._serve_node_samples(self.stream, batch, self._ces_lat)
        state["cursor"] = bi + 1
        if self._phase_hists is not None:
            self._phase_buf[batch.kind].append(time.perf_counter() - t_batch)
            self._phase_pending += 1
            if self._phase_pending >= 1024:  # bounded buffer, batched flush
                self._flush_phases()
        if (
            self._checkpoint_every
            and self._checkpoint_sink is not None
            and (bi + 1) % self._checkpoint_every == 0
        ):
            t_ckpt = time.perf_counter()
            self._checkpoint_sink(self.checkpoint())
            if self._phase_hists is not None:
                obs.histogram("serve.checkpoint_s").record(
                    time.perf_counter() - t_ckpt
                )
        return True

    def checkpoint(self) -> ShardCheckpoint:
        """Snapshot the session now (the cadence in :meth:`process` uses
        this too; callers may also force one, e.g. before a handoff)."""
        self.state["ckpt_seq"] += 1
        return self.server._snapshot(self.stream, self.state)

    def _flush_phases(self) -> None:
        for kind, pending in self._phase_buf.items():
            if pending:
                self._phase_hists[kind].record_many(pending)
                pending.clear()
        self._phase_pending = 0

    def finish(self) -> ShardReport:
        """Close the session and build the shard report (plus the one-
        shot obs publication a completed run makes)."""
        server = self.server
        state = self.state
        wall = time.perf_counter() - self._t_start
        if self._phase_hists is not None:
            self._flush_phases()

        counts = state["counts"]
        events = sum(counts.values())
        refits = {
            name: {
                "refits": server.engine.refit_count(name),
                "incremental": server.engine.incremental_refit_count(name),
            }
            for name in server.engine.services
        }
        ces_digest = hashlib.sha256()
        ces_summary: dict[str, float] = {}
        ces_active = None
        if server._ces_controller is not None and server._ces_controller.steps:
            outcome = server._ces_controller.outcome()
            ces_digest.update(outcome.active.tobytes())
            ces_digest.update(
                f"{outcome.wake_events}:{outcome.nodes_woken}:{outcome.affected_jobs}".encode()
            )
            ces_svc = server.orchestrator.service("ces")
            ces_summary = {
                "wake_events": outcome.wake_events,
                "avg_active": round(float(outcome.active.mean()), 3),
                "avg_parked": round(outcome.avg_parked_nodes, 3),
                "affected_jobs": outcome.affected_jobs,
                # incremental extends driven by observe() between refits
                "forecaster_updates": getattr(ces_svc, "updates_applied", 0),
            }
            ces_active = outcome.active
        node_health: dict[str, int] = {}
        if state["node_down"] or state["node_up"]:
            node_health = {
                "node_down": state["node_down"],
                "node_up": state["node_up"],
                "max_down": state["max_down"],
            }
        report = ShardReport(
            cluster=self.stream.cluster,
            events=events,
            submits=counts[SUBMIT],
            finishes=counts[FINISH],
            node_samples=counts[NODE_SAMPLE],
            qssf_batches=state["qssf_batches"],
            qssf_decisions=server._vc_decisions,
            duration_requests=state["duration_requests"],
            wall_seconds=wall,
            events_per_s=events / wall if wall > 0 else 0.0,
            qssf_latency=self._qssf_lat.stats(),
            ces_latency=self._ces_lat.stats(),
            refits=refits,
            qssf_digest=hashlib.sha256(bytes(state["qssf_bytes"])).hexdigest(),
            ces_digest=ces_digest.hexdigest(),
            ces_summary=ces_summary,
            decisions=(
                list(state["decisions"]) if server.config.record_decisions else None
            ),
            decision_index=(
                list(state["decision_index"])
                if server.config.record_decisions else None
            ),
            ces_active=ces_active,
            degraded=dict(server.degraded),
            node_health=node_health,
            qssf_hist=self._qssf_lat.hist,
            ces_hist=self._ces_lat.hist,
        )
        if self._phase_hists is not None:
            server._publish_obs(state, report, self._qssf_lat, self._ces_lat)
            obs.record_span(
                "serve.run", self._span_t0, obs.wall_now(),
                cluster=self.stream.cluster, events=events,
                resumed=self._resumed,
            )
        return report
