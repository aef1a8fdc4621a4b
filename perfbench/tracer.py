"""Per-layer tracing for the benchmark's traced pass.

:func:`install` wraps each layer's public entry points from outside the
program (no file under ``src/`` knows about it).  Every call becomes a
span ``(name, start, end, self time, depth)``; a span's self time is its
duration minus the time its child spans cover.  Counters (rows
predicted, bytes checkpointed, ...) are recorded at the same
boundaries.  Spans stay in memory and are written out when the process
ends: the traced pass's own process at exit, and each forked serve-net
worker when its ``worker_main`` returns.  Wrappers are installed before
the router forks, so the workers inherit them; an ``at_fork`` hook gives
each child empty span buffers.

Layers are named after the repo's modules (``ml.gbdt``, ``energy.drs``,
``serve.net``, ...); :func:`layer_metrics` maps spans and counters to
the benchmark's ``per_layer`` metric names.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
import weakref
from pathlib import Path

clock = time.monotonic


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (name, start, end, self seconds, depth)
        self.spans: list[tuple[str, float, float, float, int]] = []
        self.stack: list[list[float]] = []
        self.counts: dict[str, float] = {}
        self.maxes: dict[str, float] = {}

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.maxes[name] = max(self.maxes.get(name, value), value)

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as a span; ``name`` is a string or a function
        of the call's arguments; ``after(tracer, args, result)`` records
        counters once the call returns."""
        spans_of = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            stack = spans_of.stack
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans_of.spans.append((span, t0, t1, t1 - t0 - children[0], len(stack)))
            if after is not None:
                after(spans_of, args, result)
            return result

        return traced

    def dump(self, out_dir: Path) -> None:
        """Write this process's spans and counters to ``out_dir``."""
        path = Path(out_dir) / f"spans-{self.pid}.json"
        path.write_text(json.dumps({
            "pid": self.pid, "spans": self.spans,
            "counts": self.counts, "maxes": self.maxes,
        }))


# ----------------------------------------------------------------------
# What each layer records
# ----------------------------------------------------------------------


def _after_predict(t: Tracer, args, result) -> None:
    model = args[0]
    n_trees = args[2] if len(args) > 2 and args[2] is not None else (
        model.best_iteration_ + 1 if model.best_iteration_ is not None
        else len(model.trees_)
    )
    rows = len(result)
    t.add("ml.gbdt.predict_calls")
    t.add("ml.gbdt.predict_rows", rows)
    t.add("ml.gbdt.predict_tree_rows", rows * min(n_trees, len(model.trees_)))


def _after_checkpoint(t: Tracer, args, result) -> None:
    t.add("serve.checkpoints")
    t.add("serve.checkpoint_bytes", len(result.blob))
    t.peak("serve.checkpoint_bytes_max", len(result.blob))


def _after_pack(t: Tracer, args, result) -> None:
    t.add("serve.net.frames")
    t.add("serve.net.frame_bytes", len(result))


def _count(counter: str, size=None):
    def after(t: Tracer, args, result) -> None:
        t.add(counter, 1 if size is None else size(args, result))
    return after


def _process_span(args) -> str:
    from repro.serve.stream import FINISH, NODE_SAMPLE, SUBMIT

    kind = args[2].kind
    return {SUBMIT: "serve.submit", FINISH: "serve.finish",
            NODE_SAMPLE: "serve.node_sample"}.get(kind, "serve.node_fail")


#: (module, class or None, attribute, span name, counter hook)
_METHODS = (
    ("repro.ml.gbdt", "GBDTRegressor", "predict", "ml.gbdt.predict", _after_predict),
    ("repro.ml.gbdt", "GBDTRegressor", "fit", "ml.gbdt.fit",
     _count("ml.gbdt.fit_rows", lambda a, r: len(a[1]))),
    ("repro.ml.gbdt", "GBDTRegressor", "fit_more", "ml.gbdt.fit_more",
     _count("ml.gbdt.fit_more_calls")),
    ("repro.ml.tree", "Binner", "transform", "ml.tree.bin",
     _count("ml.tree.bin_rows", lambda a, r: len(r))),
    ("repro.ml.text", "NameBucketizer", "fit", "ml.text.bucket", None),
    ("repro.ml.text", "NameBucketizer", "transform", "ml.text.bucket", None),
    ("repro.sched.estimators", "RollingEstimator", "estimate_many", "sched.rolling", None),
    ("repro.sched.estimators", "MLEstimator", "estimate_many", "sched.ml_estimate", None),
    # QSSFService.fit is a one-line delegation to this constructor, which
    # the runner's replays call directly.
    ("repro.sched.qssf", "QSSFScheduler", "__init__", "sched.qssf_fit", None),
    ("repro.framework.orchestrator", "ResourceOrchestrator", "decide_many",
     "framework.decide", None),
    ("repro.framework.engine", "ModelUpdateEngine", "refit", "framework.refit",
     _count("framework.refits", lambda a, r: r is not None)),
    ("repro.framework.engine", "ModelUpdateEngine", "observe", "framework.observe", None),
    ("repro.energy.forecaster", "NodeDemandForecaster", "fit",
     "energy.forecaster.fit", None),
    ("repro.energy.forecaster", "NodeDemandForecaster", "extend",
     "energy.forecaster.extend", _count("energy.forecaster.extends")),
    ("repro.energy.forecaster", "NodeDemandForecaster", "predict_at",
     "energy.forecaster.predict_at", None),
    ("repro.energy.forecaster", "ForecastFeatures", "build_at",
     "energy.forecaster.build_at", None),
    ("repro.energy.drs", "DRSController", "step", "energy.drs.step",
     _count("energy.drs.steps")),
    ("repro.traces.synth", "HeliosTraceGenerator", "generate_cluster",
     "traces.generate", None),
    ("repro.traces.philly", "PhillyTraceGenerator", "generate", "traces.generate", None),
    ("repro.sim.engine", "Simulator", "run", "sim.run",
     _count("sim.jobs", lambda a, r: len(a[1]))),
    ("repro.serve.server", "ServingSession", "process", _process_span, None),
    ("repro.serve.server", "ServingSession", "checkpoint", "serve.checkpoint",
     _after_checkpoint),
    ("repro.serve.net.router", "Router", "step", "serve.net.router_step", None),
    ("repro.serve.net.router", "Router", "drive", "serve.net.drive", None),
    # run_drs_grid and the CES sweep both go through this batched walk.
    ("repro.energy.fast_drs", None, "run_drs_batch", "energy.fast_drs.grid", None),
    ("repro.serve.runtime", None, "build_shard", "serve.build_shard", None),
    ("repro.serve.net.framing", None, "pack", "serve.net.encode", _after_pack),
    ("repro.serve.net.framing", None, "unpack", "serve.net.decode", None),
)

def _rebind(orig, new) -> None:
    """Point every ``repro`` module's binding of ``orig`` at ``new``
    (callers import functions by name)."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


class _SendWaits:
    """``serve.net.send_wait_s``: for each frame, the time from
    ``FramedConn.send`` queueing it to ``pump`` handing its last byte to
    the kernel.  Frames leave a connection in order, so a frame has left
    once the bytes drained reach the end offset it was queued at."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: conn -> [bytes queued, bytes drained, [(end offset, queued at)]]
        self.conns: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _state(self, conn) -> list:
        return self.conns.setdefault(conn, [0, 0, []])

    def _settle(self, state: list) -> None:
        now = clock()
        pending = state[2]
        while pending and pending[0][0] <= state[1]:
            self.tracer.add("serve.net.send_wait_s", now - pending.pop(0)[1])

    def install(self, conn_cls) -> None:
        send, pump = conn_cls.send, conn_cls.pump

        def traced_pump(conn):
            state = self._state(conn)
            before = len(conn._out)
            pump(conn)
            state[1] += max(before - len(conn._out), 0)
            self._settle(state)

        def traced_send(conn, msg, fmt="pickle"):
            state = self._state(conn)
            before, drained = len(conn._out), state[1]
            queued_at = clock()
            send(conn, msg, fmt)
            state[0] += len(conn._out) - before + state[1] - drained
            state[2].append((state[0], queued_at))
            self._settle(state)

        conn_cls.pump = functools.wraps(pump)(traced_pump)
        conn_cls.send = functools.wraps(send)(traced_send)


def install(out_dir: Path) -> Tracer:
    """Wrap every layer entry point; returns this process's tracer.

    Forked serve-net workers write their spans to ``out_dir`` when
    ``worker_main`` returns; the caller dumps its own with
    :meth:`Tracer.dump` and merges them with :func:`collect`.
    """
    tracer = Tracer()
    for mod_name in ("repro.serve.net", "repro.experiments.registry"):
        importlib.import_module(mod_name)
    for mod_name, cls_name, attr, span, after in _METHODS:
        owner = importlib.import_module(mod_name)
        if cls_name is None:
            orig = getattr(owner, attr)
            _rebind(orig, tracer.wrap(orig, span, after))
        else:
            cls = getattr(owner, cls_name)
            setattr(cls, attr, tracer.wrap(vars(cls)[attr], span, after))

    from repro.experiments import registry

    for exp_id, spec in list(registry.SPECS.items()):
        registry.SPECS[exp_id] = dataclasses.replace(
            spec, fn=tracer.wrap(spec.fn, f"experiments.{exp_id}")
        )

    from repro.serve.net import framing, worker

    _SendWaits(tracer).install(framing.FramedConn)
    worker_main = worker.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump(out_dir)

    _rebind(worker_main, traced_worker_main)
    return tracer


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def collect(out_dir: Path) -> list[dict]:
    """Every process's dumped spans and counters."""
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


def covered_seconds(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def unattributed_pct(wall_s: float, covered_s: float) -> float:
    """Share of a pass's wall time that no layer's self time covers."""
    return 100.0 * (wall_s - covered_s) / wall_s


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(records: list[dict]) -> dict:
    """Merge process records into per-span self/inclusive time and call
    counts, counters, maxima, serve latency samples and the wall time
    any top-level span covers."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    maxes: dict[str, float] = {}
    latency: dict[str, list[float]] = {"serve.submit": [], "serve.node_sample": []}
    top = []
    for rec in records:
        for name, t0, t1, self_s, depth in rec["spans"]:
            row = spans.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
            row["self_s"] += self_s
            row["incl_s"] += t1 - t0
            row["calls"] += 1
            if name in latency:
                latency[name].append(t1 - t0)
            if depth == 0:
                top.append((t0, t1))
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, v in rec["maxes"].items():
            maxes[name] = max(maxes.get(name, v), v)
    return {
        "spans": spans, "counts": counts, "maxes": maxes,
        "latency": latency, "covered_s": covered_seconds(top),
    }


#: per_layer metric -> (kind, source); kinds: "self" span self seconds,
#: "count" counter, "max" counter maximum
_SELF = (
    "ml.gbdt.predict", "ml.tree.bin", "ml.gbdt.fit", "ml.gbdt.fit_more",
    "ml.text.bucket", "sched.rolling", "sched.ml_estimate", "sched.qssf_fit",
    "framework.decide", "framework.refit", "framework.observe",
    "energy.forecaster.fit", "energy.forecaster.extend",
    "energy.forecaster.predict_at", "energy.forecaster.build_at",
    "energy.drs.step", "energy.fast_drs.grid", "traces.generate", "sim.run",
    "serve.build_shard", "serve.submit", "serve.finish", "serve.node_sample",
    "serve.checkpoint", "serve.net.encode", "serve.net.decode",
    "experiments.fig11", "experiments.ces_sweep",
)
_COUNTS = (
    "ml.gbdt.predict_calls", "ml.gbdt.predict_rows", "ml.gbdt.predict_tree_rows",
    "ml.tree.bin_rows", "ml.gbdt.fit_rows", "ml.gbdt.fit_more_calls",
    "framework.refits", "energy.forecaster.extends", "energy.drs.steps",
    "sim.jobs", "serve.checkpoints", "serve.checkpoint_bytes",
    "serve.net.frames", "serve.net.frame_bytes",
)


def layer_metrics(summary: dict, net: dict | None = None) -> dict[str, tuple[float, str]]:
    """``per_layer`` metric name -> (value, unit) from a summary and,
    for serve-net runs, the router's ``NetStats`` totals."""
    spans, counts = summary["spans"], summary["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name in _SELF:
        out[f"{name}_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in _COUNTS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = (counts.get(name, 0), unit)
    out["serve.checkpoint_bytes_max"] = (
        summary["maxes"].get("serve.checkpoint_bytes_max", 0), "bytes"
    )
    out["serve.net.send_wait_s"] = (counts.get("serve.net.send_wait_s", 0.0), "s")
    busy = spans.get("serve.net.router_step", {}).get("incl_s", 0.0)
    drive = spans.get("serve.net.drive", {}).get("incl_s", 0.0)
    out["serve.net.router_busy_s"] = (busy, "s")
    out["serve.net.router_idle_s"] = (drive - busy, "s")
    net = net or {}
    out["serve.net.retries"] = (net.get("retries", 0), "count")
    out["serve.net.max_queue_depth"] = (net.get("max_queue_depth", 0), "count")
    for span, metric in (("serve.submit", "serve.qssf_decide"),
                         ("serve.node_sample", "serve.ces_step")):
        samples = summary["latency"][span]
        out[f"{metric}_p50_ms"] = (percentile(samples, 50) * 1e3, "ms")
        out[f"{metric}_p99_ms"] = (percentile(samples, 99) * 1e3, "ms")
    return out
