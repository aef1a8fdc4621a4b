"""The process-global recorder and cross-process aggregation.

One :class:`ObsRecorder` per process (module global ``RECORDER``),
disabled by default: every recording entry point checks one flag and
returns, so instrumented call sites cost ~a branch until ``enable()``.

Cross-process flow — the piggyback protocol:

* the parent calls :func:`enable` *before* forking, so pool and
  serve-net workers inherit the flag copy-on-write;
* an ``os.register_at_fork`` hook clears the child's inherited buffers
  (the parent still owns those records) while keeping the open-span
  stack, so child spans re-parent under the parent's open spans;
* a worker wraps each result in an :class:`ObsCarrier` holding a
  :func:`drain` snapshot of everything it recorded for that item
  (:func:`carry_result`); draining per item keeps long-lived pool
  workers from re-shipping cumulative state;
* the parent unwraps with :func:`absorb_result` / :func:`split_carrier`
  and merges the snapshot into its own recorder — but only for
  *successful* attempts, which is what keeps retried/crashed attempts
  from double-counting (a SIGKILLed fork's recorder dies unreported).

Everything a worker ships is picklable and rides the existing result
pipes — there is no side channel to lose on a crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .metrics import Histogram, MetricsRegistry
from .spans import NOOP_SPAN, Span, SpanBuffer, SpanRecord, wall_now

__all__ = [
    "ObsCarrier",
    "ObsRecorder",
    "ObsSnapshot",
    "RECORDER",
    "absorb_result",
    "carry_result",
    "counter_add",
    "disable",
    "drain",
    "enable",
    "gauge_set",
    "histogram",
    "is_enabled",
    "merge_histogram",
    "merge_snapshot",
    "record_span",
    "reset",
    "snapshot",
    "split_carrier",
    "trace",
    "traced",
    "wall_now",
]


@dataclass
class ObsSnapshot:
    """A frozen, picklable view of one recorder's state."""

    spans: list[SpanRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.spans or self.counters or self.gauges
                    or self.histograms)

    def merge(self, other: "ObsSnapshot") -> "ObsSnapshot":
        self.spans.extend(other.spans)
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
        return self


@dataclass
class ObsCarrier:
    """A worker result with its obs snapshot piggybacked alongside."""

    result: Any
    obs: ObsSnapshot


class ObsRecorder:
    """Spans + metrics for one process, with snapshot/drain/merge."""

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricsRegistry()
        self.spans = SpanBuffer()

    # -- recording (each entry point: one enabled check) ---------------

    def trace(self, name: str, **attrs):
        if not self.enabled:
            return NOOP_SPAN
        return Span(self.spans, name, attrs)

    def record_span(self, name: str, start: float, end: float, **attrs) -> None:
        """Emit an already-timed span (explicit wall timestamps)."""
        if not self.enabled:
            return
        buf = self.spans
        buf.records.append(SpanRecord(
            name=name,
            span_id=buf.new_id(),
            parent_id=buf.current_parent(),
            start=float(start),
            end=float(end),
            pid=buf.pid,
            attrs=attrs,
        ))

    def counter_add(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.metrics.counter_add(name, n)

    def gauge_set(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge_set(name, value)

    def histogram(self, name: str, **geometry) -> Histogram:
        """The named histogram — or a shared discard instance when
        disabled, so hot paths can record unconditionally after one
        hoisted ``is_enabled()`` check."""
        if not self.enabled:
            return _DISCARD_HIST
        return self.metrics.histogram(name, **geometry)

    def merge_histogram(self, name: str, hist: Histogram) -> None:
        if self.enabled:
            self.metrics.merge_histogram(name, hist)

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """Copy of everything recorded so far (recorder untouched)."""
        return ObsSnapshot(
            spans=list(self.spans.records),
            counters=dict(self.metrics.counters),
            gauges=dict(self.metrics.gauges),
            histograms={k: h.copy() for k, h in self.metrics.histograms.items()},
        )

    def drain(self) -> ObsSnapshot:
        """Snapshot + clear: hands off the recorded state, keeping the
        enabled flag and the open-span stack (spans still in flight
        close against fresh buffers and re-parent correctly)."""
        snap = ObsSnapshot(
            spans=self.spans.records,
            counters=self.metrics.counters,
            gauges=self.metrics.gauges,
            histograms=self.metrics.histograms,
        )
        self.spans.records = []
        self.metrics.counters = {}
        self.metrics.gauges = {}
        self.metrics.histograms = {}
        return snap

    def merge(self, snap: ObsSnapshot | None) -> None:
        if snap is None:
            return
        self.spans.records.extend(snap.spans)
        self.metrics.merge(snap.counters, snap.gauges, snap.histograms)

    def reset(self) -> None:
        """Drop all recorded state (keeps the enabled flag)."""
        self.drain()


#: shared sink for histogram records while recording is disabled;
#: bounded by construction, never exported.
_DISCARD_HIST = Histogram()

RECORDER = ObsRecorder()


def _after_fork() -> None:
    RECORDER.spans.after_fork()
    RECORDER.metrics.clear()


os.register_at_fork(after_in_child=_after_fork)


# -- module-level API bound to the global recorder ----------------------

def enable() -> None:
    RECORDER.enabled = True


def disable() -> None:
    RECORDER.enabled = False


def is_enabled() -> bool:
    return RECORDER.enabled


def reset() -> None:
    RECORDER.reset()


def trace(name: str, **attrs):
    """``with trace("name", **attrs):`` — time a region (no-op when
    recording is disabled)."""
    return RECORDER.trace(name, **attrs)


def traced(name: str | None = None, **attrs):
    """Decorator form of :func:`trace`; checks the enabled flag at each
    call, so it is safe to apply at import time."""
    def deco(fn):
        import functools

        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with RECORDER.trace(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def record_span(name: str, start: float, end: float, **attrs) -> None:
    RECORDER.record_span(name, start, end, **attrs)


def counter_add(name: str, n: int = 1) -> None:
    RECORDER.counter_add(name, n)


def gauge_set(name: str, value: float) -> None:
    RECORDER.gauge_set(name, value)


def histogram(name: str, **geometry) -> Histogram:
    return RECORDER.histogram(name, **geometry)


def merge_histogram(name: str, hist: Histogram) -> None:
    RECORDER.merge_histogram(name, hist)


def snapshot() -> ObsSnapshot:
    return RECORDER.snapshot()


def drain() -> ObsSnapshot:
    return RECORDER.drain()


def merge_snapshot(snap: ObsSnapshot | None) -> None:
    RECORDER.merge(snap)


# -- piggyback protocol -------------------------------------------------

def carry_result(result: Any) -> Any:
    """Worker side: attach this process's drained obs state to a result.

    Passthrough when recording is disabled, so un-instrumented runs ship
    the bare result with zero overhead.
    """
    if not RECORDER.enabled:
        return result
    return ObsCarrier(result, RECORDER.drain())


def split_carrier(obj: Any) -> tuple[Any, ObsSnapshot | None]:
    """Unwrap a possible carrier without merging (the caller decides
    whether the attempt's obs state should count)."""
    if isinstance(obj, ObsCarrier):
        return obj.result, obj.obs
    return obj, None


def absorb_result(obj: Any) -> Any:
    """Parent side: unwrap a carrier, merging its snapshot in."""
    if isinstance(obj, ObsCarrier):
        RECORDER.merge(obj.obs)
        return obj.result
    return obj
