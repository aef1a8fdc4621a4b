"""The process-global recorder and cross-process aggregation.

One :class:`ObsRecorder` per process (module global ``RECORDER``),
disabled by default: every recording entry point checks one flag and
returns, so instrumented call sites cost ~a branch until ``enable()``.
The recorder keeps its state as one live :class:`ObsSnapshot` (plus the
open-span stack): :meth:`~ObsRecorder.snapshot` copies it,
:meth:`~ObsRecorder.drain` hands it off and starts a fresh one, and
:meth:`~ObsRecorder.merge` is :meth:`ObsSnapshot.merge`.

Cross-process flow — the piggyback protocol:

* the parent calls :func:`enable` *before* forking, so pool and
  serve-net workers inherit the flag copy-on-write;
* an ``os.register_at_fork`` hook drains the child's inherited state
  (the parent still owns those records) while keeping the open-span
  stack, so child spans re-parent under the parent's open spans;
* a worker wraps each result in an :class:`ObsCarrier` holding a
  :func:`drain` snapshot of everything it recorded for that item
  (:func:`carry_result`); draining per item keeps long-lived pool
  workers from re-shipping cumulative state;
* the parent unwraps with :func:`absorb_result`, which merges the
  snapshot into its own recorder — and only for *successful* attempts,
  which is what keeps retried/crashed attempts from double-counting
  (a SIGKILLed fork's recorder dies unreported).

Everything a worker ships is picklable and rides the existing result
pipes — there is no side channel to lose on a crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .metrics import Histogram
from .spans import NOOP_SPAN, Span, SpanRecord, SpanStack, wall_now

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
    "merge_snapshot",
    "record_span",
    "reset",
    "snapshot",
    "trace",
    "traced",
    "wall_now",
]


@dataclass
class ObsSnapshot:
    """Spans, counters, gauges and histograms: a recorder's live state,
    and the picklable value it hands out.

    Counters sum on merge; gauges are last-write-wins (merge keeps the
    incoming value); histograms merge bin-wise.
    """

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
    """One process's obs state: a live :class:`ObsSnapshot` plus the
    open-span stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.live = ObsSnapshot()
        self.stack = SpanStack()

    # -- recording (each entry point: one enabled check) ---------------

    def trace(self, name: str, **attrs):
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def record_span(self, name: str, start: float, end: float, **attrs) -> None:
        """Emit an already-timed span (explicit wall timestamps)."""
        if not self.enabled:
            return
        stack = self.stack
        self.live.spans.append(SpanRecord(
            name=name,
            span_id=stack.new_id(),
            parent_id=stack.current_parent(),
            start=float(start),
            end=float(end),
            pid=stack.pid,
            attrs=attrs,
        ))

    def counter_add(self, name: str, n: int = 1) -> None:
        if self.enabled:
            counters = self.live.counters
            counters[name] = counters.get(name, 0) + int(n)

    def gauge_set(self, name: str, value: float) -> None:
        if self.enabled:
            self.live.gauges[name] = float(value)

    def histogram(self, name: str, **geometry) -> Histogram:
        """The named histogram, created on first use — or a shared
        discard instance when disabled, so hot paths can record
        unconditionally after one hoisted ``is_enabled()`` check.

        ``geometry`` (lo/decades/bins_per_decade) applies on creation
        only; later calls return the existing instance, so a call
        site's geometry must be deterministic for cross-process merges
        to line up.  A handle records into the state it was taken from,
        drained or not.
        """
        if not self.enabled:
            return _DISCARD_HIST
        hists = self.live.histograms
        hist = hists.get(name)
        if hist is None:
            hist = hists[name] = Histogram(**geometry)
        return hist

    # -- aggregation ---------------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        """Copy of everything recorded so far (recorder untouched)."""
        return ObsSnapshot().merge(self.live)

    def drain(self) -> ObsSnapshot:
        """Hand off the live state and start a fresh one, keeping the
        enabled flag and the open-span stack (spans still in flight
        close into the fresh state and keep their parents)."""
        snap, self.live = self.live, ObsSnapshot()
        return snap

    def merge(self, snap: ObsSnapshot | None) -> None:
        if snap is not None:
            self.live.merge(snap)

    def reset(self) -> None:
        """Drop all recorded state (keeps the enabled flag)."""
        self.drain()


#: shared sink for histogram records while recording is disabled;
#: bounded by construction, never exported.
_DISCARD_HIST = Histogram()

RECORDER = ObsRecorder()


def _after_fork() -> None:
    RECORDER.stack.after_fork()
    RECORDER.drain()


os.register_at_fork(after_in_child=_after_fork)


# -- module-level API bound to the global recorder ----------------------

def enable() -> None:
    RECORDER.enabled = True


def disable() -> None:
    RECORDER.enabled = False


def is_enabled() -> bool:
    return RECORDER.enabled


#: ``with trace("name", **attrs):`` times a region (a no-op while
#: recording is disabled)
trace = RECORDER.trace
record_span = RECORDER.record_span
counter_add = RECORDER.counter_add
gauge_set = RECORDER.gauge_set
histogram = RECORDER.histogram
snapshot = RECORDER.snapshot
drain = RECORDER.drain
merge_snapshot = RECORDER.merge
reset = RECORDER.reset


def traced(name: str | None = None, **attrs):
    """The decorator form of :func:`trace`.  It checks the enabled flag
    at each call, so it is safe to apply at import time, while recording
    is usually still off."""
    def deco(fn):
        import functools

        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with RECORDER.trace(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return deco


# -- piggyback protocol -------------------------------------------------

def carry_result(result: Any) -> Any:
    """Worker side: attach this process's drained obs state to a result.

    Passthrough when recording is disabled, so un-instrumented runs ship
    the bare result with zero overhead.
    """
    if not RECORDER.enabled:
        return result
    return ObsCarrier(result, RECORDER.drain())


def absorb_result(obj: Any) -> Any:
    """Parent side: unwrap a carrier, merging its snapshot in."""
    if isinstance(obj, ObsCarrier):
        RECORDER.merge(obj.obs)
        return obj.result
    return obj
