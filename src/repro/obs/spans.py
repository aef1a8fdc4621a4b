"""Nested wall-time spans with explicit, fork-safe ids.

A span is one timed region (``with trace("qssf.decide", cluster="Venus")``).
Spans carry explicit string ids — ``"<pid-hex>.<seq>"`` — rather than
relying on object identity, so a forked child's spans can name a parent
span that lives in a *different process*: the child inherits the parent's
open-span stack at fork time and keeps it for parenting, while its
recorder drops the closed records the parent still owns (see
:mod:`repro.obs.collect` for the ``os.register_at_fork`` hook).  A span
closes into its recorder's live state as it stands at exit, so a span
left open across a drain lands in the fresh state.

Timestamps are ``perf_counter`` (monotonic) re-based onto the wall
clock once at import: ``perf_counter`` on Linux is ``CLOCK_MONOTONIC``,
which forked children share, so parent and child spans land on one
consistent timeline without any cross-process clock handshake.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = ["SpanStack", "SpanRecord", "Span", "NOOP_SPAN", "wall_now"]

#: wall-clock anchor for the monotonic clock, fixed at import; forked
#: children inherit it, so all processes share one timeline.
_ANCHOR = time.time() - time.perf_counter()


def wall_now() -> float:
    """Monotonic-progressing wall-clock seconds (epoch-anchored)."""
    return _ANCHOR + time.perf_counter()


@dataclass
class SpanRecord:
    """One closed span: name, id links, wall-time interval, attributes."""

    name: str
    span_id: str
    parent_id: str | None
    start: float
    end: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStack:
    """Per-process span ids plus the stack of open span ids."""

    def __init__(self) -> None:
        self.open: list[str] = []
        self.pid = os.getpid()
        self._seq = 0

    def new_id(self) -> str:
        self._seq += 1
        return f"{self.pid:x}.{self._seq}"

    def current_parent(self) -> str | None:
        return self.open[-1] if self.open else None

    def after_fork(self) -> None:
        """Reset for a forked child: new ids, but the *same* open-span
        stack, so this child's spans re-parent under the spans that
        were open in the parent at fork time."""
        self.pid = os.getpid()
        self._seq = 0


class Span:
    """Context manager for one timed region of ``recorder`` (an
    :class:`~repro.obs.collect.ObsRecorder`)."""

    __slots__ = ("_rec", "name", "attrs", "span_id", "parent_id", "_t0")

    def __init__(self, recorder, name: str, attrs: dict) -> None:
        self._rec = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        stack = self._rec.stack
        self.parent_id = stack.current_parent()
        self.span_id = stack.new_id()
        stack.open.append(self.span_id)
        self._t0 = wall_now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = wall_now()
        stack = self._rec.stack
        if stack.open and stack.open[-1] == self.span_id:
            stack.open.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._rec.live.spans.append(SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start=self._t0,
            end=t1,
            pid=stack.pid,
            attrs=self.attrs,
        ))
        return False


class _NoopSpan:
    """Recording-disabled stand-in: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
