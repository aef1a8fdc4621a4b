"""Supervision primitives shared by the serving control plane.

The :mod:`repro.serve.net` router is the one fault-tolerant execution
plane for serving shards: it owns the worker processes, watches them,
retries stalled RPCs, and respawns or reroutes a dead worker's shards
from their last checkpoints.  This module holds the pieces that plane
shares with its workers and clients:

* :func:`backoff_delay` — bounded exponential backoff whose jitter comes
  from :func:`~repro.framework.parallel.stable_seed`, never the wall
  clock, so a replayed chaos run waits the identical schedule;
* :class:`SupervisionLog` — the ordered record of per-attempt outcomes;
* :class:`WorkerContext` — fires a :class:`~repro.framework.faults.FaultPlan`'s
  process faults inside a real worker process.
"""

from __future__ import annotations

import os
import signal
import time

from .faults import FaultSpec, TransientWorkerFault
from .parallel import stable_seed

__all__ = [
    "SupervisionLog",
    "WorkerContext",
    "backoff_delay",
]


def backoff_delay(label: str, attempt: int, base_s: float, cap_s: float) -> float:
    """Bounded exponential backoff before retry ``attempt`` (1-based).

    Jitter comes from :func:`stable_seed` over (label, attempt), not the
    wall clock, so a replayed chaos run waits the identical schedule.
    """
    if attempt <= 0:
        return 0.0
    base = base_s * (2.0 ** (attempt - 1))
    jitter = stable_seed(f"backoff:{label}", attempt) / 2.0**32  # [0, 1)
    return min(base * (1.0 + jitter), cap_s)


class SupervisionLog:
    """Ordered, deterministic record of attempt outcomes.

    Each event is ``(label, attempt, outcome)`` with outcome one of
    ``ok`` (the attempt delivered its report), ``crash`` (its worker
    hung up) or ``timeout`` (a deadline expired).
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, int, str]] = []

    def record(self, label: str, attempt: int, outcome: str) -> None:
        self.events.append((str(label), int(attempt), str(outcome)))

    def retries(self, label: str | None = None) -> int:
        """Failed attempts (each one was retried)."""
        return sum(
            1
            for lbl, _, outcome in self.events
            if outcome != "ok" and (label is None or lbl == label)
        )

    def as_dict(self) -> dict:
        return {
            "events": [[lbl, attempt, outcome] for lbl, attempt, outcome in self.events],
            "retries": self.retries(),
        }


class WorkerContext:
    """Fires one attempt's planned process faults inside a worker.

    ``faults`` are the plan's process faults for ``(label, attempt)``.
    :meth:`fire_startup_faults` fires those without a progress index
    (worker startup, before any work); :meth:`maybe_fault` fires those
    whose ``at`` equals the progress reached — a plan may stack several
    faults on one attempt (e.g. a slow_start at startup and a crash at
    batch 100).  ``crash`` SIGKILLs this process and ``hang`` stalls it,
    so call these only inside a worker the caller can afford to lose.
    """

    def __init__(self, label: str, attempt: int,
                 faults: "tuple[FaultSpec, ...]" = ()) -> None:
        self.label = label
        self.attempt = attempt
        self.faults = tuple(faults)

    def fire_startup_faults(self) -> None:
        for fault in self.faults:
            if fault.at is None:
                self._fire(fault)

    def maybe_fault(self, progress: int) -> None:
        for fault in self.faults:
            if fault.at is not None and int(progress) == fault.at:
                self._fire(fault)

    def _fire(self, fault: FaultSpec) -> None:
        if fault.kind == "slow_start":
            time.sleep(fault.delay_s)
        elif fault.kind == "exception":
            raise TransientWorkerFault(
                f"injected transient fault for {self.label!r} attempt {self.attempt}"
            )
        elif fault.kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "hang":
            time.sleep(fault.delay_s or 3600.0)
