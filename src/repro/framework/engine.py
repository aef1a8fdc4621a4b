"""Model Update Engine (§4.1): keeps prediction models fresh.

The engine decides *when* each registered service refreshes its model:
on a fixed cadence (simulated time), after enough new observations, or
when triggered explicitly.  This is the component that keeps "the
prediction model ... updated with new data" while the Resource
Orchestrator keeps serving requests from the current model.  The engine
installs its services in that orchestrator, the one registry of live
services, and keeps only each one's refit clock; every service keeps
the observations its own refresh needs.

Two refresh paths exist since the incremental-evaluation protocol:

* **scratch** — ``service.refit()``: the service retrains on its fit
  history plus everything it observed.  Always correct, kept as the
  fallback and as the correctness oracle the incremental path is
  tested against.
* **incremental** — ``service.apply_update()``: drives the forecasters'
  ``update()``/``extend()`` protocol so a long-running serving loop
  advances its models in O(new data) instead of O(all data).

The service alone picks the path: incremental when it declares
``supports_incremental`` and already has a fitted model, scratch
otherwise.  A service opts into the scratch oracle by declaring itself
non-incremental (``QSSFService(refit_mode="scratch")``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .orchestrator import ResourceOrchestrator
from .service import PredictionService

__all__ = ["ModelUpdateEngine", "UpdatePolicy"]


@dataclass(frozen=True)
class UpdatePolicy:
    """When to refit: every ``interval_seconds`` of simulated time, or
    after ``max_buffered`` new observations, whichever comes first."""

    interval_seconds: float = 86_400.0
    max_buffered: int = 50_000

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.max_buffered < 1:
            raise ValueError("max_buffered must be >= 1")


@dataclass
class _RefitClock:
    last_refit_time: float = 0.0
    pending: int = 0  # observations since the last refit
    fitted: bool = False
    refit_count: int = 0
    incremental_refits: int = 0


class ModelUpdateEngine:
    """Drives periodic model refreshes for any number of services."""

    def __init__(self, policy: UpdatePolicy | None = None) -> None:
        self.policy = policy or UpdatePolicy()
        #: the registry the engine installs its services in
        self.orchestrator = ResourceOrchestrator()
        self._clocks: dict[str, _RefitClock] = {}

    def register(self, service: PredictionService, *, prefitted: bool = False) -> None:
        """Install ``service`` in the orchestrator and start its clock.

        ``prefitted=True`` declares that the service arrives with a
        model already trained (e.g. on a historical trace before
        installation), which makes it eligible for the incremental path
        from its very first engine-driven refresh.
        """
        name = service.service_name
        if name in self._clocks:
            raise ValueError(f"service {name!r} already registered")
        self.orchestrator.install(service)
        self._clocks[name] = _RefitClock(fitted=prefitted)

    @property
    def services(self) -> list[str]:
        return list(self._clocks)

    def swap(self, name: str, service: PredictionService, *, prefitted: bool = True) -> None:
        """Hot-swap the object behind an already-registered service name.

        Keeps the pending count and refit counters; only the model
        changes.  This is the degradation ladder's engine-side half:
        when a refit raises, the serving layer swaps in a simpler
        fallback service, handing it whatever observations its next
        (cheaper) refit trains on.
        """
        clock = self._clock(name)
        if service.service_name != name:
            raise ValueError(
                f"cannot swap service named {service.service_name!r} into slot {name!r}"
            )
        self.orchestrator.replace(service)
        clock.fitted = prefitted

    def reset_clock(self, now: float) -> None:
        """Anchor every service's refit timer at ``now``.

        A serving loop calls this with the stream's start time before
        the first event: refit cadence is measured in *simulated* time,
        and without the anchor a stream that starts mid-scenario (e.g.
        at the evaluation month) would look like one giant overdue
        interval and refit on its very first observation.
        """
        for clock in self._clocks.values():
            clock.last_refit_time = now

    def observe(self, name: str, event: Any, now: float) -> None:
        """Hand one observation to the service; may trigger a refit."""
        clock = self._clock(name)
        self.orchestrator.service(name).observe(event)
        clock.pending += 1
        due_time = now - clock.last_refit_time >= self.policy.interval_seconds
        due_size = clock.pending >= self.policy.max_buffered
        if due_time or due_size:
            self.refit(name, now)

    def refit(self, name: str, now: float) -> str | None:
        """Refresh the named service on the observations gathered so far.

        Returns the path taken (``"scratch"`` / ``"incremental"``) or
        ``None`` when there was nothing new to consume.  A refit that
        raises leaves the pending count as it was, so the next
        observation retries.
        """
        clock = self._clock(name)
        if not clock.pending:
            clock.last_refit_time = now
            return None
        service = self.orchestrator.service(name)
        incremental = service.supports_incremental and clock.fitted
        if incremental:
            service.apply_update()
            clock.incremental_refits += 1
        else:
            service.refit()
        clock.pending = 0
        clock.fitted = True
        clock.last_refit_time = now
        clock.refit_count += 1
        return "incremental" if incremental else "scratch"

    def refit_count(self, name: str) -> int:
        return self._clock(name).refit_count

    def incremental_refit_count(self, name: str) -> int:
        """How many refits advanced the model in place (vs from scratch)."""
        return self._clock(name).incremental_refits

    def pending_count(self, name: str) -> int:
        """Observations handed to the named service since its last refit."""
        return self._clock(name).pending

    def _clock(self, name: str) -> _RefitClock:
        try:
            return self._clocks[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r}") from None
