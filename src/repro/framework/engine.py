"""Model Update Engine (§4.1): keeps prediction models fresh.

The engine buffers run-time observations and refreshes each registered
service either on a fixed cadence (simulated time) or when triggered
explicitly.  This is the component that keeps "the prediction model ...
updated with new data" while the Resource Orchestrator keeps serving
requests from the current model.

Two refresh paths exist since the incremental-evaluation protocol:

* **scratch** — ``service.fit(history_builder(all observations))``: the
  original full refit.  Always correct, kept as the fallback and as the
  correctness oracle the incremental path is tested against.
* **incremental** — ``service.apply_update(update_builder(new
  observations))``: drives the forecasters' ``update()``/``extend()``
  protocol so a long-running serving loop advances its models in O(new
  data) instead of O(all data).

The service alone picks the path: incremental when it declares
``supports_incremental`` and already has a fitted model, scratch
otherwise.  A service opts into the scratch oracle by declaring itself
non-incremental (``QSSFService(refit_mode="scratch")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
class _ServiceState:
    service: PredictionService
    history_builder: Any  # Callable[[list], Any]: observations -> fit input
    update_builder: Any  # Callable[[list], Any]: new observations -> delta
    last_refit_time: float = 0.0
    history: list = field(default_factory=list)  # every observation ever
    pending: list = field(default_factory=list)  # since the last refit
    fitted: bool = False
    refit_count: int = 0
    incremental_refits: int = 0


class ModelUpdateEngine:
    """Drives periodic model refreshes for any number of services."""

    def __init__(self, policy: UpdatePolicy | None = None) -> None:
        self.policy = policy or UpdatePolicy()
        self._services: dict[str, _ServiceState] = {}

    def register(
        self,
        service: PredictionService,
        history_builder,
        *,
        update_builder=None,
        prefitted: bool = False,
    ) -> None:
        """Attach a service; ``history_builder(observations)`` converts
        the buffered raw observations into the service's fit() input.

        ``update_builder(new_observations)`` builds the *delta* input
        the incremental path hands to ``apply_update`` — new events
        only, unlike ``history_builder`` which may fold in a base
        history for scratch refits.  Defaults to ``history_builder``
        (correct when that builder is a pure view of its argument).
        ``prefitted=True`` declares that the service arrives with a
        model already trained (e.g. on a historical trace before
        installation), which makes it eligible for the incremental path
        from its very first engine-driven refresh.
        """
        if service.service_name in self._services:
            raise ValueError(f"service {service.service_name!r} already registered")
        self._services[service.service_name] = _ServiceState(
            service=service,
            history_builder=history_builder,
            update_builder=update_builder or history_builder,
            fitted=prefitted,
        )

    @property
    def services(self) -> list[str]:
        return list(self._services)

    def swap(self, name: str, service: PredictionService, *, prefitted: bool = True) -> None:
        """Hot-swap the object behind an already-registered service name.

        Keeps the observation history, pending buffer, refit counters,
        and builders — only the model changes.  This is the degradation
        ladder's engine-side half: when a refit raises, the serving
        layer swaps in a simpler fallback service without losing the
        observations the next (cheaper) refit will train on.
        """
        state = self._state(name)
        if service.service_name != name:
            raise ValueError(
                f"cannot swap service named {service.service_name!r} into slot {name!r}"
            )
        state.service = service
        state.fitted = prefitted

    def reset_clock(self, now: float) -> None:
        """Anchor every service's refit timer at ``now``.

        A serving loop calls this with the stream's start time before
        the first event: refit cadence is measured in *simulated* time,
        and without the anchor a stream that starts mid-scenario (e.g.
        at the evaluation month) would look like one giant overdue
        interval and refit on its very first observation.
        """
        for state in self._services.values():
            state.last_refit_time = now

    def observe(self, name: str, event: Any, now: float) -> None:
        """Feed one observation; may trigger a refit."""
        state = self._state(name)
        state.service.observe(event)
        state.history.append(event)
        state.pending.append(event)
        due_time = now - state.last_refit_time >= self.policy.interval_seconds
        due_size = len(state.pending) >= self.policy.max_buffered
        if due_time or due_size:
            self.refit(name, now)

    def refit(self, name: str, now: float) -> str | None:
        """Refresh the named service on the observations gathered so far.

        Returns the path taken (``"scratch"`` / ``"incremental"``) or
        ``None`` when there was nothing new to consume.
        """
        state = self._state(name)
        if not state.pending:
            state.last_refit_time = now
            return None
        incremental = state.service.supports_incremental and state.fitted
        # builders get copies: the pending buffer is cleared below and the
        # history keeps growing, so an identity builder must not hand the
        # service a live view of either
        if incremental:
            state.service.apply_update(state.update_builder(list(state.pending)))
            state.incremental_refits += 1
        else:
            state.service.fit(state.history_builder(list(state.history)))
        state.pending.clear()
        state.fitted = True
        state.last_refit_time = now
        state.refit_count += 1
        return "incremental" if incremental else "scratch"

    def refit_count(self, name: str) -> int:
        return self._state(name).refit_count

    def incremental_refit_count(self, name: str) -> int:
        """How many refits advanced the model in place (vs from scratch)."""
        return self._state(name).incremental_refits

    def pending_count(self, name: str) -> int:
        """Observations buffered since the named service's last refit."""
        return len(self._state(name).pending)

    def service(self, name: str) -> PredictionService:
        """The live service object behind a registered name."""
        return self._state(name).service

    def _state(self, name: str) -> _ServiceState:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r}") from None
