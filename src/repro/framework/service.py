"""The prediction-based framework's service abstraction (§4.1, Fig 10).

A *service* is a plug-and-play unit that (a) fits a prediction model
from historical data, (b) predicts upcoming job/cluster behaviour, and
(c) converts predictions into resource-management actions.  The Model
Update Engine periodically refits services on fresh history; the
Resource Orchestrator invokes them at decision points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

__all__ = ["PredictionService"]


class PredictionService(ABC):
    """Base class for framework services (QSSF and CES are instances)."""

    #: unique key used by the registry / orchestrator
    service_name: str = "base"

    #: True when :meth:`apply_update` can advance the fitted model
    #: in place; the Model Update Engine then prefers the incremental
    #: refit path over a scratch :meth:`fit`.
    supports_incremental: bool = False

    @abstractmethod
    def fit(self, history: Any) -> "PredictionService":
        """(Re)train the service's prediction model from history."""

    @abstractmethod
    def predict(self, request: Any) -> Any:
        """Forecast upcoming events (job durations, node demand, ...)."""

    @abstractmethod
    def act(self, state: Any) -> Any:
        """Turn predictions into a resource-management decision."""

    def observe(self, event: Any) -> None:
        """Ingest one run-time observation (finished job, node sample).

        Default: no-op.  The Model Update Engine calls this between
        refits so cheap online statistics stay fresh.
        """

    def apply_update(self, new_history: Any) -> "PredictionService":
        """Advance the fitted model with the observations gathered since
        the last refit, without refitting from scratch.

        ``new_history`` is the engine's ``update_builder`` view of the
        unconsumed observation buffer — the *new events only*, never the
        full history.  Services that already retain observations via
        :meth:`observe` MUST ignore the argument and treat the call as
        "bring the model up to date now": every event reaches the
        service through :meth:`observe` before a refit fires, so
        re-ingesting the argument would double-count it.  Only services
        declaring ``supports_incremental = True`` are expected to
        implement this; the default raises so a misconfigured engine
        fails loudly instead of silently keeping a stale model.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental updates"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} service={self.service_name!r}>"
