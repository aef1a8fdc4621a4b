"""The prediction-based framework's service abstraction (§4.1, Fig 10).

A *service* is a plug-and-play unit that (a) fits a prediction model
from historical data, (b) predicts upcoming job/cluster behaviour, and
(c) converts predictions into resource-management actions.  A service
keeps the run-time observations it is handed, as much of them as its
own refresh needs.  The Model Update Engine decides when a service
refreshes its model on them; the Resource Orchestrator invokes it at
decision points.
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
    #: refit path over a scratch :meth:`refit`.
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

        Default: no-op.  The Model Update Engine hands every observation
        here; a service keeps what its :meth:`refit` and
        :meth:`apply_update` need and may keep cheap online statistics
        fresh with it.
        """

    @abstractmethod
    def refit(self) -> "PredictionService":
        """Retrain from scratch on the fit history plus every observation
        since (the Model Update Engine's scratch path)."""

    def apply_update(self) -> "PredictionService":
        """Advance the fitted model with the observations gathered since
        the last refresh, without refitting from scratch.

        Only services declaring ``supports_incremental = True`` are
        expected to implement this; the default raises so a
        misconfigured engine fails loudly instead of silently keeping a
        stale model.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental updates"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} service={self.service_name!r}>"
