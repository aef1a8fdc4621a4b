"""Resource Orchestrator (§4.1): routes decision points to services.

The orchestrator owns the registry of services and exposes the two
decision hooks the paper's framework defines: scheduling a job queue
(QSSF-shaped services) and managing the node pool (CES-shaped
services).  Services are selected by the cluster operator ("the cluster
operators can select services based on their demands").
"""

from __future__ import annotations

from typing import Any

from .service import PredictionService

__all__ = ["ResourceOrchestrator"]


class ResourceOrchestrator:
    """Plug-and-play service registry with decision dispatch."""

    def __init__(self) -> None:
        self._services: dict[str, PredictionService] = {}

    def install(self, service: PredictionService) -> None:
        if service.service_name in self._services:
            raise ValueError(f"service {service.service_name!r} already installed")
        self._services[service.service_name] = service

    def replace(self, service: PredictionService) -> PredictionService | None:
        """Install or hot-swap a service; returns the one it displaced.

        Idempotent reinstall: unlike ``uninstall()`` + ``install()``,
        there is no window in which the name is unregistered, so a
        freshly refit service can be swapped in while another thread is
        inside :meth:`decide_many` — the swap is a single dict
        assignment, and an in-flight batch keeps the service object it
        resolved at entry, finishing consistently on the old model.
        """
        old = self._services.get(service.service_name)
        self._services[service.service_name] = service
        return old

    def uninstall(self, name: str) -> None:
        if name not in self._services:
            raise KeyError(f"unknown service {name!r}")
        del self._services[name]

    @property
    def installed(self) -> list[str]:
        return list(self._services)

    def service(self, name: str) -> PredictionService:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r}") from None

    def decide(self, name: str, state: Any) -> Any:
        """Ask one service for its action given the cluster state."""
        return self.service(name).act(state)

    def decide_many(self, name: str, states: list[Any]) -> list[Any]:
        """Batch dispatch: one decision per state, in input order, all
        from the service resolved at entry (a concurrent :meth:`replace`
        never splits a batch across two models)."""
        service = self.service(name)
        return [service.act(state) for state in states]
