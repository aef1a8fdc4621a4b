"""QSSF and CES wrapped as framework services (the two case studies).

These adapters put the concrete implementations from
:mod:`repro.sched` / :mod:`repro.energy` behind the
:class:`~repro.framework.service.PredictionService` interface so they
compose with the Model Update Engine and Resource Orchestrator.  Each
keeps what its own refresh needs: QSSF its training window and the
finished jobs it observed, CES its demand series, the FIFO passthrough
nothing.
"""

from __future__ import annotations

import numpy as np

from ..energy.drs import DRSParams, run_drs
from ..energy.forecaster import ForecastFeatures, NodeDemandForecaster
from ..frame import Table
from ..ml.gbdt import GBDTParams
from ..sched.qssf import QSSFScheduler
from .service import PredictionService

__all__ = ["QSSFService", "CESNodeService", "PassthroughQueueService"]


class QSSFService(PredictionService):
    """Quasi-Shortest-Service-First as a pluggable service.

    ``fit`` trains the estimators on a historical trace (kept as
    ``history``, the training window); ``predict`` returns expected GPU
    time for a batch of queued jobs; ``act`` sorts a queue table into
    scheduling order; ``observe`` feeds a finished job to the rolling
    estimator and keeps its row in ``observed``.

    ``refit_mode`` selects how the Model Update Engine refreshes the
    service: ``"incremental"`` (default) advances the fitted model in
    place — the rolling estimator is already fresh from ``observe`` and
    the GBDT continues boosting on the rows it has not consumed yet
    (:meth:`~repro.sched.qssf.QSSFScheduler.update_model`,
    ``GBDTParams`` preserved); ``"scratch"`` keeps the original refit
    on the training window plus every observed row, the correctness
    oracle the incremental path is band-tested against.
    """

    service_name = "qssf"

    _REFIT_MODES = ("incremental", "scratch")

    def __init__(
        self,
        lam: float = 0.5,
        gbdt_params: GBDTParams | None = None,
        refit_mode: str = "incremental",
    ) -> None:
        if refit_mode not in self._REFIT_MODES:
            raise ValueError(
                f"refit_mode must be one of {self._REFIT_MODES}, got {refit_mode!r}"
            )
        self.lam = lam
        self.gbdt_params = gbdt_params
        self.refit_mode = refit_mode
        self.scheduler: QSSFScheduler | None = None
        self.history: Table | None = None
        #: finished-job rows observed since ``fit``
        self.observed: list[dict] = []
        #: how many of ``observed`` the model has trained on
        self._consumed = 0

    @property
    def supports_incremental(self) -> bool:
        return self.refit_mode == "incremental"

    def fit(self, history: Table) -> "QSSFService":
        self.scheduler = QSSFScheduler(
            history, lam=self.lam, gbdt_params=self.gbdt_params
        )
        self.history = history
        self.observed = []
        self._consumed = 0
        return self

    def refit(self) -> "QSSFService":
        """Retrain on the training window plus every observed row."""
        if self.history is None:
            raise RuntimeError("QSSFService not fitted")
        self.scheduler = QSSFScheduler(
            Table.concat([self.history, Table.from_rows(self.observed)]),
            lam=self.lam, gbdt_params=self.gbdt_params,
        )
        self._consumed = len(self.observed)
        return self

    def apply_update(self) -> "QSSFService":
        """Continue boosting on the observed rows the GBDT has not
        consumed yet; the rolling estimator already has them from
        :meth:`observe`."""
        if self.scheduler is None:
            raise RuntimeError("QSSFService not fitted")
        self.scheduler.update_model(Table.from_rows(self.observed[self._consumed:]))
        self._consumed = len(self.observed)
        return self

    def predict(self, request: Table) -> np.ndarray:
        if self.scheduler is None:
            raise RuntimeError("QSSFService not fitted")
        return self.scheduler.predicted_gpu_time(request)

    def act(self, state: Table) -> Table:
        """Return the queue sorted by predicted GPU time (ascending)."""
        priorities = self.predict(state)
        order = np.argsort(priorities, kind="stable")
        return state.take(order)

    def observe(self, event) -> None:
        """``event`` is a finished-job row (a dict with at least
        user/name/gpu_num/duration) that refits train on."""
        if self.scheduler is not None:
            self.scheduler.observe(
                event["user"], event["name"], int(event["gpu_num"]),
                float(event["duration"]),
            )
        self.observed.append(event)


class PassthroughQueueService(PredictionService):
    """FIFO passthrough — the QSSF degradation ladder's last rung.

    Model-free and unfailable: ``act`` returns the queue in arrival
    order, ``predict`` returns zeros, ``fit``/``refit`` are no-ops and
    observations are dropped.  When every smarter fallback has raised,
    the serving loop swaps this in so decisions keep flowing.
    """

    service_name = "qssf"
    supports_incremental = False

    def fit(self, history) -> "PassthroughQueueService":
        return self

    def refit(self) -> "PassthroughQueueService":
        return self

    def predict(self, request) -> np.ndarray:
        return np.zeros(len(request), dtype=float)

    def act(self, state: Table) -> Table:
        return state

    def observe(self, event) -> None:
        pass


class CESNodeService(PredictionService):
    """Cluster Energy Saving as a pluggable service.

    ``fit`` trains the node-demand forecaster on a demand series;
    ``predict`` forecasts demand H steps ahead; ``act`` runs Algorithm 2
    over a ``(demand, total_nodes)`` window and returns the DRS outcome.

    The service is *incremental*: ``observe(sample)`` ingests one
    node-demand sample and, every ``update_every`` samples, drives the
    forecaster's :meth:`~repro.energy.forecaster.NodeDemandForecaster.extend`
    path so the model advances between full refits instead of merely
    buffering data for the next scratch fit.  ``apply_update`` (the
    Model Update Engine's incremental refit hook) forces any still
    buffered samples into the model immediately; ``refit`` fits afresh
    on the whole series.  The series is the only log: the engine keeps
    none.
    """

    service_name = "ces"
    supports_incremental = True

    def __init__(
        self,
        horizon_bins: int = 18,
        drs_params: DRSParams | None = None,
        update_every: int = 36,
        features: ForecastFeatures | None = None,
        gbdt_params: GBDTParams | None = None,
    ) -> None:
        if update_every < 1:
            raise ValueError("update_every must be >= 1")
        self.horizon_bins = horizon_bins
        self.drs_params = drs_params
        self.update_every = update_every
        self.features = features
        self.gbdt_params = gbdt_params
        self.forecaster: NodeDemandForecaster | None = None
        self._history: np.ndarray | None = None
        self._pending: list[float] = []
        self.updates_applied = 0

    def fit(self, history: np.ndarray) -> "CESNodeService":
        self._history = np.asarray(history, dtype=float)
        self._pending.clear()
        self.forecaster = NodeDemandForecaster(
            horizon_bins=self.horizon_bins,
            features=self.features,
            gbdt_params=self.gbdt_params,
        ).fit(self._history)
        return self

    @property
    def history(self) -> np.ndarray | None:
        """The demand series ingested so far (fit history + observations)."""
        if self._history is None:
            return None
        if self._pending:
            return np.concatenate([self._history, np.asarray(self._pending)])
        return self._history

    def observe(self, event) -> None:
        """``event`` is one node-demand sample (running nodes in a bin).

        Samples accumulate and, once ``update_every`` are pending on a
        fitted model, advance the forecaster incrementally — the serving
        loop's path for keeping predictions fresh between refits.
        """
        self._pending.append(float(event))
        if self.forecaster is not None and len(self._pending) >= self.update_every:
            self._advance()

    def refit(self) -> "CESNodeService":
        """Fit afresh on the training window plus every observed sample."""
        if self._history is None:
            raise RuntimeError("CESNodeService not fitted")
        return self.fit(self.history)

    def apply_update(self) -> "CESNodeService":
        """Force any buffered samples into the model immediately; every
        sample already arrived through :meth:`observe`, so this only
        flushes."""
        if self.forecaster is None:
            raise RuntimeError("CESNodeService not fitted")
        self._advance()
        return self

    def _advance(self) -> None:
        if not self._pending:
            return
        assert self._history is not None and self.forecaster is not None
        self._history = np.concatenate([self._history, np.asarray(self._pending)])
        self._pending.clear()
        self.forecaster.extend(self._history)
        self.updates_applied += 1

    def predict(self, request: np.ndarray) -> np.ndarray:
        """Forecast demand ``horizon_bins`` ahead of each series index."""
        if self.forecaster is None:
            raise RuntimeError("CESNodeService not fitted")
        series = np.asarray(request, dtype=float)
        return self.forecaster.predict_at(series, np.arange(series.size))

    def act(self, state: tuple[np.ndarray, int]):
        demand, total_nodes = state
        demand = np.asarray(demand, dtype=float)
        fc = self.predict(demand)
        params = self.drs_params or DRSParams.scaled(int(total_nodes))
        return run_drs(demand, fc, int(total_nodes), params)
