"""Node-demand forecasting for the CES service (§4.3.2).

The forecaster learns the number of *running* (demanded) nodes H steps
ahead from calendar features, lags and rolling trends of the series —
exactly the feature families the paper lists: "repetitive patterns
(hour, day of the week, date)", "average values and standard deviations
of active nodes under different rolling window sizes", "various time
scale lags".  The paper found GBDT the most accurate model class
(~3.6% SMAPE on Earth) against ARIMA / Prophet / LSTM; those comparators
live in :mod:`repro.ml` and are benchmarked in the ablation suite.

Feature construction is incremental-friendly: every feature is trailing
(calendar terms, lags, rolling windows), so appending points never
changes existing rows.  :meth:`ForecastFeatures.build_at` materializes
just the rows for a set of indices, which is what lets
:meth:`NodeDemandForecaster.extend` append feature rows instead of
rebuilding the whole matrix, and what drops the per-step cost of the
recursive :meth:`GBDTSeriesForecaster.forecast` from a full
O(history · n_features) matrix build to two cumulative sums plus the
requested rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.gbdt import GBDTParams, GBDTRegressor
from ..stats.timeseries import rolling_mean, rolling_std

__all__ = ["ForecastFeatures", "NodeDemandForecaster", "GBDTSeriesForecaster"]


@dataclass(frozen=True)
class ForecastFeatures:
    """Feature recipe for the node-demand model.

    ``bin_seconds`` anchors the calendar encodings; lags and windows are
    in bins.
    """

    bin_seconds: int = 600
    lags: tuple[int, ...] = (1, 2, 3, 6, 18, 36, 144, 1008)
    windows: tuple[int, ...] = (6, 18, 144)

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if any(l < 1 for l in self.lags):
            raise ValueError("lags must be >= 1")

    @property
    def n_features(self) -> int:
        return 4 + len(self.lags) + 2 * len(self.windows)

    def _calendar_and_lags(
        self, s: np.ndarray, idx: np.ndarray, t0: float
    ) -> list[np.ndarray]:
        times = t0 + idx * self.bin_seconds
        hour = (times / 3_600.0) % 24
        dow = (times // 86_400.0) % 7
        cols = [
            np.sin(2 * np.pi * hour / 24.0),
            np.cos(2 * np.pi * hour / 24.0),
            dow,
            (dow >= 5).astype(float),  # weekend flag
        ]
        for lag in self.lags:
            cols.append(s[np.maximum(idx - lag, 0)])
        return cols

    def build(self, series: np.ndarray, t0: float = 0.0) -> np.ndarray:
        """Feature matrix for every index of ``series``.

        Lags shorter than the available history are clipped to index 0 —
        early rows are less informative, callers should prefer indices
        past ``max(lags)``.
        """
        s = np.asarray(series, dtype=float)
        idx = np.arange(s.size)
        cols = self._calendar_and_lags(s, idx, t0)
        for w in self.windows:
            cols.append(rolling_mean(s, w))
            cols.append(rolling_std(s, w))
        return np.column_stack(cols)

    def build_at(
        self,
        series: np.ndarray,
        indices: np.ndarray,
        t0: float = 0.0,
        cumsums: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Feature rows for ``indices`` only — O(n + len(indices)) work.

        Produces values identical to ``build(series, t0)[indices]``
        (rolling statistics are evaluated from the same cumulative sums),
        without materializing the full matrix.  This is the hot path of
        recursive forecasting and of incremental refits, where only the
        freshly appended rows are ever needed.

        ``cumsums`` optionally supplies the prefix sums ``(c1, c2)`` of
        ``series`` and ``series**2`` (each of length ``len(series)+1``,
        leading 0).  A streaming caller that maintains them by sequential
        addition gets identical floats to the internal ``np.cumsum`` —
        and drops the per-call cost from O(history) to O(rows), which is
        what makes per-bin forecasting in the serving loop flat in
        stream length.
        """
        s = np.asarray(series, dtype=float)
        idx = np.asarray(indices, dtype=np.int64)
        cols = self._calendar_and_lags(s, idx, t0)
        # Trailing-window mean/std at the requested indices, computed with
        # the exact cumulative-sum formulation rolling_mean/rolling_std use.
        if cumsums is None:
            c1 = np.cumsum(np.insert(s, 0, 0.0))
            c2 = np.cumsum(np.insert(s * s, 0, 0.0))
        else:
            c1, c2 = cumsums
            if len(c1) != s.size + 1 or len(c2) != s.size + 1:
                raise ValueError("cumsums must have length len(series) + 1")
        hi = idx + 1
        for w in self.windows:
            lo = np.maximum(hi - w, 0)
            span = hi - lo
            m = (c1[hi] - c1[lo]) / span
            m2 = (c2[hi] - c2[lo]) / span
            cols.append(m)
            cols.append(np.sqrt(np.maximum(m2 - m * m, 0.0)))
        return np.column_stack(cols)


class NodeDemandForecaster:
    """Direct H-step-ahead GBDT forecaster for the running-node series."""

    def __init__(
        self,
        horizon_bins: int = 18,  # 3 hours at 10-minute bins (§4.3.2)
        features: ForecastFeatures | None = None,
        gbdt_params: GBDTParams | None = None,
    ) -> None:
        if horizon_bins < 1:
            raise ValueError("horizon_bins must be >= 1")
        self.horizon = horizon_bins
        self.features = features or ForecastFeatures()
        self.model = GBDTRegressor(
            gbdt_params
            or GBDTParams(n_estimators=150, max_depth=6, min_samples_leaf=20)
        )
        self._fitted = False
        self._train_end = 0  # exclusive end of indices already trained on

    def fit(self, series: np.ndarray, t0: float = 0.0) -> "NodeDemandForecaster":
        s = np.asarray(series, dtype=float)
        warmup = max(self.features.lags)
        if s.size <= warmup + self.horizon + 10:
            raise ValueError(
                f"series too short: need > {warmup + self.horizon + 10} bins"
            )
        X = self.features.build(s, t0)
        idx = np.arange(warmup, s.size - self.horizon)
        self.model.fit(X[idx], s[idx + self.horizon])
        self._fitted = True
        self._train_end = s.size - self.horizon
        return self

    def extend(
        self,
        series: np.ndarray,
        t0: float = 0.0,
        n_new_trees: int | None = None,
    ) -> "NodeDemandForecaster":
        """Incremental refit on a series that extends the fitted one.

        Deliberately *not* named ``update``: the incremental-protocol
        ``update(new_points)`` methods take only the appended points,
        whereas this takes the whole grown series —
        ``series`` must contain the previously fitted series as a prefix.
        Feature rows are built only for the training indices the appended
        points unlock (old rows are trailing-window features and never
        change), binned with the frozen binner, and the boosting schedule
        continues with ``n_new_trees`` additional stages
        (default: stages proportional to the share of new rows, at least
        one per update).
        """
        if not self._fitted:
            raise RuntimeError("forecaster not fitted; call fit() before extend()")
        s = np.asarray(series, dtype=float)
        new_idx = np.arange(self._train_end, s.size - self.horizon)
        if n_new_trees is None:
            if new_idx.size == 0:
                return self  # nothing unlocked: keep the model untouched
            total = s.size - self.horizon - max(self.features.lags)
            share = new_idx.size / max(total, 1)
            n_new_trees = max(1, int(round(self.model.params.n_estimators * share)))
        X_new = self.features.build_at(s, new_idx, t0)
        self.model.fit_more(X_new, s[new_idx + self.horizon], n_new_trees)
        self._train_end = max(self._train_end, s.size - self.horizon)
        return self

    def predict_at(
        self,
        series: np.ndarray,
        indices: np.ndarray,
        t0: float = 0.0,
        cumsums: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Forecast ``series[i + horizon]`` for each index i.

        Features use only values up to i (lags/rolling windows are
        trailing), so this is a valid walk-forward prediction when the
        model was fitted on earlier data.  ``cumsums`` is forwarded to
        :meth:`ForecastFeatures.build_at` for streaming callers.
        """
        if not self._fitted:
            raise RuntimeError("forecaster not fitted")
        s = np.asarray(series, dtype=float)
        X = self.features.build_at(s, np.asarray(indices), t0, cumsums=cumsums)
        return np.maximum(self.model.predict(X), 0.0)


class GBDTSeriesForecaster:
    """fit/forecast adapter so GBDT joins the §4.3.2 model comparison.

    Trains a one-step-ahead model and forecasts recursively, mirroring
    how the classical baselines (AR / Fourier / ETS / LSTM) operate in
    :func:`repro.ml.model_selection.compare_forecasters`.  Supports the
    incremental protocol: :meth:`update` appends points, builds feature
    rows for just those points, and continues the boosting schedule
    (``update_trees`` stages per call) instead of re-fitting the whole
    ensemble.
    """

    def __init__(
        self,
        features: ForecastFeatures | None = None,
        gbdt_params: GBDTParams | None = None,
        update_trees: int | None = None,
    ) -> None:
        self.inner = NodeDemandForecaster(
            horizon_bins=1,
            features=features,
            gbdt_params=gbdt_params,
        )
        self.update_trees = update_trees
        self._history: np.ndarray | None = None

    def fit(self, series: np.ndarray) -> "GBDTSeriesForecaster":
        self._history = np.asarray(series, dtype=float).copy()
        self.inner.fit(self._history)
        return self

    def update(self, new_points: np.ndarray) -> "GBDTSeriesForecaster":
        """Append observations and continue boosting on the new rows."""
        if self._history is None:
            raise RuntimeError("forecaster not fitted; call fit() before update()")
        new_points = np.asarray(new_points, dtype=float)
        if new_points.ndim != 1:
            raise ValueError("new_points must be 1-D")
        if new_points.size == 0:
            return self
        self._history = np.concatenate([self._history, new_points])
        self.inner.extend(self._history, n_new_trees=self.update_trees)
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        if self._history is None:
            raise RuntimeError("forecaster not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        n0 = self._history.size
        buf = np.concatenate([self._history, np.empty(horizon)])
        for h in range(horizon):
            nxt = self.inner.predict_at(
                buf[: n0 + h], np.array([n0 + h - 1])
            )[0]
            buf[n0 + h] = nxt
        return buf[n0:]
