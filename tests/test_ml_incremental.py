"""Incremental-fit protocol tests (the rolling-origin evaluation engine).

Three layers of guarantees, from hard to soft:

* ARIMA — ``fit(head); update(tail)`` is *bit-exact* with ``fit(full)``
  (sequential moment accumulation; the incremental path is not an
  approximation).
* Holt-Winters / Fourier — state carry-forward reproduces a scratch fit
  with the same parameters exactly (HW) / to floating-point error
  (Fourier's moment-based ridge).
* LSTM / GBDT — warm-start continues training rather than replaying it,
  so scores are only required to stay in a tight band around the scratch
  (correctness-oracle) evaluation.

Plus: the fold-parallel comparison must return results identical to the
serial path for any worker count.
"""

import numpy as np
import pytest

from repro.energy import GBDTSeriesForecaster
from repro.energy.forecaster import ForecastFeatures
from repro.ml import (
    ARIMAForecaster,
    FourierForecaster,
    HoltWintersForecaster,
    LSTMForecaster,
    LSTMParams,
    RidgeRegressor,
    compare_forecasters,
    evaluate_forecaster,
    supports_update,
)
from repro.ml.gbdt import GBDTParams, GBDTRegressor


def _series(n=900, period=24, noise=0.3, seed=1):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return (
        10.0
        + 3.0 * np.sin(2 * np.pi * t / period)
        + np.cos(4 * np.pi * t / period)
        + noise * rng.normal(size=n)
    )


EVAL = dict(initial=600, horizon=24, step=48)

#: Small feature recipe so the GBDT adapter fits on short test series
#: (the default recipe's longest lag is a 1008-bin week).
SMALL_FEATURES = ForecastFeatures(bin_seconds=3600, lags=(1, 2, 3, 24, 48), windows=(6, 24))


class TestARIMAIncremental:
    @pytest.mark.parametrize("d", [0, 1])
    def test_update_bit_exact_with_batch_fit(self, d):
        y = _series()
        batch = ARIMAForecaster(p=24, d=d).fit(y)
        inc = ARIMAForecaster(p=24, d=d).fit(y[:700]).update(y[700:800]).update(y[800:])
        assert inc.intercept_ == batch.intercept_
        np.testing.assert_array_equal(inc.coef_, batch.coef_)
        np.testing.assert_array_equal(inc.forecast(24), batch.forecast(24))

    def test_single_point_updates_bit_exact(self):
        y = _series(n=120)
        batch = ARIMAForecaster(p=6, d=0).fit(y)
        inc = ARIMAForecaster(p=6, d=0).fit(y[:100])
        for i in range(100, 120):
            inc.update(y[i : i + 1])
        np.testing.assert_array_equal(inc.coef_, batch.coef_)

    def test_evaluate_incremental_equals_scratch(self):
        """The fold engine's warm path is exact for ARIMA, so the rolling
        SMAPE must match the scratch oracle to the last bit."""
        y = _series()
        f = lambda: ARIMAForecaster(p=24, d=0)
        assert evaluate_forecaster(f, y, mode="auto", **EVAL) == evaluate_forecaster(
            f, y, mode="scratch", **EVAL
        )

    def test_update_validation(self):
        with pytest.raises(RuntimeError):
            ARIMAForecaster(p=2, d=0).update(np.arange(5.0))
        model = ARIMAForecaster(p=2, d=0).fit(np.arange(50.0))
        with pytest.raises(ValueError):
            model.update(np.ones((2, 2)))
        coef_before = model.coef_.copy()
        model.update(np.empty(0))  # no-op
        np.testing.assert_array_equal(model.coef_, coef_before)


class TestHoltWintersIncremental:
    def test_update_matches_scratch_with_same_params(self):
        """With fixed smoothing parameters the carried-forward state is
        exactly the state a scratch fit reaches on the full series."""
        y = _series()
        kw = dict(alpha=0.5, beta=0.1, gamma=0.2)
        batch = HoltWintersForecaster(24, **kw).fit(y)
        inc = HoltWintersForecaster(24, **kw).fit(y[:700]).update(y[700:])
        np.testing.assert_array_equal(inc.forecast(48), batch.forecast(48))

    def test_warm_rolling_smape_near_scratch(self):
        """Grid-searched parameters may differ per fold under scratch;
        the warm path keeps the initial fold's — scores stay close."""
        y = _series()
        f = lambda: HoltWintersForecaster(season_length=24)
        cold = evaluate_forecaster(f, y, mode="scratch", **EVAL)
        warm = evaluate_forecaster(f, y, mode="auto", **EVAL)
        assert abs(warm - cold) <= max(0.15 * cold, 0.5)

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HoltWintersForecaster(24).update(np.arange(10.0))


class TestFourierIncremental:
    def test_update_matches_batch_coefficients(self):
        y = _series()
        batch = FourierForecaster(periods=(24,)).fit(y)
        inc = FourierForecaster(periods=(24,)).fit(y[:700]).update(y[700:])
        np.testing.assert_allclose(
            inc.forecast(48), batch.forecast(48), rtol=1e-9, atol=1e-9
        )

    def test_warm_rolling_smape_matches_scratch(self):
        y = _series()
        f = lambda: FourierForecaster(periods=(24,))
        cold = evaluate_forecaster(f, y, mode="scratch", **EVAL)
        warm = evaluate_forecaster(f, y, mode="auto", **EVAL)
        assert warm == pytest.approx(cold, rel=1e-6)

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FourierForecaster().update(np.arange(10.0))


class TestRidgeIncremental:
    def test_update_matches_batch(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 5))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 0.1 * rng.normal(size=300)
        batch = RidgeRegressor(alpha=0.5).fit(X, y)
        inc = RidgeRegressor(alpha=0.5).fit(X[:200], y[:200]).update(X[200:], y[200:])
        np.testing.assert_allclose(inc.coef_, batch.coef_, rtol=1e-8)
        assert inc.intercept_ == pytest.approx(batch.intercept_, rel=1e-10)

    def test_update_validation(self):
        with pytest.raises(RuntimeError):
            RidgeRegressor().update(np.ones((2, 2)), np.ones(2))
        model = RidgeRegressor().fit(np.ones((5, 2)) * np.arange(5)[:, None], np.arange(5.0))
        with pytest.raises(ValueError):
            model.update(np.ones((2, 3)), np.ones(2))  # feature count changed


class TestLSTMIncremental:
    def test_warm_rolling_smape_within_band(self):
        y = _series()
        f = lambda: LSTMForecaster(
            LSTMParams(window=24, hidden=8, epochs=5, update_epochs=2)
        )
        cold = evaluate_forecaster(f, y, mode="scratch", **EVAL)
        warm = evaluate_forecaster(f, y, mode="auto", **EVAL)
        # Warm-start continues training (typically scoring a bit better);
        # it must stay in a tight band around the scratch oracle.
        assert abs(warm - cold) / cold < 0.30

    def test_update_is_deterministic(self):
        y = _series(n=300)
        p = LSTMParams(window=12, hidden=8, epochs=3, update_epochs=2, random_state=7)
        f1 = LSTMForecaster(p).fit(y[:250]).update(y[250:]).forecast(5)
        f2 = LSTMForecaster(p).fit(y[:250]).update(y[250:]).forecast(5)
        np.testing.assert_allclose(f1, f2)

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LSTMForecaster().update(np.arange(10.0))

    def test_fast_update_consumes_no_rng(self):
        """The fold-batched path is full-batch: the shuffling RNG state
        must be untouched."""
        y = _series(n=300)
        p = LSTMParams(window=12, hidden=8, epochs=2, update_epochs=2)
        model = LSTMForecaster(p).fit(y[:250])
        before = model._rng.bit_generator.state
        model.update(y[250:])
        assert model._rng.bit_generator.state == before

    def test_fast_update_batches_only_new_windows(self):
        """One loss entry per fine-tune step, each over just the windows
        targeting appended points."""
        y = _series(n=300)
        p = LSTMParams(window=12, hidden=8, epochs=2, update_epochs=3)
        model = LSTMForecaster(p).fit(y[:250])
        n_loss = len(model.loss_curve_)
        model.update(y[250:])
        assert len(model.loss_curve_) == n_loss + p.update_epochs

    def test_fast_update_learns_tail_signal(self):
        """Fine-tuning on a level-shifted tail must move forecasts toward
        the new level (the batched gradient actually applies)."""
        y = _series(n=400)
        p = LSTMParams(window=24, hidden=8, epochs=5, update_epochs=10)
        stale = LSTMForecaster(p).fit(y[:340])
        tuned = LSTMForecaster(p).fit(y[:340])
        tuned.update(y[340:] + 4.0)
        # compare against the same model continuing without the shift
        stale.update(y[340:])
        assert tuned.forecast(10).mean() > stale.forecast(10).mean()


class TestGBDTIncremental:
    def test_fit_more_grows_ensemble_and_improves_fit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 3))
        y = X[:, 0] ** 2 + X[:, 1]
        model = GBDTRegressor(GBDTParams(n_estimators=30)).fit(X[:300], y[:300])
        before = len(model.trees_)
        model.fit_more(X[300:], y[300:], n_more=10)
        assert len(model.trees_) == before + 10
        # continued boosting keeps driving training MSE down
        assert model.train_scores_[-1] <= model.train_scores_[before - 1] + 1e-12

    def test_fit_more_requires_fit(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().fit_more(np.ones((2, 2)), np.ones(2), 1)

    def test_fit_more_zero_stages_appends_rows_only(self):
        """n_more=0: the new rows join the training state but the
        ensemble and its predictions are untouched."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] ** 2 + X[:, 1]
        model = GBDTRegressor(GBDTParams(n_estimators=20)).fit(X[:200], y[:200])
        before = model.predict(X)
        n_trees = len(model.trees_)
        model.fit_more(X[200:], y[200:], n_more=0)
        assert len(model.trees_) == n_trees
        np.testing.assert_array_equal(model.predict(X), before)
        assert model._Xb_train.shape[0] == 300
        # ...and a later continuation trains on the grown matrix
        model.fit_more(np.zeros((0, 3)), np.zeros(0), n_more=5)
        assert len(model.trees_) == n_trees + 5

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_fit_more_rng_continuation_parity(self, mode):
        """With subsample < 1 the boosting RNG must continue across
        fit_more: fit(K) + fit_more(0 rows, J) is bitwise one fit(K+J)."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 4))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.1 * rng.normal(size=400)
        split = GBDTRegressor(
            GBDTParams(n_estimators=12, subsample=0.7, random_state=9), mode=mode
        ).fit(X, y)
        split.fit_more(np.zeros((0, 4)), np.zeros(0), n_more=8)
        joint = GBDTRegressor(
            GBDTParams(n_estimators=20, subsample=0.7, random_state=9), mode=mode
        ).fit(X, y)
        np.testing.assert_array_equal(split.predict(X), joint.predict(X))
        assert split.train_scores_ == joint.train_scores_

    def test_fit_more_fast_reference_parity(self):
        """Continuation with appended rows stays byte-identical across
        modes."""
        rng = np.random.default_rng(6)
        X = rng.normal(size=(400, 4))
        y = X[:, 0] + 0.1 * rng.normal(size=400)
        p = GBDTParams(n_estimators=10, subsample=0.8, random_state=2)
        fast = GBDTRegressor(p, mode="fast").fit(X[:300], y[:300])
        ref = GBDTRegressor(p, mode="reference").fit(X[:300], y[:300])
        fast.fit_more(X[300:], y[300:], n_more=6)
        ref.fit_more(X[300:], y[300:], n_more=6)
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
        assert fast.train_scores_ == ref.train_scores_

    def test_fit_more_rejects_early_stopped(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] + 0.01 * rng.normal(size=200)
        model = GBDTRegressor(
            GBDTParams(n_estimators=50, early_stopping_rounds=3)
        ).fit(X[:150], y[:150], eval_set=(X[150:], y[150:]))
        with pytest.raises(RuntimeError, match="early-stopped"):
            model.fit_more(X[:10], y[:10], 1)

    def test_series_forecaster_warm_within_band(self):
        y = _series()
        f = lambda: GBDTSeriesForecaster(features=SMALL_FEATURES)
        cold = evaluate_forecaster(f, y, mode="scratch", **EVAL)
        warm = evaluate_forecaster(f, y, mode="auto", **EVAL)
        assert abs(warm - cold) / cold < 0.30

    def test_series_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GBDTSeriesForecaster().update(np.arange(10.0))

    def test_extend_without_new_rows_is_noop(self):
        """Appending too few points to unlock a training row must leave
        the ensemble untouched (no phantom boosting stages)."""
        y = _series()
        model = GBDTSeriesForecaster(features=SMALL_FEATURES).fit(y)
        n_trees = len(model.inner.model.trees_)
        model.inner.extend(y)  # same series: zero new rows
        assert len(model.inner.model.trees_) == n_trees

    def test_pickle_round_trip_continues_boosting(self):
        """A pickle keeps the whole model: the clone predicts and
        continues boosting exactly as the original does, subsampling
        RNG included."""
        import pickle

        rng = np.random.default_rng(0)
        X = rng.normal(size=(260, 3))
        y = X[:, 0] + 0.1 * rng.normal(size=260)
        model = GBDTRegressor(
            GBDTParams(n_estimators=10, subsample=0.7)
        ).fit(X[:200], y[:200])
        clone = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))
        model.fit_more(X[200:], y[200:], n_more=5)
        clone.fit_more(X[200:], y[200:], n_more=5)
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))
        assert clone.train_scores_ == model.train_scores_

    def test_build_at_matches_build(self):
        y = _series(n=400)
        feats = SMALL_FEATURES
        full = feats.build(y)
        some = np.array([0, 1, 5, 49, 123, 399])
        np.testing.assert_array_equal(feats.build_at(y, some), full[some])
        np.testing.assert_array_equal(feats.build_at(y, np.arange(y.size)), full)


class _NoUpdateModel:
    """Minimal fit/forecast model without the incremental protocol."""

    def fit(self, y):
        self._last = float(np.asarray(y)[-1])
        return self

    def forecast(self, horizon):
        return np.full(horizon, self._last)


class TestEngineModes:
    def test_supports_update_probe(self):
        assert supports_update(ARIMAForecaster(p=2))
        assert not supports_update(_NoUpdateModel())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            evaluate_forecaster(_NoUpdateModel, _series(200), 100, 10, mode="warp")

    def test_auto_falls_back_to_scratch(self):
        y = _series(200)
        auto = evaluate_forecaster(_NoUpdateModel, y, 100, 10, mode="auto")
        cold = evaluate_forecaster(_NoUpdateModel, y, 100, 10, mode="scratch")
        assert auto == cold


class TestCompareParallel:
    MODELS = {
        "fourier": lambda: FourierForecaster(periods=(24,)),
        "ar": lambda: ARIMAForecaster(p=4, d=0),
        "hw": lambda: HoltWintersForecaster(season_length=24),
    }

    def test_parallel_identical_to_serial(self):
        y = _series(n=500)
        serial = compare_forecasters(self.MODELS, y, 300, 24, jobs=1)
        forked = compare_forecasters(self.MODELS, y, 300, 24, jobs=3)
        assert serial == forked
        assert list(serial) == list(self.MODELS)  # input order preserved

    def test_scratch_mode_passthrough(self):
        y = _series(n=500)
        warm = compare_forecasters(self.MODELS, y, 300, 24, jobs=2, mode="auto")
        cold = compare_forecasters(self.MODELS, y, 300, 24, jobs=2, mode="scratch")
        # these three comparators are exact/near-exact incrementally
        for name in self.MODELS:
            assert warm[name] == pytest.approx(cold[name], rel=0.15)
