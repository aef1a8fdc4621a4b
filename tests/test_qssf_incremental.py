"""QSSF incremental-refit tests: continued boosting vs scratch oracle.

The serving loop's default QSSF refresh path advances the fitted GBDT
with :meth:`~repro.ml.gbdt.GBDTRegressor.fit_more` on the newly
finished jobs only (``GBDTParams`` preserved, encoders frozen).  The
scratch refit on the full history remains the correctness oracle: the
incremental model is required to stay in a tight band around it on a
real-trace prefix, not to reproduce it bit-exactly (the tree schedule
differs once the training matrix grows mid-stream).
"""

import numpy as np
import pytest

from repro.frame import Table
from repro.framework import QSSFService
from repro.ml.gbdt import GBDTParams
from repro.sched.estimators import MLEstimator
from repro.traces import SECONDS_PER_DAY, slice_period

from helpers import make_trace

GBDT = GBDTParams(n_estimators=40, learning_rate=0.12, max_depth=5,
                  min_samples_leaf=10)


@pytest.fixture(scope="module")
def venus_prefix():
    """A real-trace prefix: first 30 days of the Venus GPU trace."""
    from repro.experiments import common

    gpu = common.cluster_gpu_trace("Venus")
    return slice_period(gpu, 0, 30 * SECONDS_PER_DAY)


def _smape(pred, truth):
    return float(
        np.mean(2.0 * np.abs(pred - truth) / (np.abs(pred) + np.abs(truth)))
    )


class TestMLEstimatorUpdate:
    def test_band_vs_scratch_on_real_prefix(self, venus_prefix):
        head = slice_period(venus_prefix, 0, 18 * SECONDS_PER_DAY)
        delta = slice_period(
            venus_prefix, 18 * SECONDS_PER_DAY, 24 * SECONDS_PER_DAY
        )
        probe = slice_period(
            venus_prefix, 24 * SECONDS_PER_DAY, 30 * SECONDS_PER_DAY
        )
        scratch = MLEstimator(GBDT).fit(
            slice_period(venus_prefix, 0, 24 * SECONDS_PER_DAY)
        )
        warm = MLEstimator(GBDT).fit(head).update(delta)

        truth = probe["duration"].astype(float)
        err_scratch = _smape(scratch.estimate_many(probe), truth)
        err_warm = _smape(warm.estimate_many(probe), truth)
        # parity band: continued boosting must track the scratch oracle
        assert err_warm <= err_scratch * 1.15 + 0.02
        # and the two models must broadly agree job-by-job (log scale)
        ls = np.log1p(scratch.estimate_many(probe))
        lw = np.log1p(warm.estimate_many(probe))
        assert float(np.corrcoef(ls, lw)[0, 1]) > 0.9

    def test_update_grows_ensemble_preserving_params(self, venus_prefix):
        head = slice_period(venus_prefix, 0, 10 * SECONDS_PER_DAY)
        delta = slice_period(
            venus_prefix, 10 * SECONDS_PER_DAY, 12 * SECONDS_PER_DAY
        )
        est = MLEstimator(GBDT).fit(head)
        before = len(est.model.trees_)
        est.update(delta, n_more=5)
        assert len(est.model.trees_) == before + 5
        assert est.model.params == GBDT  # hyper-parameters preserved

    def test_default_budget_scales_with_delta(self, venus_prefix):
        head = slice_period(venus_prefix, 0, 10 * SECONDS_PER_DAY)
        delta = slice_period(
            venus_prefix, 10 * SECONDS_PER_DAY, 11 * SECONDS_PER_DAY
        )
        est = MLEstimator(GBDT).fit(head)
        before = len(est.model.trees_)
        est.update(delta)
        grown = len(est.model.trees_) - before
        assert 1 <= grown < GBDT.n_estimators

    def test_update_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            MLEstimator(GBDT).update(make_trace([(0, 1, 10.0)]))

    def test_empty_update_is_noop(self, venus_prefix):
        head = slice_period(venus_prefix, 0, 10 * SECONDS_PER_DAY)
        est = MLEstimator(GBDT).fit(head)
        before = len(est.model.trees_)
        est.update(head.head(0))
        assert len(est.model.trees_) == before


class TestQSSFServiceRefitModes:
    def test_knob_validation(self):
        with pytest.raises(ValueError, match="refit_mode"):
            QSSFService(refit_mode="warm")

    def test_supports_incremental_tracks_mode(self):
        assert QSSFService().supports_incremental
        assert not QSSFService(refit_mode="scratch").supports_incremental

    def test_apply_update_requires_fit(self):
        svc = QSSFService()
        svc.observe(make_trace([(0, 1, 10.0)]).row(0))
        with pytest.raises(RuntimeError, match="not fitted"):
            svc.apply_update()

    def test_apply_update_advances_gbdt_only(self):
        history = make_trace(
            [(i * 60, 1 + (i % 4), 30.0 + 40.0 * (i % 5)) for i in range(120)]
        )
        delta = make_trace(
            [(8000 + i * 60, 1 + (i % 4), 25.0 + 30.0 * (i % 3)) for i in range(30)]
        )
        svc = QSSFService(lam=0.5, gbdt_params=GBDT).fit(history)
        for i in range(len(delta)):
            svc.observe(delta.row(i))
        trees_before = len(svc.scheduler.ml.model.trees_)
        svc.apply_update()
        trees_after = len(svc.scheduler.ml.model.trees_)
        assert trees_after > trees_before
        # the rows are consumed: a second update has nothing to boost on
        svc.apply_update()
        assert len(svc.scheduler.ml.model.trees_) == trees_after

    def test_refit_trains_on_window_plus_observed_rows(self):
        history = make_trace(
            [(i * 60, 1 + (i % 4), 30.0 + 40.0 * (i % 5)) for i in range(120)]
        )
        delta = make_trace(
            [(8000 + i * 60, 1 + (i % 4), 25.0 + 30.0 * (i % 3)) for i in range(30)]
        )
        svc = QSSFService(lam=0.5, gbdt_params=GBDT, refit_mode="scratch")
        svc.fit(history)
        for i in range(len(delta)):
            svc.observe(delta.row(i))
        svc.refit()
        oracle = QSSFService(lam=0.5, gbdt_params=GBDT).fit(
            Table.concat([history, delta])
        )
        assert np.array_equal(svc.predict(delta), oracle.predict(delta))
        assert svc.history is history  # the window stays the window

    def test_apply_update_noop_at_lam_one(self):
        history = make_trace([(i * 60, 1, 30.0) for i in range(40)])
        svc = QSSFService(lam=1.0).fit(history)
        assert svc.scheduler.ml is None
        svc.observe(make_trace([(0, 1, 10.0)]).row(0))
        svc.apply_update()  # must not raise

    def test_engine_incremental_matches_scratch_band(self, venus_prefix):
        """End-to-end band check through the service interface on a real
        prefix: incremental refresh vs scratch refresh, probed on the
        jobs that follow."""
        head = slice_period(venus_prefix, 0, 18 * SECONDS_PER_DAY)
        delta_tbl = slice_period(
            venus_prefix, 18 * SECONDS_PER_DAY, 24 * SECONDS_PER_DAY
        )
        probe = slice_period(
            venus_prefix, 24 * SECONDS_PER_DAY, 30 * SECONDS_PER_DAY
        )
        full = slice_period(venus_prefix, 0, 24 * SECONDS_PER_DAY)

        inc = QSSFService(lam=0.5, gbdt_params=GBDT).fit(head)
        for i in range(len(delta_tbl)):  # the serving loop feeds finishes
            inc.observe(delta_tbl.row(i))
        inc.apply_update()

        scratch = QSSFService(lam=0.5, gbdt_params=GBDT,
                              refit_mode="scratch").fit(full)

        truth = probe["duration"].astype(float) * probe["gpu_num"].astype(float)
        err_inc = _smape(inc.predict(probe), truth)
        err_scratch = _smape(scratch.predict(probe), truth)
        assert err_inc <= err_scratch * 1.2 + 0.02
