"""Tests for the GBDT regressor."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ml import GBDTParams, GBDTRegressor
from repro.ml import tree as tree_mod


@pytest.fixture(scope="module")
def friedman():
    """Nonlinear regression problem (Friedman #1 style)."""
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(1200, 5))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(0, 0.5, 1200)
    )
    return X, y


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GBDTParams(n_estimators=0)
        with pytest.raises(ValueError):
            GBDTParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GBDTParams(subsample=1.5)


class TestFit:
    def test_training_loss_decreases(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=40, max_depth=4)).fit(X, y)
        losses = model.staged_mse()
        assert losses[-1] < losses[0] * 0.2
        # monotone non-increasing (squared loss + full data per stage)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_beats_mean_baseline(self, friedman):
        X, y = friedman
        train, test = X[:800], X[800:]
        yt, yv = y[:800], y[800:]
        model = GBDTRegressor(GBDTParams(n_estimators=120, max_depth=4)).fit(train, yt)
        pred = model.predict(test)
        mse_model = np.mean((pred - yv) ** 2)
        mse_mean = np.mean((yt.mean() - yv) ** 2)
        assert mse_model < 0.15 * mse_mean

    def test_subsample_still_learns(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=60, subsample=0.5, random_state=1)
        ).fit(X, y)
        pred = model.predict(X)
        assert np.mean((pred - y) ** 2) < 0.3 * np.var(y)

    def test_deterministic_given_seed(self, friedman):
        X, y = friedman
        p = GBDTParams(n_estimators=10, subsample=0.7, random_state=42)
        m1 = GBDTRegressor(p).fit(X, y)
        m2 = GBDTRegressor(p).fit(X, y)
        np.testing.assert_array_equal(m1.predict(X), m2.predict(X))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            GBDTRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GBDTRegressor().fit(np.zeros((3, 2)), np.zeros(4))


class TestEarlyStopping:
    def test_early_stop_halts(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=500, early_stopping_rounds=5, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        assert len(model.trees_) < 500
        assert model.best_iteration_ is not None

    def test_predict_uses_best_iteration(self, friedman):
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=200, early_stopping_rounds=10, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        best = model.best_iteration_
        full = model.predict(X[600:], n_trees=len(model.trees_))
        best_pred = model.predict(X[600:])
        trunc = model.predict(X[600:], n_trees=best + 1)
        np.testing.assert_array_equal(best_pred, trunc)
        # best-iteration predictions shouldn't be much worse than full
        yv = y[600:]
        assert np.mean((best_pred - yv) ** 2) <= np.mean((full - yv) ** 2) + 1e-6


class TestPredict:
    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().predict(np.zeros((1, 2)))

    def test_predict_1d_input(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=5)).fit(X, y)
        out = model.predict(X[0])
        assert out.shape == (1,)

    def test_feature_importances(self, friedman):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=30, max_depth=4)).fit(X, y)
        imp = model.feature_importances()
        assert imp.shape == (5,)
        assert imp.sum() == pytest.approx(1.0)
        # features 0,1,3 carry the most signal in Friedman #1
        assert imp[:2].sum() + imp[3] > imp[4]

    def test_importances_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GBDTRegressor().feature_importances()

    def test_importances_respect_early_stopping_truncation(self, friedman):
        """Regression: importances summed gains over *all* trees even when
        early stopping truncated prediction to ``best_iteration_`` — they
        must describe the ensemble ``predict`` actually uses."""
        X, y = friedman
        model = GBDTRegressor(
            GBDTParams(n_estimators=500, early_stopping_rounds=5, max_depth=2)
        ).fit(X[:600], y[:600], eval_set=(X[600:], y[600:]))
        best = model.best_iteration_
        assert best is not None and best + 1 < len(model.trees_)
        imp = model.feature_importances()
        used = np.zeros(5)
        for tree in model.trees_[: best + 1]:
            used += tree.feature_gains()
        np.testing.assert_array_equal(imp, used / used.sum())
        over = np.zeros(5)
        for tree in model.trees_:
            over += tree.feature_gains()
        assert not np.array_equal(imp, over / over.sum())


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            GBDTRegressor(mode="turbo")

    @pytest.mark.parametrize(
        "params",
        [
            GBDTParams(n_estimators=15, max_depth=4),
            GBDTParams(n_estimators=20, max_depth=6, subsample=0.6, random_state=3),
        ],
        ids=["full-rows", "subsampled"],
    )
    def test_fast_is_byte_identical_to_reference(self, friedman, params):
        X, y = friedman
        fast = GBDTRegressor(params, mode="fast").fit(X, y)
        ref = GBDTRegressor(params, mode="reference").fit(X, y)
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))
        assert fast.staged_mse() == ref.staged_mse()
        assert fast._pred_train.tobytes() == ref._pred_train.tobytes()
        np.testing.assert_array_equal(
            fast.feature_importances(), ref.feature_importances()
        )

    def test_early_stopping_parity(self, friedman):
        X, y = friedman
        p = GBDTParams(n_estimators=100, early_stopping_rounds=5, max_depth=3)
        fast = GBDTRegressor(p, mode="fast").fit(
            X[:600], y[:600], eval_set=(X[600:], y[600:])
        )
        ref = GBDTRegressor(p, mode="reference").fit(
            X[:600], y[:600], eval_set=(X[600:], y[600:])
        )
        assert fast.best_iteration_ == ref.best_iteration_
        np.testing.assert_array_equal(fast.predict(X), ref.predict(X))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        how=st.sampled_from(["fit", "subsample", "early_stopped", "fit_more",
                             "pickled_fit_more"]),
        n_rows=st.integers(1, 300),
        max_bins=st.sampled_from([2, 3, 16, 256]),
        min_samples_leaf=st.sampled_from([1, 2, 5, 40]),
        max_depth=st.integers(1, 6),
    )
    def test_generated_models_are_byte_identical(
        self, seed, how, n_rows, max_bins, min_samples_leaf, max_depth
    ):
        """Fast growth (fused levels, training predictions from the
        leaves rows reached) against the reference loop (per-feature
        scan, training predictions from a walk): every tree array and
        gain, the running training predictions and the scores match
        byte for byte.  Inputs hold a constant column, a partly missing
        one and a tied one; at ``min_samples_leaf=40`` a fit of fewer
        than 80 rows is a stump, and larger ones leave rows outside
        deeper frontiers."""
        assume(how != "early_stopped" or n_rows >= 2)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_rows, 4))
        X[:, 1] = 2.0
        X[rng.random(n_rows) < 0.2, 2] = np.nan
        X[:, 3] = np.round(X[:, 3])
        y = np.nan_to_num(X[:, 2]) ** 2 + X[:, 0] + rng.normal(size=n_rows)
        params = GBDTParams(
            n_estimators=int(rng.integers(1, 12)), max_depth=max_depth,
            min_samples_leaf=min_samples_leaf, max_bins=max_bins,
            subsample=0.7 if how == "subsample" else 1.0,
            early_stopping_rounds=2 if how == "early_stopped" else None,
            random_state=seed % 1000,
        )
        fast, ref = (
            _fit_as(GBDTRegressor(params, mode=mode), how, X, y)
            for mode in ("fast", "reference")
        )
        assert len(fast.trees_) == len(ref.trees_)
        for a, b in zip(fast.trees_, ref.trees_):
            for x, z in zip(_node_arrays(a), _node_arrays(b)):
                assert x.dtype == z.dtype and x.tobytes() == z.tobytes()
            assert list(a.split_gains_.items()) == list(b.split_gains_.items())
        assert fast._pred_train.tobytes() == ref._pred_train.tobytes()
        assert fast.train_scores_ == ref.train_scores_
        assert fast.valid_scores_ == ref.valid_scores_
        assert fast.best_iteration_ == ref.best_iteration_

    def test_pickles_keep_their_attribute_set(self, friedman):
        """The leaves rows reach while a tree grows go to the boosting
        loop and stay nowhere: a model and its trees pickle the
        attributes they always did, and no tree holds a per-row array."""
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=5)).fit(X, y)
        model.fit_more(X[:10], y[:10], 2)
        assert list(model.__getstate__()) == [
            "params", "mode", "binner_", "base_score_", "trees_",
            "train_scores_", "valid_scores_", "best_iteration_",
            "_Xb_train", "_y_train", "_pred_train", "_rng",
        ]
        for tree in pickle.loads(pickle.dumps(model)).trees_:
            assert list(vars(tree)) == [
                "params", "_tree", "n_features_", "split_gains_",
            ]
            assert [f.name for f in dataclasses.fields(tree._tree)] == [
                "feature", "threshold_bin", "left", "right", "value", "is_leaf",
            ]
            assert max(a.size for a in _node_arrays(tree)) < 128


def _node_arrays(tree):
    t = tree._tree
    return (t.feature, t.threshold_bin, t.left, t.right, t.value, t.is_leaf)


def _fit_as(model, how, X, y):
    """Fit ``model`` the way ``how`` names: plain, early-stopped on the
    second half, or continued by ``fit_more`` (after a pickle round trip
    for ``pickled_fit_more``)."""
    if how == "early_stopped":
        half = X.shape[0] // 2
        return model.fit(X[:half], y[:half], eval_set=(X[half:], y[half:]))
    model.fit(X, y)
    if how == "pickled_fit_more":
        model = pickle.loads(pickle.dumps(model))
    if how in ("fit_more", "pickled_fit_more"):
        model.fit_more(X[:7] + 0.5, y[:7] + 1.0, 3)
    return model


def _per_tree_sum(model, X, n_trees=None):
    """The per-tree ensemble loop the fused walk replaced: the oracle."""
    X = np.asarray(X, dtype=float).reshape(-1, len(model.binner_.edges_))
    Xb = model.binner_.transform(X)
    if n_trees is None:
        n_trees = (model.best_iteration_ + 1 if model.best_iteration_ is not None
                   else len(model.trees_))
    out = np.full(Xb.shape[0], model.base_score_)
    for tree in model.trees_[:n_trees]:
        out += model.params.learning_rate * tree.predict_binned(Xb)
    return out


def _with_nans(rng, X, frac):
    X = X.copy()
    X[rng.random(X.shape) < frac] = np.nan
    return X


class TestFusedWalk:
    """The fused walk of the node table against the per-tree loop, byte
    for byte (``tobytes``), over every way a model comes to be."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        how=st.sampled_from(["fit", "subsample", "early_stopped", "fit_more",
                             "pickled"]),
        n_features=st.integers(1, 5),
        max_depth=st.integers(1, 7),
        n_estimators=st.integers(1, 30),
    )
    def test_matches_the_per_tree_loop(self, seed, how, n_features,
                                       max_depth, n_estimators):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 300))
        X = _with_nans(rng, rng.normal(size=(n, n_features)), 0.1)
        y = np.nan_to_num(X[:, 0]) ** 2 + rng.normal(size=n)
        params = GBDTParams(
            n_estimators=n_estimators, max_depth=max_depth,
            min_samples_leaf=int(rng.integers(1, 10)),
            subsample=0.7 if how == "subsample" else 1.0,
            early_stopping_rounds=2 if how == "early_stopped" else None,
            random_state=seed % 1000,
        )
        model = GBDTRegressor(params)
        if how == "early_stopped":
            half = n // 2
            model.fit(X[:half], y[:half], eval_set=(X[half:], y[half:]))
        else:
            model.fit(X, y)
        if how == "fit_more":
            model.fit_more(X[:7], y[:7] + 1.0, 4)
        if how == "pickled":
            model = pickle.loads(pickle.dumps(model))
        n_trees = len(model.trees_)
        for rows in (1, 7, 500):
            Xt = _with_nans(rng, rng.normal(size=(rows, n_features)), 0.1)
            Xt[0] = np.nan  # one all-missing row in every batch
            for truncate in (None, 0, n_trees // 2, n_trees + 3):
                got = model.predict(Xt, n_trees=truncate)
                want = _per_tree_sum(model, Xt, truncate)
                assert got.tobytes() == want.tobytes(), (rows, truncate)

    def test_blocks_of_cells_leave_the_sum_unchanged(self, friedman,
                                                     monkeypatch):
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=25, max_depth=5))
        model.fit(X, y)
        whole = model.predict(X)
        # 7-row blocks, the last one short
        monkeypatch.setattr(tree_mod, "WALK_CELLS", 7 * 25 + 3)
        assert model.predict(X).tobytes() == whole.tobytes()
        assert whole.tobytes() == _per_tree_sum(model, X).tobytes()

    def test_a_large_predict_holds_about_one_block(self, friedman):
        """60,000 rows × 25 trees walk in blocks, so the predict's peak
        allocation stays near 3 MB; one walk over all 1.5M (row, tree)
        cells peaks near 38 MB."""
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=25)).fit(X, y)
        big = np.tile(X, (50, 1))
        tracemalloc.start()
        try:
            model.predict(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_seeding_new_rows_matches_the_per_tree_loop(self, friedman):
        """fit_more seeds its new rows' predictions through the walk."""
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=12, max_depth=4))
        model.fit(X[:600], y[:600])
        seeded = _per_tree_sum(model, X[600:650])
        model.fit_more(X[600:650], y[600:650], 0)
        assert model._pred_train[600:].tobytes() == seeded.tobytes()

    def test_pickle_bytes_unchanged_by_predict_or_a_round_trip(self, friedman):
        """The node table is derived state: a predict leaves the pickle
        as it was, a pickle never carries the table, and an unpickled
        model pickles to the same bytes and predicts the same floats."""
        X, y = friedman
        model = GBDTRegressor(GBDTParams(n_estimators=10)).fit(X, y)
        before = pickle.dumps(model)
        model.predict(X[:50])
        assert pickle.dumps(model) == before
        assert b"NodeTable" not in before
        clone = pickle.loads(before)
        assert pickle.dumps(clone) == before
        assert clone.predict(X).tobytes() == model.predict(X).tobytes()
