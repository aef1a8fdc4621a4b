"""Tests for the binner and histogram regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import Binner, RegressionTree, TreeParams
from repro.ml.tree import HistogramCache


def _tree_arrays(tree):
    t = tree._tree
    return (t.feature, t.threshold_bin, t.left, t.right, t.value, t.is_leaf)


def _assert_same_tree(a, b):
    """Byte-identical node arrays and the same gains in the same order."""
    for x, y in zip(_tree_arrays(a), _tree_arrays(b)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert list(a.split_gains_.items()) == list(b.split_gains_.items())


class TestBinner:
    def test_fit_transform_shape(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        b = Binner(max_bins=16)
        Xb = b.fit_transform(X)
        assert Xb.shape == X.shape
        assert Xb.dtype == np.int32
        assert Xb.max() < 16

    def test_monotone_binning(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        Xb = Binner(max_bins=8).fit_transform(X)
        assert np.all(np.diff(Xb[:, 0]) >= 0)

    def test_constant_feature_single_bin(self):
        X = np.ones((20, 1))
        Xb = Binner(max_bins=8).fit_transform(X)
        assert set(Xb[:, 0].tolist()) <= {0}

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Binner().transform(np.zeros((2, 2)))

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            Binner(max_bins=1)

    def test_transform_unseen_values_clip_into_range(self):
        b = Binner(max_bins=4).fit(np.arange(10.0).reshape(-1, 1))
        out = b.transform(np.array([[-100.0], [100.0]]))
        assert out.min() >= 0
        assert out.max() <= b.n_bins - 1

    def test_split_semantics_consistent(self):
        """bin(x1) <= bin(x2) whenever x1 <= x2 across fit/transform data."""
        rng = np.random.default_rng(3)
        train = rng.normal(size=(200, 1))
        b = Binner(max_bins=32).fit(train)
        test = np.sort(rng.normal(size=(50, 1)), axis=0)
        bins = b.transform(test)[:, 0]
        assert np.all(np.diff(bins) >= 0)


def _transform_per_feature(binner, X):
    """The per-feature transform (an ``isnan``/``any`` pair per column)
    that ``Binner.transform`` replaced: the oracle."""
    out = np.empty(X.shape, dtype=np.int32)
    for j, edges in enumerate(binner.edges_):
        col = X[:, j]
        if edges.size == 0:
            out[:, j] = 0
        else:
            out[:, j] = np.searchsorted(edges, col, side="left")
        nan = np.isnan(col)
        if nan.any():
            out[nan, j] = edges.size + 1
    return out


class TestBinnerTransform:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_bins=st.integers(2, 64),
           rows=st.integers(1, 200), cols=st.integers(1, 6))
    def test_matches_the_per_feature_reference(self, seed, max_bins, rows,
                                               cols):
        """Over NaN-sprinkled, all-NaN and constant features alike."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, cols)
        X[rng.random(X.shape) < rng.random()] = np.nan
        X[:, rng.integers(cols)] = np.nan
        X[:, rng.integers(cols)] = 3.0
        b = Binner(max_bins=max_bins).fit(X)
        Xt = rng.normal(size=(rows, cols)) * 10
        Xt[rng.random(Xt.shape) < 0.3] = np.nan
        Xt[: rows // 2] = X[: rows // 2]
        for data in (X, Xt):
            got = b.transform(data)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, _transform_per_feature(b, data))


class TestMissingValues:
    """NaN handling: a deterministic dedicated missing-value bin.

    Regression: ``Binner.fit`` drops NaNs when computing quantile edges,
    but ``transform`` used to route NaN through ``searchsorted`` — IEEE
    NaN compares greater than everything, so missing values silently
    aliased the *top* regular bin.
    """

    def test_nan_gets_dedicated_bin(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        X[::7, 0] = np.nan
        b = Binner(max_bins=16).fit(X)
        Xb = b.transform(X)
        miss = b.missing_bin(0)
        assert miss == b.edges_[0].size + 1
        nan_rows = np.isnan(X[:, 0])
        assert np.all(Xb[nan_rows, 0] == miss)
        assert np.all(Xb[~nan_rows, 0] < miss)

    def test_nan_does_not_alias_top_bin(self):
        """A huge finite value and NaN must land in different bins."""
        b = Binner(max_bins=8).fit(np.arange(50.0).reshape(-1, 1))
        out = b.transform(np.array([[1e12], [np.nan]]))
        assert out[0, 0] != out[1, 0]
        assert out[1, 0] == b.missing_bin(0)

    def test_missing_bin_reserved_even_without_nans_in_fit(self):
        """The missing bin exists regardless of the fit data, so a model
        fitted on clean data routes NaN deterministically at predict."""
        X = np.random.default_rng(1).normal(size=(60, 1))
        b = Binner(max_bins=8).fit(X)
        assert b.missing_bin(0) < b.n_bins
        out = b.transform(np.array([[np.nan]]))
        assert out[0, 0] == b.missing_bin(0)

    def test_round_trip_is_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        X[rng.random(X.shape) < 0.2] = np.nan
        b = Binner(max_bins=16).fit(X)
        np.testing.assert_array_equal(b.transform(X), b.transform(X))

    def test_tree_fit_with_nan_column_parity(self):
        """Split search threads the missing bin identically in both modes."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 3))
        # Target depends on missingness so splits on the NaN bin pay off.
        nan_mask = rng.random(300) < 0.3
        X[nan_mask, 0] = np.nan
        y = np.where(nan_mask, 5.0, X[:, 1]) + 0.1 * rng.normal(size=300)
        b = Binner(max_bins=16).fit(X)
        Xb = b.transform(X)
        p = TreeParams(max_depth=4, min_samples_leaf=5)
        ref = RegressionTree(p).fit(Xb, y, n_bins=b.n_bins, mode="reference")
        fast = RegressionTree(p).fit(Xb, y, n_bins=b.n_bins, mode="fast")
        _assert_same_tree(ref, fast)
        # The missingness signal is actually learnable: the tree must
        # separate the NaN rows (value near 5) from the rest.
        pred = ref.predict_binned(Xb)
        assert abs(pred[nan_mask].mean() - 5.0) < 0.5


class TestFastReferenceParity:
    """The fused fast split search is a byte-parity twin of the
    per-feature reference loop — including gain tie-breaking."""

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RegressionTree().fit(
                np.zeros((4, 1), dtype=np.int32), np.zeros(4), mode="turbo"
            )

    def test_cache_shape_mismatch_rejected(self):
        Xb = np.zeros((4, 2), dtype=np.int32)
        cache = HistogramCache(np.zeros((3, 2), dtype=np.int32), 4)
        with pytest.raises(ValueError, match="shape"):
            RegressionTree().fit(Xb, np.zeros(4), n_bins=4, cache=cache)

    def test_cache_n_bins_mismatch_rejected(self):
        Xb = np.zeros((4, 2), dtype=np.int32)
        cache = HistogramCache(Xb, 4)
        with pytest.raises(ValueError, match="n_bins"):
            RegressionTree().fit(Xb, np.zeros(4), n_bins=8, cache=cache)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=9999))
    def test_seeded_fuzz_parity(self, seed):
        """Fuzz matrices engineered to produce gain ties (quantized and
        duplicated columns): ties must break identically — lowest
        feature, then lowest bin.  Constant and partly missing columns,
        two-bin binners and leaves of one row ride along, and growth's
        own training predictions must equal a walk of the tree."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 250))
        m = int(rng.integers(2, 8))
        X = rng.normal(size=(n, m))
        X[:, 0] = np.round(X[:, 0])  # coarse grid: repeated gain values
        X[:, 1] = X[:, 0]  # duplicated column: cross-feature ties
        if m >= 3:
            X[:, 2] = 1.5  # constant column
        if m >= 4:
            X[rng.random(n) < 0.3, 3] = np.nan  # missing values
        y = np.round(rng.normal(size=n), 1)
        b = Binner(max_bins=int(rng.integers(2, 32))).fit(X)
        Xb = b.transform(X)
        p = TreeParams(
            max_depth=int(rng.integers(1, 6)),
            min_samples_leaf=int(rng.integers(1, 8)),
        )
        ref = RegressionTree(p).fit(Xb, y, n_bins=b.n_bins, mode="reference")
        fast = RegressionTree(p).fit(Xb, y, n_bins=b.n_bins, mode="fast")
        cached = RegressionTree(p)
        grown = cached.fit_predict(
            Xb, y, n_bins=b.n_bins, mode="fast",
            cache=HistogramCache(Xb, b.n_bins),
        )
        _assert_same_tree(ref, fast)
        _assert_same_tree(ref, cached)
        assert grown.tobytes() == ref.predict_binned(Xb).tobytes()

    def test_levels_with_and_without_rows_outside_the_frontier(self):
        """Level 1 keys every row into a frontier slot.  At level 2 the
        six rows of a leaf too small to split (fewer than
        2·min_samples_leaf) sit outside the frontier, and must neither
        count in a histogram nor move while the others are routed."""
        x = np.arange(120, dtype=float)
        y = 10.0 * (x >= 30) + 1.0 * (x >= 6) + 1.0 * (x >= 75) + 0.3 * (x >= 100)
        b = Binner().fit(x[:, None])
        Xb = b.transform(x[:, None])
        p = TreeParams(max_depth=4, min_samples_leaf=5)
        ref = RegressionTree(p).fit(Xb, y, n_bins=b.n_bins, mode="reference")
        fast = RegressionTree(p)
        grown = fast.fit_predict(Xb, y, n_bins=b.n_bins)
        _assert_same_tree(ref, fast)
        assert grown.tobytes() == ref.predict_binned(Xb).tobytes()
        # root: 30 | 90 rows; then 6 | 24 and 45 | 45; then 25 | 20.
        t = fast._tree
        assert fast.depth == 3 and fast.n_leaves == 5
        assert t.is_leaf[t.left[t.left[0]]]
        assert np.count_nonzero(grown == grown[0]) == 6

    def test_parity_with_sample_indices(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        b = Binner(max_bins=16).fit(X)
        Xb = b.transform(X)
        idx = rng.choice(200, size=120, replace=False)
        p = TreeParams(max_depth=4, min_samples_leaf=4)
        cache = HistogramCache(Xb, b.n_bins)
        ref = RegressionTree(p).fit(
            Xb, y, sample_indices=idx, n_bins=b.n_bins, mode="reference"
        )
        fast = RegressionTree(p).fit(
            Xb, y, sample_indices=idx, n_bins=b.n_bins, mode="fast", cache=cache
        )
        _assert_same_tree(ref, fast)


class TestTreeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)


class TestRegressionTree:
    def _fit(self, X, y, **kw):
        b = Binner(max_bins=64)
        Xb = b.fit_transform(X)
        tree = RegressionTree(TreeParams(**kw)).fit(Xb, y)
        return tree, b

    def test_perfect_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree, b = self._fit(X, y, max_depth=2, min_samples_leaf=5)
        pred = tree.predict_binned(b.transform(X))
        assert np.mean((pred - y) ** 2) < 1e-6

    def test_stump_on_constant_target(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.full(100, 7.0)
        tree, b = self._fit(X, y)
        assert tree.n_leaves == 1
        np.testing.assert_allclose(tree.predict_binned(b.transform(X)), 7.0)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        y = rng.normal(size=500)
        tree, _ = self._fit(X, y, max_depth=3, min_samples_leaf=2)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        tree, b = self._fit(X, y, max_depth=8, min_samples_leaf=30)
        Xb = b.transform(X)
        leaves = {}
        pred = tree.predict_binned(Xb)
        for v in np.unique(pred):
            leaves[v] = int(np.sum(pred == v))
        assert min(leaves.values()) >= 30

    def test_prediction_reduces_variance(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(1000, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=1000)
        tree, b = self._fit(X, y, max_depth=6, min_samples_leaf=10)
        pred = tree.predict_binned(b.transform(X))
        assert np.mean((pred - y) ** 2) < 0.5 * np.var(y)

    def test_sample_indices_subsetting(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 1))
        y = X[:, 0].copy()
        b = Binner(max_bins=32)
        Xb = b.fit_transform(X)
        idx = np.arange(100)
        tree = RegressionTree(TreeParams(max_depth=2)).fit(Xb, y, sample_indices=idx)
        assert tree.n_nodes >= 1

    def test_empty_fit_gives_zero_stump(self):
        tree = RegressionTree().fit(np.zeros((0, 2), dtype=np.int32), np.zeros(0))
        assert tree.n_leaves == 1
        assert tree.predict_binned(np.zeros((3, 2), dtype=np.int32)).tolist() == [0, 0, 0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((5, 2), dtype=np.int32), np.zeros(4))

    def test_predict_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict_binned(np.zeros((1, 1), dtype=np.int32))

    def test_feature_gains_identify_signal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        y = 10.0 * X[:, 1]  # only feature 1 matters
        tree, _ = self._fit(X, y, max_depth=4)
        gains = tree.feature_gains()
        assert np.argmax(gains) == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_leaf_prediction_is_mean_property(self, seed):
        """Property: per-leaf predictions equal the mean target in that leaf."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 2))
        y = rng.normal(size=120)
        b = Binner(max_bins=16)
        Xb = b.fit_transform(X)
        tree = RegressionTree(TreeParams(max_depth=3, min_samples_leaf=5)).fit(Xb, y)
        pred = tree.predict_binned(Xb)
        for v in np.unique(pred):
            mask = pred == v
            assert y[mask].mean() == pytest.approx(v, abs=1e-9)
