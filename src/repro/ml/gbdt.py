"""Gradient-Boosted Decision Trees for regression (squared loss).

Scratch numpy implementation of the model class the paper uses for both
services (LightGBM [42] in the original): histogram trees, shrinkage,
stochastic row subsampling, and optional early stopping on a validation
split.  For squared loss the negative gradient is simply the residual, so
each stage fits a :class:`~repro.ml.tree.RegressionTree` to residuals.

Like the simulator (``sim/fast.py``) the fit path has two modes:
``mode="fast"`` (default) builds a :class:`~repro.ml.tree.HistogramCache`
over the binned training matrix once per boosting call (``fit``, or a
``fit_more`` that adds stages) and reuses it across that call's stages,
driving the fused single-``bincount`` split search;
``mode="reference"`` runs the scratch per-feature histogram loop.  Both
produce byte-identical ensembles — the reference path is the oracle the
parity tests and benchmarks compare against.

Prediction walks every tree at once.  The model keeps its trees packed
in one :class:`~repro.ml.tree.NodeTable` (``fit`` resets it, each
boosting call extends it), so a predict is ``max_depth`` numpy steps
over rows × trees plus one ordered sum, whatever the ensemble's size,
and its floats equal those of adding the trees' predictions one by one.

A model is plain state: it pickles with its continuation buffers (the
binned training matrix, targets, running predictions and RNG), so an
unpickled model predicts and continues boosting exactly as the original
would.  Serving checkpoints rely on that.  The node table is derived
from the trees, so pickles leave it out and unpickling rebuilds it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tree import Binner, HistogramCache, NodeTable, RegressionTree, TreeParams

__all__ = ["GBDTParams", "GBDTRegressor"]

_FIT_MODES = ("fast", "reference")


@dataclass(frozen=True)
class GBDTParams:
    """Boosting hyper-parameters."""

    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: int = 20
    subsample: float = 1.0
    max_bins: int = 256
    early_stopping_rounds: int | None = None
    random_state: int = 0

    def __post_init__(self) -> None:
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


class GBDTRegressor:
    """Boosted regression ensemble.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(500, 3))
    >>> y = X[:, 0] ** 2 + X[:, 1]
    >>> model = GBDTRegressor(GBDTParams(n_estimators=50)).fit(X, y)
    >>> float(np.mean((model.predict(X) - y) ** 2)) < 0.2
    True
    """

    def __init__(
        self, params: GBDTParams | None = None, *, mode: str = "fast"
    ) -> None:
        if mode not in _FIT_MODES:
            raise ValueError(f"mode must be one of {_FIT_MODES}, got {mode!r}")
        self.params = params or GBDTParams()
        self.mode = mode
        self.binner_: Binner | None = None
        self.base_score_: float = 0.0
        self.trees_: list[RegressionTree] = []
        self.train_scores_: list[float] = []
        self.valid_scores_: list[float] = []
        self.best_iteration_: int | None = None
        # Training state kept for fit_more (continued boosting): the
        # binned training matrix, targets, current ensemble predictions
        # on those rows, and the subsampling RNG.
        self._Xb_train: np.ndarray | None = None
        self._y_train: np.ndarray | None = None
        self._pred_train: np.ndarray | None = None
        self._rng: np.random.Generator | None = None
        # Derived from trees_, never pickled; set last, so a pickled
        # state keeps the key order of the attributes above.
        self._table = NodeTable()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Interned keys, as pickle's own restore gives them, so a model
        # pickles to the same bytes after a round trip.
        self.__dict__.update({sys.intern(k): v for k, v in state.items()})
        self._table = NodeTable(self.trees_)

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GBDTRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X/y shape mismatch")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        p = self.params
        rng = np.random.default_rng(p.random_state)

        self.binner_ = Binner(max_bins=p.max_bins)
        Xb = self.binner_.fit_transform(X)
        self.base_score_ = float(y.mean())
        pred = np.full(y.shape[0], self.base_score_)

        Xb_val = yv = pred_val = None
        if eval_set is not None:
            Xv, yv = eval_set
            Xb_val = self.binner_.transform(np.asarray(Xv, dtype=float))
            yv = np.asarray(yv, dtype=float)
            pred_val = np.full(yv.shape[0], self.base_score_)

        self.trees_ = []
        self._table = NodeTable()
        self.train_scores_ = []
        self.valid_scores_ = []
        best_val = np.inf
        best_iter = 0

        stages = self._boost(Xb, y, pred, rng)
        for it, tree in zip(range(p.n_estimators), stages):
            if pred_val is not None:
                pred_val += p.learning_rate * tree.predict_binned(Xb_val)
                val_mse = float(np.mean((yv - pred_val) ** 2))
                self.valid_scores_.append(val_mse)
                if val_mse < best_val - 1e-12:
                    best_val = val_mse
                    best_iter = it
                elif (
                    p.early_stopping_rounds is not None
                    and it - best_iter >= p.early_stopping_rounds
                ):
                    break
        self._table.extend(self.trees_)
        self.best_iteration_ = (
            best_iter if (eval_set is not None and self.valid_scores_) else None
        )
        self._Xb_train = Xb
        self._y_train = y
        self._pred_train = pred
        self._rng = rng
        return self

    def _boost(
        self,
        Xb: np.ndarray,
        y: np.ndarray,
        pred: np.ndarray,
        rng: np.random.Generator,
    ) -> Iterator[RegressionTree]:
        """Boosting stages over one binned matrix, one per ``next``,
        shared by :meth:`fit` and :meth:`fit_more`.

        Each stage fits a tree to the residuals (optionally
        row-subsampled), advances ``pred`` in place, records the tree
        and its training MSE, and yields the tree.  The fast path's
        :class:`HistogramCache` over ``Xb`` is built at the first stage
        and lives as long as the generator: one boosting call.
        """
        p = self.params
        tree_params = TreeParams(
            max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf
        )
        n_bins = self.binner_.n_bins
        cache = HistogramCache(Xb, n_bins) if self.mode == "fast" else None
        n = y.shape[0]
        while True:
            residual = y - pred
            idx = None
            if p.subsample < 1.0:
                k = max(1, int(round(p.subsample * n)))
                idx = rng.choice(n, size=k, replace=False)
            tree = RegressionTree(tree_params).fit(
                Xb,
                residual,
                sample_indices=idx,
                n_bins=n_bins,
                mode=self.mode,
                cache=cache,
            )
            pred += p.learning_rate * tree.predict_binned(Xb)
            self.trees_.append(tree)
            self.train_scores_.append(float(np.mean((y - pred) ** 2)))
            yield tree

    # ------------------------------------------------------------------
    def fit_more(
        self,
        X_new: np.ndarray,
        y_new: np.ndarray,
        n_more: int,
    ) -> "GBDTRegressor":
        """Continue boosting: append rows, then fit ``n_more`` new stages.

        The new rows are binned with the *frozen* :class:`Binner` from the
        initial fit, routed through the existing ensemble once to seed
        their predictions, and the boosting recursion resumes on the full
        grown matrix, over a histogram cache built for this call — so an
        incremental stage costs the same as a stage of the original fit,
        and no feature re-binning of old rows ever happens.  Used by the
        rolling-origin evaluation engine to advance the GBDT comparator
        by one fold in O(n_more · n_rows) instead of re-running the
        whole boosting schedule.  An unpickled model continues the same
        way: its buffers and RNG travel with it.

        Not available after an early-stopped fit (the truncated ensemble
        would disagree with the cached training predictions).
        """
        if self.binner_ is None or self._Xb_train is None:
            raise RuntimeError("model not fitted; call fit() before fit_more()")
        if self.best_iteration_ is not None:
            raise RuntimeError("cannot continue an early-stopped fit")
        if n_more < 0:
            raise ValueError("n_more must be >= 0")
        X_new = np.asarray(X_new, dtype=float)
        y_new = np.asarray(y_new, dtype=float)
        if X_new.ndim == 1:
            X_new = X_new.reshape(1, -1)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("X/y shape mismatch")
        if X_new.shape[0]:
            Xb_new = self.binner_.transform(X_new)
            pred_new = self._ensemble_sum(Xb_new, len(self.trees_))
            self._Xb_train = np.vstack([self._Xb_train, Xb_new])
            self._y_train = np.concatenate([self._y_train, y_new])
            self._pred_train = np.concatenate([self._pred_train, pred_new])

        stages = self._boost(
            self._Xb_train, self._y_train, self._pred_train, self._rng
        )
        for _ in range(n_more):
            next(stages)
        self._table.extend(self.trees_[len(self._table):])
        return self

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
        """Predict; optionally truncate the ensemble to ``n_trees`` stages.

        When early stopping selected a best iteration, prediction uses the
        ensemble up to that iteration by default.
        """
        if self.binner_ is None:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        Xb = self.binner_.transform(X)
        if n_trees is None:
            n_trees = (
                self.best_iteration_ + 1
                if self.best_iteration_ is not None
                else len(self.trees_)
            )
        return self._ensemble_sum(Xb, n_trees)

    def _ensemble_sum(self, Xb: np.ndarray, n_trees: int) -> np.ndarray:
        """The first ``n_trees`` stages (``trees_[:n_trees]``) summed
        over binned rows by one fused walk of the node table: the one
        ensemble walk behind :meth:`predict` and :meth:`fit_more`'s
        seeding of new rows."""
        return self._table.sum(
            Xb, n_trees, self.base_score_, self.params.learning_rate
        )

    def staged_mse(self) -> list[float]:
        """Training MSE after each boosting stage (monotone check hook)."""
        return list(self.train_scores_)

    def feature_importances(self) -> np.ndarray:
        """Gain-based importances, normalized to sum to 1.

        When early stopping selected a best iteration, only the trees
        :meth:`predict` actually uses (up to and including that
        iteration) contribute — gains from stages past the truncation
        point would describe an ensemble that never predicts.
        """
        if not self.trees_:
            raise RuntimeError("model not fitted")
        n_trees = (
            self.best_iteration_ + 1
            if self.best_iteration_ is not None
            else len(self.trees_)
        )
        total = np.zeros(self.trees_[0].n_features_)
        for tree in self.trees_[:n_trees]:
            total += tree.feature_gains()
        s = total.sum()
        return total / s if s > 0 else total
