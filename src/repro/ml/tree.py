"""Histogram-based regression tree (the GBDT base learner).

This is the LightGBM-style design the paper's GBDT [42] relies on:

1. Features are pre-binned into at most ``max_bins`` quantile bins
   (:class:`Binner`), so split search scans bins, not raw values.
2. Trees grow level-by-level; at each level the candidate splits for *all*
   frontier nodes are evaluated from per-(node, feature, bin) histograms
   of sample counts and gradient sums.
3. For squared loss the optimal leaf value is the mean residual, and the
   split gain is the variance-reduction form
   ``S_l²/n_l + S_r²/n_r − S²/n``.

Histogram building has two implementations behind ``fit(mode=...)``,
mirroring the fast/reference split of :mod:`repro.sim.fast`:

* ``"fast"`` (default) — one fused ``np.bincount`` pass per level keyed
  by ``node_slot · (m · n_bins) + feature · n_bins + bin``, with the
  per-feature key offsets precomputed once per boosting call in a
  :class:`HistogramCache` (the binned matrix is frozen across that
  call's stages, so the cache is built once and reused by every tree).
* ``"reference"`` — the original per-feature Python loop (two
  ``np.bincount`` calls per feature per level), kept verbatim as the
  byte-parity correctness oracle.

Both modes accumulate per-bin statistics in the same row order, take the
same cumulative sums and break gain ties identically (lowest feature,
then lowest bin), so the grown trees are bit-for-bit identical.

The tree is stored as flat arrays so prediction is a vectorized walk.
An ensemble predicts through a :class:`NodeTable`: every tree's nodes
packed into one table, which rows × trees walk together, one numpy step
per depth level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Binner", "HistogramCache", "NodeTable", "TreeParams", "RegressionTree"]

_FIT_MODES = ("fast", "reference")

#: most (row, tree) cells one block of a :meth:`NodeTable.sum` walks
#: and holds at once: a 60k-row predict keeps the memory of a small one
WALK_CELLS = 1 << 16


class Binner:
    """Quantile binning of a float feature matrix.

    Bin semantics: value ``x`` falls in bin ``searchsorted(edges, x,
    'left')``; a split "bin <= t" therefore means ``x <= edges[t]`` on raw
    values.  Edges are per-feature interior quantile boundaries (at most
    ``max_bins - 1`` of them, deduplicated).

    NaN handling: quantile edges are computed over the non-NaN values,
    and every feature reserves a dedicated *missing-value bin* at index
    ``edges.size + 1`` — one past the highest regular bin — that NaN
    values are routed to deterministically.  Because the missing bin is
    the top index, a split "bin <= t" over regular thresholds always
    sends missing values right, and the threshold ``t == edges.size``
    isolates missing from every real value; split search needs no
    special casing.  The bin is reserved whether or not the fit data
    contained NaNs, so transform-time missing values never alias a real
    quantile bin.
    """

    def __init__(self, max_bins: int = 256) -> None:
        if not 2 <= max_bins <= 65_535:
            raise ValueError("max_bins must be in [2, 65535]")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "Binner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        qs = np.linspace(0, 1, self.max_bins + 1)[1:-1]
        self.edges_ = []
        for j in range(X.shape[1]):
            col = X[:, j]
            col = col[~np.isnan(col)]
            if col.size == 0:
                self.edges_.append(np.empty(0))
                continue
            edges = np.unique(np.quantile(col, qs))
            self.edges_.append(edges)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Bin ``X``: one ``searchsorted`` per feature (empty edges put
        every value in bin 0), then one masked write of each feature's
        missing bin over the matrix's NaNs.  A single ``searchsorted``
        over offset edges would add float offsets to raw values, which
        can move a value across an edge."""
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.edges_):
            out[:, j] = np.searchsorted(edges, X[:, j], side="left")
        missing = np.array([e.size + 1 for e in self.edges_], dtype=np.int32)
        np.copyto(out, missing, where=np.isnan(X))
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def missing_bin(self, feature: int) -> int:
        """The reserved missing-value bin index of one feature."""
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return self.edges_[feature].size + 1

    @property
    def n_bins(self) -> int:
        """Upper bound of bin index + 1 across features.

        Includes each feature's reserved missing-value bin, so histogram
        widths sized from this cover NaN rows too.
        """
        if self.edges_ is None:
            raise RuntimeError("Binner not fitted")
        return max((e.size + 2 for e in self.edges_), default=1)


class HistogramCache:
    """Fused-key view of a frozen binned matrix, shared across trees.

    Stores ``base[i, f] = f * n_bins + X_binned[i, f]`` so the fast fit
    path can build every (node, feature, bin) histogram of a level with
    a single ``np.bincount`` keyed by ``slot * (m * n_bins) + base``.
    A GBDT boosting call (``fit``, or a ``fit_more`` that adds stages)
    builds the cache once from the binned training matrix and hands it
    to each of its stages — the per-feature key arithmetic (and the
    int64 upcast of the whole matrix) happens once per call instead of
    once per feature per level per tree.  The cache lives only for that
    call, so a model never holds or pickles it.
    """

    def __init__(self, X_binned: np.ndarray, n_bins: int) -> None:
        X_binned = np.asarray(X_binned)
        if X_binned.ndim != 2:
            raise ValueError("X_binned must be 2-D")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.n_bins = int(n_bins)
        offsets = np.arange(X_binned.shape[1], dtype=np.int64) * self.n_bins
        self.base = X_binned.astype(np.int64) + offsets


@dataclass(frozen=True)
class TreeParams:
    """Growth hyper-parameters for a single regression tree."""

    max_depth: int = 6
    min_samples_leaf: int = 20
    min_gain: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class _FlatTree:
    """Array-of-structs tree storage."""

    feature: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    threshold_bin: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    left: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    right: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    value: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    is_leaf: np.ndarray = field(default_factory=lambda: np.empty(0, bool))


class RegressionTree:
    """Least-squares regression tree over pre-binned features.

    ``fit`` consumes the *binned* integer matrix produced by
    :class:`Binner`; ``predict_binned`` likewise.  The owning GBDT handles
    raw-value binning so the edges are shared across all trees.
    """

    def __init__(self, params: TreeParams | None = None) -> None:
        self.params = params or TreeParams()
        self._tree = _FlatTree()
        self.n_features_: int | None = None
        self.split_gains_: dict[int, float] = {}

    # ------------------------------------------------------------------
    def fit(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
        n_bins: int | None = None,
        mode: str = "fast",
        cache: HistogramCache | None = None,
    ) -> "RegressionTree":
        """Grow the tree.  ``n_bins`` (any upper bound on bin index + 1,
        e.g. ``Binner.n_bins``) skips the per-tree matrix max-scan the
        boosting loop would otherwise repeat for every stage.

        ``mode`` selects the histogram builder (``"fast"`` fused pass /
        ``"reference"`` per-feature loop — bit-identical trees either
        way); ``cache`` optionally supplies the fast path's precomputed
        :class:`HistogramCache` over the *full* (pre-``sample_indices``)
        matrix, which the boosting loop reuses across stages.
        """
        if mode not in _FIT_MODES:
            raise ValueError(f"mode must be one of {_FIT_MODES}, got {mode!r}")
        X_binned = np.asarray(X_binned)
        y = np.asarray(y, dtype=float)
        if X_binned.ndim != 2 or X_binned.shape[0] != y.shape[0]:
            raise ValueError("X_binned/y shape mismatch")
        base = None
        if mode == "fast" and cache is not None:
            if cache.base.shape != X_binned.shape:
                raise ValueError("cache does not match X_binned's shape")
            if n_bins is None:
                n_bins = cache.n_bins
            elif n_bins != cache.n_bins:
                raise ValueError("cache was built with a different n_bins")
            base = cache.base
        if sample_indices is not None:
            X_binned = X_binned[sample_indices]
            y = y[sample_indices]
            if base is not None:
                base = base[sample_indices]
        n, m = X_binned.shape
        self.n_features_ = m
        if n_bins is None:
            n_bins = int(X_binned.max()) + 1 if n else 1
        p = self.params

        # Growing arrays (python lists; appended per created node).
        feature: list[int] = [-1]
        thresh: list[int] = [-1]
        left: list[int] = [-1]
        right: list[int] = [-1]
        value: list[float] = [float(y.mean()) if n else 0.0]
        is_leaf: list[bool] = [True]

        if n == 0 or n_bins < 2:
            # No data, or every feature landed in a single bin: stump.
            self._finalize(feature, thresh, left, right, value, is_leaf)
            return self

        if mode == "fast" and base is None:
            base = X_binned.astype(np.int64) + np.arange(m, dtype=np.int64) * n_bins

        node_of = np.zeros(n, dtype=np.int64)
        frontier = [0]  # node ids eligible for splitting at current depth

        for _depth in range(p.max_depth):
            if mode == "fast" and frontier:
                # Nodes with fewer than 2*min_samples_leaf rows can never
                # satisfy a valid split (both children need min_samples_leaf),
                # so the reference loop scores them all -inf.  Skipping their
                # histograms entirely yields the identical tree for free.
                node_counts = np.bincount(node_of, minlength=len(value))
                frontier = [
                    nid
                    for nid in frontier
                    if node_counts[nid] >= 2 * p.min_samples_leaf
                ]
            if not frontier:
                break
            frontier_arr = np.asarray(frontier)
            # Map node id -> dense slot for this level.
            slot_of = np.full(len(value), -1, dtype=np.int64)
            slot_of[frontier_arr] = np.arange(len(frontier_arr))
            active = slot_of[node_of] >= 0
            act_slots = slot_of[node_of[active]]
            act_y = y[active]
            k = len(frontier_arr)

            tot_cnt = np.bincount(act_slots, minlength=k).astype(float)
            tot_sum = np.bincount(act_slots, weights=act_y, minlength=k)

            if mode == "fast":
                best_gain, best_feat, best_bin = self._best_splits_fast(
                    base, active, act_slots, act_y, k, m, n_bins,
                    tot_cnt, tot_sum,
                )
            else:
                best_gain, best_feat, best_bin = self._best_splits_reference(
                    X_binned, active, act_slots, act_y, k, m, n_bins,
                    tot_cnt, tot_sum,
                )

            # Create children for nodes with a worthwhile split.
            split_mask = best_gain > p.min_gain
            next_frontier: list[int] = []
            child_left = np.full(k, -1, dtype=np.int64)
            for slot in np.flatnonzero(split_mask):
                node = int(frontier_arr[slot])
                lid, rid = len(value), len(value) + 1
                feature[node] = int(best_feat[slot])
                thresh[node] = int(best_bin[slot])
                left[node] = lid
                right[node] = rid
                is_leaf[node] = False
                self.split_gains_[node] = float(best_gain[slot])
                for _ in range(2):
                    feature.append(-1)
                    thresh.append(-1)
                    left.append(-1)
                    right.append(-1)
                    value.append(0.0)
                    is_leaf.append(True)
                child_left[slot] = lid
                next_frontier.extend((lid, rid))

            if not next_frontier:
                break

            # Route samples of split nodes to their children (vectorized).
            slots = slot_of[node_of]
            moving = (slots >= 0) & split_mask[np.clip(slots, 0, k - 1)]
            mv_slots = slots[moving]
            fvals = X_binned[moving, best_feat[mv_slots]]
            go_left = fvals <= best_bin[mv_slots]
            node_of[moving] = np.where(
                go_left, child_left[mv_slots], child_left[mv_slots] + 1
            )
            frontier = next_frontier

        # Leaf values = mean target of samples landing there.
        leaf_cnt = np.bincount(node_of, minlength=len(value)).astype(float)
        leaf_sum = np.bincount(node_of, weights=y, minlength=len(value))
        for nid in range(len(value)):
            if is_leaf[nid] and leaf_cnt[nid] > 0:
                value[nid] = leaf_sum[nid] / leaf_cnt[nid]
        self._finalize(feature, thresh, left, right, value, is_leaf)
        return self

    def _best_splits_fast(
        self, base, active, act_slots, act_y, k, m, n_bins, tot_cnt, tot_sum
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused histogram pass for every (node, feature) of a level.

        Keys ``slot * (m * n_bins) + f * n_bins + bin`` feed a single
        ``np.bincount`` per statistic; within each (slot, feature, bin)
        cell the accumulation visits rows in the same order as the
        reference per-feature loop, so the sums are bit-identical.  The
        flat argmax breaks gain ties exactly like the reference's strict
        ``>`` scan: lowest feature first, then lowest bin.
        """
        p = self.params
        key = base[active]  # fresh copy — safe to offset in place
        key += (act_slots * (m * n_bins))[:, None]
        key = key.ravel()
        minlength = k * m * n_bins
        cnt = np.bincount(key, minlength=minlength).reshape(k, m, n_bins)
        sm = np.bincount(
            key, weights=np.repeat(act_y, m), minlength=minlength
        ).reshape(k, m, n_bins)
        np.cumsum(cnt, axis=2, out=cnt)
        np.cumsum(sm, axis=2, out=sm)
        lc = cnt[:, :, :-1]  # left counts per threshold
        ls = sm[:, :, :-1]
        rc = tot_cnt[:, None, None] - lc
        rs = tot_sum[:, None, None] - ls
        valid = (lc >= p.min_samples_leaf) & (rc >= p.min_samples_leaf)
        # Same expressions and evaluation order as the reference loop,
        # rewritten with out= buffers so each level allocates O(1) large
        # temporaries instead of ~a dozen.
        with np.errstate(invalid="ignore", divide="ignore"):
            gain = ls * ls
            gain /= np.maximum(lc, 1)
            rhs = rs * rs
            rhs /= np.maximum(rc, 1)
            gain += rhs
            gain -= (tot_sum * tot_sum / np.maximum(tot_cnt, 1))[:, None, None]
        np.logical_not(valid, out=valid)
        gain[valid] = -np.inf
        flat = gain.reshape(k, m * (n_bins - 1))
        best_idx = np.argmax(flat, axis=1)
        best_gain = flat[np.arange(k), best_idx]
        return best_gain, best_idx // (n_bins - 1), best_idx % (n_bins - 1)

    def _best_splits_reference(
        self, X_binned, active, act_slots, act_y, k, m, n_bins, tot_cnt, tot_sum
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-feature histogram loop — the byte-parity oracle."""
        p = self.params
        best_gain = np.full(k, -np.inf)
        best_feat = np.full(k, -1, dtype=np.int64)
        best_bin = np.full(k, -1, dtype=np.int64)

        for f in range(m):
            bins_f = X_binned[active, f].astype(np.int64)
            key = act_slots * n_bins + bins_f
            cnt = np.bincount(key, minlength=k * n_bins).reshape(k, n_bins)
            sm = np.bincount(
                key, weights=act_y, minlength=k * n_bins
            ).reshape(k, n_bins)
            lc = np.cumsum(cnt, axis=1)[:, :-1]  # left counts per threshold
            ls = np.cumsum(sm, axis=1)[:, :-1]
            rc = tot_cnt[:, None] - lc
            rs = tot_sum[:, None] - ls
            valid = (lc >= p.min_samples_leaf) & (rc >= p.min_samples_leaf)
            with np.errstate(invalid="ignore", divide="ignore"):
                gain = (
                    ls * ls / np.maximum(lc, 1)
                    + rs * rs / np.maximum(rc, 1)
                    - (tot_sum * tot_sum / np.maximum(tot_cnt, 1))[:, None]
                )
            gain[~valid] = -np.inf
            f_best_bin = np.argmax(gain, axis=1)
            f_best_gain = gain[np.arange(k), f_best_bin]
            better = f_best_gain > best_gain
            best_gain[better] = f_best_gain[better]
            best_feat[better] = f
            best_bin[better] = f_best_bin[better]
        return best_gain, best_feat, best_bin

    def _finalize(self, feature, thresh, left, right, value, is_leaf) -> None:
        self._tree = _FlatTree(
            feature=np.asarray(feature, np.int32),
            threshold_bin=np.asarray(thresh, np.int32),
            left=np.asarray(left, np.int32),
            right=np.asarray(right, np.int32),
            value=np.asarray(value, np.float64),
            is_leaf=np.asarray(is_leaf, bool),
        )

    # ------------------------------------------------------------------
    def predict_binned(self, X_binned: np.ndarray) -> np.ndarray:
        """Predict from pre-binned features (vectorized tree walk)."""
        t = self._tree
        if t.value.size == 0:
            raise RuntimeError("tree not fitted")
        X_binned = np.asarray(X_binned)
        node = np.zeros(X_binned.shape[0], dtype=np.int64)
        # Depth-bounded loop: every iteration advances all non-leaf rows.
        for _ in range(self.params.max_depth + 1):
            active = ~t.is_leaf[node]
            if not np.any(active):
                break
            cur = node[active]
            fvals = X_binned[active, t.feature[cur]]
            go_left = fvals <= t.threshold_bin[cur]
            node[active] = np.where(go_left, t.left[cur], t.right[cur])
        return t.value[node]

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self._tree.value.size)

    @property
    def n_leaves(self) -> int:
        return int(self._tree.is_leaf.sum())

    @property
    def depth(self) -> int:
        """Actual depth reached (0 = stump that never split)."""
        t = self._tree
        depth = np.zeros(t.value.size, dtype=int)
        for nid in range(t.value.size):
            if not t.is_leaf[nid]:
                depth[t.left[nid]] = depth[nid] + 1
                depth[t.right[nid]] = depth[nid] + 1
        return int(depth.max()) if depth.size else 0

    def feature_gains(self) -> np.ndarray:
        """Total split gain attributed to each feature."""
        if self.n_features_ is None:
            raise RuntimeError("tree not fitted")
        gains = np.zeros(self.n_features_)
        t = self._tree
        for nid, g in self.split_gains_.items():
            gains[t.feature[nid]] += g
        return gains


class NodeTable:
    """The nodes of a tree ensemble packed into one table.

    Node ``i`` splits on column ``feature[i]``: a row whose bin is at
    most ``threshold[i]`` moves to ``child[2 i]``, any other row to
    ``child[2 i + 1]``.  A leaf is both of its own children (splitting
    on feature 0), so a row that reached one stays there and every
    (row, tree) cell can take the same ``depth`` steps.  ``roots[k]`` is
    tree ``k``'s root; ``value`` holds the leaf values.

    The table is derived from the trees: its GBDT extends it after each
    boosting call and rebuilds it when unpickled, and never pickles it.
    """

    def __init__(self, trees=()) -> None:
        self.feature = np.empty(0, np.intp)
        self.threshold = np.empty(0, np.int32)
        self.child = np.empty(0, np.intp)
        self.value = np.empty(0, np.float64)
        self.roots = np.empty(0, np.intp)
        #: walk steps: the trees' deepest ``max_depth``, 0 while none splits
        self.depth = 0
        self.extend(trees)

    def __len__(self) -> int:
        return self.roots.size

    def extend(self, trees) -> None:
        """Append ``trees``' nodes, in order, after the table's."""
        trees = list(trees)
        if not trees:
            return
        flats = [tree._tree for tree in trees]
        leaf, feature, threshold, left, right, value = (
            np.concatenate(parts) for parts in zip(*(
                (t.is_leaf, t.feature, t.threshold_bin, t.left, t.right, t.value)
                for t in flats
            ))
        )
        sizes = np.array([t.value.size for t in flats])
        roots = self.value.size + np.cumsum(sizes) - sizes
        ids = np.arange(self.value.size, self.value.size + leaf.size)
        pairs = np.stack([left, right], axis=1) + np.repeat(roots, sizes)[:, None]
        child = np.where(leaf[:, None], ids[:, None], pairs)
        self.feature = np.concatenate([self.feature, np.where(leaf, 0, feature)])
        self.threshold = np.concatenate([self.threshold, threshold])
        self.child = np.concatenate([self.child, child.ravel()])
        self.value = np.concatenate([self.value, value])
        self.roots = np.concatenate([self.roots, roots])
        if not leaf.all():
            self.depth = max([self.depth] + [t.params.max_depth for t in trees])

    def sum(self, X_binned: np.ndarray, n_trees: int, base: float,
            scale: float) -> np.ndarray:
        """``base`` plus ``scale`` times each of the first ``n_trees``
        trees' leaf values (the slice ``roots[:n_trees]``), added tree
        by tree in order, so the floats equal those of a loop that adds
        one tree's predictions at a time.

        Rows go through in blocks of at most :data:`WALK_CELLS` (row,
        tree) cells.  A block walks ``depth`` steps, then sums its
        ``(n_trees + 1, rows)`` buffer, whose first row is ``base``,
        with one ``np.add.accumulate``.
        """
        X_binned = np.ascontiguousarray(X_binned)
        rows, m = X_binned.shape
        flat = X_binned.ravel()
        roots = self.roots[:n_trees]
        out = np.empty(rows)
        block = max(1, WALK_CELLS // max(roots.size, 1))
        for lo in range(0, rows, block):
            hi = min(rows, lo + block)
            cells = np.arange(lo, hi) * m
            node = np.repeat(roots[:, None], hi - lo, axis=1)
            for _ in range(self.depth):
                right = flat[self.feature[node] + cells] > self.threshold[node]
                node = self.child[2 * node + right]
            buf = np.empty((roots.size + 1, hi - lo))
            buf[0] = base
            np.multiply(self.value[node], scale, out=buf[1:])
            np.add.accumulate(buf, axis=0, out=buf)
            out[lo:hi] = buf[-1]
        return out
