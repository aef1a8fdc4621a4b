"""QSSF duration estimators (Algorithm 1, lines 12–20).

Two estimates are blended:

* :class:`RollingEstimator` — P_R: direct lookup in the historical trace.
  New user → average duration of same-GPU-demand jobs; known user but
  new job name → average of that user's same-demand jobs; otherwise an
  exponentially-weighted decay over the user's similar-named jobs
  (most recent first).
* :class:`MLEstimator` — P_M: a GBDT regression over encoded job
  attributes (demands, submission-time decomposition, user/VC/name
  encodings), trained on the historical trace (§4.2.2).
"""

from __future__ import annotations

import numpy as np

from ..frame import Table
from ..ml.encoding import FrequencyEncoder, OrdinalEncoder, time_features
from ..ml.gbdt import GBDTParams, GBDTRegressor
from ..ml.text import NameBucketizer, levenshtein_ratio

__all__ = ["RollingEstimator", "MLEstimator"]


class RollingEstimator:
    """History-table estimator with name-similarity matching.

    Parameters
    ----------
    decay:
        Exponential weight applied per step into the past when averaging
        a user's similar-named jobs (Algorithm 1 line 18).
    similarity_threshold:
        Levenshtein-ratio threshold for "SimilarName" (canonical forms
        are tried for an exact match first, which covers numbered
        recurrences like ``train_v7``).
    """

    def __init__(self, decay: float = 0.8, similarity_threshold: float = 0.7) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self.similarity_threshold = similarity_threshold
        # user -> canon name -> [durations in submission order]
        self._user_names: dict[str, dict[str, list[float]]] = {}
        # (user, gpu) -> (sum, count); user -> (sum, count)
        self._user_gpu: dict[tuple[str, int], tuple[float, int]] = {}
        self._user_all: dict[str, tuple[float, int]] = {}
        # gpu -> (sum, count) over everyone; plus the global mean
        self._gpu_all: dict[int, tuple[float, int]] = {}
        self._global: tuple[float, int] = (0.0, 0)

    # ------------------------------------------------------------------
    def fit(self, history: Table) -> "RollingEstimator":
        """Ingest the historical trace in submission order."""
        order = np.argsort(history["submit_time"], kind="stable")
        users = history["user"][order]
        names = history["name"][order]
        gpus = history["gpu_num"][order]
        durs = history["duration"][order]
        for u, nm, g, d in zip(users, names, gpus.tolist(), durs.tolist()):
            self.update(str(u), str(nm), int(g), float(d))
        return self

    def update(self, user: str, name: str, gpu_num: int, duration: float) -> None:
        """Record one finished job (Model Update Engine hook)."""
        canon = NameBucketizer.canonicalize(name)
        self._user_names.setdefault(user, {}).setdefault(canon, []).append(duration)
        s, c = self._user_gpu.get((user, gpu_num), (0.0, 0))
        self._user_gpu[(user, gpu_num)] = (s + duration, c + 1)
        s, c = self._user_all.get(user, (0.0, 0))
        self._user_all[user] = (s + duration, c + 1)
        s, c = self._gpu_all.get(gpu_num, (0.0, 0))
        self._gpu_all[gpu_num] = (s + duration, c + 1)
        s, c = self._global
        self._global = (s + duration, c + 1)

    # ------------------------------------------------------------------
    def _mean(self, pair: tuple[float, int], fallback: float) -> float:
        s, c = pair
        return s / c if c else fallback

    def estimate(self, user: str, name: str, gpu_num: int) -> float:
        """P_R for one upcoming job (Algorithm 1, Priority function)."""
        if self._global[1] == 0:
            return 1.0  # empty history: all jobs tie
        global_mean = self._global[0] / self._global[1]
        user_names = self._user_names.get(user)
        if user_names is None:
            # New user: average duration of same-demand jobs in the trace.
            return self._mean(self._gpu_all.get(gpu_num, (0.0, 0)), global_mean)
        canon = NameBucketizer.canonicalize(name)
        matched = user_names.get(canon)
        if matched is None:
            # Fuzzy SimilarName pass over the user's distinct canon names.
            best = None
            for cand, durations in user_names.items():
                if levenshtein_ratio(canon, cand) >= self.similarity_threshold:
                    best = durations if best is None else best + durations
            matched = best
        if matched is None:
            # Known user, new job name: same-demand average for this user.
            user_mean = self._mean(self._user_all.get(user, (0.0, 0)), global_mean)
            return self._mean(self._user_gpu.get((user, gpu_num), (0.0, 0)), user_mean)
        # Exponentially weighted decay, most recent observation first.
        recent = np.asarray(matched[-50:][::-1], dtype=float)
        weights = self.decay ** np.arange(len(recent))
        return float((recent * weights).sum() / weights.sum())

    def estimate_many(self, trace: Table) -> np.ndarray:
        """Vector of P_R for every job in ``trace``."""
        users = trace["user"]
        names = trace["name"]
        gpus = trace["gpu_num"]
        return np.array(
            [
                self.estimate(str(u), str(nm), int(g))
                for u, nm, g in zip(users, names, gpus.tolist())
            ]
        )


class MLEstimator:
    """GBDT duration regressor over encoded job attributes (§4.2.2).

    The target is ``log1p(duration)`` (durations span seconds to weeks);
    predictions are exponentiated back.  Feature set:

    ====================  =====================================================
    gpu_num, cpu_num      resource demands
    node_num              consolidated node footprint
    month..minute         submission-time decomposition (5 features)
    user, vc              ordinal codes (first-seen order)
    user_freq             user's historical submission frequency
    name_bucket           Levenshtein-clustered job-name bucket id
    user_mean_logdur      per-user mean log-duration (target encoding)
    ====================  =====================================================
    """

    def __init__(self, params: GBDTParams | None = None) -> None:
        self.params = params or GBDTParams(
            n_estimators=150, learning_rate=0.1, max_depth=7, min_samples_leaf=20
        )
        self.model = GBDTRegressor(self.params)
        self._user_enc = OrdinalEncoder()
        self._vc_enc = OrdinalEncoder()
        self._user_freq = FrequencyEncoder()
        self._buckets = NameBucketizer(threshold=0.8)
        self._user_mean: dict[str, float] = {}
        self._global_mean_logdur: float = 0.0
        self._fitted = False
        self._n_seen = 0

    # ------------------------------------------------------------------
    def _features(self, trace: Table, fit: bool) -> np.ndarray:
        users = trace["user"]
        if fit:
            user_codes = self._user_enc.fit_transform(users)
            vc_codes = self._vc_enc.fit_transform(trace["vc"])
            user_freq = self._user_freq.fit_transform(users)
            buckets = self._buckets.fit_transform(trace["name"])
        else:
            user_codes = self._user_enc.transform(users)
            vc_codes = self._vc_enc.transform(trace["vc"])
            user_freq = self._user_freq.transform(users)
            buckets = self._buckets.transform(trace["name"])
        tfeat = time_features(trace["submit_time"])
        user_mean = np.array(
            [self._user_mean.get(str(u), self._global_mean_logdur) for u in users]
        )
        return np.column_stack(
            [
                trace["gpu_num"].astype(float),
                trace["cpu_num"].astype(float),
                trace["node_num"].astype(float),
                tfeat.astype(float),
                user_codes.astype(float),
                vc_codes.astype(float),
                user_freq,
                buckets.astype(float),
                user_mean,
            ]
        )

    def fit(self, history: Table) -> "MLEstimator":
        if len(history) == 0:
            raise ValueError("cannot fit MLEstimator on an empty history")
        logdur = np.log1p(history["duration"].astype(float))
        self._global_mean_logdur = float(logdur.mean())
        # Target encoding (computed before _features reads it).
        users = history["user"]
        uniq, inv = np.unique(users, return_inverse=True)
        sums = np.bincount(inv, weights=logdur)
        counts = np.bincount(inv)
        self._user_mean = {
            str(u): float(s / c) for u, s, c in zip(uniq, sums, counts)
        }
        X = self._features(history, fit=True)
        self.model.fit(X, logdur)
        self._fitted = True
        self._n_seen = len(history)
        return self

    def update(self, new_jobs: Table, n_more: int | None = None) -> "MLEstimator":
        """Advance the GBDT with newly finished jobs (continued boosting).

        The encoders, target encoding, and histogram binner stay frozen
        from the initial fit (unseen users/names fall back to the same
        codes prediction uses), the new rows join the training matrix,
        and ``n_more`` boosting stages are appended via
        :meth:`~repro.ml.gbdt.GBDTRegressor.fit_more` — all
        :class:`~repro.ml.gbdt.GBDTParams` are preserved.  The default
        ``n_more`` scales the configured ensemble size by the share of
        new rows, so update cost tracks the amount of new data.  A
        scratch :meth:`fit` on the full history remains the oracle;
        estimates are expected to agree within a band, not bit-exactly.
        """
        if not self._fitted:
            raise RuntimeError("MLEstimator not fitted; call fit() first")
        if len(new_jobs) == 0:
            return self
        logdur = np.log1p(new_jobs["duration"].astype(float))
        X = self._features(new_jobs, fit=False)
        self._n_seen += len(new_jobs)
        if n_more is None:
            n_more = max(
                1, round(self.params.n_estimators * len(new_jobs) / self._n_seen)
            )
        self.model.fit_more(X, logdur, n_more)
        return self

    def estimate_many(self, trace: Table) -> np.ndarray:
        """Vector of P_M (predicted durations, seconds)."""
        if not self._fitted:
            raise RuntimeError("MLEstimator not fitted")
        X = self._features(trace, fit=False)
        return np.maximum(np.expm1(self.model.predict(X)), 1.0)
