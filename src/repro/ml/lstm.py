"""Small numpy LSTM regressor (the deep-learning comparator of §4.3.2).

A single LSTM layer + linear head trained with Adam on sliding windows of
the (standardized) series, full BPTT over the window.  Sized for the
node-count forecasting task (series of a few thousand points, hidden
width ≈ 16–32) — this is a faithful stand-in for the paper's LSTM
baseline [11], not a general deep-learning framework.

The training inner loop is batched: input projections for every timestep
of a minibatch are computed in one vectorized op, the BPTT tape lives in
preallocated ``(T, batch, hidden)`` arrays rather than per-step dicts,
and the weight gradients are accumulated with two ``(T·batch)``-row
GEMMs after the backward recursion instead of per-timestep rank-1
updates.  :meth:`LSTMForecaster.update` warm-starts from the previous
fit — weights and Adam moments carry forward, the standardization is
frozen — and fine-tunes fold-batched: only the windows whose target is
a newly appended point are built, stacked into one batch, and driven
through ``update_epochs`` full-batch Adam steps (one forward/backward
pair per step, no RNG draws).  That is what makes rolling-origin
re-evaluation cheap; its oracle is the scratch refit per fold
(``evaluate_forecaster(..., mode="scratch")``), which the warm walk
must track within the rolling-origin tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LSTMParams", "LSTMForecaster"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


@dataclass(frozen=True)
class LSTMParams:
    window: int = 48
    hidden: int = 16
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-2
    random_state: int = 0
    #: fine-tune epochs per :meth:`LSTMForecaster.update` call.
    update_epochs: int = 3

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.update_epochs < 1:
            raise ValueError("update_epochs must be >= 1")


class LSTMForecaster:
    """Sequence-to-one LSTM: window of past values -> next value."""

    def __init__(self, params: LSTMParams | None = None) -> None:
        self.params = params or LSTMParams()
        self._weights: dict[str, np.ndarray] | None = None
        self._mu: float = 0.0
        self._sd: float = 1.0
        self._history: np.ndarray | None = None
        self.loss_curve_: list[float] = []
        self._rng: np.random.Generator | None = None
        self._adam_m: dict[str, np.ndarray] | None = None
        self._adam_v: dict[str, np.ndarray] | None = None
        self._adam_step: int = 0

    # ------------------------------------------------------------------
    def _init_weights(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        h = self.params.hidden
        scale = 1.0 / np.sqrt(h)
        # Gate order: input, forget, cell, output — stacked into one matrix.
        return {
            "Wx": rng.normal(0, scale, size=(1, 4 * h)),
            "Wh": rng.normal(0, scale, size=(h, 4 * h)),
            "b": np.concatenate([np.zeros(h), np.ones(h), np.zeros(2 * h)]),
            "Wy": rng.normal(0, scale, size=(h, 1)),
            "by": np.zeros(1),
        }

    def _forward(
        self, xb: np.ndarray, w: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, tuple]:
        """xb: (batch, window). Returns predictions (batch,) and tape."""
        batch, T = xb.shape
        h = self.params.hidden
        # Input is scalar per step, so the whole batch's input projections
        # (plus bias) are one broadcasted multiply: (batch, T, 4h).
        xproj = xb[:, :, None] * w["Wx"][0] + w["b"]
        ht = np.zeros((batch, h))
        ct = np.zeros((batch, h))
        gate_i = np.empty((T, batch, h))
        gate_f = np.empty((T, batch, h))
        gate_g = np.empty((T, batch, h))
        gate_o = np.empty((T, batch, h))
        cell = np.empty((T, batch, h))
        h_prev = np.empty((T, batch, h))
        Wh = w["Wh"]
        for t in range(T):
            z = xproj[:, t] + ht @ Wh
            i = _sigmoid(z[:, 0 * h : 1 * h])
            f = _sigmoid(z[:, 1 * h : 2 * h])
            g = np.tanh(z[:, 2 * h : 3 * h])
            o = _sigmoid(z[:, 3 * h : 4 * h])
            h_prev[t] = ht
            ct = f * ct + i * g
            ht = o * np.tanh(ct)
            gate_i[t], gate_f[t], gate_g[t], gate_o[t] = i, f, g, o
            cell[t] = ct
        pred = (ht @ w["Wy"] + w["by"]).ravel()
        return pred, (gate_i, gate_f, gate_g, gate_o, cell, h_prev, ht)

    def _backward(
        self,
        xb: np.ndarray,
        err: np.ndarray,
        tape: tuple,
        w: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        batch, T = xb.shape
        h = self.params.hidden
        gate_i, gate_f, gate_g, gate_o, cell, h_prev, h_last = tape
        dyhat = (2.0 * err / batch).reshape(-1, 1)  # d MSE / d pred
        grad_Wy = h_last.T @ dyhat
        grad_by = dyhat.sum(axis=0)
        dh = dyhat @ w["Wy"].T
        dc = np.zeros((batch, h))
        c_zero = np.zeros((batch, h))
        dz = np.empty((T, batch, 4 * h))
        WhT = w["Wh"].T
        for t in range(T - 1, -1, -1):
            i, f, g, o = gate_i[t], gate_f[t], gate_g[t], gate_o[t]
            c_prev_t = cell[t - 1] if t > 0 else c_zero
            tanh_c = np.tanh(cell[t])
            do = dh * tanh_c
            dc = dc + dh * o * (1 - tanh_c * tanh_c)
            dzt = dz[t]
            dzt[:, 0 * h : 1 * h] = dc * g * i * (1 - i)
            dzt[:, 1 * h : 2 * h] = dc * c_prev_t * f * (1 - f)
            dzt[:, 2 * h : 3 * h] = dc * i * (1 - g * g)
            dzt[:, 3 * h : 4 * h] = do * o * (1 - o)
            dh = dzt @ WhT
            dc = dc * f
        # Weight gradients in two GEMMs over the stacked (T·batch) rows.
        dz_flat = dz.reshape(T * batch, 4 * h)
        grad_Wx = (xb.T.reshape(T * batch) @ dz_flat).reshape(1, 4 * h)
        grad_Wh = h_prev.reshape(T * batch, h).T @ dz_flat
        grad_b = dz_flat.sum(axis=0)
        return {
            "Wx": grad_Wx,
            "Wh": grad_Wh,
            "b": grad_b,
            "Wy": grad_Wy,
            "by": grad_by,
        }

    # ------------------------------------------------------------------
    def _window_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Sliding windows of the standardized history + next-value targets."""
        p = self.params
        z = (self._history - self._mu) / self._sd
        n_samples = z.size - p.window
        idx = np.arange(p.window)[None, :] + np.arange(n_samples)[:, None]
        return z[idx], z[p.window :]

    def _apply_adam(self, grads: dict[str, np.ndarray]) -> None:
        """One Adam step (clipped grads, bias-corrected moments)."""
        p = self.params
        w = self._weights
        m_state, v_state = self._adam_m, self._adam_v
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self._adam_step += 1
        step = self._adam_step
        for k in w:
            g = np.clip(grads[k], -5.0, 5.0)
            m_state[k] = beta1 * m_state[k] + (1 - beta1) * g
            v_state[k] = beta2 * v_state[k] + (1 - beta2) * g * g
            m_hat = m_state[k] / (1 - beta1**step)
            v_hat = v_state[k] / (1 - beta2**step)
            w[k] -= p.lr * m_hat / (np.sqrt(v_hat) + eps)

    def _train(self) -> None:
        """Run minibatch Adam for ``params.epochs`` over the history."""
        p = self.params
        X, target = self._window_matrix()
        n_samples = X.shape[0]
        w = self._weights
        rng = self._rng
        for _epoch in range(p.epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            for lo in range(0, n_samples, p.batch_size):
                batch_idx = order[lo : lo + p.batch_size]
                xb, tb = X[batch_idx], target[batch_idx]
                pred, tape = self._forward(xb, w)
                err = pred - tb
                epoch_loss += float(np.sum(err**2))
                self._apply_adam(self._backward(xb, err, tape, w))
            self.loss_curve_.append(epoch_loss / n_samples)

    def _train_tail(self, n_new: int) -> None:
        """Fold-batched fine-tune: one stacked batch of the windows whose
        target is one of the ``n_new`` appended points, driven through
        ``update_epochs`` full-batch Adam steps.  Consumes no RNG draws."""
        p = self.params
        z = (self._history - self._mu) / self._sd
        t_idx = np.arange(max(p.window, z.size - n_new), z.size)
        if t_idx.size == 0:
            return
        xb = z[(t_idx - p.window)[:, None] + np.arange(p.window)]
        tb = z[t_idx]
        w = self._weights
        for _epoch in range(p.update_epochs):
            pred, tape = self._forward(xb, w)
            err = pred - tb
            self.loss_curve_.append(float(np.sum(err**2)) / t_idx.size)
            self._apply_adam(self._backward(xb, err, tape, w))

    def fit(self, y: np.ndarray) -> "LSTMForecaster":
        p = self.params
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be 1-D")
        if y.size < p.window + 2:
            raise ValueError(f"series too short: need > {p.window + 2}, got {y.size}")
        self._history = y.copy()
        self._mu = float(y.mean())
        self._sd = float(y.std()) or 1.0
        self._rng = np.random.default_rng(p.random_state)
        self._weights = self._init_weights(self._rng)
        self._adam_m = {k: np.zeros_like(v) for k, v in self._weights.items()}
        self._adam_v = {k: np.zeros_like(v) for k, v in self._weights.items()}
        self._adam_step = 0
        self.loss_curve_ = []
        self._train()
        return self

    def update(self, new_points: np.ndarray) -> "LSTMForecaster":
        """Warm-start fine-tune on the history extended by ``new_points``.

        Weights and Adam moments continue from the previous fit; the
        standardization constants stay frozen so the network keeps
        seeing inputs on the scale it was trained on.  The fine-tune is
        fold-batched: one stacked batch of the new-target windows,
        ``update_epochs`` full-batch Adam steps.
        """
        if self._weights is None or self._history is None:
            raise RuntimeError("model not fitted; call fit() before update()")
        new_points = np.asarray(new_points, dtype=float)
        if new_points.ndim != 1:
            raise ValueError("new_points must be 1-D")
        if new_points.size == 0:
            return self
        self._history = np.concatenate([self._history, new_points])
        self._train_tail(new_points.size)
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Recursive multi-step forecast from the end of the fit series."""
        if self._weights is None or self._history is None:
            raise RuntimeError("model not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        p = self.params
        buf = np.empty(p.window + horizon)
        buf[: p.window] = (self._history[-p.window :] - self._mu) / self._sd
        for t in range(horizon):
            xb = buf[t : t + p.window].reshape(1, -1)
            pred, _ = self._forward(xb, self._weights)
            buf[p.window + t] = pred[0]
        return buf[p.window :] * self._sd + self._mu
