"""Batched CES/DRS evaluation engine (the fast path of Algorithm 2).

The stepwise :class:`~repro.energy.drs.DRSController` walks one
(parameterization, cluster) pair bin by bin in Python — perfect for the
serving loop, but a σ/ξ/window sweep pays the interpreter once per
config per bin.  This module is the sweep's array-backed twin, built on
the same fast/reference pattern as :mod:`repro.sim.fast`:

* every controller run in a batch becomes one *row* of
  struct-of-arrays state — per-row ``cur`` active pool, wake/woken/
  affected counters, σ/ξ/window parameter vectors;
* the demand/forecast series are packed into (bins × rows) matrices so
  each simulated bin advances **all K configurations × C clusters in a
  handful of vectorized operations**, with the wake targets and park
  floors precomputed outside the loop;
* the RecentNodesTrend lookback reads straight from the already-written
  rows of the active-history matrix (the matrix *is* the ring buffer —
  per-row windows index ``t - W`` directly).

``mode="reference"`` drives the stepwise controller per case and is the
correctness oracle: the fast path must produce **byte-identical**
:class:`~repro.energy.drs.DRSOutcome` fields for every row (asserted by
``tests/test_drs_grid_parity.py`` on real cluster windows and by the
hypothesis suite on random series).  All arithmetic is plain IEEE-754
float64 element-wise work, so equality is exact, not approximate.

Rows may have different series lengths (Helios and Philly evaluation
windows differ); shorter rows are padded with zero demand.  A padded
bin can never wake (demand 0 is never strictly above the pool) and any
parking it does happens past the row's extracted window, so dead rows
need no masking on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drs import DRSOutcome, DRSParams, _reactive_params, run_drs

__all__ = ["DRSCase", "run_drs_batch", "run_drs_grid", "run_vanilla_drs_batch"]

_MODES = ("fast", "reference")


@dataclass(frozen=True)
class DRSCase:
    """One controller run: a demand window under one parameterization."""

    demand: np.ndarray
    predicted_future: np.ndarray
    total_nodes: int
    params: DRSParams
    arrivals_per_bin: np.ndarray | None = None


def run_drs_grid(
    demand: np.ndarray,
    predicted_future: np.ndarray,
    total_nodes: int,
    grid: Sequence[DRSParams],
    arrivals_per_bin: np.ndarray | None = None,
) -> list[DRSOutcome]:
    """Sweep K parameterizations over one cluster's evaluation window.

    Returns one :class:`DRSOutcome` per entry of ``grid``, in order —
    each byte-identical to ``run_drs(demand, ..., params=grid[k])``.
    """
    return run_drs_batch(
        [
            DRSCase(demand, predicted_future, total_nodes, p, arrivals_per_bin)
            for p in grid
        ]
    )


def run_vanilla_drs_batch(cases: Sequence[DRSCase]) -> list[DRSOutcome]:
    """Reactive-baseline variant of :func:`run_drs_batch`.

    Each case is rewritten the way :func:`~repro.energy.drs.run_vanilla_drs`
    rewrites a single run: trend guards off, demand standing in for the
    forecast (``predicted_future`` is ignored).
    """
    return run_drs_batch(
        [
            DRSCase(
                c.demand,
                c.demand,
                c.total_nodes,
                _reactive_params(c.params),
                c.arrivals_per_bin,
            )
            for c in cases
        ]
    )


def run_drs_batch(cases: Sequence[DRSCase], mode: str = "fast") -> list[DRSOutcome]:
    """Run every case's Algorithm-2 walk, batched across rows.

    ``mode="fast"`` steps all rows simultaneously over struct-of-arrays
    state; ``mode="reference"`` loops the stepwise controller (the
    oracle).  Outputs are byte-identical between the two.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    cases = list(cases)

    # Validate every case up front, identically for both modes — the
    # oracle and the fast path must accept and reject the same inputs.
    demands = []
    forecasts = []
    arrival_rows: list[np.ndarray | None] = []
    for c in cases:
        d = np.asarray(c.demand, dtype=float)
        fc = np.asarray(c.predicted_future, dtype=float)
        if d.shape != fc.shape:
            raise ValueError("demand and predicted_future must align")
        if c.total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        arr = None
        if c.arrivals_per_bin is not None:
            arr = np.asarray(c.arrivals_per_bin, dtype=float)
            if arr.shape != d.shape:
                raise ValueError("arrivals_per_bin must align with demand")
        demands.append(d)
        forecasts.append(fc)
        arrival_rows.append(arr)

    if mode == "reference":
        return [
            run_drs(
                demands[r],
                forecasts[r],
                c.total_nodes,
                c.params,
                arrivals_per_bin=arrival_rows[r],
            )
            for r, c in enumerate(cases)
        ]
    if not cases:
        return []

    # -- pack rows into struct-of-arrays state -------------------------
    R = len(cases)
    lengths = np.array([d.size for d in demands], dtype=np.int64)
    n_max = int(lengths.max())

    # (bins x rows) layout: each step reads one contiguous row per matrix.
    D = np.zeros((n_max, R))
    F = np.zeros((n_max, R))
    arrivals = np.zeros((n_max, R), dtype=np.int64)
    for r in range(R):
        n = demands[r].size
        D[:n, r] = demands[r]
        F[:n, r] = forecasts[r]
        if arrival_rows[r] is not None:
            # the controller charges int(arrivals) per wake: truncate once
            arrivals[:n, r] = arrival_rows[r].astype(np.int64)

    sigma = np.array([c.params.buffer_nodes for c in cases], dtype=float)
    window = np.array([c.params.recent_window_bins for c in cases], dtype=np.int64)
    xi_h = np.array([c.params.recent_threshold for c in cases], dtype=float)
    xi_p = np.array([c.params.future_threshold for c in cases], dtype=float)
    total = np.array([c.total_nodes for c in cases], dtype=float)

    # Hoisted per-bin targets: NodesWakeUp restore level and the
    # PeriodicCheck park floor (already capped at the node count) —
    # identical expressions to DRSController.step, evaluated in bulk.
    wake_target = np.minimum(total, D + sigma)
    floor = np.maximum(D, F) + sigma
    park_level = np.minimum(total, floor)

    one_window = int(window[0]) if (window == window[0]).all() else None

    cur = total.copy()
    active = np.empty((n_max, R))
    wake_events = np.zeros(R, dtype=np.int64)
    nodes_woken = np.zeros(R, dtype=np.int64)
    affected = np.zeros(R, dtype=np.int64)
    rows = np.arange(R)

    # -- the batched walk ----------------------------------------------
    for t in range(n_max):
        d = D[t]
        wake = d > cur
        # RecentNodesTrend: the active level one window ago (the current
        # pool before any history exists), read from the rows already
        # written this walk.
        if one_window is not None:
            past = active[t - one_window] if t >= one_window else cur
        else:
            lookback = t - window
            past = np.where(
                lookback >= 0, active[np.maximum(lookback, 0), rows], cur
            )
        park = ~wake & (past - d >= xi_h) & (cur - floor[t] >= xi_p)
        if wake.any():
            tgt = wake_target[t]
            wake_events += wake
            nodes_woken += np.where(wake, np.rint(tgt - cur), 0.0).astype(
                np.int64
            )
            affected += np.where(wake, arrivals[t], 0)
            cur = np.where(
                wake,
                tgt,
                np.where(park, np.minimum(cur, park_level[t]), cur),
            )
        else:
            cur = np.where(park, np.minimum(cur, park_level[t]), cur)
        active[t] = cur

    # -- unpack per-row outcomes ---------------------------------------
    outcomes = []
    for r, c in enumerate(cases):
        n = int(lengths[r])
        outcomes.append(
            DRSOutcome(
                active=active[:n, r].copy(),
                demand=demands[r],
                total_nodes=c.total_nodes,
                wake_events=int(wake_events[r]),
                nodes_woken=int(nodes_woken[r]),
                affected_jobs=int(affected[r]),
                bins_per_day=86_400.0 / c.params.bin_seconds,
            )
        )
    return outcomes
