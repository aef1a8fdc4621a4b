"""Splits and model comparison utilities.

The QSSF model "trains on April–August and evaluates on September"
(§4.2.3) — a time-ordered split; the CES forecaster comparison uses
rolling-origin evaluation over the node series.

Rolling-origin evaluation is implemented as an *incremental* fold-walking
engine: expanding-window folds differ only by the ``step`` points between
consecutive origins, so a model exposing the incremental-fit protocol —
an ``update(new_points)`` method next to ``fit``/``forecast`` — is fitted
once and advanced fold to fold in O(step) work instead of being re-fitted
from scratch O(n) at every origin.  Scratch re-fitting remains both the
fallback for models without ``update`` and the correctness oracle the
tolerance tests compare against (``mode="scratch"``).

The fold walk composes with the models' own fast fit paths: the GBDT
continues boosting on its frozen histogram cache and the LSTM turns
each fold's ``update(new_points)`` into one fold-batched BPTT batch —
so an entire rolling-origin walk drives a single batched fine-tune per
fold rather than window-by-window tapes.

:func:`compare_forecasters` additionally fans independent models out over
the framework's forked worker pool (``jobs``); results are identical to
the serial path because each evaluation is deterministic and
self-contained.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..stats.metrics import smape

__all__ = [
    "time_split",
    "train_test_split",
    "rolling_origin_splits",
    "supports_update",
    "evaluate_forecaster",
    "compare_forecasters",
]


def time_split(
    times: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks ``(train, test)`` around a timestamp cutoff."""
    t = np.asarray(times, dtype=float)
    train = t < cutoff
    return train, ~train


def train_test_split(
    n: int, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Random index split (shuffled)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(round(test_fraction * n)))
    return order[n_test:], order[:n_test]


def rolling_origin_splits(
    n: int, initial: int, horizon: int, step: int | None = None
) -> Iterator[tuple[slice, slice]]:
    """Yield ``(train_slice, test_slice)`` pairs walking forward in time.

    Train is always the full history up to the origin (expanding window).
    """
    if initial < 1 or horizon < 1:
        raise ValueError("initial and horizon must be >= 1")
    step = step or horizon
    origin = initial
    while origin + horizon <= n:
        yield slice(0, origin), slice(origin, origin + horizon)
        origin += step


def supports_update(model: object) -> bool:
    """True when ``model`` implements the incremental-fit protocol."""
    return callable(getattr(model, "update", None))


def evaluate_forecaster(
    make_model: Callable[[], object],
    series: np.ndarray,
    initial: int,
    horizon: int,
    step: int | None = None,
    metric: Callable[[np.ndarray, np.ndarray], float] = smape,
    mode: str = "auto",
) -> float:
    """Mean rolling-origin forecast error of a fit/forecast model.

    ``mode`` selects how the expanding window advances between folds:

    * ``"auto"`` (default) — use the model's ``update(new_points)`` when
      it implements the incremental protocol, else re-fit from scratch;
    * ``"scratch"`` — always re-fit from scratch (the correctness
      oracle; this is the pre-incremental behavior, bit for bit).
    """
    if mode not in ("auto", "scratch"):
        raise ValueError(f"unknown mode {mode!r}")
    series = np.asarray(series, dtype=float)
    folds = list(rolling_origin_splits(series.size, initial, horizon, step))
    if not folds:
        raise ValueError("no evaluation folds; series too short for initial+horizon")

    model = make_model()
    incremental = mode == "auto" and supports_update(model)

    errors = []
    fitted_upto = 0
    for train_sl, test_sl in folds:
        if fitted_upto == 0:
            model.fit(series[train_sl])  # type: ignore[attr-defined]
        elif incremental:
            model.update(series[fitted_upto : train_sl.stop])  # type: ignore[attr-defined]
        else:
            model = make_model()
            model.fit(series[train_sl])  # type: ignore[attr-defined]
        fitted_upto = train_sl.stop
        fc = model.forecast(horizon)  # type: ignore[attr-defined]
        errors.append(metric(series[test_sl], fc))
    return float(np.mean(errors))


#: Comparison context inherited by forked workers (fork shares the parent
#: address space copy-on-write, which is how unpicklable model factories
#: reach the pool).
_ACTIVE_COMPARISON: dict | None = None


def _compare_task(name: str) -> tuple[str, float]:
    ctx = _ACTIVE_COMPARISON
    assert ctx is not None, "comparison context not installed"
    return name, evaluate_forecaster(
        ctx["models"][name],
        ctx["series"],
        ctx["initial"],
        ctx["horizon"],
        ctx["step"],
        mode=ctx["mode"],
    )


def compare_forecasters(
    models: Mapping[str, Callable[[], object]],
    series: np.ndarray,
    initial: int,
    horizon: int,
    step: int | None = None,
    mode: str = "auto",
    jobs: int = 1,
) -> dict[str, float]:
    """Rolling-origin SMAPE for each named model factory (§4.3.2 table).

    Independent models fan out across a forked worker pool when
    ``jobs > 1`` (``0`` = one per CPU); each worker inherits the factories
    copy-on-write and runs the same deterministic evaluation the serial
    path runs, so the returned scores are identical for any worker count.
    """
    # Imported here: repro.framework pulls in the service plugins, which
    # import the energy forecaster, which imports repro.ml — a cycle if
    # resolved at module-import time.
    from ..framework.parallel import run_forked

    global _ACTIVE_COMPARISON
    _ACTIVE_COMPARISON = {
        "models": dict(models),
        "series": np.asarray(series, dtype=float),
        "initial": initial,
        "horizon": horizon,
        "step": step,
        "mode": mode,
    }
    try:
        scored = dict(run_forked(_compare_task, list(models), jobs))
    finally:
        _ACTIVE_COMPARISON = None
    return {name: scored[name] for name in models}


def grid_search(
    factory: Callable[..., object],
    grid: Mapping[str, Sequence],
    score: Callable[[object], float],
) -> tuple[dict, float]:
    """Exhaustive minimization of ``score(factory(**combo))`` over a grid."""
    import itertools

    names = list(grid)
    best: tuple[dict, float] = ({}, np.inf)
    for combo in itertools.product(*(grid[n] for n in names)):
        kwargs = dict(zip(names, combo))
        value = score(factory(**kwargs))
        if value < best[1]:
            best = (kwargs, value)
    if not np.isfinite(best[1]):
        raise ValueError("grid search found no finite score")
    return best
