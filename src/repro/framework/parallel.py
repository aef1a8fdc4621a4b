"""Process fan-out primitives for the framework layer.

Small, dependency-free helpers shared by the experiment orchestrator
(:mod:`repro.experiments.orchestrator`) and the framework components:

* :func:`stable_seed` — deterministic 32-bit seeds derived from string
  task names, so a task seeds its RNG identically no matter which worker
  (or how many workers) runs it;
* :func:`effective_jobs` — clamp a requested worker count to something
  sane for the host;
* :func:`run_forked` — map a function over items with a forked process
  pool, falling back to in-process execution when forking is unavailable
  or pointless (1 worker, <2 items).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..obs import collect as obs

__all__ = [
    "WorkerError",
    "stable_seed",
    "effective_jobs",
    "fork_available",
    "run_forked",
]


class WorkerError(RuntimeError):
    """A forked worker failed.

    Carries the failing item's repr (``item``) and the worker-side
    traceback (``remote_traceback``), so the caller sees *which* item
    broke and *where* — not a context-free pool exception.
    """

    def __init__(
        self,
        message: str,
        *,
        item: str | None = None,
        remote_traceback: str | None = None,
    ) -> None:
        super().__init__(message)
        self.item = item
        self.remote_traceback = remote_traceback


def stable_seed(name: str, salt: int = 0) -> int:
    """A deterministic 32-bit seed for the task called ``name``.

    Hash-based (not ``hash()``, which is salted per process) so serial
    and parallel executions of the same task draw identical RNG streams.
    """
    digest = hashlib.sha256(f"{salt}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def effective_jobs(jobs: int | None) -> int:
    """Clamp a requested worker count to ``[1, 4 * cpu_count]``.

    ``None`` or ``0`` means "one per CPU".  Values above the clamp are
    almost certainly a typo and would only add fork overhead.
    """
    ncpu = os.cpu_count() or 1
    if not jobs:
        return ncpu
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return min(jobs, 4 * ncpu)


def fork_available() -> bool:
    """True when a fork-based process pool can be used on this host.

    Fork matters beyond speed: workers inherit the parent's warmed
    in-process memos copy-on-write, which is how shared precursors reach
    every worker without re-serialization.  Daemonic processes (e.g. the
    orchestrator's own pool workers) cannot have children, so nested
    fan-out — a worker running an exhibit whose internals also want a
    pool, like the fold-parallel forecaster comparison — reports
    unavailable and degrades to the in-process path.
    """
    if multiprocessing.current_process().daemon:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class _RemoteFailure:
    """Worker-side failure record shipped back in the result slot."""

    item: str
    traceback: str


class _TracedCall:
    """Picklable wrapper that converts worker exceptions into markers.

    Raising inside a pool worker surfaces a context-free exception in
    the parent; returning a :class:`_RemoteFailure` instead preserves
    the remote traceback and the failing item's repr so the caller's
    :class:`WorkerError` can name both.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> Any:
        try:
            # Piggyback the worker's obs state on the result pickle: the
            # parent absorbs it in run_forked, so spans/metrics recorded
            # inside pool workers land in the run-wide view for free.
            return obs.carry_result(self.fn(item))
        except Exception:
            text = repr(item)
            if len(text) > 200:
                text = text[:197] + "..."
            return _RemoteFailure(item=text, traceback=traceback.format_exc())


def run_forked(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int,
    *,
    chunksize: int = 1,
) -> list[Any]:
    """``[fn(x) for x in items]`` across a forked worker pool.

    Results keep ``items`` order.  Degrades to an in-process loop when
    ``jobs <= 1``, there is under 2 items of work, or the platform has no
    ``fork`` start method — callers get one code path either way.

    A worker exception raises :class:`WorkerError` naming the first
    failing item (in ``items`` order) with its remote traceback; a
    worker that dies before reporting (SIGKILL, OOM) fails fast with a
    :class:`WorkerError` instead of hanging the pool.  In-process
    execution lets exceptions propagate untouched — the local traceback
    is already complete.
    """
    jobs = min(effective_jobs(jobs), len(items)) if items else 1
    if jobs <= 1 or len(items) < 2 or not fork_available():
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        try:
            results = list(pool.map(_TracedCall(fn), items, chunksize=chunksize))
        except BrokenProcessPool as exc:
            raise WorkerError(
                "a forked worker died before reporting a result "
                "(SIGKILL/OOM?); aborting the batch"
            ) from exc
    for result in results:
        if isinstance(result, _RemoteFailure):
            raise WorkerError(
                f"forked worker failed on item {result.item}\n"
                f"--- remote traceback ---\n{result.traceback}",
                item=result.item,
                remote_traceback=result.traceback,
            )
    return [obs.absorb_result(result) for result in results]

