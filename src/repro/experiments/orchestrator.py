"""Process-parallel experiment orchestration with artifact caching.

Runs a set of registered exhibits end-to-end:

1. **Cache probe** — each experiment's content address (id, params, code
   fingerprint) is checked against the :class:`ArtifactCache`; hits
   return in milliseconds without touching the simulator.
2. **Precursor phase** — the union of the remaining experiments' shared
   inputs (declared as precursor tokens in the registry, closed over
   :func:`repro.experiments.common.precursor_deps`) is computed once
   across a forked worker pool in *dependency waves*: base traces
   first, then (in-parent) the cheap GPU-job filters, then simulator
   replays and schedulers, then CES reports.  Each wave's results are
   installed into this process's memos
   (:func:`repro.experiments.common.warm_precursor`) before the next
   wave forks, so replay workers inherit every trace copy-on-write —
   no worker ever regenerates a trace another worker (or an earlier
   wave) already produced, and the Saturn/QSSF September replay is
   computed exactly once.
3. **Experiment phase** — a fresh pool is forked *after* warming, so
   every worker inherits the precursors copy-on-write.  Workers return
   serialized payload bytes; the parent stores them as artifacts and
   decodes them for the report.  A serial run (one job, one exhibit to
   compute, or no ``fork``) skips the precursor phase and runs the same
   tasks in-process, so its payloads take the same bytes round trip.

Determinism: every experiment (serial or parallel, any worker count)
runs under ``np.random.seed(stable_seed(exp_id))``, and payloads are
serialized with the deterministic codec in
:mod:`repro.experiments.cache` — so ``--jobs 4`` produces bytes
identical to ``--jobs 1``, which the test suite asserts.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..framework.parallel import (
    effective_jobs,
    fork_available,
    run_forked,
    stable_seed,
)
from ..obs import collect as obs
from . import common
from .cache import ArtifactCache, code_fingerprint, dumps_payload, loads_payload
from .registry import get_spec

__all__ = ["ExperimentOrchestrator", "OrchestratorResult", "RunReport"]

#: drain heavy work first so the pool's tail is short.
_COST_RANK = {"heavy": 0, "medium": 1, "cheap": 2}

#: rough per-token weight for precursor scheduling (heaviest first).
_TOKEN_RANK = ("ces_forecast", "ces_report", "september_replay",
               "full_replay", "philly_replay", "qssf_scheduler",
               "cluster_gpu_trace", "cluster_trace", "philly_trace")


@dataclass
class RunReport:
    """Outcome of one experiment in one orchestrated run."""

    exp_id: str
    status: str  # "cached" | "computed" | "failed"
    seconds: float
    cache_key: str = ""
    error: str = ""

    def as_dict(self) -> dict:
        return {
            "exp_id": self.exp_id,
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "cache_key": self.cache_key,
            "error": self.error,
        }


@dataclass
class OrchestratorResult:
    """Everything one ``run()`` produced, JSON-ready via ``as_dict``."""

    reports: list[RunReport]
    payloads: dict[str, dict]
    wall_seconds: float
    jobs: int
    fingerprint: str
    cache_dir: str = ""
    cache_stats: dict = field(default_factory=dict)
    #: per-token precursor warm timings (parallel runs only)
    precursors: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> list[RunReport]:
        return [r for r in self.reports if r.status == "failed"]

    def profile(self) -> dict:
        """Critical-path breakdown: exhibits sorted by wall time (cache
        hits and misses split out) plus the precursor warm phase.

        This is what future perf work reads instead of ad-hoc timing:
        the slowest computed exhibit is the serial floor, the precursor
        list shows what the pool warmed and for how long.
        """
        by_time = sorted(self.reports, key=lambda r: -r.seconds)
        computed = [r for r in self.reports if r.status == "computed"]
        cached = [r for r in self.reports if r.status == "cached"]
        return {
            "wall_seconds": round(self.wall_seconds, 4),
            "computed": len(computed),
            "cached": len(cached),
            "failed": len(self.failed),
            "cache_hit_rate": round(len(cached) / len(self.reports), 4)
            if self.reports
            else 0.0,
            "compute_seconds": round(sum(r.seconds for r in computed), 4),
            "precursor_seconds": round(
                sum(p["seconds"] for p in self.precursors), 4
            ),
            "exhibits": [
                {
                    "exp_id": r.exp_id,
                    "status": r.status,
                    "seconds": round(r.seconds, 4),
                }
                for r in by_time
            ],
            "precursors": sorted(
                self.precursors, key=lambda p: -p["seconds"]
            ),
        }

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 4),
            "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir,
            "cache": self.cache_stats,
            "results": [r.as_dict() for r in self.reports],
            "profile": self.profile(),
        }


def _run_seeded(exp_id: str) -> dict:
    """The one code path that executes an experiment (serial or worker).

    The global RNG is re-seeded from the experiment id so any builder
    that touches it draws an identical stream regardless of what ran
    before it in this process — the invariant behind serial/parallel
    payload equality.
    """
    np.random.seed(stable_seed(exp_id))
    with obs.trace(f"exhibit:{exp_id}", exp_id=exp_id):
        return get_spec(exp_id).fn()


def _precursor_task(token: str) -> tuple[str, Any, bool, float]:
    """Worker-side precursor: never raises, so one bad shared input
    cannot abort the whole parallel run (the exhibits that need it fail
    individually in the experiment phase, with a full traceback)."""
    t0 = time.perf_counter()
    try:
        with obs.trace(f"precursor:{token}", token=token):
            value = common.compute_precursor(token)
        return token, value, True, time.perf_counter() - t0
    except Exception:
        return token, None, False, time.perf_counter() - t0


def _experiment_task(exp_id: str) -> tuple[str, float, bytes | None, str]:
    """Worker-side experiment run: ship serialized payload or an error."""
    t0 = time.perf_counter()
    try:
        payload = _run_seeded(exp_id)
        return exp_id, time.perf_counter() - t0, dumps_payload(payload), ""
    except Exception:
        return exp_id, time.perf_counter() - t0, None, traceback.format_exc()


def _token_rank(token: str) -> int:
    name = token.partition(":")[0]
    try:
        return _TOKEN_RANK.index(name)
    except ValueError:
        return len(_TOKEN_RANK)


class ExperimentOrchestrator:
    """Schedules experiments across cache, precursor pool, and workers."""

    def __init__(
        self,
        cache: ArtifactCache | None = None,
        jobs: int = 1,
        force: bool = False,
    ) -> None:
        self.cache = cache
        self.jobs = effective_jobs(jobs)
        self.force = force

    # -- public --------------------------------------------------------

    def run(self, exp_ids: list[str]) -> OrchestratorResult:
        t_start = time.perf_counter()
        t_start_wall = obs.wall_now()
        exp_ids = list(dict.fromkeys(exp_ids))  # dedup, keep order
        specs = [get_spec(eid) for eid in exp_ids]  # fail fast on typos
        fingerprint = code_fingerprint() if self.cache else ""
        scenario = common.scenario_signature() if self.cache else {}
        keys = {
            s.exp_id: ArtifactCache.key_for(s.exp_id, scenario, fingerprint)
            for s in specs
        }

        reports: dict[str, RunReport] = {}
        payloads: dict[str, dict] = {}

        to_run = []
        for spec in specs:
            cached = self._probe(spec.exp_id, keys[spec.exp_id])
            if cached is not None:
                payloads[spec.exp_id] = cached[0]
                reports[spec.exp_id] = cached[1]
            else:
                to_run.append(spec)

        # heavy exhibits first: the pool tail is the wall-clock floor.
        to_run.sort(key=lambda s: (_COST_RANK[s.cost], s.exp_id))

        precursor_profile: list[dict] = []
        if self.jobs > 1 and len(to_run) > 1 and fork_available():
            precursor_profile = self._warm_precursors(to_run)
        for exp_id, seconds, blob, error in run_forked(
            _experiment_task, [s.exp_id for s in to_run], self.jobs
        ):
            if blob is None:
                reports[exp_id] = RunReport(
                    exp_id, "failed", seconds, keys[exp_id], error
                )
                continue
            payloads[exp_id] = loads_payload(blob)
            self._store(keys[exp_id], exp_id, scenario, fingerprint, blob)
            reports[exp_id] = RunReport(exp_id, "computed", seconds, keys[exp_id])

        result = OrchestratorResult(
            reports=[reports[eid] for eid in exp_ids],
            payloads=payloads,
            wall_seconds=time.perf_counter() - t_start,
            jobs=self.jobs,
            fingerprint=fingerprint,
            cache_dir=str(self.cache.root) if self.cache else "",
            cache_stats=self.cache.stats.as_dict() if self.cache else {},
            precursors=precursor_profile,
        )
        obs.record_span(
            "orchestrator.run", t_start_wall, obs.wall_now(),
            jobs=self.jobs, exhibits=len(exp_ids),
            cached=sum(1 for r in result.reports if r.status == "cached"),
            computed=sum(1 for r in result.reports if r.status == "computed"),
        )
        return result

    # -- internals -----------------------------------------------------

    def _store(
        self,
        key: str,
        exp_id: str,
        scenario: dict,
        fingerprint: str,
        blob: bytes,
    ) -> None:
        if self.cache is not None:
            obs.counter_add("runner.cache.store")
            self.cache.store(
                key,
                None,
                exp_id=exp_id,
                params=scenario,
                fingerprint=fingerprint,
                payload_bytes=blob,
            )

    def _probe(self, exp_id: str, key: str):
        if self.cache is None or self.force:
            return None
        t0 = time.perf_counter()
        t0_wall = obs.wall_now()
        payload = self.cache.load(key)
        if payload is None:
            obs.counter_add("runner.cache.miss")
            return None
        seconds = time.perf_counter() - t0
        obs.counter_add("runner.cache.hit")
        obs.record_span(
            "runner.cache_probe", t0_wall, t0_wall + seconds, exp_id=exp_id
        )
        return payload, RunReport(exp_id, "cached", seconds, key)

    def _warm_precursors(self, specs) -> list[dict]:
        """Compute each distinct shared input once, in dependency waves.

        Declared inputs are closed over their derivation chain (a replay
        implies its trace; a QSSF replay implies its trained scheduler),
        then computed wave by wave: every wave forks only after the
        previous wave's values are installed in this process, so its
        workers inherit them copy-on-write and never recompute them.
        Returns the per-token timing profile.
        """
        profile: list[dict] = []
        tokens: list[str] = []
        for spec in specs:
            tokens.extend(spec.inputs)
        tokens = common.expand_precursors(list(dict.fromkeys(tokens)))
        for wave, wave_tokens, in_parent in common.precursor_waves(tokens):
            cold = [t for t in wave_tokens if not common.is_warm(t)]
            if not cold:
                continue
            # Cheap derivations of already-warm values run in this
            # process: forking would cost more than the work itself.
            jobs, where = (1, "parent") if in_parent else (self.jobs, "pool")
            cold.sort(key=_token_rank)
            with obs.trace("runner.wave", wave=wave, tokens=len(cold)):
                for token, value, ok, seconds in run_forked(
                    _precursor_task, cold, jobs
                ):
                    if ok:
                        common.warm_precursor(token, value)
                    profile.append({
                        "token": token, "wave": wave, "where": where,
                        "seconds": round(seconds, 4),
                    })
        return profile
