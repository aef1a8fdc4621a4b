"""Workload inputs for a benchmark seed.

The program receives a seed only as traces generated with it, installed
into the ``repro.experiments.common`` memos through their public
``warm`` API before the workload starts (forked workers inherit them):

* ``generator`` / ``philly_generator`` get generators built with the
  seed, because cluster specs (the VC layout) are drawn from the same
  seed as the jobs and must match them;
* ``cluster_trace`` / ``philly_trace`` get that generator's traces.

Seed 42 is the scenario the CLIs serve: its traces are exactly the ones
the program would synthesize itself.  They are generated here for every
seed, in the measured process, so trace synthesis costs the same in
every run.  Other seeds' traces are resampled so every day holds
exactly as many GPU and CPU jobs as the seed-42 trace does.

The resampling is what keeps the benchmark steady across seeds: raw
traces differ up to 3x in size between seeds (Venus holds 18k to 68k
GPU jobs), which would swamp any change to the program.  A seed changes
which jobs arrive -- names, users, VCs, sizes, durations, times within
the day -- but not how many arrive on each day.
"""

from __future__ import annotations

import numpy as np

REFERENCE_SEED = 42


def day_counts(trace, n_days: int) -> dict[str, list[int]]:
    """Jobs submitted per day, split into GPU and CPU jobs."""
    day = np.asarray(trace["submit_time"]) // 86_400
    gpu = np.asarray(trace["gpu_num"]) > 0
    return {
        kind: np.bincount(day[mask], minlength=n_days)[:n_days].tolist()
        for kind, mask in (("gpu", gpu), ("cpu", ~gpu))
    }


def match_daily_counts(trace, targets: dict[str, list[int]], rng):
    """Resample ``trace`` so each day holds ``targets[kind][day]`` jobs.

    Days with a surplus keep a random subset.  Days with a deficit keep
    every job and add copies of random jobs of the same day (of the
    nearest day that has any), each with a fresh id and a random submit
    time within the day.  The result is sorted by submit time, as the
    generators emit it.
    """
    if np.any(np.diff(np.asarray(trace["submit_time"])) < 0):
        trace = trace.sort_by("submit_time")
    day = np.asarray(trace["submit_time"]) // 86_400
    gpu = np.asarray(trace["gpu_num"]) > 0
    keep, copies, copy_days = [], [], []
    for kind, mask in (("gpu", gpu), ("cpu", ~gpu)):
        rows = np.flatnonzero(mask)
        want = targets[kind]
        bounds = np.searchsorted(day[rows], np.arange(len(want) + 1))
        nonempty = np.flatnonzero(np.diff(bounds))
        for d, n in enumerate(want):
            pool = rows[bounds[d]:bounds[d + 1]]
            if pool.size >= n:
                keep.append(rng.choice(pool, n, replace=False))
                continue
            if not nonempty.size:
                raise ValueError(f"seed trace has no {kind} jobs to resample")
            keep.append(pool)
            if pool.size:
                source = pool
            else:
                e = nonempty[np.argmin(np.abs(nonempty - d))]
                source = rows[bounds[e]:bounds[e + 1]]
            copies.append(rng.choice(source, n - pool.size, replace=True))
            copy_days.append(np.full(n - pool.size, d))
    n_keep = sum(len(k) for k in keep)
    out = trace.take(np.concatenate(keep + copies))
    if copies:
        n_copy = len(out) - n_keep
        ids = np.asarray(out["job_id"]).astype(str)
        suffix = np.char.add("-x", np.arange(n_copy).astype(str))
        submit = np.asarray(out["submit_time"]).copy()
        submit[n_keep:] = (np.concatenate(copy_days) * 86_400
                           + rng.integers(0, 86_400, size=n_copy))
        out = out.with_column(
            "job_id", np.concatenate([ids[:n_keep], np.char.add(ids[n_keep:], suffix)])
        ).with_column("submit_time", submit)
    return out.sort_by("submit_time")


def install(seed: int, clusters, philly: bool, daily: dict) -> None:
    """Install seed-``seed`` traces for ``clusters`` (and Philly); other
    seeds than 42 are resampled to the per-day job counts in ``daily``."""
    from repro.experiments import common
    from repro.traces import (
        HeliosTraceGenerator,
        PhillyParams,
        PhillyTraceGenerator,
        SynthParams,
    )

    rng = np.random.default_rng(seed)

    def resized(trace, name):
        if seed == REFERENCE_SEED:
            return trace
        return match_daily_counts(trace, daily[name], rng)

    gen = HeliosTraceGenerator(
        SynthParams(months=common.MONTHS, scale=common.SCALE, seed=seed)
    )
    common.generator.warm((), gen)
    for cluster in clusters:
        common.cluster_trace.warm((cluster,), resized(gen.generate_cluster(cluster), cluster))
    if philly:
        pgen = PhillyTraceGenerator(PhillyParams(
            days=common.PHILLY_DAYS, scale=common.PHILLY_SCALE, seed=seed + 1,
        ))
        common.philly_generator.warm((), pgen)
        common.philly_trace.warm((), resized(pgen.generate(), "Philly"))
