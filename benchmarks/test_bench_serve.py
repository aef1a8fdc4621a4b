"""Serving-runtime benchmarks: single-shard throughput and latency.

``BENCH {json}`` lines (grep the suite output for ``BENCH``):

* ``serve_shard`` — a job-only stream (submits + finishes) through the
  serving loop: end-to-end events/s plus p50/p99 QSSF decision latency.
  The acceptance floor is 10k events/s on the 1-core CI container; the
  assert enforces it.
* ``serve_mixed`` — jobs plus node-sample events: adds the per-bin CES
  forecast + DRS control step, reporting its p50/p99 alongside.
* ``serve_obs_overhead`` — the same job-only stream with tracing+metrics
  enabled vs disabled; the assert enforces the documented <=2% budget.
* ``serve_net_loopback`` — two real cluster shards through the socket
  control plane's loopback load generator at 1 vs 2 workers.  The gate
  follows the cores left beside the single-threaded router: with two
  spare cores the 2-worker run must reach >= 1.7x the 1-worker
  events/s; with one, it must not be slower beyond the measured A/A
  noise; with none (1 core) the line is only reported.
* ``serve_net_overhead`` — the same shards via the socket router vs the
  direct fork-pool dispatch; the router's wall overhead must stay
  within 10% plus the host's measured A/A noise floor.

The three A/B benches (obs overhead, loopback scaling, router overhead)
share one harness: adjacent pairs of arms (alternating which runs
first), a paired median, and an A/A noise floor from the same runs.
"""

import gc
import json
import os
import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.framework import fork_available
from repro.energy.forecaster import ForecastFeatures
from repro.frame import Table
from repro.ml.gbdt import GBDTParams
from repro.serve import EventStream, PredictionServer, ServeConfig

_USERS = 24
_NAMES = 40


def _make_trace(n_jobs: int, t0: float, span_s: float, seed: int) -> Table:
    """Synthetic recurring-job trace shaped like a busy cluster shard."""
    rng = np.random.default_rng(seed)
    submit = np.sort(t0 + rng.uniform(0.0, span_s, n_jobs))
    users = rng.integers(0, _USERS, n_jobs)
    names = rng.integers(0, _NAMES, n_jobs)
    gpus = rng.choice([1, 1, 2, 4, 8], n_jobs)
    duration = np.round(rng.lognormal(5.0, 1.2, n_jobs), 1)
    return Table(
        {
            "job_id": np.array([f"j{i}" for i in range(n_jobs)]),
            "cluster": np.full(n_jobs, "B"),
            "vc": np.array([f"vc{v}" for v in rng.integers(0, 4, n_jobs)]),
            "user": np.array([f"u{u}" for u in users]),
            "name": np.array([f"train_{nm}_v{r}" for nm, r in
                              zip(names, rng.integers(0, 9, n_jobs))]),
            "gpu_num": gpus.astype(np.int64),
            "cpu_num": (gpus * 6).astype(np.int64),
            "node_num": np.maximum(1, gpus // 8).astype(np.int64),
            "submit_time": submit,
            "duration": duration,
            "status": np.full(n_jobs, "completed"),
        }
    )


@pytest.fixture(scope="module")
def qssf_history():
    return _make_trace(3_000, 0.0, 5 * 86_400.0, seed=1)


def _bench_line(payload: dict, capsys) -> None:
    with capsys.disabled():
        print()
        print("BENCH " + json.dumps(payload, sort_keys=True))


def test_single_shard_throughput(qssf_history, capsys):
    """Job-only stream: the acceptance floor is >= 10k events/s."""
    day = 86_400.0
    window = _make_trace(10_000, 5 * day, day, seed=2)
    server = PredictionServer(ServeConfig(lam=1.0, batch_window_s=600.0))
    server.install_qssf(qssf_history)
    stream = EventStream.from_trace(window, "B", t0=5 * day, t1=6 * day)

    t0 = time.perf_counter()
    report = server.run(stream)
    wall = time.perf_counter() - t0

    _bench_line(
        {
            "bench": "serve_shard",
            "events": report.events,
            "wall_s": round(wall, 4),
            "events_per_s": round(report.events_per_s, 1),
            "qssf_batches": report.qssf_batches,
            "qssf_p50_ms": round(report.qssf_latency.p50_ms, 4),
            "qssf_p99_ms": round(report.qssf_latency.p99_ms, 4),
        },
        capsys,
    )
    assert report.events >= 15_000
    assert report.events_per_s >= 10_000, (
        f"single-shard throughput {report.events_per_s:.0f} ev/s "
        "below the 10k acceptance floor"
    )


def test_mixed_stream_with_ces(qssf_history, capsys):
    """Jobs + node samples: adds the CES forecast/control hot path."""
    day = 86_400.0
    window = _make_trace(4_000, 5 * day, day, seed=3)
    rng = np.random.default_rng(7)
    t = np.arange(6 * 144)
    series = np.round(40 + 12 * np.sin(2 * np.pi * t / 144.0)
                      + rng.normal(0, 1.5, t.size))
    config = ServeConfig(
        lam=1.0,
        bin_seconds=600,
        horizon_bins=6,
        ces_features=ForecastFeatures(
            bin_seconds=600, lags=(1, 2, 3, 6, 144), windows=(6, 36)
        ),
        ces_gbdt=GBDTParams(n_estimators=50, max_depth=5, min_samples_leaf=10),
        ces_update_every=36,
        batch_window_s=600.0,
    )
    server = PredictionServer(config)
    server.install_qssf(qssf_history)
    server.install_ces(series[: 5 * 144], total_nodes=64)
    stream = EventStream.from_trace(
        window, "B", t0=5 * day, t1=6 * day, bin_seconds=600,
        demand=series[5 * 144 :],
    )

    t0 = time.perf_counter()
    report = server.run(stream)
    wall = time.perf_counter() - t0

    _bench_line(
        {
            "bench": "serve_mixed",
            "events": report.events,
            "wall_s": round(wall, 4),
            "events_per_s": round(report.events_per_s, 1),
            "node_samples": report.node_samples,
            "ces_p50_ms": round(report.ces_latency.p50_ms, 4),
            "ces_p99_ms": round(report.ces_latency.p99_ms, 4),
            "forecaster_updates": report.ces_summary.get("forecaster_updates", 0),
        },
        capsys,
    )
    assert report.node_samples == 144
    assert report.events_per_s >= 2_000
    assert report.ces_latency.p99_ms < 100.0


def _paired_walls(base, other, pairs: int):
    """Wall times of ``pairs`` adjacent (base, other) runs, alternating
    which arm goes first so a drift in host speed hits both equally.
    Each arm is run once first, untimed, to warm caches.

    The heap the test session has built up is frozen for the duration:
    a full collection over it inside a timed arm would bill that arm
    for objects a fresh ``python -m repro.serve`` process does not
    have."""
    gc.collect()
    gc.freeze()
    try:
        base()
        other()
        bases, others = [], []
        for i in range(pairs):
            order = ((bases, base), (others, other))
            for walls, arm in order if i % 2 == 0 else order[::-1]:
                walls.append(arm())
    finally:
        gc.unfreeze()
    return bases, others


def _aa_noise(walls) -> float:
    """Same-config run-to-run noise: median relative change between
    consecutive runs of one arm."""
    return statistics.median(
        abs(walls[i + 1] / walls[i] - 1.0) for i in range(len(walls) - 1)
    )


def test_obs_overhead_within_budget(qssf_history, capsys):
    """Serving with obs enabled must stay within 2% of obs-off wall time.

    Shared CI containers show 5-10% run-to-run wall noise on identical
    work, so a naive A/B of two runs cannot resolve a 2% budget.  The
    harness (:func:`_paired_walls`) therefore (a) runs the arms as
    adjacent pairs and takes the median paired ratio — adjacent runs see
    the same load/frequency drift, and the median sheds contention
    spikes — and (b) runs an A/A control (off vs the next round's off)
    to measure the host's own same-config noise.  The budget is
    enforced to within that measured resolution: on a quiet machine the
    tolerance collapses to ~2%; on a noisy one the BENCH line still
    reports both numbers so regressions show up in the history even
    when the assert must stay lenient.
    """
    day = 86_400.0
    window = _make_trace(2_000, 5 * day, day, seed=4)
    pairs = 20

    def once(enabled: bool) -> float:
        obs.reset()
        if enabled:
            obs.enable()
        else:
            obs.disable()
        server = PredictionServer(ServeConfig(lam=1.0, batch_window_s=600.0))
        server.install_qssf(qssf_history)
        stream = EventStream.from_trace(window, "B", t0=5 * day, t1=6 * day)
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        server.run(stream)
        wall = time.perf_counter() - t0
        gc.enable()
        return wall

    try:
        offs, ons = _paired_walls(
            lambda: once(False), lambda: once(True), pairs
        )
    finally:
        obs.reset()
        obs.disable()

    overhead = statistics.median(
        on / off - 1.0 for off, on in zip(offs, ons)
    )
    noise = _aa_noise(offs)
    _bench_line(
        {
            "bench": "serve_obs_overhead",
            "wall_off_s": round(statistics.median(offs), 4),
            "wall_on_s": round(statistics.median(ons), 4),
            "overhead_pct": round(overhead * 100.0, 2),
            "aa_noise_pct": round(noise * 100.0, 2),
        },
        capsys,
    )
    assert overhead <= 0.02 + noise, (
        f"obs-on overhead {overhead:+.1%} exceeds the 2% budget plus the "
        f"host's measured A/A noise floor ({noise:.1%})"
    )
    # Hard ceiling: even a hopelessly noisy host cannot excuse this.
    assert overhead <= 0.25, (
        f"obs-on overhead {overhead:+.1%} is far beyond the 2% budget"
    )


#: shard scenario for the control-plane benches: long enough (~2 s an
#: arm) that forking and worker model fits do not dominate the arm
_NET_CLUSTERS = ("Venus", "Earth")
_NET_TASK = dict(history_days=14, stream_days=6.0, max_jobs=4_000)
#: adjacent arm pairs per control-plane bench
_NET_PAIRS = 5

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


def _net_arm(workers: int, queue_bound: int = 32):
    """One timed serve_clusters_net run; returns (events/s, wall, stats)."""
    from repro.experiments.serving import smoke_serve_config
    from repro.serve import NetConfig, serve_clusters_net

    t0 = time.perf_counter()
    reports, stats = serve_clusters_net(
        _NET_CLUSTERS, smoke_serve_config(),
        net=NetConfig(workers=workers, queue_bound=queue_bound), **_NET_TASK,
    )
    wall = time.perf_counter() - t0
    return sum(r.events for r in reports) / wall, wall, stats


def _spare_cores() -> int:
    """Cores left for shard workers beside the single-threaded router."""
    return (os.cpu_count() or 1) - 1


@needs_fork
def test_net_loopback_scaling(capsys):
    """Loopback load generator: 2 workers vs 1.  Each shard hashes to
    its own worker, so the two streams serve concurrently — given a
    core each beside the single-threaded router."""
    from repro.experiments import common

    for c in _NET_CLUSTERS:
        common.cluster_gpu_trace(c)  # warm outside the timed arms

    depths = []

    def arm(workers):
        def run() -> float:
            _, wall, stats = _net_arm(workers=workers)
            depths.append(stats.max_queue_depth)
            return wall
        return run

    walls1, walls2 = _paired_walls(arm(1), arm(2), _NET_PAIRS)
    scale = statistics.median(w1 / w2 for w1, w2 in zip(walls1, walls2))
    noise = _aa_noise(walls1)
    cores = os.cpu_count() or 1
    spare = _spare_cores()
    _bench_line(
        {
            "bench": "serve_net_loopback",
            "wall_1w_s": round(statistics.median(walls1), 4),
            "wall_2w_s": round(statistics.median(walls2), 4),
            "scale": round(scale, 3),
            "aa_noise_pct": round(noise * 100.0, 2),
            "cores": cores,
            "max_queue_depth": max(depths),
        },
        capsys,
    )
    # The backpressure contract holds at any worker count.
    assert max(depths) <= 32
    if spare >= 2:
        assert scale >= 1.7, (
            f"2-worker loopback throughput only {scale:.2f}x the 1-worker "
            f"run on a {cores}-core host (>= 1.7x required)"
        )
    elif spare == 1:
        assert scale >= 1.0 - noise, (
            f"2 workers ran {1 / scale - 1:+.1%} slower than 1 on a "
            f"{cores}-core host, beyond the measured A/A noise ({noise:.1%})"
        )


@needs_fork
def test_net_router_overhead(capsys):
    """Socket routing must cost <= 10% wall vs direct fork dispatch.

    Same paired-median + A/A-noise-floor harness as the obs-overhead
    bench: both arms fork workers and fit the same models; the delta
    under test is framing, socket hops, and the router event loop.

    The 10% budget presumes the router's serialization overlaps with
    worker compute.  On a single-core host nothing overlaps — every
    pickle and syscall is additive on the one critical path — so the
    budget relaxes to 20% there; the hard ceiling applies regardless.
    """
    from repro.experiments import common
    from repro.experiments.serving import smoke_serve_config
    from repro.serve import serve_clusters

    for c in _NET_CLUSTERS:
        common.cluster_gpu_trace(c)

    def direct() -> float:
        t0 = time.perf_counter()
        serve_clusters(
            _NET_CLUSTERS, config=smoke_serve_config(), jobs=2, **_NET_TASK
        )
        return time.perf_counter() - t0

    def routed() -> float:
        return _net_arm(workers=2)[1]

    directs, routeds = _paired_walls(direct, routed, _NET_PAIRS)
    overhead = statistics.median(
        net / base - 1.0 for base, net in zip(directs, routeds)
    )
    noise = _aa_noise(directs)
    _bench_line(
        {
            "bench": "serve_net_overhead",
            "wall_direct_s": round(statistics.median(directs), 4),
            "wall_routed_s": round(statistics.median(routeds), 4),
            "overhead_pct": round(overhead * 100.0, 2),
            "aa_noise_pct": round(noise * 100.0, 2),
        },
        capsys,
    )
    budget = 0.10 if (os.cpu_count() or 1) >= 2 else 0.20
    assert overhead <= budget + noise, (
        f"router overhead {overhead:+.1%} exceeds the {budget:.0%} budget "
        f"plus the host's measured A/A noise floor ({noise:.1%})"
    )
    # Hard ceiling: even a hopelessly noisy host cannot excuse this.
    assert overhead <= 0.50, (
        f"router overhead {overhead:+.1%} is far beyond the {budget:.0%} budget"
    )

