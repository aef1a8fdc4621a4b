"""Fast checks of the benchmark's own machinery (seconds, not minutes).

Each workload function runs on a tiny stream; full workloads only ever
run through ``run.py``, never under pytest.
"""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import numpy as np
import pytest

import child
import inputs
import run
import speed
import tracer
from repro.experiments import registry
from repro.frame import Table
from repro.serve.__main__ import build_parser
from repro.serve.net import framing, router
from repro.serve.runtime import ShardTask, build_stream
from repro.sim.engine import Simulator

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
TINY = ["--days", "0.25", "--max-jobs", "40", "--history-days", "10"]


def full_pass() -> child.Pass:
    return child.Pass({"mode": "full"})


# ----------------------------------------------------------------------
# Workloads on tiny streams
# ----------------------------------------------------------------------


def test_serve_inproc_tiny_stream(monkeypatch):
    monkeypatch.setattr(child, "SERVE_INPROC_ARGV", child.SERVE_INPROC_ARGV[:4] + TINY)
    p = full_pass()
    result = child.serve_inproc(p)
    assert p.setup_end is not None
    assert set(result["digests"]) == {"Venus"}
    assert result["events"] == result["attempted"] > 0
    assert result["failed"] == 0 and p.serve_end > p.setup_end
    assert len(result["samples_ms"]["qssf_decide"]) > 0
    times = child.phase_times(p, p.setup_end - 1.0, [])
    assert times["setup_s"] == times["raw"]["setup_s"] == 1.0
    assert times["serve_s"] == times["raw"]["serve_s"] > 0


def test_setup_pass_stops_at_first_event(monkeypatch):
    monkeypatch.setattr(child, "SERVE_INPROC_ARGV", child.SERVE_INPROC_ARGV[:4] + TINY)
    p = child.Pass({"mode": "setup"})
    with pytest.raises(child.SetupDone):
        child.serve_inproc(p)
    assert p.setup_end is not None


def test_serve_net_ckpt_tiny_stream_counts_each_event_once(monkeypatch, tmp_path):
    argv = [a for a in child.SERVE_NET_ARGV] + TINY
    argv[argv.index("--checkpoint-every") + 1] = "5"
    monkeypatch.setattr(child, "SERVE_NET_ARGV", argv)
    monkeypatch.setattr(framing.FramedConn, "receive", framing.FramedConn.receive)
    monkeypatch.setattr(router, "worker_main", router.worker_main)
    result = child.serve_net_ckpt(child.Pass({"mode": "full"}, probe_dir=tmp_path))
    assert set(result["digests"]) == {"Venus@0", "Venus@1"}
    assert result["failed"] == 0
    assert len(list(tmp_path.glob("probe-*.json"))) == 2  # one per worker
    args = build_parser().parse_args(argv)
    task = ShardTask(cluster="Venus", config=child.cli_config(args),
                     history_days=args.history_days, stream_days=args.days,
                     max_jobs=args.max_jobs)
    assert result["events"] == len(build_stream(task))


def test_runner_cold_tiny(monkeypatch):
    monkeypatch.setattr(child, "RUNNER_ARGV", ["table1", "--no-cache", "--jobs", "1"])
    monkeypatch.setitem(registry.SPECS, "table1", registry.SPECS["table1"])
    monkeypatch.setattr(Simulator, "run", Simulator.run)
    p = full_pass()
    result = child.runner_cold(p)
    assert p.setup_end is not None
    assert set(result["digests"]) == {"table1"}
    assert (result["attempted"], result["failed"]) == (1, 0)


# ----------------------------------------------------------------------
# Self time, coverage and unattributed time
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_excludes_child_spans(monkeypatch):
    # outer starts at 0, inner runs 1..3, outer ends at 4
    monkeypatch.setattr(tracer, "clock", FakeClock([0.0, 1.0, 3.0, 4.0]))
    t = tracer.Tracer()
    inner = t.wrap(lambda: None, "inner")
    outer = t.wrap(lambda: inner(), "outer")
    outer()
    summary = tracer.summarize([{"spans": t.spans, "counts": {}, "maxes": {}}])
    assert summary["spans"]["outer"] == {"self_s": 2.0, "incl_s": 4.0, "calls": 1}
    assert summary["spans"]["inner"] == {"self_s": 2.0, "incl_s": 2.0, "calls": 1}
    assert summary["covered_s"] == 4.0


def test_coverage_merges_processes_and_unattributed_pct():
    router = {"spans": [["drive", 1.0, 5.0, 4.0, 0]], "counts": {}, "maxes": {}}
    worker = {"spans": [["serve.submit", 4.0, 7.0, 3.0, 0],
                        ["ml.gbdt.predict", 4.5, 6.0, 1.5, 1]],
              "counts": {}, "maxes": {}}
    summary = tracer.summarize([router, worker])
    assert summary["covered_s"] == 6.0  # union of [1, 5] and [4, 7]
    assert tracer.unattributed_pct(8.0, summary["covered_s"]) == 25.0


def test_send_wait_counts_until_last_byte_leaves():
    t = tracer.Tracer()

    class Conn(framing.FramedConn):
        pass

    tracer._SendWaits(t).install(Conn)
    a, b = socket.socketpair()
    try:
        conn = Conn(a)
        conn.send({"blob": b"x" * (8 << 20)})  # larger than the socket buffer
        assert conn.want_write and "serve.net.send_wait_s" not in t.counts
        b.setblocking(False)
        while conn.want_write:
            try:
                b.recv(1 << 20)
            except BlockingIOError:
                pass
            conn.pump()
        assert t.counts["serve.net.send_wait_s"] > 0
    finally:
        a.close()
        b.close()


def test_layer_metrics_match_benchmark_json():
    empty = tracer.summarize([])
    names = set(tracer.layer_metrics(empty)) | {"unattributed_pct", "trace_overhead_pct"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    full = [{"wall_s": 2.0, "events": 10, "serve_s": 1.0, "peak_rss_mb": 5.0}]
    assert set(run.end_to_end(full, [1.0])) == {m["name"] for m in BENCHMARK["end_to_end"]}


# ----------------------------------------------------------------------
# Core-speed scaling
# ----------------------------------------------------------------------


def test_deduction_scales_sampled_cpu_and_keeps_waiting():
    ref, period = speed.REF_S, speed.PERIOD_S
    # at 0.5 s a chunk ran at half the reference speed, at 2.5 s at full
    # speed; each probe took 0.002 s of its own
    samples = [(0.5, 2 * ref, 0.002), (2.5, ref, 0.002)]
    half = 0.002 + (period - 0.002) * 0.5
    assert speed.deduction(samples, 0.0, 1.0) == pytest.approx(half)
    assert speed.deduction(samples, 1.0, 3.0) == pytest.approx(0.002)
    assert speed.deduction(samples) == pytest.approx(half + 0.002)
    assert speed.deduction(samples, 3.0, 9.0) == 0.0
    assert speed.mean_speed(samples) == pytest.approx(0.75)


def test_probe_samples_while_the_process_computes(tmp_path):
    probe = speed.Probe()
    probe.start()
    try:
        start = time.process_time()
        while time.process_time() - start < 4 * speed.PERIOD_S:
            sum(range(10_000))
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert probe.spent == pytest.approx(sum(s[2] for s in probe.samples))
    probe.dump(tmp_path, 1)
    assert speed.collect(tmp_path) == [list(s) for s in probe.samples]


# ----------------------------------------------------------------------
# Output checks and failure accounting
# ----------------------------------------------------------------------


def test_check_rejects_corrupted_digest(tmp_path, monkeypatch):
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"digests": {"serve_inproc": {"Venus": "ab"}}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    passes = [{"digests": {"Venus": "ab"}, "attempted": 7, "failed": 0},
              {"digests": {"Venus": "ac"}, "attempted": 7, "failed": 0}]
    matches = run.check("serve_inproc", run.REFERENCE_SEED, passes)
    assert matches == [True, False]
    assert run.account(passes, matches) == (14, 7, False)
    assert run.account(passes[:1], matches[:1]) == (7, 0, True)


def test_other_seeds_must_agree_with_first_recorded_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    first = [{"digests": {"fig11": "aa"}}]
    assert run.check("runner_cold", 7, first) == [True]
    assert run.check("runner_cold", 7, [{"digests": {"fig11": "bb"}}]) == [False]
    assert run.check("runner_cold", 8, [{"digests": {"fig11": "bb"}}]) == [True]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def test_match_daily_counts_resizes_each_day():
    day = 86_400
    trace = Table({
        "job_id": np.array([f"j{i}" for i in range(7)]),
        "gpu_num": np.array([1, 1, 1, 0, 1, 1, 0]),
        "submit_time": np.array([10, 20, 30, 40, day + 5, 3 * day + 1, 3 * day + 2]),
    })
    targets = {"gpu": [2, 3, 0, 1], "cpu": [0, 2, 0, 1]}
    out = inputs.match_daily_counts(trace, targets, np.random.default_rng(0))
    assert inputs.day_counts(out, 4) == targets
    assert len(set(out["job_id"].tolist())) == len(out)
    assert np.all(np.diff(out["submit_time"]) >= 0)
