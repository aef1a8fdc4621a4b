"""The repo benchmark: one command per workload.

    python3 perfbench/run.py --workload serve_inproc   --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_net_ckpt --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload runner_cold    --seed 42 --seconds 20 --trace 0

Run from the repository root.  Every pass is a fresh process
(``child.py``).  ``--trace 0`` runs full passes until ``--seconds`` have
been measured (at least one), then set-up-only passes until there are
``SETUP_SAMPLES`` set-up times, and reports the end-to-end metrics as
medians over them.  Their times are at the reference core speed
(``speed.py``); the measured ones are printed beside them and kept in
the report.  ``--trace 1`` runs one traced pass and reports the
per-layer metrics; its tracing overhead is taken against one untraced
pass it runs first.  Every full pass checks its outputs
against the seed-42 reference in ``reference.json`` (other seeds:
against the first run recorded under ``.perfbench/seeds/``).  The last
line of stdout is the JSON result; a full report goes to
``.perfbench/results/``.

``--bless`` re-records ``reference.json`` from seed-42 runs; use it only
when a change alters the program's outputs on purpose.  See README.md
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import percentile, unattributed_pct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
clock = time.monotonic

WORKLOADS = ("serve_inproc", "serve_net_ckpt", "runner_cold")
REFERENCE_SEED = 42
#: set-up times per run; their median is ``setup_s``
SETUP_SAMPLES = 2
#: a run must end within 180 s; no pass starts past this point
BUDGET_S = 165.0


def run_pass(workload: str, seed: int, mode: str, traced: bool, index: int,
             deadline: float) -> dict:
    """Run one ``child.py`` pass in its own process group, killed at
    ``deadline``; returns its measurements plus ``wall_s`` (spawn to
    exit, at the reference core speed; the measured one is in
    ``raw``)."""
    out_dir = STATE / "pass" / f"{workload}-{os.getpid()}-{index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    out = out_dir / "result.json"
    spec = {"workload": workload, "seed": seed, "mode": mode, "trace": traced,
            "root": str(ROOT), "out": str(out)}
    t_spawn = clock()
    spec["t_spawn"] = t_spawn
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    wall = clock() - t_spawn
    _reap_group(proc)
    if code != 0 or not out.exists():
        raise RuntimeError(f"{workload} {mode} pass {index} failed (exit {code})")
    result = json.loads(out.read_text())
    for path in out_dir.iterdir():
        path.unlink()
    out_dir.rmdir()
    result["raw"]["wall_s"] = wall
    result.update(wall_s=wall - result["speed"]["deduction_s"], index=index, mode=mode,
                  traced=traced)
    return result


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the pass's process group and wait until
    it is gone (a clean pass has already joined its workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = clock() + 5.0
    while clock() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def expected_digests(workload: str, seed: int, first: dict) -> dict:
    """The reference digests for this workload and seed.  Seeds other
    than 42 have no committed reference: the first run recorded in this
    checkout becomes it, so later runs must agree with it.  Records are
    keyed by the input generator's source, which decides the inputs."""
    if seed == REFERENCE_SEED:
        return json.loads(REFERENCE.read_text())["digests"][workload]
    version = hashlib.sha256((HERE / "inputs.py").read_bytes()).hexdigest()[:12]
    path = STATE / "seeds" / f"{workload}-{seed}-{version}.json"
    if path.exists():
        return json.loads(path.read_text())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(first, indent=1, sort_keys=True))
    return first


def check(workload: str, seed: int, passes: list[dict]) -> list[bool]:
    """Per full pass: do its output digests equal the reference?"""
    if not passes:
        return []
    want = expected_digests(workload, seed, passes[0]["digests"])
    return [p["digests"] == want for p in passes]


def account(full: list[dict], matches: list[bool]) -> tuple[int, int, bool]:
    """``(attempted, failed, correct)`` over the full passes: a pass
    whose outputs miss the reference fails every operation it attempted."""
    attempted = sum(p["attempted"] for p in full)
    failed = sum(p["failed"] if ok else p["attempted"] for p, ok in zip(full, matches))
    return attempted, failed, all(matches) and failed == 0


# ----------------------------------------------------------------------
# Provenance and reporting
# ----------------------------------------------------------------------


def provenance(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from repro.experiments.cache import code_fingerprint

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "host_cores": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "source_sha256": code_fingerprint(),
    }


def end_to_end(full: list[dict], setups: list[float]) -> dict:
    """Metric -> (value, unit, sample note) over the untraced passes."""
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(p["wall_s"] for p in full), "s",
                   f"median of {len(full)} passes"),
        "events_per_s": (
            statistics.median(p["events"] / p["serve_s"] for p in full), "events/s",
            f"{full[0]['events']} events per pass, median of {len(full)}",
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in full), "MB",
                        f"median of {len(full)} passes"),
    }


def raw_line(full: list[dict], passes: list[dict]) -> str:
    """The measured medians the end-to-end times were scaled from."""
    def med(rows, key):
        return statistics.median(p["raw"][key] for p in rows)

    speeds = [p["speed"]["mean"] for p in passes]
    return (f"  measured: setup_s {med(passes, 'setup_s'):.4f}  wall_s "
            f"{med(full, 'wall_s'):.4f}  serve_s {med(full, 'serve_s'):.4f}  "
            f"core speed {min(speeds):.3f}..{max(speeds):.3f} of reference "
            f"({sum(p['speed']['probes'] for p in passes)} probes)")


def latency_lines(full: list[dict]) -> list[str]:
    """Outside-in decide/step percentiles (serve_inproc), with counts."""
    lines = []
    for route in ("qssf_decide", "ces_step"):
        samples = [x for p in full for x in p.get("samples_ms", {}).get(route, [])]
        if samples:
            lines.append(
                f"  {route}_p50_ms {percentile(samples, 50):10.4f} ms   "
                f"{route}_p99_ms {percentile(samples, 99):10.4f} ms   (n={len(samples)})"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="re-record reference.json from seed-42 runs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    if args.bless:
        return bless()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    deadline = clock() + BUDGET_S
    passes: list[dict] = []

    def one(mode: str, traced: bool = False) -> dict:
        result = run_pass(args.workload, args.seed, mode, traced, len(passes), deadline)
        passes.append(result)
        return result

    try:
        if args.trace:
            baseline = one("full")["wall_s"]
            traced_pass = one("full", traced=True)
        else:
            # Full passes for --seconds (at least one), leaving room
            # before the deadline for the set-up-only passes.
            start = clock()
            while True:
                last = one("full")
                now = clock()
                if now - start >= args.seconds or now + 2 * last["raw"]["wall_s"] > deadline:
                    break
            while len(passes) < SETUP_SAMPLES:
                one("setup")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    full = [p for p in passes if p["mode"] == "full"]
    matches = check(args.workload, args.seed, full)
    attempted, failed, correct = account(full, matches)
    print(f"{args.workload}  seed {args.seed}  passes: {len(full)} full"
          f"{' (1 traced)' if args.trace else ''}, {len(passes) - len(full)} set-up only  "
          f"correct={correct}  attempted={attempted} failed={failed}")
    report = {
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "passes": [
            {k: v for k, v in p.items() if k not in ("samples_ms", "layers", "spans")}
            | {"output_ok": ok}
            for p, ok in zip(full, matches)
        ],
    }
    if args.trace:
        metrics = dict(traced_pass["layers"])
        wall = traced_pass["wall_s"]
        metrics["unattributed_pct"] = (
            unattributed_pct(traced_pass["raw"]["wall_s"], traced_pass["covered_s"]), "%"
        )
        metrics["trace_overhead_pct"] = (100.0 * (wall - baseline) / baseline, "%")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:36s} {value:16.4f} {unit}")
        print(f"  (traced wall {wall:.3f} s against untraced wall {baseline:.3f} s, both scaled)")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["spans"] = traced_pass["spans"]
    else:
        e2e = end_to_end(full, [p["setup_s"] for p in passes])
        for name, (value, unit, note) in e2e.items():
            print(f"  {name:16s} {value:12.4f} {unit:9s} ({note})")
        print(raw_line(full, passes))
        for line in latency_lines(full):
            print(line)
        report["end_to_end"] = {
            k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()
        }
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    print("provenance " + json.dumps(prov, sort_keys=True))
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def bless() -> int:
    """Re-record reference.json: per-day job counts of the seed-42
    traces and each workload's seed-42 output digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import day_counts

    from repro.experiments import common

    daily = {}
    for cluster in common.CLUSTERS:
        daily[cluster] = day_counts(common.cluster_trace(cluster),
                                    common.MONTHS * 30)
    daily["Philly"] = day_counts(common.philly_trace(), common.PHILLY_DAYS)
    REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "digests": {}, "daily_jobs": daily}, sort_keys=True,
    ) + "\n")
    digests = {}
    for workload in WORKLOADS:
        deadline = clock() + BUDGET_S
        digests[workload] = run_pass(workload, REFERENCE_SEED, "full", False, 0,
                                     deadline)["digests"]
        print(f"{workload}: {digests[workload]}")
    REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "digests": digests, "daily_jobs": daily},
        sort_keys=True,
    ) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
