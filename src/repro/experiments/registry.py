"""Experiment registry: id -> spec (see DESIGN.md §4 for the index).

Beyond the id -> callable mapping, each :class:`ExperimentSpec` declares
orchestration metadata:

* ``cost`` — a coarse tier (``cheap`` under ~1 s, ``medium`` seconds,
  ``heavy`` tens of seconds) the orchestrator uses to schedule heavy
  exhibits first so a worker pool drains evenly;
* ``inputs`` — precursor tokens (see
  :func:`repro.experiments.common.compute_precursor`) naming the shared
  memoized inputs (synthetic traces, simulator replays, CES reports) the
  experiment reads.  Specs declare only their *top-level* inputs: the
  orchestrator closes the set over
  :func:`repro.experiments.common.precursor_deps` (a replay implies its
  trace, a QSSF replay its trained scheduler) and warms the result in
  dependency waves across the worker pool before fanning out, so no two
  workers replay the same (cluster, scheduler) pair and no replay worker
  regenerates a trace;
* ``smoke`` — membership in the fast CLI profile (``--smoke``): the
  trace-level exhibits, the serving smokes and the batched CES sweep —
  everything cheap enough to exercise the full pipeline in seconds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import ablations, characterization, energy_exp, scheduling, serving
from .common import CLUSTERS, SCHEDULER_NAMES

__all__ = [
    "ExperimentSpec",
    "SPECS",
    "experiment_ids",
    "get_spec",
    "run_experiment",
    "smoke_ids",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One exhibit: its builder plus orchestration metadata."""

    exp_id: str
    fn: Callable[[], dict]
    cost: str = "medium"  # "cheap" | "medium" | "heavy"
    inputs: tuple[str, ...] = ()
    smoke: bool = False

    def __post_init__(self) -> None:
        if self.cost not in ("cheap", "medium", "heavy"):
            raise ValueError(f"unknown cost tier {self.cost!r}")


def _traces(*, philly: bool = False) -> tuple[str, ...]:
    tokens = tuple(f"cluster_trace:{c}" for c in CLUSTERS)
    return tokens + (("philly_trace",) if philly else ())


def _full_replays(*clusters: str) -> tuple[str, ...]:
    return tuple(f"full_replay:{c}" for c in (clusters or CLUSTERS))


def _september(clusters=CLUSTERS, scheds=SCHEDULER_NAMES) -> tuple[str, ...]:
    return tuple(
        f"september_replay:{c}:{s}" for c in clusters for s in scheds
    )


def _philly_replays(*scheds: str) -> tuple[str, ...]:
    return tuple(f"philly_replay:{s}" for s in scheds)


_SPEC_TABLE: tuple[ExperimentSpec, ...] = (
    # -- §3 characterization ------------------------------------------
    ExperimentSpec("table1", characterization.exp_table1, "cheap", (), smoke=True),
    ExperimentSpec("table2", characterization.exp_table2, "medium",
                   _traces(philly=True), smoke=True),
    ExperimentSpec("fig1", characterization.exp_fig1, "medium",
                   _traces(philly=True), smoke=True),
    ExperimentSpec("fig2", characterization.exp_fig2, "heavy",
                   _full_replays()),
    ExperimentSpec("fig3", characterization.exp_fig3, "heavy",
                   _full_replays()),
    ExperimentSpec("fig4", characterization.exp_fig4, "medium",
                   _full_replays("Earth")),
    ExperimentSpec("fig5", characterization.exp_fig5, "medium", _traces(),
                   smoke=True),
    ExperimentSpec("fig6", characterization.exp_fig6, "medium", _traces(),
                   smoke=True),
    ExperimentSpec("fig7", characterization.exp_fig7, "medium", _traces(),
                   smoke=True),
    ExperimentSpec("fig8", characterization.exp_fig8, "medium", _traces(),
                   smoke=True),
    ExperimentSpec("fig9", characterization.exp_fig9, "heavy",
                   _full_replays()),
    # -- §4.2 QSSF ----------------------------------------------------
    ExperimentSpec("fig11", scheduling.exp_fig11, "heavy", _september()),
    ExperimentSpec("fig12", scheduling.exp_fig12, "heavy",
                   _september(clusters=("Saturn",))),
    ExperimentSpec("fig13", scheduling.exp_fig13, "heavy",
                   _philly_replays(*SCHEDULER_NAMES)),
    ExperimentSpec("table3", scheduling.exp_table3, "heavy",
                   _september(scheds=("FIFO", "SJF", "QSSF"))
                   + _philly_replays("FIFO", "SJF", "QSSF")),
    ExperimentSpec("table4", scheduling.exp_table4, "heavy",
                   _september(scheds=("FIFO", "QSSF"))
                   + _philly_replays("FIFO", "QSSF")),
    # -- §4.3 CES -----------------------------------------------------
    ExperimentSpec("fig14", energy_exp.exp_fig14, "heavy",
                   ("ces_report:Earth",)),
    ExperimentSpec("fig15", energy_exp.exp_fig15, "heavy",
                   ("ces_report:Philly",)),
    ExperimentSpec("table5", energy_exp.exp_table5, "heavy",
                   tuple(f"ces_report:{c}" for c in CLUSTERS + ("Philly",))),
    ExperimentSpec("ces_sweep", energy_exp.exp_ces_sweep, "heavy",
                   tuple(f"ces_forecast:{c}" for c in CLUSTERS + ("Philly",)),
                   smoke=True),
    # -- §4.1 serving runtime -----------------------------------------
    ExperimentSpec("serve_smoke", serving.exp_serve_smoke, "medium",
                   tuple(f"cluster_gpu_trace:{c}"
                         for c in serving.SERVE_SMOKE_CLUSTERS),
                   smoke=True),
    ExperimentSpec("serve_replay", serving.exp_serve_replay, "medium",
                   tuple(f"cluster_gpu_trace:{c}"
                         for c in serving.SERVE_REPLAY_CLUSTERS),
                   smoke=True),
    ExperimentSpec("serve_chaos", serving.exp_serve_chaos, "medium",
                   tuple(f"cluster_gpu_trace:{c}"
                         for c in serving.SERVE_CHAOS_CLUSTERS),
                   smoke=True),
    ExperimentSpec("serve_frontdoor", serving.exp_serve_frontdoor, "medium",
                   tuple(f"cluster_gpu_trace:{c}"
                         for c in serving.SERVE_NET_CLUSTERS),
                   smoke=True),
    # -- ablations ----------------------------------------------------
    ExperimentSpec("ablation_lambda", ablations.exp_ablation_lambda, "heavy",
                   ("cluster_gpu_trace:Venus",)),
    ExperimentSpec("ablation_forecaster", ablations.exp_ablation_forecaster,
                   "heavy", _full_replays("Earth")),
    ExperimentSpec("ablation_buffer", ablations.exp_ablation_buffer, "heavy",
                   ("ces_forecast:Earth",)),
    ExperimentSpec("ablation_oracle", ablations.exp_ablation_oracle, "heavy",
                   _september(clusters=("Venus",), scheds=("FIFO", "QSSF"))),
)

SPECS: dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in _SPEC_TABLE}


def experiment_ids() -> list[str]:
    return list(SPECS)


def smoke_ids() -> list[str]:
    """The fast CLI profile: trace-level exhibits, the serving smokes
    (``serve_replay`` rides on the fast engine's cheap replays — no
    full-horizon simulation), and ``ces_sweep`` (the batched DRS grid
    makes the whole CES sweep affordable enough to smoke-test)."""
    return [eid for eid, spec in SPECS.items() if spec.smoke]


def get_spec(exp_id: str) -> ExperimentSpec:
    try:
        return SPECS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {experiment_ids()}"
        ) from None


def run_experiment(exp_id: str) -> dict:
    """Run one experiment by id; returns its payload (with a 'text' key)."""
    return get_spec(exp_id).fn()
