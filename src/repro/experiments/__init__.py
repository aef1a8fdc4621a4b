"""Per-exhibit experiments (Tables 1-5, Figures 1-15, ablations).

The registry maps exhibit ids to builders plus orchestration metadata
(cost tier, shared precursor inputs); :mod:`.orchestrator` runs sets of
exhibits through the content-addressed artifact cache and a forked
worker pool; :mod:`.runner` is the CLI.
"""

from .cache import ArtifactCache, code_fingerprint
from .orchestrator import ExperimentOrchestrator, OrchestratorResult, RunReport
from .registry import (
    ExperimentSpec,
    SPECS,
    experiment_ids,
    get_spec,
    run_experiment,
    smoke_ids,
)

__all__ = [
    "ArtifactCache",
    "ExperimentOrchestrator",
    "ExperimentSpec",
    "OrchestratorResult",
    "RunReport",
    "SPECS",
    "code_fingerprint",
    "experiment_ids",
    "get_spec",
    "run_experiment",
    "smoke_ids",
]
