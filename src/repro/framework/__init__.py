"""Prediction-based resource-management framework (§4.1, Fig 10)."""

from .engine import ModelUpdateEngine, UpdatePolicy
from .faults import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    TransientWorkerFault,
)
from .orchestrator import ResourceOrchestrator
from .parallel import (
    WorkerError,
    effective_jobs,
    fork_available,
    run_forked,
    stable_seed,
)
from .plugins import CESNodeService, PassthroughQueueService, QSSFService
from .service import PredictionService
from .supervise import SupervisionLog, WorkerContext, backoff_delay

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "CESNodeService",
    "FaultPlan",
    "FaultSpec",
    "ModelUpdateEngine",
    "PassthroughQueueService",
    "PredictionService",
    "QSSFService",
    "ResourceOrchestrator",
    "SupervisionLog",
    "TransientWorkerFault",
    "UpdatePolicy",
    "WorkerContext",
    "WorkerError",
    "backoff_delay",
    "effective_jobs",
    "fork_available",
    "run_forked",
    "stable_seed",
]
