"""Prediction-based resource-management framework (§4.1, Fig 10)."""

from .engine import ModelUpdateEngine, UpdatePolicy
from .faults import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    TransientWorkerFault,
    clear_fault_plan,
    install_fault_plan,
    installed_fault_plan,
)
from .orchestrator import ResourceOrchestrator
from .parallel import (
    WorkerError,
    effective_jobs,
    fork_available,
    map_threaded,
    run_forked,
    stable_seed,
)
from .plugins import CESNodeService, PassthroughQueueService, QSSFService
from .service import PredictionService
from .supervise import HeartbeatMonitor, SupervisionLog, WorkerContext, backoff_delay

__all__ = [
    "ALL_FAULT_KINDS",
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "CESNodeService",
    "FaultPlan",
    "FaultSpec",
    "HeartbeatMonitor",
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
    "clear_fault_plan",
    "effective_jobs",
    "fork_available",
    "install_fault_plan",
    "installed_fault_plan",
    "map_threaded",
    "run_forked",
    "stable_seed",
]
