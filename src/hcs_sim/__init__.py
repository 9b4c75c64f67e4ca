"""Deterministic simulator for hybrid edge/cloud scheduling of serverless batch pipelines."""

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
    rcost,
    validate_job,
)
from hcs_sim.hcs_scheduler import HcsScheduler, SchedulerMode
from hcs_sim.metrics import (
    CostLedgerEntry,
    JobOutcome,
    RunReport,
    UtilizationSample,
    cost_vs_baseline,
    emit_report,
    time_weighted_utilization,
)
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    DriverRestartFault,
    ExplicitArrivals,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
    generate_arrivals,
    run,
)

__all__ = [
    "BatchJob",
    "CostLedgerEntry",
    "CostParams",
    "DriverRestartFault",
    "ExplicitArrivals",
    "HcsScheduler",
    "InternalConsistencyError",
    "JobOutcome",
    "NodeFailureFault",
    "PipelineDag",
    "PipelineDriver",
    "PlacementPolicy",
    "PoissonArrivals",
    "ResourceVector",
    "RunReport",
    "Scenario",
    "SchedulerMode",
    "StepSpec",
    "UtilizationSample",
    "ValidationError",
    "cost_vs_baseline",
    "emit_report",
    "generate_arrivals",
    "rcost",
    "run",
    "time_weighted_utilization",
    "validate_job",
]
