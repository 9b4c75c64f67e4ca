"""Domain types for hybrid edge/cloud batch scheduling and the replica cost model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


class ValidationError(ValueError):
    """User-supplied input breaks documented invariants, one per `problems` entry."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def require(*checks: tuple[object, str]) -> None:
    """Raise one ValidationError naming the problem of every false condition.

    Each condition is written so that NaN fails it (`x > 0`, not `x <= 0`).
    """
    problems = [problem for ok, problem in checks if not ok]
    if problems:
        raise ValidationError(*problems)


class InternalConsistencyError(RuntimeError):
    """Internal bookkeeping broke an invariant; indicates a bug, aborts the run."""


class Record:
    """A plain record: the fields are its class's own `__slots__`, set by its
    own `__init__`. Records of one type compare by their fields and print as
    `Type(field=value, ...)`; they are unhashable, as defining `__eq__` makes
    them."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True)
class ResourceVector:
    """A CPU/memory quantity. CPU in integer millicores, memory in integer MB.
    Unchecked: a step checks its demand, and a Scenario its node capacities."""

    cpu_millicores: int = 0
    memory_mb: int = 0


@dataclass(frozen=True)
class CostParams:
    """Per-unit prices for cloud resources. Edge resources are free."""

    c_cpu: float = 1000.0  # price per whole vCPU per second
    c_mem: float = 0.1     # price per MB per second

    def __post_init__(self) -> None:
        require((0 <= self.c_cpu < math.inf, "c_cpu: must be >= 0 and finite"),
                (0 <= self.c_mem < math.inf, "c_mem: must be >= 0 and finite"))


@dataclass(frozen=True)
class StepSpec:
    """One processing step of a pipeline: a replicated serverless function."""

    step_id: str
    demand_per_replica: ResourceVector
    replicas: int
    service_time_per_fragment: float
    feed_forward: bool = True

    def __post_init__(self) -> None:
        require((self.step_id, "step_id: must be non-empty"),
                (self.demand_per_replica.cpu_millicores >= 0, "cpu_millicores: must be >= 0"),
                (self.demand_per_replica.memory_mb >= 0, "memory_mb: must be >= 0"),
                (self.replicas >= 1, "replicas: must be >= 1"),
                (self.service_time_per_fragment > 0, "service_time: must be > 0"))


@dataclass(frozen=True)
class PipelineDag:
    """Directed graph of steps. Construction is permissive; see dag_violations."""

    steps: tuple[StepSpec, ...]
    edges: tuple[tuple[str, str], ...] = ()

    def __init__(self, steps, edges=()):
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in edges))

    def step(self, step_id: str) -> StepSpec:
        for s in self.steps:
            if s.step_id == step_id:
                return s
        raise KeyError(step_id)

    def predecessors(self, step_id: str) -> list[str]:
        return [a for a, b in self.edges if b == step_id]

    def successors(self, step_id: str) -> list[str]:
        return [b for a, b in self.edges if a == step_id]

    def source_ids(self) -> list[str]:
        return [s.step_id for s in self.steps if not self.predecessors(s.step_id)]

    @cached_property
    def terminal_ids(self) -> tuple[str, ...]:
        """Steps without successors, computed once per graph."""
        return tuple(s.step_id for s in self.steps if not self.successors(s.step_id))

    @cached_property
    def predecessors_by_step(self) -> dict[str, tuple[str, ...]]:
        """Each step's predecessors in edge order, computed once per graph."""
        return {s.step_id: tuple(self.predecessors(s.step_id)) for s in self.steps}

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Stable topological order of step ids (Kahn's algorithm), computed
        once per graph.

        Jobs of one template share the graph, so they share the order. With
        unique ids and known endpoints, a step on or behind a cycle never
        becomes ready, so the order is short exactly when the graph is
        cyclic; dag_violations reads that, and every Scenario template has
        passed it.
        """
        order: list[str] = []
        indeg = {s.step_id: len(self.predecessors(s.step_id)) for s in self.steps}
        ready = [sid for sid, d in indeg.items() if d == 0]
        while ready:
            sid = ready.pop(0)
            order.append(sid)
            for nxt in self.successors(sid):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        return tuple(order)


def dag_violations(dag: PipelineDag) -> list[str]:
    """Structural checks: unique ids, known edge endpoints, at least one source, acyclic."""
    problems: list[str] = []
    ids = [s.step_id for s in dag.steps]
    if not ids:
        problems.append("pipeline has no steps")
        return problems
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            problems.append(f"duplicate step_id {sid!r}")
        seen.add(sid)
    for a, b in dag.edges:
        if a not in seen:
            problems.append(f"edge references unknown step {a!r}")
        if b not in seen:
            problems.append(f"edge references unknown step {b!r}")
        if a == b:
            problems.append(f"self edge on step {a!r}")
    if problems:
        return problems
    if not dag.source_ids():
        problems.append("pipeline has no source step")
    if len(dag.order) != len(ids):
        problems.append("cycle detected")
    return problems


@dataclass(frozen=True)
class BatchJob:
    """A batch of fragments pushed through a pipeline under a completion deadline."""

    job_id: str
    dag: PipelineDag
    fragment_count: int
    deadline: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        # built once per arrival: the problem list waits for a failed check
        if not (self.job_id and self.fragment_count >= 1 and self.deadline > 0
                and self.arrival_time >= 0):
            require((self.job_id, "job_id: must be non-empty"),
                    (self.fragment_count >= 1, "fragment_count: must be >= 1"),
                    (self.deadline > 0, "deadline: must be > 0"),
                    (self.arrival_time >= 0, "arrival_time: must be >= 0"))


def rcost(step: StepSpec, params: CostParams) -> float:
    """Price per second of keeping this step's replica set deployed in the cloud.

    Memory is billed per MB and CPU per whole vCPU, so millicores are scaled
    down by 1000. The result is linear in the replica count.
    """
    per_replica = (step.demand_per_replica.memory_mb * params.c_mem
                   + step.demand_per_replica.cpu_millicores / 1000.0 * params.c_cpu)
    return per_replica * step.replicas


def validate_job(job: BatchJob, execution_timeout: float = 60.0,
                 min_speed_factor: float = 1.0) -> list[str]:
    """Collect every invariant violation in a job spec; empty list means acceptable.

    Args:
        job: candidate job.
        execution_timeout: per-fragment wall-clock limit enforced at admission.
        min_speed_factor: slowest region's speed factor, > 0; effective service
            time is service_time / speed, and the slowest region is the binding one.

    Returns:
        Human-readable violations; callers decide whether to raise.
    """
    problems = [f"job {job.job_id}: {p}" for p in dag_violations(job.dag)]
    for s in job.dag.steps:
        effective = s.service_time_per_fragment / min_speed_factor
        if effective > execution_timeout:
            problems.append(
                f"job {job.job_id} step {s.step_id}: effective service time "
                f"{effective:g}s exceeds the execution timeout {execution_timeout:g}s")
    return problems
