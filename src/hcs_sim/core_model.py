"""Domain types for hybrid edge/cloud batch scheduling and the replica cost model."""

from __future__ import annotations

import math
import sys


class ValidationError(ValueError):
    """User-supplied input breaks documented invariants, one per `problems` entry."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def require(*checks: tuple[object, str]) -> None:
    """Raise one ValidationError naming the problem of every false condition.

    Each condition is written so that NaN fails it (`x > 0`, not `x <= 0`).
    """
    for ok, _ in checks:
        if not ok:
            raise ValidationError(*[problem for ok, problem in checks if not ok])


def log(logger: str, level: str, message: str, *args) -> None:
    """`logging.getLogger(logger).<level>(message, *args)`, charged to the
    caller, once the process has loaded logging. The package never loads it
    itself (`cli.main` does when HCS_SIM_LOG asks for output), and before
    logging is loaded no handler could receive the record."""
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(logger), level)(message, *args, stacklevel=2)


class InternalConsistencyError(RuntimeError):
    """Internal bookkeeping broke an invariant; indicates a bug, aborts the run."""


class Record:
    """A plain record: the fields are its class's own `__slots__`, set by its
    own `__init__`. Records of one type compare by their fields and print as
    `Type(field=value, ...)`; they are unhashable, as defining `__eq__` makes
    them. Callers treat them as immutable: `replace` copies one whose
    `__init__` takes its fields by name, as every public value type's does."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, built through `__init__`, so
        its checks run again; an unknown field raises TypeError."""
        fields = {f: getattr(self, f) for f in self.__slots__}
        fields.update(changes)
        return type(self)(**fields)


class ResourceVector(Record):
    """A CPU/memory quantity. CPU in integer millicores, memory in integer MB.
    Unchecked: a step checks its demand, and a Scenario its node capacities."""

    __slots__ = ("cpu_millicores", "memory_mb")

    def __init__(self, cpu_millicores: int = 0, memory_mb: int = 0):
        self.cpu_millicores = cpu_millicores
        self.memory_mb = memory_mb


class CostParams(Record):
    """Per-unit prices for cloud resources. Edge resources are free."""

    __slots__ = ("c_cpu", "c_mem")

    def __init__(self, c_cpu: float = 1000.0, c_mem: float = 0.1):
        require((0 <= c_cpu < math.inf, "c_cpu: must be >= 0 and finite"),
                (0 <= c_mem < math.inf, "c_mem: must be >= 0 and finite"))
        self.c_cpu = c_cpu  # price per whole vCPU per second
        self.c_mem = c_mem  # price per MB per second


class StepSpec(Record):
    """One processing step of a pipeline: a replicated serverless function."""

    __slots__ = ("step_id", "demand_per_replica", "replicas", "service_time_per_fragment",
                 "feed_forward")

    def __init__(self, step_id: str, demand_per_replica: ResourceVector, replicas: int,
                 service_time_per_fragment: float, feed_forward: bool = True):
        require((step_id, "step_id: must be non-empty"),
                (demand_per_replica.cpu_millicores >= 0, "cpu_millicores: must be >= 0"),
                (demand_per_replica.memory_mb >= 0, "memory_mb: must be >= 0"),
                (replicas >= 1, "replicas: must be >= 1"),
                (service_time_per_fragment > 0, "service_time: must be > 0"))
        self.step_id = step_id
        self.demand_per_replica = demand_per_replica
        self.replicas = replicas
        self.service_time_per_fragment = service_time_per_fragment
        self.feed_forward = feed_forward


class _DagIndex:
    """PipelineDag's derived values: slots of a base class, so Record, which
    reads PipelineDag's own `__slots__`, compares, prints and copies fields only."""

    __slots__ = ("order", "predecessors_by_step", "terminal_ids")


class PipelineDag(Record, _DagIndex):
    """Directed graph of steps. Construction is permissive; see dag_violations.

    `predecessors_by_step` (in edge order), `terminal_ids` (the steps without
    successors) and `order`, a stable topological order (Kahn's algorithm),
    are computed once here; jobs of one template share them with the graph.
    Kahn's walk skips an edge to an unknown step. With unique ids and known
    endpoints, a step on or behind a cycle never becomes ready, so the order
    is short exactly when the graph is cyclic; dag_violations reads that, and
    every Scenario template has passed it.
    """

    __slots__ = ("steps", "edges")

    def __init__(self, steps, edges=()):
        self.steps = tuple(steps)
        self.edges = tuple((a, b) for a, b in edges)
        preds: dict[str, list[str]] = {s.step_id: [] for s in self.steps}
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            if b in preds:
                preds[b].append(a)
            succs.setdefault(a, []).append(b)
        self.predecessors_by_step = {sid: tuple(p) for sid, p in preds.items()}
        self.terminal_ids = tuple(s.step_id for s in self.steps if s.step_id not in succs)
        indeg = {sid: len(p) for sid, p in preds.items()}
        order = [sid for sid, d in indeg.items() if d == 0]
        for sid in order:  # the list is the queue: it grows as steps get ready
            for nxt in succs.get(sid, ()):
                if nxt in indeg:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        order.append(nxt)
        self.order = tuple(order)


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
    if all(dag.predecessors_by_step.values()):
        problems.append("pipeline has no source step")
    if len(dag.order) != len(ids):
        problems.append("cycle detected")
    return problems


class BatchJob(Record):
    """A batch of fragments pushed through a pipeline under a completion deadline."""

    __slots__ = ("job_id", "dag", "fragment_count", "deadline", "arrival_time")

    def __init__(self, job_id: str, dag: PipelineDag, fragment_count: int, deadline: float,
                 arrival_time: float = 0.0):
        # built once per arrival: the problem list waits for a failed check
        if not (job_id and fragment_count >= 1 and deadline > 0 and arrival_time >= 0):
            require((job_id, "job_id: must be non-empty"),
                    (fragment_count >= 1, "fragment_count: must be >= 1"),
                    (deadline > 0, "deadline: must be > 0"),
                    (arrival_time >= 0, "arrival_time: must be >= 0"))
        self.job_id = job_id
        self.dag = dag
        self.fragment_count = fragment_count
        self.deadline = deadline
        self.arrival_time = arrival_time


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
