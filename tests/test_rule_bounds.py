"""Every range rule at its bound: one table row per rule, probed at the
bound and on each side of it, with the verdict derived from the rule's
operator.

A row names the type that owns the rule (or, for a rule that only a file
has, the file path), the field as the type reports it, the operator, the
bound, and whether the rule also needs a finite value. Each probe is built
through the type: a value the operator accepts builds, and a refused one
raises exactly the rule's message. Where the field has a file key, each
refused finite value is also written to a scenario file, and load_scenario
reports exactly the message under the key's path. NaN and infinity are
probed on float fields only through the type, since a file cannot hold them.
"""

import json
import math
import operator
import re
from typing import Callable, NamedTuple

import pytest

from hcs_sim.cli import MAX_NODE_COUNT, load_scenario
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
)
from hcs_sim.hcs_scheduler import SchedulerMode
from hcs_sim.sim_engine import (
    DriverRestartFault,
    ExplicitArrivals,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
)

OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}
TINY = math.nextafter(0.0, math.inf)  # the least positive float


def dag(service_time=1.0) -> PipelineDag:
    return PipelineDag([StepSpec("s0", ResourceVector(500, 256), 1, service_time)])


def scenario(**fields) -> Scenario:
    """A cloud-only scenario whose one step takes the least positive time,
    so that no speed or timeout a rule accepts refuses the template (in
    cloud-only mode the cloud is the slowest region it binds)."""
    base = dict(scenario_id="bounds", node_capacities=(ResourceVector(2000, 2048),) * 2,
                catalog={"w": BatchJob("w", dag(TINY), 1, 300.0)},
                arrivals=ExplicitArrivals((1.0,)), mode=SchedulerMode.CLOUD_ONLY)
    base.update(fields)
    return Scenario(**base)


def config() -> dict:
    """A valid cloud-only scenario file with one step, one arrival and one
    of each fault; a row's file edit changes one value in it."""
    return {
        "edge": {"node_count": 2, "node_cpu_millicores": 2000, "node_memory_mb": 2048},
        "scheduler": {"policy": "cloud_only"},
        "workloads": {"w": {"fragment_count": 1, "deadline": 300, "steps": [
            {"step_id": "s0", "cpu_millicores": 500, "memory_mb": 256, "service_time": 1.0}]}},
        "arrivals": {"kind": "explicit", "times": [1.0]},
        "faults": [{"kind": "node_failure", "time": 5.0, "node_id": 0},
                   {"kind": "driver_restart", "time": 5.0, "job_index": 0}],
    }


def put(cfg: dict, path: str, value) -> None:
    """Set the value at a file path such as workloads.w.steps[0].cpu_millicores,
    making a missing object on the way."""
    *keys, last = [int(i) if i else k for k, i in re.findall(r"(\w+)|\[(\d+)\]", path)]
    for key in keys:
        cfg = cfg.setdefault(key, {}) if isinstance(key, str) else cfg[key]
    cfg[last] = value


def poisson(cfg: dict) -> None:
    cfg["arrivals"] = {"kind": "poisson", "rate": 1.0, "seed": 1, "count": 1}


def no_faults(cfg: dict) -> None:
    """Drop the faults, which a node count of 0 or a horizon before them refuses too."""
    del cfg["faults"]


class Rule(NamedTuple):
    owner: str  # the type that owns the rule, or the file path of a file-only rule
    label: str  # the field as the owner's message names it
    op: str
    bound: int
    finite: bool  # the rule also refuses an infinite value
    kind: type  # int or float
    build: Callable | None  # the owner built with the field at a value; None for a file rule
    key: str | None  # the field's file path; None when no file sets it
    prepare: Callable = lambda cfg: None  # readies config() for the key


RULES = [
    Rule("CostParams", "c_cpu", ">=", 0, True, float, lambda v: CostParams(c_cpu=v),
         "cost.c_cpu"),
    Rule("CostParams", "c_mem", ">=", 0, True, float, lambda v: CostParams(c_mem=v),
         "cost.c_mem"),
    Rule("StepSpec", "cpu_millicores", ">=", 0, False, int,
         lambda v: StepSpec("s0", ResourceVector(v, 1), 1, 1.0),
         "workloads.w.steps[0].cpu_millicores"),
    Rule("StepSpec", "memory_mb", ">=", 0, False, int,
         lambda v: StepSpec("s0", ResourceVector(1, v), 1, 1.0),
         "workloads.w.steps[0].memory_mb"),
    Rule("StepSpec", "replicas", ">=", 1, False, int,
         lambda v: StepSpec("s0", ResourceVector(1, 1), v, 1.0),
         "workloads.w.steps[0].replicas"),
    Rule("StepSpec", "service_time", ">", 0, False, float,
         lambda v: StepSpec("s0", ResourceVector(1, 1), 1, v),
         "workloads.w.steps[0].service_time"),
    Rule("BatchJob", "fragment_count", ">=", 1, False, int,
         lambda v: BatchJob("j", dag(), v, 1.0), "workloads.w.fragment_count"),
    Rule("BatchJob", "deadline", ">", 0, False, float,
         lambda v: BatchJob("j", dag(), 1, v), "workloads.w.deadline"),
    Rule("BatchJob", "arrival_time", ">=", 0, False, float,
         lambda v: BatchJob("j", dag(), 1, 1.0, v), None),
    Rule("PoissonArrivals", "arrivals.rate", ">", 0, False, float,
         lambda v: PoissonArrivals(v, 1, 1), "arrivals.rate", poisson),
    Rule("PoissonArrivals", "arrivals.seed", ">=", 0, False, int,
         lambda v: PoissonArrivals(1.0, v, 1), "arrivals.seed", poisson),
    Rule("PoissonArrivals", "arrivals.count", ">=", 0, False, int,
         lambda v: PoissonArrivals(1.0, 1, v), "arrivals.count", poisson),
    Rule("ExplicitArrivals", "arrivals.times", ">=", 0, True, float,
         lambda v: ExplicitArrivals((v,)), "arrivals.times[0]"),
    Rule("NodeFailureFault", "time", ">=", 0, True, float,
         lambda v: NodeFailureFault(v, 0), "faults[0].time"),
    Rule("NodeFailureFault", "node_id", ">=", 0, False, int,
         lambda v: NodeFailureFault(1.0, v), "faults[0].node_id"),
    Rule("DriverRestartFault", "time", ">=", 0, True, float,
         lambda v: DriverRestartFault(v, 0), "faults[1].time"),
    Rule("DriverRestartFault", "job_index", ">=", 0, False, int,
         lambda v: DriverRestartFault(1.0, v), "faults[1].job_index"),
    Rule("Scenario", "edge.speed_factor", ">", 0, False, float,
         lambda v: scenario(edge_speed=v), "edge.speed_factor"),
    Rule("Scenario", "cloud.speed_factor", ">", 0, False, float,
         lambda v: scenario(cloud_speed=v), "cloud.speed_factor"),
    Rule("Scenario", "cloud.cloud_concurrency", ">=", 1, False, int,
         lambda v: scenario(cloud_concurrency=v), "cloud.cloud_concurrency"),
    Rule("Scenario", "edge.node_cpu_millicores", ">=", 1, False, int,
         lambda v: scenario(node_capacities=(ResourceVector(v, 2048),) * 2),
         "edge.node_cpu_millicores"),
    Rule("Scenario", "edge.node_memory_mb", ">=", 1, False, int,
         lambda v: scenario(node_capacities=(ResourceVector(2000, v),) * 2),
         "edge.node_memory_mb"),
    Rule("Scenario", "scheduler.round_length", ">", 0, True, float,
         lambda v: scenario(round_length=v), "scheduler.round_length"),
    Rule("Scenario", "scheduler.eviction_deadline", ">", 0, True, float,
         lambda v: scenario(eviction_deadline=v), "scheduler.eviction_deadline"),
    Rule("Scenario", "scheduler.execution_timeout", ">", 0, False, float,
         lambda v: scenario(execution_timeout=v), "scheduler.execution_timeout"),
    Rule("Scenario", "horizon", ">", 0, False, float,
         lambda v: scenario(horizon=v), "horizon", no_faults),
    Rule("edge.node_count", "edge.node_count", ">=", 0, False, int, None, "edge.node_count",
         no_faults),
    Rule("edge.node_count", "edge.node_count", "<=", MAX_NODE_COUNT, False, int, None,
         "edge.node_count", no_faults),
]


def probes(rule: Rule) -> list:
    """The bound and its neighbours: the next int on each side, or the next
    float, -0.0 at a bound of 0, NaN and both infinities."""
    if rule.kind is int:
        return [rule.bound - 1, rule.bound, rule.bound + 1]
    bound = float(rule.bound)
    values = [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    if bound == 0.0:
        values.append(-0.0)
    return values + [math.nan, math.inf, -math.inf]


def accepts(rule: Rule, value) -> bool:
    """The rule's verdict, from its operator; NaN fails every comparison."""
    return OPS[rule.op](value, rule.bound) and (not rule.finite or math.isfinite(value))


def message(path: str, rule: Rule) -> str:
    return f"{path}: must be {rule.op} {rule.bound}{' and finite' if rule.finite else ''}"


def file_problems(tmp_path, rule: Rule, *value) -> list[str]:
    """The problems load_scenario reports for config(), readied for the
    rule's key and with the key set to value if one is given, or [] when it
    loads."""
    cfg = config()
    rule.prepare(cfg)
    if value:
        put(cfg, rule.key, *value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    try:
        load_scenario(path)
    except ValidationError as e:
        return e.problems
    return []


def test_the_table_has_one_row_per_rule_and_valid_bases(tmp_path):
    assert len({(r.owner, r.label, r.op) for r in RULES}) == len(RULES) == 28
    scenario()
    for rule in RULES:
        if rule.key is not None:
            assert file_problems(tmp_path, rule) == [], rule


@pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.owner}-{r.label}{r.op}{r.bound}")
def test_each_range_rule_at_its_bound(tmp_path, rule):
    seen = set()
    for value in probes(rule):
        ok = accepts(rule, value)
        seen.add(ok)
        if rule.build is not None:
            try:
                rule.build(value)
                got = []
            except ValidationError as e:
                got = e.problems
            assert got == ([] if ok else [message(rule.label, rule)]), value
        if rule.key is not None and (rule.build is None or not ok) and math.isfinite(value):
            # a list element's problem is reported under the list's key
            path = re.sub(r"\[\d+\]$", "", rule.key)
            assert file_problems(tmp_path, rule, value) == (
                [] if ok else [message(path, rule)]), value
    assert seen == {True, False}  # each rule both accepts and refuses a probe
