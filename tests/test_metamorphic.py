"""Metamorphic laws: how a run's report moves when its inputs are rescaled.

Prices and time enter the simulator only through products and quotients,
and a power of two scales a float exactly, so both laws hold with exact
float equality:

- scaling c_cpu and c_mem by 2**k leaves every interval, utilization sample
  and job outcome as it was and multiplies every rcost_per_second, every
  ledger cost and the total cost by exactly 2**k;
- doubling every time constant (service times, deadlines, arrival times or
  half the Poisson rate, fault times, round length, eviction deadline,
  execution timeout, horizon) leaves every utilization ratio and outcome
  verdict as it was and doubles exactly every time and every cost.

Two more laws bound the edge allocation account:

- scaling every step demand and every node capacity by an integer f keeps
  each node's replica slots `free // demand` and the order best-fit and
  worst-fit rank nodes by, so it leaves every interval, outcome and
  `cpu_utilization` as it was and multiplies every allocated and capacity
  number of a sample, every rcost_per_second, every cost and the total
  cost by exactly f (a power of two, so rcost scales exactly);
- in cloud-only mode the edge holds nothing, so adding nodes and changing
  the placement policy changes nothing but the utilization trace.

All run on the generated scenarios of test_differential.py and on the
reference scenario.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hcs_sim.cli import load_scenario
from hcs_sim.core_model import CostParams, PipelineDag, ResourceVector
from hcs_sim.hcs_scheduler import SchedulerMode
from hcs_sim.metrics import RunReport
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import PoissonArrivals, Scenario, run

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_differential import random_scenario  # noqa: E402

SEEDS = range(0, 100)
REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "saturating_mix.json"


def scenarios():
    yield "reference", load_scenario(REFERENCE)[0]
    for seed in SEEDS:
        yield f"seed {seed}", random_scenario(seed)


def with_prices(s: Scenario, factor: float) -> Scenario:
    p = s.cost_params
    return s.replace(cost_params=CostParams(p.c_cpu * factor, p.c_mem * factor))


def with_time(s: Scenario, factor: float) -> Scenario:
    def template(job):
        steps = [st.replace(service_time_per_fragment=st.service_time_per_fragment * factor)
                 for st in job.dag.steps]
        return job.replace(dag=PipelineDag(steps, job.dag.edges), deadline=job.deadline * factor)

    if isinstance(s.arrivals, PoissonArrivals):
        arrivals = s.arrivals.replace(rate=s.arrivals.rate / factor)
    else:
        arrivals = s.arrivals.replace(times=tuple(t * factor for t in s.arrivals.times))
    return s.replace(
        catalog={name: template(job) for name, job in s.catalog.items()},
        arrivals=arrivals,
        faults=tuple(f.replace(time=f.time * factor) for f in s.faults),
        round_length=s.round_length * factor,
        eviction_deadline=s.eviction_deadline * factor,
        execution_timeout=s.execution_timeout * factor,
        horizon=None if s.horizon is None else s.horizon * factor)


def with_demand(s: Scenario, factor: int) -> Scenario:
    def scaled(v: ResourceVector) -> ResourceVector:
        return ResourceVector(v.cpu_millicores * factor, v.memory_mb * factor)

    def template(job):
        steps = [st.replace(demand_per_replica=scaled(st.demand_per_replica))
                 for st in job.dag.steps]
        return job.replace(dag=PipelineDag(steps, job.dag.edges))

    return s.replace(catalog={name: template(job) for name, job in s.catalog.items()},
                     node_capacities=tuple(map(scaled, s.node_capacities)))


def cloud_only(s: Scenario) -> Scenario:
    return s.replace(mode=SchedulerMode.CLOUD_ONLY)


def with_more_nodes(s: Scenario) -> Scenario:
    """Three more 1000/1000 nodes under worst-fit placement."""
    return s.replace(node_capacities=s.node_capacities + (ResourceVector(1000, 1000),) * 3,
                     placement=PlacementPolicy.WORST_FIT)


def price_law_breaks(a: RunReport, b: RunReport, f: float) -> list[str]:
    """What of b is not a with every price scaled by f."""
    out = []
    if (a.arrivals, a.utilization, a.job_outcomes, a.end_time, a.horizon_reached) != (
            b.arrivals, b.utilization, b.job_outcomes, b.end_time, b.horizon_reached):
        out.append("arrivals, samples, outcomes or end differ")
    if [(e.job_id, e.step_id, e.region, e.deploy_start, e.deploy_end,
         e.rcost_per_second * f, e.cost * f) for e in a.cost_ledger] != [
            (e.job_id, e.step_id, e.region, e.deploy_start, e.deploy_end,
             e.rcost_per_second, e.cost) for e in b.cost_ledger]:
        out.append("ledger is not scaled")
    if b.total_cost != a.total_cost * f:
        out.append(f"total_cost {b.total_cost!r} != {a.total_cost!r} * {f}")
    return out


def demand_law_breaks(a: RunReport, b: RunReport, f: int) -> list[str]:
    """What of b is not a with every demand and node capacity scaled by f."""
    out = []
    if (a.arrivals, a.job_outcomes, a.end_time, a.horizon_reached) != (
            b.arrivals, b.job_outcomes, b.end_time, b.horizon_reached):
        out.append("arrivals, outcomes or end differ")
    if [(s.time, s.allocated_cpu_millicores * f, s.capacity_cpu_millicores * f,
         s.allocated_memory_mb * f, s.capacity_memory_mb * f, s.cpu_ratio)
            for s in a.utilization] != [
            (s.time, s.allocated_cpu_millicores, s.capacity_cpu_millicores,
             s.allocated_memory_mb, s.capacity_memory_mb, s.cpu_ratio) for s in b.utilization]:
        out.append("samples are not scaled")
    if [(e.job_id, e.step_id, e.region, e.deploy_start, e.deploy_end,
         e.rcost_per_second * f, e.cost * f) for e in a.cost_ledger] != [
            (e.job_id, e.step_id, e.region, e.deploy_start, e.deploy_end,
             e.rcost_per_second, e.cost) for e in b.cost_ledger]:
        out.append("ledger is not scaled")
    if b.total_cost != a.total_cost * f:
        out.append(f"total_cost {b.total_cost!r} != {a.total_cost!r} * {f}")
    return out


def edge_law_breaks(a: RunReport, b: RunReport) -> list[str]:
    """What of b, beyond its utilization trace, differs from a."""
    if (a.arrivals, a.cost_ledger, a.job_outcomes, a.end_time, a.horizon_reached) != (
            b.arrivals, b.cost_ledger, b.job_outcomes, b.end_time, b.horizon_reached):
        return ["arrivals, ledger, outcomes or end differ"]
    return []


def time_law_breaks(a: RunReport, b: RunReport, f: float) -> list[str]:
    """What of b is not a with every time constant scaled by f."""
    out = []
    if [(t * f, job_id, name) for t, job_id, name in a.arrivals] != b.arrivals:
        out.append("arrivals are not scaled")
    if [s.replace(time=s.time * f) for s in a.utilization] != b.utilization:
        out.append("samples are not scaled")
    if [(e.job_id, e.step_id, e.region, e.rcost_per_second, e.deploy_start * f,
         e.deploy_end * f, e.cost * f) for e in a.cost_ledger] != [
            (e.job_id, e.step_id, e.region, e.rcost_per_second, e.deploy_start,
             e.deploy_end, e.cost) for e in b.cost_ledger]:
        out.append("ledger is not scaled")
    if [(o.job_id, o.template, o.arrival * f, o.completion * f, o.deadline * f,
         o.completed, o.met) for o in a.job_outcomes] != [
            (o.job_id, o.template, o.arrival, o.completion, o.deadline, o.completed, o.met)
            for o in b.job_outcomes]:
        out.append("outcomes are not scaled")
    if (b.end_time, b.total_cost) != (a.end_time * f, a.total_cost * f):
        out.append("end_time or total_cost is not scaled")
    if (b.horizon_reached, b.mean_utilization) != (a.horizon_reached, a.mean_utilization):
        out.append("horizon_reached or mean_utilization differs")
    return out


@pytest.mark.parametrize("k", [3, -2])
def test_scaling_prices_scales_every_cost_and_nothing_else(k):
    f = 2.0 ** k
    broken = {name: breaks for name, s in scenarios()
              if (breaks := price_law_breaks(run(s), run(with_prices(s, f)), f))}
    assert not broken, broken


def test_doubling_time_doubles_every_time_and_cost():
    broken = {name: breaks for name, s in scenarios()
              if (breaks := time_law_breaks(run(s), run(with_time(s, 2.0)), 2.0))}
    assert not broken, broken


def test_scaling_demand_and_capacity_scales_every_allocation_and_cost():
    broken = {name: breaks for name, s in scenarios()
              if (breaks := demand_law_breaks(run(s), run(with_demand(s, 4)), 4))}
    assert not broken, broken


def test_cloud_only_runs_ignore_the_edge_cluster():
    broken = {name: breaks for name, s in scenarios()
              if (breaks := edge_law_breaks(run(cloud_only(s)),
                                            run(cloud_only(with_more_nodes(s)))))}
    assert not broken, broken


def test_the_laws_see_a_change():
    """A scaled run that ignored its scaling would break the scaling laws,
    and a run that kept the edge would break the cloud-only law."""
    s, _ = load_scenario(REFERENCE)
    base = run(s)
    assert price_law_breaks(base, base, 8.0) and time_law_breaks(base, base, 2.0)
    assert demand_law_breaks(base, base, 4)
    assert edge_law_breaks(run(cloud_only(s)), run(with_more_nodes(s)))
