"""Differential test: the per-step engine against the per-fragment oracle.

Both engines run the same generated scenarios; every emitted artifact (plot
data included) must match byte for byte, and so must every job's final
journal and every step's lifecycle state, which the per-step driver derives
from its counts and the per-fragment driver stores. The generator favours
ties: service times of 1 or 2 s at equal speeds, DAG joins of up to three
predecessors, barriers, pools of 1 to 3, node failures, driver restarts and
horizons that cut jobs mid-run.

Both engines sample utilization in the loop they share, so the trace is also
checked against a model of its own, rebuilt from the cost ledger and the
faults (see utilization_violations). The per-fragment run also checks, after
each live completion and at the end of each instant, the prefix law that
lets the per-step driver keep counts: each step's journal is 0..k-1, its
in-flight fragments follow with non-decreasing finish times, and its ready
queue follows them.

run() computes a cloud-only run without faults or a horizon job by job,
outside the event loop. Each generated scenario, forced to such a run, is
also run both ways, and the two reports must be equal, every list in the
same order and every float the same, and write the same bytes
(job_by_job_differences).

The engines share the event order, so a change to it passes the
differential. tests/generated_digests.json pins the engine's artifacts
instead: one sha256 per seed, over the name and bytes of every file the
report writes, for the tier-1 seeds and for the seeds whose artifacts a
change of tie order is known to move. A change that alters the artifacts
on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_differential.py --write-digests

and says in CHANGES.md which seeds changed, and why.

Run a wider sweep from a checkout with

    PYTHONPATH=src python3 tests/test_differential.py --seeds 0:4000

which prints the first seed with a differing file, a broken utilization
rule, a prefix-law breach, artifacts off their pinned digest or a job-by-job
run that differs from the event loop's, or the number of seeds that passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from hcs_sim import hcs_scheduler, sim_engine
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    PipelineDag,
    ResourceVector,
    StepSpec,
)
from hcs_sim.hcs_scheduler import DeployCloud, HcsScheduler, SchedulerMode
from hcs_sim.metrics import RunReport, emit_report
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    DriverRestartFault,
    ExplicitArrivals,
    NodeFailureFault,
    Scenario,
    _Engine,
    generate_arrivals,
    run,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (FragmentEngine, predecessors, run_detailed, step_spec,  # noqa: E402
                     step_state)

TIER1_SEEDS = range(0, 300)
# the seeds of 0-3999 whose artifacts change when EVICTION_EXPIRE and
# NODE_FAILURE swap priorities; no tier-1 seed does
TIE_ORDER_SEEDS = (352, 799, 2118, 2376, 3016)
DIGESTS = Path(__file__).resolve().parent / "generated_digests.json"


def read_digests() -> dict[int, str]:
    """seed -> the pinned digest of its artifacts."""
    return {int(seed): digest
            for seed, digest in json.loads(DIGESTS.read_text(encoding="utf-8")).items()}


def artifact_digest(directory: Path) -> str:
    """sha256 over the name, size and bytes of each file in directory, by name."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def random_template(rng: random.Random, name: str) -> BatchJob:
    """A DAG of 1-6 steps; a non-source step has 1-3 predecessors."""
    n = rng.choice([1, 2, 3, 3, 4, 4, 5, 6])
    steps, edges = [], []
    for i in range(n):
        if i:
            preds = rng.sample(range(i), rng.randint(1, min(3, i)))
            edges += [(f"s{p}", f"s{i}") for p in sorted(preds)]
        steps.append(StepSpec(
            f"s{i}", ResourceVector(rng.choice([250, 500, 750, 1000, 1500]),
                                    rng.choice([64, 128, 256, 512])),
            rng.randint(1, 3), rng.choice([1.0, 2.0]),
            feed_forward=i == 0 or rng.random() < 0.7))
    rng.shuffle(edges)  # the order of a step's successors must not matter
    return BatchJob(name, PipelineDag(steps, edges), rng.randint(1, 12),
                    rng.choice([20.0, 60.0, 1e6]))


def random_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    nodes = tuple(ResourceVector(rng.choice([1000, 2000, 3000]), 4096)
                  for _ in range(rng.randint(1, 4)))
    catalog = {f"t{i}": random_template(rng, f"t{i}") for i in range(rng.randint(1, 3))}
    count = rng.randint(1, 8)
    step = rng.choice([1.0, 2.5, 5.0])
    times = tuple(sorted(step * rng.randint(0, 20) for _ in range(count)))
    round_length = rng.choice([5.0, 10.0, 30.0])
    # a 0.5 s window is shorter than every service time, so it cancels work
    eviction = rng.choice([round_length, 3.0, 7.0, 30.0, 0.5])
    if rng.random() < 0.7:
        edge_speed = cloud_speed = 1.0
    else:
        edge_speed, cloud_speed = rng.choice([(0.8, 1.0), (1.0, 2.0), (0.5, 1.0)])
    horizon = rng.choice([None, None, rng.uniform(10.0, 120.0)])
    last = horizon if horizon is not None else 150.0
    faults = []
    for node in rng.sample(range(len(nodes)), rng.randint(0, len(nodes))):
        if rng.random() < 0.5:
            faults.append(NodeFailureFault(rng.choice([rng.uniform(0.0, last),
                                                       round_length * rng.randint(1, 4)]),
                                           node))
    for _ in range(rng.randint(0, 3)):
        t = rng.uniform(0.0, last)
        faults.append(DriverRestartFault(min(t, last), rng.randrange(count)))
    faults = [f for f in faults if f.time <= last]
    faults.sort(key=lambda f: f.time)
    return Scenario(
        scenario_id=f"diff-{seed}",
        node_capacities=nodes,
        catalog=catalog,
        arrivals=ExplicitArrivals(times, tuple(rng.choice(sorted(catalog))
                                               for _ in range(count))),
        cost_params=CostParams(c_cpu=rng.choice([1000.0, 10.0]), c_mem=0.1),
        mode=SchedulerMode.CLOUD_ONLY if rng.random() < 0.15 else SchedulerMode.CHEAPEST_FIRST,
        placement=rng.choice(list(PlacementPolicy)),
        round_length=round_length,
        eviction_deadline=eviction,
        edge_speed=edge_speed,
        cloud_speed=cloud_speed,
        cloud_concurrency=rng.choice([None, None, 1, 2, 3]),
        horizon=horizon,
        faults=tuple(faults),
    )


def utilization_violations(scenario: Scenario, report: RunReport) -> list[str]:
    """Utilization rules the report breaks, from the ledger and the faults.

    The trace holds one sample per instant at which the edge allocation or
    the live capacity changed, with the state after that instant: so its
    times are the starts and (before the end) the ends of the edge ledger
    entries and the node failures, possibly plus the end time. A sample
    before the end allocates what the edge entries open at it demand, and
    every sample counts the capacity of the nodes not failed by then.
    """
    end = report.end_time
    times = [s.time for s in report.utilization]
    if times != sorted(set(times)):
        return ["sample times repeat or go back"]
    template = {job_id: name for _, job_id, name in report.arrivals}
    edge = []  # (start, end, cpu, memory) of each edge deployment
    for e in report.cost_ledger:
        if e.region == "edge":
            spec = step_spec(scenario.catalog[template[e.job_id]].dag, e.step_id)
            d = spec.demand_per_replica
            edge.append((e.deploy_start, e.deploy_end,
                         d.cpu_millicores * spec.replicas, d.memory_mb * spec.replicas))
    failures = [f for f in scenario.faults if isinstance(f, NodeFailureFault)]
    changes = ({a for a, _, _, _ in edge} | {b for _, b, _, _ in edge if b < end}
               | {f.time for f in failures})
    problems = []
    if changes - set(times):
        problems.append(f"no sample at {min(changes - set(times))}")
    if set(times) - changes - {end}:
        problems.append(f"sample at {min(set(times) - changes - {end})} without a change")
    for s in report.utilization:
        if s.time < end:
            held = [(c, m) for a, b, c, m in edge if a <= s.time < b]
            want = (sum(c for c, _ in held), sum(m for _, m in held))
            if (s.allocated_cpu_millicores, s.allocated_memory_mb) != want:
                problems.append(f"allocation at {s.time} is not the edge ledger's {want}")
        dead = {f.node_id for f in failures if f.time <= s.time}
        live = [c for i, c in enumerate(scenario.node_capacities) if i not in dead]
        want = (sum(c.cpu_millicores for c in live), sum(c.memory_mb for c in live))
        if (s.capacity_cpu_millicores, s.capacity_memory_mb) != want:
            problems.append(f"capacity at {s.time} is not the live nodes' {want}")
    return problems


def differences(scenario: Scenario, digest: str | None = None) -> tuple[list[str], int]:
    """Artifacts, journals and step states on which the two engines
    disagree (the per-step driver's derived, the per-fragment one's stored),
    the per-step engine's artifacts if digest is given and they are off it,
    the utilization rules the per-step engine's report breaks and the
    prefix-law breaches of the per-fragment run; and how many step states
    that run checked against the prefix law."""
    arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    fast, fast_drivers = run_detailed(scenario, arrivals)
    slow_engine = FragmentEngine(scenario, arrivals)
    slow, slow_drivers = slow_engine.run(), slow_engine.drivers
    with tempfile.TemporaryDirectory() as tmp:
        fast_dir, slow_dir = Path(tmp) / "fast", Path(tmp) / "slow"
        emit_report(fast, fast_dir, emit_plot_data=True)
        emit_report(slow, slow_dir, emit_plot_data=True)
        names = sorted({p.name for p in [*fast_dir.iterdir(), *slow_dir.iterdir()]})
        out = [n for n in names if (fast_dir / n).read_bytes() != (slow_dir / n).read_bytes()]
        if digest is not None and artifact_digest(fast_dir) != digest:
            out.append("artifacts: not their pinned digest")
    for job_id, drv in sorted(fast_drivers.items()):
        slow_drv = slow_drivers[job_id]
        for sid, rt in drv.steps.items():
            if slow_drv.journal[sid] != set(range(rt.done)):
                out.append(f"journal {job_id}/{sid}")
            if step_state(drv, sid) is not slow_drv.steps[sid].state:
                out.append(f"state {job_id}/{sid}")
    out += [f"prefix law {job_id}/{sid}: {breach}"
            for job_id, sid, breach in sorted(slow_engine.law_breaches)]
    out += [f"utilization: {p}" for p in utilization_violations(scenario, fast)]
    return out, slow_engine.law_checks


def cloud_only(scenario: Scenario) -> Scenario:
    """The scenario forced to cloud-only, without its faults or horizon: a
    run that run() computes job by job."""
    return scenario.replace(mode=SchedulerMode.CLOUD_ONLY, faults=(), horizon=None)


def job_by_job_differences(scenario: Scenario) -> list[str]:
    """Where run()'s report of a cloud-only scenario without faults or a
    horizon differs from the event loop's: the reports by Record equality
    (every list in order, every float), and each artifact's bytes."""
    arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    fast, loop = run(scenario, arrivals), _Engine(scenario, arrivals).run()
    out = [] if fast == loop else ["job-by-job report"]
    with tempfile.TemporaryDirectory() as tmp:
        fast_dir, loop_dir = Path(tmp) / "fast", Path(tmp) / "loop"
        emit_report(fast, fast_dir, emit_plot_data=True)
        emit_report(loop, loop_dir, emit_plot_data=True)
        names = sorted({p.name for p in [*fast_dir.iterdir(), *loop_dir.iterdir()]})
        out += [f"job-by-job {n}" for n in names
                if (fast_dir / n).read_bytes() != (loop_dir / n).read_bytes()]
    return out


def test_generated_scenarios_match_the_oracle():
    pinned = read_digests()
    assert set(pinned) == {*TIER1_SEEDS, *TIE_ORDER_SEEDS}
    mismatched = {}
    law_checks = 0
    for seed in sorted(pinned):
        diff, checks = differences(random_scenario(seed), pinned[seed])
        law_checks += checks
        if diff:
            mismatched[seed] = diff
    assert not mismatched, mismatched
    assert law_checks > 100_000


def test_cloud_only_runs_match_the_event_loop(monkeypatch):
    """Every generated scenario, forced to cloud-only without faults or a
    horizon, gives run() and the event loop equal reports and equal bytes;
    run() takes the job-by-job path on each, never the event loop."""
    scenarios = [cloud_only(random_scenario(seed)) for seed in TIER1_SEEDS]
    mismatched = {seed: diff for seed, sc in zip(TIER1_SEEDS, scenarios)
                  if (diff := job_by_job_differences(sc))}
    assert not mismatched, mismatched

    def event_loop(*args):
        raise AssertionError("a cloud-only run without faults or a horizon reached _Engine")

    monkeypatch.setattr(sim_engine, "_Engine", event_loop)
    for sc in scenarios:
        run(sc)


def test_cloud_only_jobs_of_one_dag_and_round_differ_by_fragment_count():
    """Two templates share one PipelineDag object but not their fragment
    count, and jobs of both arrive in one round and in the next: run(),
    which computes jobs alike in template and round once, must give the
    event loop's report and bytes. The generated scenarios share no DAG
    object between templates, so only this scenario tells the fragment
    count apart in that key."""
    dag = PipelineDag((StepSpec("a", ResourceVector(500, 256), 1, 1.0),
                       StepSpec("b", ResourceVector(250, 512), 2, 2.0, False)), (("a", "b"),))
    sc = Scenario("shared-dag", (), {"few": BatchJob("few", dag, 2, 600.0),
                                     "many": BatchJob("many", dag, 5, 600.0)},
                  ExplicitArrivals((1.0, 2.0, 3.0, 4.0, 31.0, 32.0),
                                   ("few", "many", "few", "many", "many", "few")),
                  mode=SchedulerMode.CLOUD_ONLY)
    assert job_by_job_differences(sc) == []


def test_runs_leave_no_cyclic_garbage():
    """A command pauses the cyclic collector, which is safe only while runs
    make no reference cycles: none of the generated scenarios, faults and
    evictions included, may leave any, nor their cloud-only runs without
    faults or a horizon, which take the job-by-job path."""
    scenarios = [random_scenario(seed) for seed in TIER1_SEEDS]
    scenarios += [cloud_only(sc) for sc in scenarios]
    found = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for sc in scenarios:
            run(sc)
        assert gc.collect() == 0
    finally:
        if found:
            gc.enable()


def test_generator_reaches_the_hard_cases(monkeypatch):
    """The tier-1 seeds exercise joins, barriers, evictions, evictions that
    cancel in-flight work, faults, cuts, a first fit whose start skips a node,
    a round's first-fit plan that starts below where an earlier round's
    plan of its shape started, which a start kept across rounds would miss,
    and first plans a projection memo serves, and walks, after a job of the
    same DAG and fragment count at the same instant."""
    seen = set()
    real_project = PipelineDriver.project
    real_follow = PipelineDriver._follow
    walks = []

    def project(self, now, memo=None):
        group = (id(self.job.dag), self.m)
        grouped = (memo is not None and self.version == 0
                   and any(key[:2] == group for key in memo))
        walked = len(walks)
        completions = real_project(self, now, memo)
        if grouped:
            seen.add("memo-miss" if len(walks) > walked else "memo-served")
        return completions

    def follow(self, t0):
        walks.append(t0)
        return real_follow(self, t0)

    real_close = HcsScheduler.close_windows
    real_notice = PipelineDriver.on_eviction_notice
    real_place = hcs_scheduler.try_place_free
    real_round = HcsScheduler.run_round
    real_edge = HcsScheduler._try_deploy_edge_now
    rounds = []  # the scheduler whose round is running

    def close(self, expiry):
        decision = real_close(self, expiry)
        if any(isinstance(d, DeployCloud) for d in decision.directives):
            seen.add("eviction")
        return decision

    def notice(self, step_id, expiry, now):
        self.commit(now)  # so the count below is the one the notice meets
        in_flight = len(self.steps[step_id].flight)
        real_notice(self, step_id, expiry, now)
        if len(self.steps[step_id].flight) < in_flight:
            seen.add("eviction-cancels")

    def place(step, free, policy, rr_cursor=0, start=0):
        if policy is PlacementPolicy.FIRST_FIT and start > 0:
            seen.add("first-fit-skip")
        return real_place(step, free, policy, rr_cursor, start)

    def round_(self, now):
        rounds.append(self)
        try:
            return real_round(self, now)
        finally:
            rounds.pop()

    def edge(self, step, key, decision, starts):
        placed = real_edge(self, step, key, decision, starts)
        if placed and rounds and self.policy is PlacementPolicy.FIRST_FIT:
            d = step.demand_per_replica
            shape = (d.cpu_millicores, d.memory_mb)
            first = next(iter(decision.directives[-1].plan.nodes))
            # a shape's plans never start lower within a round, so a lower
            # first node than the last plan's is a later round's
            last = self.__dict__.setdefault("first_nodes", {})
            if first < last.get(shape, 0):
                seen.add("first-fit-starts-lower")
            last[shape] = first
        return placed

    monkeypatch.setattr(HcsScheduler, "close_windows", close)
    monkeypatch.setattr(PipelineDriver, "on_eviction_notice", notice)
    monkeypatch.setattr(hcs_scheduler, "try_place_free", place)
    monkeypatch.setattr(HcsScheduler, "run_round", round_)
    monkeypatch.setattr(HcsScheduler, "_try_deploy_edge_now", edge)
    monkeypatch.setattr(PipelineDriver, "project", project)
    monkeypatch.setattr(PipelineDriver, "_follow", follow)
    for seed in TIER1_SEEDS:
        sc = random_scenario(seed)
        for job in sc.catalog.values():
            for s in job.dag.steps:
                if s.feed_forward and len(predecessors(job.dag, s.step_id)) == 3:
                    seen.add("join3")
                if not s.feed_forward:
                    seen.add("barrier")
        seen.update(type(f).__name__ for f in sc.faults)
        if run_detailed(sc)[0].horizon_reached:
            seen.add("cut")
        if sc.mode is SchedulerMode.CLOUD_ONLY:
            seen.add("cloud_only")
        seen.add(sc.placement.value)
    assert {"join3", "barrier", "eviction", "eviction-cancels", "NodeFailureFault",
            "DriverRestartFault", "cut", "cloud_only", "first-fit-skip", "first-fit-starts-lower",
            "memo-served", "memo-miss", *(p.value for p in PlacementPolicy)} <= seen


def _step(sid, cpu, replicas=1, service=1.0, ff=True):
    return StepSpec(sid, ResourceVector(cpu, 128), replicas, service, feed_forward=ff)


def _eviction_scenario(window=5.0, **kw) -> Scenario:
    """A cheap job runs a -> b on the edge from t=10; at the t=20 round a
    dearer newcomer evicts a (cheaper than b) with a window of 5 s. a's
    fragments 10 and 11 are in flight, finishing together at 22."""
    cheap = BatchJob("cheap", PipelineDag(
        [_step("a", 250, replicas=2, service=2.0), _step("b", 1000)], [("a", "b")]), 16, 1e6)
    dear = BatchJob("dear", PipelineDag([_step("x", 1000)]), 4, 1e6)
    return Scenario(scenario_id="hand", node_capacities=(ResourceVector(2000, 4096),),
                    catalog={"cheap": cheap, "dear": dear},
                    arrivals=ExplicitArrivals((1.0, 12.0), ("cheap", "dear")),
                    round_length=10.0, eviction_deadline=window, edge_speed=1.0, **kw)


def _join_tie_scenario() -> Scenario:
    """s1 and s2 (pools of 2) finish fragments 0 and 1 together at t=13 and
    feed the join s3, whose pool of 1 takes them one at a time; the horizon
    cuts between the two."""
    job = BatchJob("t", PipelineDag(
        [_step("s0", 250, replicas=2), _step("s1", 250, replicas=2, service=2.0),
         _step("s2", 250, replicas=2, service=2.0), _step("s3", 250)],
        [("s0", "s2"), ("s0", "s1"), ("s2", "s3"), ("s1", "s3")]), 6, 1e6)
    return Scenario(scenario_id="hand", node_capacities=(ResourceVector(2000, 4096),),
                    catalog={"t": job}, arrivals=ExplicitArrivals((0.0,)),
                    round_length=10.0, edge_speed=1.0, horizon=14.5)


def _restart_scenario(*faults, barrier=False) -> Scenario:
    """A job a -> b of 4 fragments arrives at t=0 and runs on edge node 0 from
    the t=10 round: a takes 1 s per fragment and completes at 14, b 2 s per
    fragment, fed forward (done at 19) or behind a barrier (done at 22)."""
    job = BatchJob("p", PipelineDag(
        [_step("a", 500), _step("b", 500, service=2.0, ff=not barrier)], [("a", "b")]), 4, 1e6)
    return Scenario(scenario_id="hand", node_capacities=(ResourceVector(2000, 4096),) * 2,
                    catalog={"p": job}, arrivals=ExplicitArrivals((0.0,)),
                    round_length=10.0, edge_speed=1.0, faults=faults)


def _regions(report, step_id):
    return [(e.region, e.deploy_start) for e in report.cost_ledger if e.step_id == step_id]


def _spans(report, step_id):
    return [(e.deploy_start, e.deploy_end) for e in report.cost_ledger if e.step_id == step_id]


# name -> (scenario, what its run must show so the case tests what it says)
HAND_BUILT = {
    "eviction-mid-step-feeds-successor": (
        _eviction_scenario,
        lambda report, drivers: (_regions(report, "a") == [("edge", 10.0), ("cloud", 25.0)]
                                 and _regions(report, "b") == [("edge", 10.0)])),
    # a 1 s window cancels a's fragments 10 and 11, which requeue ahead of
    # 12-15: the cloud's two workers take 10-15 from 21 and finish at 27
    "eviction-cancels-in-flight-work": (
        lambda: _eviction_scenario(window=1.0),
        lambda report, drivers: _spans(report, "a") == [(10.0, 21.0), (21.0, 27.0)]),
    "restart-inside-eviction-window": (
        lambda: _eviction_scenario(faults=(DriverRestartFault(22.5, 0),)),
        lambda report, drivers: _regions(report, "a") == [("edge", 10.0), ("cloud", 25.0)]),
    "join-tie-with-pools": (
        _join_tie_scenario,
        lambda report, drivers: report.horizon_reached
        and drivers["t-0000"].steps["s3"].done == 1),
    # a's completion is handled first and closes its entry at 14; the restart
    # loses b's fragment 1 (13 -> 15), so b finishes at 20, not 19
    "restart-at-step-completion": (
        lambda: _restart_scenario(DriverRestartFault(14.0, 0)),
        lambda report, drivers: _spans(report, "a") == [(10.0, 14.0)]
        and _spans(report, "b") == [(10.0, 20.0)]),
    # the driver exists from the arrival at 0, no step is deployed before 10
    "restart-before-first-round": (
        lambda: _restart_scenario(DriverRestartFault(5.0, 0)),
        lambda report, drivers: min(e.deploy_start for e in report.cost_ledger) == 10.0
        and _spans(report, "b") == [(10.0, 19.0)]),
    # b is deployed at 10 and waits for a, which loses fragment 2 (12 -> 13)
    "restart-while-barrier-waits": (
        lambda: _restart_scenario(DriverRestartFault(12.5, 0), barrier=True),
        lambda report, drivers: _spans(report, "a") == [(10.0, 14.5)]
        and _spans(report, "b") == [(10.0, 22.5)]),
    # node 0 fails at 12.5 and both steps move to node 1; the restart at the
    # same instant requeues the fragments the move has just started
    "restart-with-failure-that-rehomes": (
        lambda: _restart_scenario(NodeFailureFault(12.5, 0), DriverRestartFault(12.5, 0)),
        lambda report, drivers: _regions(report, "a") == [("edge", 10.0), ("edge", 12.5)]
        and _regions(report, "b") == [("edge", 10.0), ("edge", 12.5)]),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_cases_match_the_oracle(case):
    build, reaches = HAND_BUILT[case]
    assert reaches(*run_detailed(build()))
    assert differences(build())[0] == []


def _parse_seeds(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop)) if stop else range(int(start), int(start) + 1)


def write_digests() -> None:
    """Pin the current artifacts of the tier-1 and tie-order seeds."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (*TIER1_SEEDS, *TIE_ORDER_SEEDS):
            emit_report(run(random_scenario(seed)), Path(tmp) / str(seed), emit_plot_data=True)
            digests[str(seed)] = artifact_digest(Path(tmp) / str(seed))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Sweep generated scenarios through "
                                                 "both engines.")
    parser.add_argument("--seeds", type=_parse_seeds, default=TIER1_SEEDS,
                        help="START:STOP (half-open) or one seed")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the current engine and exit")
    args = parser.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    pinned = read_digests()
    law_checks = 0
    for seed in args.seeds:
        diff, checks = differences(random_scenario(seed), pinned.get(seed))
        diff += job_by_job_differences(cloud_only(random_scenario(seed)))
        law_checks += checks
        if diff:
            print(f"seed {seed}: {', '.join(diff)}")
            return 1
    print(f"{len(args.seeds)} seeds, no differences, job-by-job cloud-only runs equal "
          f"the event loop's, utilization rules hold, prefix law held at {law_checks} step checks, "
          f"{len(pinned.keys() & set(args.seeds))} pinned digests matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
