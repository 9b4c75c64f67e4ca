"""Deterministic discrete-event core: clock, total event ordering, seeded
Poisson arrival generation, fault injection, and the scheduler/driver
orchestration loop, which records the run's utilization samples, cost
ledger entries and job outcomes as its events happen.

Fragments never enter the event queue. Each job's driver projects per-step
schedules; the queue holds one event per projected step completion, tagged
with the plan's version, next to arrivals, rounds, faults and one eviction
expiry per round that opened windows, at which the scheduler closes them.
Every decision the scheduler returns, a round's, a failure's or an
expiry's, is applied the same way. An event that touches a job commits its
plan up to that instant, and the job is projected again once every event of
that instant is handled. The jobs projected at one instant share one memo,
so jobs of one template deployed alike by a round walk their first plan once.
At that same point the engine takes the instant's one utilization sample,
when the scheduler's edge writes moved since the last sample; the horizon
takes its sample without projecting. Event kinds are plain ints bound once
from EventKind, which alone defines their tie order; the loop dispatches all
but a step completion and the horizon through one table of bound handlers.

A cloud-only run without faults or a horizon needs no queue: nothing
interrupts its jobs, which share only the round grid. run() computes it job
by job (_run_cloud_only), jobs alike in template and round once, and sorts
the rows into the event loop's order. The event loop, _Engine, stays the one
general path and the reference the tests check that shortcut against.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from enum import IntEnum
from operator import itemgetter

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    Record,
    ResourceVector,
    ValidationError,
    log,
    rcost,
    require,
    validate_job,
)
from hcs_sim.hcs_scheduler import (
    DEFAULT_EVICTION_DEADLINE,
    DeployCloud,
    Evict,
    HcsScheduler,
    ScheduleDecision,
    SchedulerMode,
)
from hcs_sim.metrics import CostLedgerEntry, JobOutcome, RunReport, UtilizationSample
from hcs_sim.pcg64 import Pcg64
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import PlacementPolicy

DEFAULT_ROUND_LENGTH = 30.0


class EventKind(IntEnum):
    """Tie-break priority at equal timestamps, lowest first.

    A step completion is the last fragment of a step, as a job's current
    plan projects it. An eviction expiry is pushed once for each round whose
    decision opened windows, even if they have all gone moot by then. Each
    adjacent pair of kinds orders a same-instant tie this way:

    - completion before expiry: a victim that completes at its window's
      expiry releases its space first, and `close_windows` leaves it;
    - expiry before failure: windows close, and their reservations
      activate, before a node failure in the same instant re-homes them;
    - failure before restart: a restart resumes its job after the failure
      has re-homed the job's steps;
    - restart before arrival: a restart at its job's own arrival time finds
      no driver yet, so it is a no-op;
    - arrival before round: a job that arrives on a boundary joins that
      round;
    - round before end: a round at the horizon runs before the cut.

    So completions and expiries are visible to the round that schedules
    over them. The engine runs on these values as plain ints, bound once
    below; this class alone defines their order.
    """

    STEP_COMPLETE = 0
    EVICTION_EXPIRE = 1
    NODE_FAILURE = 2
    DRIVER_RESTART = 3
    JOB_ARRIVAL = 4
    ROUND_TICK = 5
    SIMULATION_END = 6


_COMPLETE, _EXPIRE, _FAILURE, _RESTART, _ARRIVAL, _ROUND, _END = map(int, EventKind)


class PoissonArrivals(Record):
    """Exponential inter-arrival times from a seeded generator."""

    __slots__ = ("rate", "seed", "count")

    def __init__(self, rate: float, seed: int, count: int):
        require((rate > 0, "arrivals.rate: must be > 0"),
                (seed >= 0, "arrivals.seed: must be >= 0"),
                (count >= 0, "arrivals.count: must be >= 0"))
        self.rate = rate
        self.seed = seed
        self.count = count


class ExplicitArrivals(Record):
    """Fixed arrival times; templates cycle through the catalog when unnamed."""

    __slots__ = ("times", "templates")

    def __init__(self, times: tuple[float, ...], templates: tuple[str, ...] | None = None):
        require((all(0 <= t < math.inf for t in times),
                 "arrivals.times: must be >= 0 and finite"),
                (list(times) == sorted(times), "arrivals.times: must be sorted ascending"),
                (templates is None or len(templates) == len(times),
                 "arrivals.templates: must match times in length"))
        self.times = times
        self.templates = templates


ArrivalProcess = PoissonArrivals | ExplicitArrivals


class NodeFailureFault(Record):
    __slots__ = ("time", "node_id")

    def __init__(self, time: float, node_id: int):
        require((0 <= time < math.inf, "time: must be >= 0 and finite"),
                (node_id >= 0, "node_id: must be >= 0"))
        self.time = time
        self.node_id = node_id


class DriverRestartFault(Record):
    __slots__ = ("time", "job_index")

    def __init__(self, time: float, job_index: int):
        require((0 <= time < math.inf, "time: must be >= 0 and finite"),
                (job_index >= 0, "job_index: must be >= 0"))
        self.time = time
        self.job_index = job_index  # position in the generated arrival schedule


Fault = NodeFailureFault | DriverRestartFault


class ScheduledArrival(Record):
    """One generated arrival: its time, its template's name and its job."""

    __slots__ = ("time", "template", "job")

    def __init__(self, time: float, template: str, job: BatchJob):
        self.time = time
        self.template = template
        self.job = job


class Scenario(Record):
    """Everything a run depends on; equal scenarios give byte-identical reports.

    Valid by construction: every rule on its own fields and every rule that
    spans fields is checked here, and all violations are raised together in
    one ValidationError, each under its scenario-file path.
    """

    __slots__ = ("scenario_id", "node_capacities", "catalog", "arrivals", "cost_params",
                 "mode", "placement", "round_length", "eviction_deadline", "edge_speed",
                 "cloud_speed", "cloud_concurrency", "execution_timeout", "horizon", "faults")

    def __init__(self, scenario_id: str, node_capacities: tuple[ResourceVector, ...],
                 catalog: dict[str, BatchJob], arrivals: ArrivalProcess,
                 cost_params: CostParams = CostParams(),
                 mode: SchedulerMode = SchedulerMode.CHEAPEST_FIRST,
                 placement: PlacementPolicy = PlacementPolicy.FIRST_FIT,
                 round_length: float = DEFAULT_ROUND_LENGTH,
                 eviction_deadline: float = DEFAULT_EVICTION_DEADLINE, edge_speed: float = 0.8,
                 cloud_speed: float = 1.0, cloud_concurrency: int | None = None,
                 execution_timeout: float = 60.0, horizon: float | None = None,
                 faults: tuple[Fault, ...] = ()):
        self.scenario_id = scenario_id
        self.node_capacities = node_capacities
        self.catalog = catalog  # template name -> job template
        self.arrivals = arrivals
        self.cost_params = cost_params
        self.mode = mode
        self.placement = placement
        self.round_length = round_length
        self.eviction_deadline = eviction_deadline
        self.edge_speed = edge_speed
        self.cloud_speed = cloud_speed
        self.cloud_concurrency = cloud_concurrency
        self.execution_timeout = execution_timeout
        self.horizon = horizon
        self.faults = faults

        problems = [problem for ok, problem in (
            (self.edge_speed > 0, "edge.speed_factor: must be > 0"),
            (self.cloud_speed > 0, "cloud.speed_factor: must be > 0"),
            (self.cloud_concurrency is None or self.cloud_concurrency >= 1,
             "cloud.cloud_concurrency: must be >= 1"),
            (all(c.cpu_millicores >= 1 for c in self.node_capacities),
             "edge.node_cpu_millicores: must be >= 1"),
            (all(c.memory_mb >= 1 for c in self.node_capacities),
             "edge.node_memory_mb: must be >= 1"),
            (self.node_capacities or self.mode is SchedulerMode.CLOUD_ONLY,
             "edge.node_count: must be >= 1 unless the mode is cloud_only"),
            (0 < self.round_length < math.inf,
             "scheduler.round_length: must be > 0 and finite"),
            (0 < self.eviction_deadline < math.inf,
             "scheduler.eviction_deadline: must be > 0 and finite"),
            (self.execution_timeout > 0, "scheduler.execution_timeout: must be > 0"),
            (self.horizon is None or self.horizon > 0, "horizon: must be > 0"),
            (self.catalog, "workloads: must be a non-empty object of named templates"),
        ) if not ok]
        if self.edge_speed > 0 and self.cloud_speed > 0 and self.execution_timeout > 0:
            # the slowest region a step can land on binds the timeout rule
            min_speed = (self.cloud_speed if self.mode is SchedulerMode.CLOUD_ONLY
                         else min(self.edge_speed, self.cloud_speed))
            for name, template in self.catalog.items():
                problems.extend(f"workloads.{name}: {p}" for p in
                                validate_job(template, self.execution_timeout, min_speed))
        if isinstance(self.arrivals, PoissonArrivals):
            arrival_count = self.arrivals.count
        else:
            arrival_count = len(self.arrivals.times)
            unknown = sorted(set(self.arrivals.templates or ()) - set(self.catalog))
            if unknown:
                problems.append(f"arrivals.templates: unknown templates: {', '.join(unknown)}")
        killed: dict[int, int] = {}
        for i, f in enumerate(self.faults):
            if self.horizon is not None and f.time > self.horizon:
                problems.append(f"faults[{i}].time: is past the horizon {self.horizon:g}")
            if isinstance(f, NodeFailureFault):
                if f.node_id >= len(self.node_capacities):
                    problems.append(f"faults[{i}].node_id: must be < "
                                    f"{len(self.node_capacities)}, the node count")
                elif f.node_id in killed:
                    problems.append(f"faults[{i}].node_id: node {f.node_id} already "
                                    f"fails in faults[{killed[f.node_id]}]")
                else:
                    killed[f.node_id] = i
            elif f.job_index >= arrival_count:
                problems.append(f"faults[{i}].job_index: must be < {arrival_count}, "
                                f"the arrival count")
        if problems:
            raise ValidationError(*problems)


def generate_arrivals(process: ArrivalProcess,
                      catalog: dict[str, BatchJob]) -> list[ScheduledArrival]:
    """Expand an arrival process into a concrete, deterministic schedule.

    Poisson inter-arrival gaps come from inverse-CDF exponentials over a
    PCG64 stream; the template pick for each arrival consumes the next draw
    from the same stream, so one seed fixes the whole schedule. A rate so
    small that the times pass the float range is refused.
    """
    names = list(catalog)
    if isinstance(process, PoissonArrivals):
        rng = Pcg64(process.seed)
        out: list[ScheduledArrival] = []
        t = 0.0
        for i in range(process.count):
            u = rng.random()
            t += -math.log1p(-u) / process.rate
            name = names[rng.integers(len(names))]
            out.append(ScheduledArrival(t, name, _job(catalog[name], f"{name}-{i:04d}", t)))
        require((math.isfinite(t), "arrivals.rate: must be large enough for every "
                 "arrival time to be finite"))
        return out

    out = []
    for i, t in enumerate(process.times):
        name = process.templates[i] if process.templates else names[i % len(names)]
        out.append(ScheduledArrival(t, name, _job(catalog[name], f"{name}-{i:04d}", t)))
    return out


def _job(template: BatchJob, job_id: str, arrival_time: float) -> BatchJob:
    """The template's job as it arrives: the job template.replace(job_id=...,
    arrival_time=...) gives, from the constructor alone. So it
    names every BatchJob field, and a field added there is passed here too."""
    return BatchJob(job_id, template.dag, template.fragment_count, template.deadline,
                    arrival_time)


def require_finite_rounds(arrivals: list[ScheduledArrival], round_length: float) -> None:
    """Refuse a schedule with an arrival time of 2^53 rounds or more, past
    which next_round_at, which each arrival asks for its round, is not exact."""
    require((max((a.time for a in arrivals), default=0.0) / round_length < 2.0 ** 53,
             "scheduler.round_length: must be large enough for every arrival "
             "time to be fewer than 2^53 rounds"))


def next_round_at(now: float, round_length: float) -> float:
    """First round boundary at or after now; boundaries sit at k*round_length,
    k >= 1. Below 2^53 every integer is a float, so the rounded quotient
    keeps k between the exact quotient's floor and ceiling, and one of
    k*round_length and (k+1)*round_length is the boundary."""
    k = int(now / round_length)
    boundary = k * round_length
    if boundary < now:
        boundary = (k + 1) * round_length
    return max(boundary, round_length)


def _require_drained(drivers: dict[str, PipelineDriver], arrival_count: int) -> None:
    """Refuse a run that ended without its horizon with an arrival that never
    came or a job left unfinished: a bug, not a result."""
    incomplete = [jid for jid, drv in drivers.items() if not drv.is_complete()]
    if incomplete or len(drivers) != arrival_count:
        raise InternalConsistencyError(
            f"run drained with unfinished work: {incomplete or 'missing arrivals'}")


class _Engine:
    """One run's mutable state; single-threaded, shares nothing."""

    driver_type = PipelineDriver

    def __init__(self, scenario: Scenario, arrivals: list[ScheduledArrival]):
        self.scenario = scenario
        self.arrivals = arrivals
        self.sched = HcsScheduler(
            scenario.node_capacities, scenario.cost_params, scenario.placement,
            scenario.eviction_deadline, scenario.mode)
        # the report's rows, appended as the run makes them
        self.samples: list[UtilizationSample] = []
        self.ledger: list[CostLedgerEntry] = []
        self.outcomes: list[JobOutcome] = []
        self._open: dict[tuple[str, str], CostLedgerEntry] = {}  # by deployed step
        self.drivers: dict[str, PipelineDriver] = {}
        self._touched: dict[str, PipelineDriver] = {}  # jobs to project again
        self._sampled_writes = 0  # sched.edge_writes at the last sample
        self.templates: dict[str, str] = {}
        self.heap: list[tuple[float, int, int, object]] = []
        self.seq = 0
        self.last_event_time = 0.0
        self.horizon_reached = False
        self._last_tick = 0.0  # the last round boundary pushed; each is > 0
        require_finite_rounds(arrivals, scenario.round_length)
        # generous ceiling: a job is projected once per instant that touches
        # it, and each projection pushes at most one event per step. Those
        # instants are a few per step (its round, the rounds that evict or
        # re-home it, their expiries), its restarts and the node failures.
        restarts = Counter(f.job_index for f in scenario.faults
                           if isinstance(f, DriverRestartFault))
        failures = len(scenario.faults) - restarts.total()
        pushes = sum(len(a.job.dag.steps) * (len(a.job.dag.steps) + restarts[i] + failures)
                     for i, a in enumerate(arrivals))
        self._event_budget = 10_000 + 100 * (pushes + len(arrivals) + len(scenario.faults))

        for i, a in enumerate(arrivals):
            self._push(a.time, _ARRIVAL, i)
        for f in scenario.faults:
            if isinstance(f, NodeFailureFault):
                self._push(f.time, _FAILURE, f.node_id)
            else:
                self._push(f.time, _RESTART, arrivals[f.job_index].job.job_id)
        if scenario.horizon is not None:
            self._push(scenario.horizon, _END, None)

    def _push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self.heap, (time, kind, self.seq, payload))
        self.seq += 1

    def _touch(self, drv: PipelineDriver) -> None:
        """Mark a job whose driver an event interrupted, to project it again."""
        self._touched[drv.job.job_id] = drv

    def _end_instant(self, now: float) -> None:
        """After an instant's last event: project the jobs the instant
        touched, and sample utilization if the edge changed. The projections
        share one memo, which lives for this instant only: now and the speeds
        are then the same for every job, and every DAG it keys stays alive."""
        if self._touched:
            heap, push, seq = self.heap, heapq.heappush, self.seq
            memo: dict = {}  # this instant's shared first plans
            for job_id, drv in self._touched.items():
                for step_id, time in drv.project(now, memo):
                    push(heap, (time, _COMPLETE, seq, (job_id, step_id, drv.version)))
                    seq += 1
            self.seq = seq
            self._touched.clear()
        if self.sched.edge_writes != self._sampled_writes:
            self._sampled_writes = self.sched.edge_writes
            self.samples.append(UtilizationSample(now, *self.sched.edge_usage()))

    # -- event handlers -------------------------------------------------------

    def _on_arrival(self, index: int, now: float) -> None:
        a = self.arrivals[index]
        self.drivers[a.job.job_id] = self.driver_type(
            a.job, self.scenario.edge_speed, self.scenario.cloud_speed)
        self.templates[a.job.job_id] = a.template
        self.sched.submit_request(a.job, now)
        # arrivals pop in time order and next_round_at never decreases, so
        # a boundary already pushed is the last one pushed
        boundary = next_round_at(now, self.scenario.round_length)
        if boundary != self._last_tick:
            self._last_tick = boundary
            self._push(boundary, _ROUND, None)

    def _apply_decision(self, decision: ScheduleDecision, now: float) -> None:
        """Deliver directives to drivers, and schedule the close of the
        windows the decision opened."""
        for d in decision.directives:
            if isinstance(d, Evict):
                drv = self.drivers[d.job_id]
                drv.on_eviction_notice(d.step_id, d.expiry_time, now)
                self._touch(drv)
            else:
                region = "cloud" if isinstance(d, DeployCloud) else "edge"
                self._move_step(d.job_id, d.step_id, region, now)
        if decision.expiry is not None:
            self._push(decision.expiry, _EXPIRE, None)

    def _move_step(self, job_id: str, step_id: str, region: str, now: float) -> None:
        """Deploy a step in region now: first deployment, a re-homing after a
        failure, or the cloud switch at its eviction window's end.

        The open ledger entry, if any, closes and one for the new region opens;
        the job is projected again after the event.
        """
        drv = self.drivers[job_id]
        step = drv.steps[step_id].spec
        self._close(job_id, step_id, now)
        entry = CostLedgerEntry(job_id, step_id, region,
                                rcost(step, self.scenario.cost_params), now)
        self._open[job_id, step_id] = entry
        self.ledger.append(entry)
        # Scenario keeps cloud_concurrency None or >= 1, so "or" replaces only None
        pool = (step.replicas if region == "edge"
                else self.scenario.cloud_concurrency or step.replicas)
        drv.deploy(step_id, region, pool, now)
        self._touch(drv)

    def _on_completion(self, event: tuple[str, str, int], now: float) -> bool:
        """Handle a projected step completion; returns whether it was live."""
        job_id, step_id, version = event
        drv = self.drivers[job_id]
        if version != drv.version:
            return False  # the plan was superseded by an interruption
        self.sched.complete_step(job_id, step_id)
        self._close(job_id, step_id, now)
        if drv.on_step_complete(step_id, now):
            self.outcomes.append(JobOutcome(
                job_id, self.templates[job_id], drv.job.arrival_time, now, drv.job.deadline))
        return True

    def _close(self, job_id: str, step_id: str, now: float) -> None:
        """End the step's open ledger entry, if it has one, at now."""
        entry = self._open.pop((job_id, step_id), None)
        if entry is not None:
            entry.deploy_end = now

    def _on_driver_restart(self, job_id: str, now: float) -> None:
        drv = self.drivers.get(job_id)
        if drv is None or drv.is_complete():
            return  # not arrived yet, or already done: restart is a no-op
        drv.resume_from_journal(now)
        self._touch(drv)

    # -- the loop ---------------------------------------------------------------

    def run(self) -> RunReport:
        # bound as the run starts, so a method patched before it is the one
        # called; heappop through the module's heapq name, which a tracer may replace
        heap, pop, now, budget = self.heap, heapq.heappop, 0.0, self._event_budget
        on_completion, end_instant = self._on_completion, self._end_instant
        sched, apply = self.sched, self._apply_decision
        handlers = {_EXPIRE: lambda _, t: apply(sched.close_windows(t), t),
                    _FAILURE: lambda node_id, t: apply(sched.handle_node_failure(node_id), t),
                    _RESTART: self._on_driver_restart, _ARRIVAL: self._on_arrival,
                    _ROUND: lambda _, t: apply(sched.run_round(t), t)}
        processed = 0
        while heap:
            time, kind, _, payload = pop(heap)
            if time < now:
                raise InternalConsistencyError(
                    f"event at {time} scheduled before current time {now}")
            processed += 1
            if processed > budget:
                raise InternalConsistencyError(
                    f"event budget {budget} exhausted; likely a livelock")
            now = time
            if kind == _COMPLETE:
                # a superseded completion leaves no trace, not even the end time
                if on_completion(payload, time):
                    self.last_event_time = time
            elif kind == _END:
                self._finish_at_horizon(time)
                self._touched.clear()  # the cut ends every plan
                end_instant(time)
                break
            else:
                self.last_event_time = time
                try:
                    handler = handlers[kind]
                except KeyError:
                    raise InternalConsistencyError(f"unknown event kind {kind}") from None
                handler(payload, time)
            # a projection at this instant only yields completions after
            # it, so the jobs touched here are projected once, and the edge
            # sampled once, after the instant's last event
            if not heap or heap[0][0] > time:
                end_instant(time)

        end_time = self.scenario.horizon if self.horizon_reached else self.last_event_time
        if not self.horizon_reached and len(self.outcomes) != len(self.arrivals):
            _require_drained(self.drivers, len(self.arrivals))
        for entry in self._open.values():
            entry.deploy_end = end_time
        return RunReport(
            scenario_id=self.scenario.scenario_id,
            mode=self.scenario.mode.value,
            placement=self.scenario.placement.value,
            arrivals=[(a.time, a.job.job_id, a.template) for a in self.arrivals],
            utilization=self.samples,
            cost_ledger=self.ledger,
            job_outcomes=self.outcomes,
            end_time=end_time,
            horizon_reached=self.horizon_reached,
        )

    def _finish_at_horizon(self, now: float) -> None:
        """Mark the cut if the cap interrupted work; unfinished jobs count as
        missed with the horizon as their completion time, and their journals
        hold what finished by it."""
        unfinished = [a for a in self.arrivals[:len(self.drivers)]
                      if not self.drivers[a.job.job_id].is_complete()]
        if not unfinished and len(self.drivers) == len(self.arrivals):
            return
        self.horizon_reached = True
        for a in unfinished:
            self.drivers[a.job.job_id].commit(now)
            self.outcomes.append(JobOutcome(
                a.job.job_id, a.template, a.job.arrival_time,
                completion=now, deadline=a.job.deadline, completed=False))


def _run_cloud_only(scenario: Scenario, arrivals: list[ScheduledArrival]) -> RunReport:
    """The report _Engine gives a cloud-only run without faults or a horizon,
    computed job by job without its event queue or a scheduler.

    Nothing can interrupt such a job, and jobs share nothing but the round
    grid: every step of a job deploys in the cloud at the round after its
    arrival, its driver projects once, and each step completes as projected.
    The speeds and pools are the run's, so jobs alike in template (DAG and
    fragment count) and round complete alike, and are computed once: the
    first job of each runs its driver, and the later ones take its
    completions and build none. The rows are then sorted into the order the
    event loop appends them: ledger rows by round, then in the round's
    (-rcost, arrival, job_id, step_id) request order; outcomes by completion
    time, then by the order the round projects jobs in, which is that of each
    job's first request. Arrivals, rounds and completions never precede the
    round a job deploys in, so the last completion ends the run. A duplicate
    job id runs through _Engine, whose scheduler refuses it.
    """
    require_finite_rounds(arrivals, scenario.round_length)
    if len({a.job.job_id for a in arrivals}) != len(arrivals):
        return _Engine(scenario, arrivals).run()
    params, concurrency = scenario.cost_params, scenario.cloud_concurrency
    ledger: list[tuple] = []  # (round, -rcost, arrival, job_id, step_id, entry)
    # (completion, round, the job's first request's -rcost, arrival, job_id, outcome)
    outcomes: list[tuple] = []
    drivers: dict[str, PipelineDriver] = {}  # each job's id to the driver that computed it
    requests_of: dict[int, list] = {}  # by DAG: its steps in request order
    # by (DAG, fragment count, round): the driver, each step's completion and
    # the job's end; every DAG keyed stays alive with the arrivals
    computed: dict[tuple, tuple] = {}
    for a in arrivals:
        job, now = a.job, next_round_at(a.time, scenario.round_length)
        requests = requests_of.get(id(job.dag))
        if requests is None:
            requests = requests_of[id(job.dag)] = sorted(
                (-rcost(step, params), step.step_id, step) for step in job.dag.steps)
        key = (id(job.dag), job.fragment_count, now)
        seen = computed.get(key)
        if seen is None:
            drv, end = PipelineDriver(job, scenario.edge_speed, scenario.cloud_speed), None
            for _, step_id, step in requests:
                drv.deploy(step_id, "cloud", concurrency or step.replicas, now)
            # projected completions in the order their events pop: by time,
            # ties in projection order
            done = sorted(drv.project(now), key=itemgetter(1))
            for step_id, time in done:
                if drv.on_step_complete(step_id, time):
                    end = time
            seen = computed[key] = (drv, dict(done), end)
        drv, ends, end = seen
        drivers[job.job_id] = drv
        for cost, step_id, _ in requests:
            ledger.append((now, cost, a.time, job.job_id, step_id, CostLedgerEntry(
                job.job_id, step_id, "cloud", -cost, now, ends.get(step_id))))
        if end is not None:
            outcomes.append((end, now, requests[0][0], a.time, job.job_id, JobOutcome(
                job.job_id, a.template, job.arrival_time, end, job.deadline)))
    if len(outcomes) != len(arrivals):  # a finished job's driver has checked its journal
        _require_drained(drivers, len(arrivals))
    # the keys are unique, so no sort compares the records at their ends
    ledger.sort()
    outcomes.sort()
    return RunReport(
        scenario_id=scenario.scenario_id,
        mode=scenario.mode.value,
        placement=scenario.placement.value,
        arrivals=[(a.time, a.job.job_id, a.template) for a in arrivals],
        utilization=[],
        cost_ledger=[row[-1] for row in ledger],
        job_outcomes=[row[-1] for row in outcomes],
        end_time=outcomes[-1][0] if outcomes else 0.0,
    )


def run(scenario: Scenario,
        arrivals: list[ScheduledArrival] | None = None) -> RunReport:
    """Execute one scenario to completion (or its horizon) and report.

    A precomputed arrival schedule may be passed in so paired runs (baseline
    comparisons, placement sweeps) consume identical arrivals. A cloud-only
    run without faults or a horizon is computed job by job
    (_run_cloud_only); every other run goes through the event loop (_Engine),
    the one general path, against which the tests check the first.
    """
    if arrivals is None:
        arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    log(__name__, "info", "run %s: %d arrivals, mode=%s placement=%s",
        scenario.scenario_id, len(arrivals), scenario.mode.value, scenario.placement.value)
    if (scenario.mode is SchedulerMode.CLOUD_ONLY and not scenario.faults
            and scenario.horizon is None):
        return _run_cloud_only(scenario, arrivals)
    return _Engine(scenario, arrivals).run()
