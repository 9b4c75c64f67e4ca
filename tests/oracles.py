"""Brute-force reference models and probes used only by tests.

Deliberately written with a different structure from the package under test:
a scan-everything time-stepping loop over explicit worker slots, no event
queue, no epochs, no eviction handling. Slow but obviously correct. Next to
it, the per-fragment engine the package used before per-step schedules: one
event per fragment completion, the differential oracle for the fast engine.
"""

from __future__ import annotations

from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from hcs_sim.core_model import (
    EdgePlacement,
    InternalConsistencyError,
    StepState,
    ValidationError,
)
from hcs_sim.metrics import JobOutcome
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import try_place_free
from hcs_sim.sim_engine import EventKind, _Engine, generate_arrivals


def pipeline_makespan(steps, edges, fragments, pools=None, speed=1.0):
    """Completion time of a pipeline deployed in full at t=0.

    Args:
        steps: list of (step_id, service_time, feed_forward).
        edges: list of (upstream_id, downstream_id).
        fragments: number of fragments in the batch.
        pools: optional {step_id: worker count}; defaults to 1 worker per step.
        speed: region speed factor; fragment duration is service_time / speed.

    Returns:
        Time of the last fragment completion over all steps.
    """
    ids = [sid for sid, _, _ in steps]
    service = {sid: t / speed for sid, t, _ in steps}
    feed_fwd = {sid: ff for sid, _, ff in steps}
    pools = dict(pools or {})
    preds = {sid: [a for a, b in edges if b == sid] for sid in ids}

    done = {sid: set() for sid in ids}
    # busy[sid] holds [finish_time, fragment] pairs, at most pool slots
    busy = {sid: [] for sid in ids}

    def startable(sid):
        """Fragments allowed to start at this step right now."""
        running = {frag for _, frag in busy[sid]}
        if not preds[sid]:
            avail = set(range(fragments))
        elif feed_fwd[sid]:
            avail = set.intersection(*(done[p] for p in preds[sid]))
        else:
            if all(len(done[p]) == fragments for p in preds[sid]):
                avail = set(range(fragments))
            else:
                avail = set()
        return sorted(avail - done[sid] - running)

    now = 0.0
    total = fragments * len(ids)
    finished = 0
    guard = 0
    while finished < total:
        guard += 1
        if guard > total * 4 + 100:
            raise RuntimeError("oracle failed to make progress")
        # fill every free worker slot
        progressed = True
        while progressed:
            progressed = False
            for sid in ids:
                pool = pools.get(sid, 1)
                for frag in startable(sid):
                    if len(busy[sid]) >= pool:
                        break
                    busy[sid].append([now + service[sid], frag])
                    progressed = True
        # advance to the earliest completion anywhere
        horizon = None
        for sid in ids:
            for fin, _ in busy[sid]:
                if horizon is None or fin < horizon:
                    horizon = fin
        if horizon is None:
            raise RuntimeError("oracle deadlocked with work remaining")
        now = horizon
        for sid in ids:
            keep = []
            for fin, frag in busy[sid]:
                if fin <= now + 1e-12:
                    done[sid].add(frag)
                    finished += 1
                else:
                    keep.append([fin, frag])
            busy[sid] = keep
    return now


def chain_makespan(n_steps, fragments, service=1.0, feed_forward=True, pool=1, speed=1.0):
    """Makespan of a uniform linear chain."""
    steps = [(f"s{i}", service, feed_forward) for i in range(n_steps)]
    # sources have no predecessors, so feed_forward only matters downstream
    edges = [(f"s{i}", f"s{i+1}") for i in range(n_steps - 1)]
    pools = {f"s{i}": pool for i in range(n_steps)}
    return pipeline_makespan(steps, edges, fragments, pools, speed)


def try_place(step, nodes, policy, rr_cursor=0):
    """Plan against live node state without mutating it."""
    free = [(n.free.cpu_millicores, n.free.memory_mb) if n.alive else None for n in nodes]
    return try_place_free(step, free, policy, rr_cursor)


def oracle_feasible(step, nodes, max_replicas=12, max_nodes=6):
    """Exhaustive feasibility check for one replica set.

    Searches every way to split the replica count across nodes (replicas are
    interchangeable, so assignments are multisets of node choices). Refuses
    instances larger than the stated bounds rather than run forever.
    """
    alive = [n for n in nodes if n.alive]
    if step.replicas > max_replicas or len(alive) > max_nodes:
        raise ValidationError(
            f"oracle limited to {max_replicas} replicas over {max_nodes} nodes")
    d = step.demand_per_replica
    caps = []
    for n in alive:
        per_dim = []
        if d.cpu_millicores > 0:
            per_dim.append(n.free.cpu_millicores // d.cpu_millicores)
        if d.memory_mb > 0:
            per_dim.append(n.free.memory_mb // d.memory_mb)
        caps.append(min(per_dim) if per_dim else step.replicas)

    def search(i, remaining):
        if remaining == 0:
            return True
        if i == len(caps):
            return False
        if sum(caps[i:]) < remaining:
            return False
        for take in range(min(caps[i], remaining), -1, -1):
            if search(i + 1, remaining - take):
                return True
        return False

    return search(0, step.replicas)


@contextmanager
def counting_completions():
    """Count every fragment PipelineDriver journals while active.

    Yields a Counter keyed by (job_id, step_id, fragment). It counts what is
    handed to the journal's only writer, independently of the journal, so
    exactly-once checks do not rely on the bookkeeping they verify.
    """
    counts = Counter()
    real = PipelineDriver._journal

    def counting(self, step_id, fragments):
        for f in fragments:
            counts[(self.job.job_id, step_id, f)] += 1
        return real(self, step_id, fragments)

    PipelineDriver._journal = counting
    try:
        yield counts
    finally:
        PipelineDriver._journal = real


# -- the per-fragment engine ----------------------------------------------------


@dataclass
class _FragmentStep:
    spec: object
    state: StepState = StepState.PENDING
    endpoint: object = None
    pool: int = 0
    epoch: int = 0
    ready: deque = field(default_factory=deque)
    in_flight: dict = field(default_factory=dict)  # fragment -> finish time
    pending_switch: tuple | None = None  # (expiry, endpoint, pool)
    barrier_released: bool = False


class FragmentDriver:
    """Per-fragment driver: every dispatch becomes one completion event.

    Dispatches collect in `outbox` as (finish, step_id, fragment, epoch); an
    event is live while the step's epoch and the fragment's finish time still
    match. Same interface as PipelineDriver for the engine's interruptions.
    """

    def __init__(self, job, edge_speed=0.8, cloud_speed=1.0):
        self.job = job
        self.edge_speed = edge_speed
        self.cloud_speed = cloud_speed
        self.topo = job.dag.order
        self.m = job.fragment_count
        self.journal = {sid: set() for sid in self.topo}
        self._preds = {sid: job.dag.predecessors(sid) for sid in self.topo}
        self._succs = {sid: job.dag.successors(sid) for sid in self.topo}
        self.terminal_ids = job.dag.terminal_ids()
        self.completed_at = None
        self.outbox = []
        self.steps = {}
        for sid in self.topo:
            rt = _FragmentStep(job.dag.step(sid))
            if not self._preds[sid]:
                rt.ready = deque(range(self.m))
                rt.barrier_released = True
            self.steps[sid] = rt

    def step_runtime(self, step_id):
        return self.steps[step_id]

    def is_complete(self):
        return all(self.steps[t].state is StepState.COMPLETED for t in self.terminal_ids)

    def is_current(self, step_id, fragment, finish, epoch):
        rt = self.steps[step_id]
        return rt.epoch == epoch and rt.in_flight.get(fragment) == finish

    def commit(self, now):
        """The journal is always current; nothing to commit."""

    def _dispatch(self, step_id, now):
        rt = self.steps[step_id]
        if rt.state is not StepState.RUNNING or rt.pending_switch is not None:
            return
        speed = self.edge_speed if isinstance(rt.endpoint, EdgePlacement) else self.cloud_speed
        duration = rt.spec.service_time_per_fragment / speed
        while rt.ready and len(rt.in_flight) < rt.pool:
            frag = rt.ready.popleft()
            rt.in_flight[frag] = now + duration
            self.outbox.append((now + duration, step_id, frag, rt.epoch))

    def on_deploy(self, step_id, endpoint, pool_size, now):
        rt = self.steps[step_id]
        rt.endpoint = endpoint
        rt.pool = pool_size
        released = rt.spec.feed_forward or rt.barrier_released
        rt.state = StepState.RUNNING if released else StepState.WAITING
        self._dispatch(step_id, now)

    def on_fragment_complete(self, step_id, fragment, now):
        """Journal a completion, refill the freed worker, wake successors.

        Returns the steps that completed with it and whether the job did.
        """
        rt = self.steps[step_id]
        del rt.in_flight[fragment]
        journal = self.journal[step_id]
        if fragment in journal:
            raise InternalConsistencyError(f"fragment {fragment} journaled twice")
        journal.add(fragment)
        completed = []
        if len(journal) == self.m:
            rt.state = StepState.COMPLETED
            rt.pending_switch = None
            completed.append(step_id)
        else:
            self._dispatch(step_id, now)
        for succ in self._succs[step_id]:
            srt = self.steps[succ]
            if srt.spec.feed_forward:
                if all(fragment in self.journal[p] for p in self._preds[succ]):
                    srt.ready.append(fragment)
                    self._dispatch(succ, now)
            elif not srt.barrier_released and len(journal) == self.m:
                if all(len(self.journal[p]) == self.m for p in self._preds[succ]):
                    srt.barrier_released = True
                    srt.ready = deque(f for f in range(self.m) if f not in self.journal[succ])
                    if srt.state is StepState.WAITING:
                        srt.state = StepState.RUNNING
                    self._dispatch(succ, now)
        job_done = bool(completed) and self.is_complete() and self.completed_at is None
        if job_done:
            self.completed_at = now
        return completed, job_done

    def on_eviction_notice(self, step_id, expiry, new_endpoint, new_pool, now):
        rt = self.steps[step_id]
        cancelled = sorted(f for f, fin in rt.in_flight.items() if fin > expiry)
        for f in cancelled:
            del rt.in_flight[f]
        rt.ready.extendleft(reversed(cancelled))
        rt.pending_switch = (expiry, new_endpoint, new_pool)
        return cancelled

    def switch_at_expiry(self, step_id, now):
        rt = self.steps[step_id]
        expiry, rt.endpoint, rt.pool = rt.pending_switch
        if now < expiry or rt.in_flight:
            raise InternalConsistencyError(f"bad switch for {step_id}")
        rt.pending_switch = None
        rt.epoch += 1
        self._dispatch(step_id, now)

    def redeploy(self, step_id, endpoint, pool_size, now):
        rt = self.steps[step_id]
        lost = sorted(rt.in_flight)
        rt.in_flight.clear()
        rt.ready.extendleft(reversed(lost))
        rt.pending_switch = None
        rt.endpoint = endpoint
        rt.pool = pool_size
        rt.epoch += 1
        self._dispatch(step_id, now)

    def resume_from_journal(self, now):
        for sid in self.topo:
            rt = self.steps[sid]
            rt.epoch += 1
            rt.in_flight.clear()
            journal = self.journal[sid]
            if len(journal) == self.m:
                rt.state = StepState.COMPLETED
                rt.ready.clear()
                continue
            preds = self._preds[sid]
            rt.barrier_released = all(len(self.journal[p]) == self.m for p in preds)
            if rt.spec.feed_forward or rt.barrier_released:
                rt.ready = deque(f for f in range(self.m) if f not in journal
                                 and all(f in self.journal[p] for p in preds))
            else:
                rt.ready = deque()
            if rt.endpoint is None:
                rt.state = StepState.PENDING
            elif rt.spec.feed_forward or rt.barrier_released:
                rt.state = StepState.RUNNING
                self._dispatch(sid, now)
            else:
                rt.state = StepState.WAITING


class FragmentEngine(_Engine):
    """The engine with one event per fragment completion instead of per step.

    Shares the scheduler and metrics orchestration with the package's engine
    and replaces only how work is timed: the driver's dispatches are pushed
    as they happen, and a completion is live while its dispatch is current.
    """

    driver_type = FragmentDriver

    def __init__(self, scenario, arrivals):
        super().__init__(scenario, arrivals)
        work = sum(a.job.fragment_count * len(a.job.dag.steps) for a in arrivals)
        self._event_budget = 10_000 + 100 * (work + len(arrivals) + len(scenario.faults))

    def _touch(self, drv):
        for finish, step_id, fragment, epoch in drv.outbox:
            self._push(finish, EventKind.STEP_COMPLETE, (drv, step_id, fragment, finish, epoch))
        drv.outbox.clear()

    def _on_completion(self, event, now):
        drv, step_id, fragment, finish, epoch = event
        if not drv.is_current(step_id, fragment, finish, epoch):
            return False  # cancelled by eviction, failure, or restart
        completed, job_done = drv.on_fragment_complete(step_id, fragment, now)
        self._touch(drv)
        job_id = drv.job.job_id
        for sid in completed:
            region = self.sched.complete_step(job_id, sid, now)
            self.collector.close_entry(job_id, sid, now)
            if region == "edge":
                self.collector.sample(now)
        if job_done:
            self.collector.record_outcome(JobOutcome(
                job_id, self.templates[job_id], drv.job.arrival_time, now, drv.job.deadline))
        return True


def fragment_run_detailed(scenario, arrivals=None):
    """sim_engine.run_detailed on the per-fragment engine."""
    if arrivals is None:
        arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    engine = FragmentEngine(scenario, arrivals)
    return engine.run(), engine.drivers
