"""Round-based Cheapest-First scheduling over a finite edge cluster with an
unbounded pay-per-use cloud behind it.

Placement decisions happen at round boundaries. The most expensive pending
steps (by rcost) claim the edge first; a newcomer may evict strictly cheaper
residents, who get an eviction window to finish in-flight work before moving
to the cloud. Anything sent to the cloud stays there for its lifetime.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from enum import Enum

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    Record,
    ResourceVector,
    StepSpec,
    ValidationError,
    log,
    rcost,
)
from hcs_sim.placement import PlacementPlan, PlacementPolicy, replica_slots, try_place_free

DEFAULT_EVICTION_DEADLINE = 30.0

StepKey = tuple[str, str]  # (job_id, step_id)


class SchedulerMode(str, Enum):
    CHEAPEST_FIRST = "cheapest_first"
    CLOUD_ONLY = "cloud_only"


class DeployEdge(Record):
    """The step deploys on the edge now, as the plan places its replicas."""

    __slots__ = ("job_id", "step_id", "plan")

    def __init__(self, job_id: str, step_id: str, plan: PlacementPlan):
        self.job_id = job_id
        self.step_id = step_id
        self.plan = plan


class DeployCloud(Record):
    """The step moves to the cloud now, and stays there."""

    __slots__ = ("job_id", "step_id")

    def __init__(self, job_id: str, step_id: str):
        self.job_id = job_id
        self.step_id = step_id


class Evict(Record):
    """The step keeps its edge space until expiry_time, then moves to the cloud."""

    __slots__ = ("job_id", "step_id", "expiry_time")

    def __init__(self, job_id: str, step_id: str, expiry_time: float):
        self.job_id = job_id
        self.step_id = step_id
        self.expiry_time = expiry_time


Directive = DeployEdge | DeployCloud | Evict


class ScheduleDecision(Record):
    """The directives to apply now, and when the windows they opened close,
    if they opened any."""

    __slots__ = ("directives", "expiry")

    def __init__(self):
        self.directives: list[Directive] = []
        self.expiry: float | None = None


class HcsScheduler:
    """Owns the edge allocation account and emits deployment directives.

    Time comes in from the caller; the scheduler never schedules its own
    events. It is the only owner of what each edge node holds: `_held`, the
    load physically held right now including steps inside an eviction
    window, written only by `_hold` and `_drop`, and `alive`, written only by
    `handle_node_failure`. `edge_writes` counts holds, drops and deaths, so
    a caller sees whether the edge changed without asking why, and
    `edge_usage` reads what a utilization sample records from running sums
    of the held load and the live capacity, which `_shift` and
    `handle_node_failure` move with the per-node books. `reservations`
    promise capacity to steps that activate at an eviction expiry;
    `evicting` marks residents whose space frees at that expiry. A round
    that opens windows names their expiry in its decision, and the caller
    calls `close_windows` then: the one place a window ends. Per-node
    books keep what a placement reads, so no request rebuilds a view of the
    nodes or walks the residents. One writer, `_shift`, moves a plan's load
    on `_held`, `_free` and `_free_after_evictions`, and re-derives
    `_free_now`, in one pass over the nodes the plan touches: a hold, a
    drop, a reservation, an unreserve and a window's opening each call it
    once, and `_held` moves only through `_hold` and `_drop`. A node failure
    blanks the dead node's entries.

    - `_free`: capacity - held - reserved, None for a dead node. It can dip
      below zero where a reservation is backed by evicting space.
    - `_free_now`: `_free` clamped at zero, as `try_place_free` reads it.
    - `_free_after_evictions`: `_free` plus the load of the residents in an
      eviction window, which never dips below zero; None for a dead node.
    - `_victims`: the residents outside an eviction window in (rcost, key)
      order, so eviction candidates are a prefix.

    Each capacity rule is checked once, where the books move, and a
    breach raises InternalConsistencyError: `_hold` refuses a replica on a
    dead node or past a node's capacity, `_drop` a release of load not
    held, `_shift` a node over capacity after its pending evictions
    (`_free_after_evictions` below zero), and `handle_node_failure` a dead
    node that still holds load. The books are not recomputed from scratch
    here; the tests do that after every instant. The settings are a
    Scenario's, which guarantees a positive eviction length and at least one
    node in cheapest-first mode.
    """

    def __init__(self, capacities: Sequence[ResourceVector],
                 cost_params: CostParams | None = None,
                 policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
                 eviction_deadline: float = DEFAULT_EVICTION_DEADLINE,
                 mode: SchedulerMode = SchedulerMode.CHEAPEST_FIRST):
        self.capacities = tuple(capacities)
        self.alive = [True] * len(self.capacities)
        self.cost_params = cost_params or CostParams()
        self.policy = policy
        self.eviction_deadline = eviction_deadline
        self.mode = mode
        self.resident: dict[StepKey, PlacementPlan] = {}
        self.evicting: dict[StepKey, float] = {}
        self.reservations: dict[StepKey, tuple[PlacementPlan, float]] = {}
        self.cloud_sticky: set[StepKey] = set()
        self.completed: set[StepKey] = set()
        # (-rcost, arrival, job_id, step_id, step): a round sorts these as is
        self.pending: list[tuple[float, float, str, str, StepSpec]] = []
        self.rr_cursor = 0
        self.edge_writes = 0
        self._jobs: set[str] = set()  # ids seen, to refuse a duplicate
        self._held: list[list[int]] = [[0, 0] for _ in self.capacities]
        self._free: list[list[int] | None] = [
            [c.cpu_millicores, c.memory_mb] for c in self.capacities]
        self._free_now: list[tuple[int, int] | None] = [
            (c.cpu_millicores, c.memory_mb) for c in self.capacities]  # >= 1 in a Scenario
        self._free_after_evictions = list(self._free_now)
        self._victims: list[tuple[float, StepKey]] = []
        # edge_usage's sums: held load over every node, as a dead node holds
        # nothing, and the capacity of the live ones
        self._held_cpu = self._held_mem = 0
        self._live_cpu = sum(c.cpu_millicores for c in self.capacities)
        self._live_mem = sum(c.memory_mb for c in self.capacities)

    # -- capacity books ---------------------------------------------------------

    def _shift(self, plan: PlacementPlan, held: int, free: int, evicting: int) -> None:
        """Add a plan's load, times held, free and free + evicting (held,
        free and evicting each -1, 0 or 1), to `_held`, `_free` and
        `_free_after_evictions`, and re-derive `_free_now` on each node it
        touches; held moves edge_usage's sums too. A node whose space after
        its pending evictions dips below zero is over capacity: a broken
        planner, refused there."""
        d = plan.step.demand_per_replica
        dc, dm = d.cpu_millicores, d.memory_mb
        after = free + evicting
        replicas = 0
        for node_id, k in plan.nodes.items():
            replicas += k
            cpu, mem = k * dc, k * dm
            h, f, a = self._held[node_id], self._free[node_id], self._free_after_evictions[node_id]
            h[0] += held * cpu
            h[1] += held * mem
            f[0] += free * cpu
            f[1] += free * mem
            fc, fm = f  # clamped inline: this is the scheduler's hottest loop
            self._free_now[node_id] = (fc if fc > 0 else 0, fm if fm > 0 else 0)
            a = (a[0] + after * cpu, a[1] + after * mem)
            if a[0] < 0 or a[1] < 0:
                raise InternalConsistencyError(
                    f"node {node_id} over capacity after pending evictions")
            self._free_after_evictions[node_id] = a
        if held:
            self._held_cpu += held * replicas * dc
            self._held_mem += held * replicas * dm

    def _hold(self, key: StepKey, plan: PlacementPlan) -> None:
        """Allocate a plan to a resident that cheaper newcomers cannot evict.

        A replica on a dead node or a node held over capacity means the
        planner is broken, and the plan is refused before any book moves.
        Checked per plan, so an activation that runs before its victims'
        release is caught within the instant.
        """
        d = plan.step.demand_per_replica
        for node_id, k in plan.nodes.items():
            if not self.alive[node_id]:
                raise InternalConsistencyError(f"plan assigns replicas to dead node {node_id}")
            (cpu, mem), cap = self._held[node_id], self.capacities[node_id]
            cpu, mem = cpu + k * d.cpu_millicores, mem + k * d.memory_mb
            if cpu > cap.cpu_millicores or mem > cap.memory_mb:
                raise InternalConsistencyError(
                    f"node {node_id} over capacity: {cpu, mem} > {cap}")
        self.edge_writes += 1
        self._shift(plan, 1, -1, 0)
        self.resident[key] = plan
        insort(self._victims, (rcost(plan.step, self.cost_params), key))

    def _drop(self, key: StepKey) -> None:
        """Release a resident's allocation, closing its eviction window if open."""
        plan = self.resident.pop(key)
        d = plan.step.demand_per_replica
        for node_id, k in plan.nodes.items():
            cpu, mem = self._held[node_id]
            if cpu < k * d.cpu_millicores or mem < k * d.memory_mb:
                raise InternalConsistencyError(
                    f"release of unheld allocation on node {node_id}")
        self.edge_writes += 1
        if self.evicting.pop(key, None) is not None:
            self._shift(plan, -1, 1, -1)
        else:
            self._shift(plan, -1, 1, 0)
            del self._victims[bisect_left(self._victims,
                                          (rcost(plan.step, self.cost_params), key))]

    def _unreserve(self, key: StepKey) -> PlacementPlan:
        plan, _ = self.reservations.pop(key)
        self._shift(plan, 0, 1, 0)
        return plan

    # -- request intake -------------------------------------------------------

    def submit_request(self, job: BatchJob, now: float) -> None:
        """Queue all steps of a job for the round that now falls in."""
        if job.job_id in self._jobs:
            raise ValidationError(f"duplicate job_id {job.job_id!r}")
        self._jobs.add(job.job_id)
        for step in job.dag.steps:
            cost = rcost(step, self.cost_params)
            self.pending.append((-cost, now, job.job_id, step.step_id, step))

    # -- the round ------------------------------------------------------------

    def run_round(self, now: float) -> ScheduleDecision:
        """Resolve every pending request into exactly one deployment directive.

        Requests are visited in descending rcost order so already-resident
        steps are never evicted for a cheaper same-round peer. Rule order per
        request: free edge capacity, eviction of strictly cheaper residents,
        cloud fallback.

        Within a round free room and the strictly cheaper residents only
        shrink, so a (cpu, mem, replicas) shape whose try failed fails again
        for the rest of the round, and `no_room` and `no_victims` skip it.
        For the same reason no live node below the first node of a shape's
        last first-fit plan this round has room for it, so first fit starts
        there (`starts`).
        """
        decision = ScheduleDecision()
        requests, self.pending = self.pending, []
        requests.sort()
        no_room: set[tuple[int, int, int]] = set()
        no_victims: set[tuple[int, int, int]] = set()
        starts: dict[tuple[int, int], int] = {}
        for _, _, job_id, step_id, step in requests:
            key = (job_id, step_id)
            if self.mode is SchedulerMode.CLOUD_ONLY:
                self._deploy_cloud_now(key, decision)
                continue
            d = step.demand_per_replica
            shape = (d.cpu_millicores, d.memory_mb, step.replicas)
            if shape not in no_room:
                if self._try_deploy_edge_now(step, key, decision, starts):
                    continue
                no_room.add(shape)
            if shape not in no_victims:
                if self._try_deploy_with_eviction(step, key, decision, now):
                    continue
                no_victims.add(shape)
            self._deploy_cloud_now(key, decision)
        return decision

    def _deploy_cloud_now(self, key: StepKey, decision: ScheduleDecision) -> None:
        self.cloud_sticky.add(key)
        decision.directives.append(DeployCloud(key[0], key[1]))

    def _try_deploy_edge_now(self, step: StepSpec, key: StepKey, decision: ScheduleDecision,
                             starts: dict[tuple[int, int], int]) -> bool:
        """Place the step on free edge space, first fit from its shape's
        entry in starts, which the caller keeps while free space only shrinks."""
        d = step.demand_per_replica
        shape = (d.cpu_millicores, d.memory_mb)
        plan, cursor = try_place_free(step, self._free_now, self.policy, self.rr_cursor,
                                      starts.get(shape, 0))
        if plan is None:
            return False
        if self.policy is PlacementPolicy.FIRST_FIT:
            starts[shape] = next(iter(plan.nodes))
        self._hold(key, plan)
        self.rr_cursor = cursor
        decision.directives.append(DeployEdge(key[0], key[1], plan))
        return True

    def _try_deploy_with_eviction(self, step: StepSpec, key: StepKey,
                                  decision: ScheduleDecision, now: float) -> bool:
        """Reserve a plan for the expiry of a fresh window over the cheapest
        residents, and name that expiry in the decision.

        Evicts the shortest prefix of the strictly cheaper residents after
        which the replica slots (see `replica_slots`) suffice, and plans once
        on that view: the greedy policies place a replica set exactly when
        its slots suffice, so this is the first prefix a re-plan per
        candidate would accept. A node without room for one replica has no
        slot, so the count starts from the nodes with room.
        """
        cost = rcost(step, self.cost_params)
        demand = step.demand_per_replica
        dc, dm = demand.cpu_millicores, demand.memory_mb
        base = self._free_after_evictions
        slots = sum(replica_slots(f, demand) for f in base
                    if f is not None and f[0] >= dc and f[1] >= dm)
        freed: dict[int, tuple[int, int]] = {}
        taken = 0
        stop = bisect_left(self._victims, (cost,))
        while slots < step.replicas and taken < stop:
            victim = self.resident[self._victims[taken][1]]
            taken += 1
            vd = victim.step.demand_per_replica
            for node_id, k in victim.nodes.items():
                f = freed.get(node_id) or base[node_id]
                slots -= replica_slots(f, demand)
                f = freed[node_id] = (f[0] + k * vd.cpu_millicores, f[1] + k * vd.memory_mb)
                slots += replica_slots(f, demand)
        if slots < step.replicas:
            return False
        view = list(base) if freed else base
        for node_id, f in freed.items():
            view[node_id] = f
        # the round's first-fit starts hold on `_free_now` only, so this plan starts at node 0
        plan, cursor = try_place_free(step, view, self.policy, self.rr_cursor)
        if plan is None:
            raise InternalConsistencyError(f"{key}: {slots} replica slots but no placement")
        expiry = now + self.eviction_deadline
        victims = self._victims[:taken]
        del self._victims[:taken]
        for vic_cost, vic in victims:
            self.evicting[vic] = expiry
            self._shift(self.resident[vic], 0, 0, 1)
            decision.directives.append(Evict(vic[0], vic[1], expiry))
            log(__name__, "debug", "t=%s evict %s (rcost %.1f) for %s (rcost %.1f)", now,
                vic, vic_cost, key, cost)
        self.rr_cursor = cursor
        self.reservations[key] = (plan, expiry)
        self._shift(plan, 0, -1, 0)
        decision.expiry = expiry
        return True

    # -- window lifecycle -------------------------------------------------------

    def close_windows(self, expiry: float) -> ScheduleDecision:
        """Close the windows that end at expiry: each victim's space frees and
        it moves to the cloud, then each reservation made with them deploys.

        Victims go first, so every activation holds space already dropped.
        A step whose window ends at another time (it completed inside its
        window, or a failure re-homed it) is left where it is.
        """
        decision = ScheduleDecision()
        for key in [k for k, e in self.evicting.items() if e == expiry]:
            self._drop(key)
            self._deploy_cloud_now(key, decision)
        for key in [k for k, (_, e) in self.reservations.items() if e == expiry]:
            plan = self._unreserve(key)
            self._hold(key, plan)
            decision.directives.append(DeployEdge(key[0], key[1], plan))
        return decision

    def edge_usage(self) -> tuple[int, int, int, int]:
        """(held cpu, capacity cpu, held memory, capacity memory) summed over
        the alive nodes: what a utilization sample records."""
        return self._held_cpu, self._live_cpu, self._held_mem, self._live_mem

    # -- completions ------------------------------------------------------------

    def complete_step(self, job_id: str, step_id: str) -> None:
        """All fragments of a step are journaled; release whatever it held."""
        key = (job_id, step_id)
        if key in self.completed:
            raise InternalConsistencyError(f"step {key} completed twice")
        self.completed.add(key)
        if key in self.resident:
            self._drop(key)  # an open window's pending cloud handoff is cancelled
        elif key not in self.cloud_sticky:
            raise InternalConsistencyError(f"completion for unknown deployment {key}")

    # -- faults -------------------------------------------------------------------

    def handle_node_failure(self, node_id: int) -> ScheduleDecision:
        """Kill a node and re-place every step that lost replicas on it.

        Affected residents lose their whole plan and are re-placed most
        expensive first: surviving edge capacity if it fits, else the cloud
        (sticky). Reservations touching the dead node are re-planned the same
        way. No new evictions are triggered by failure handling.
        """
        if node_id < 0 or node_id >= len(self.capacities):
            raise ValidationError(f"unknown node {node_id}")
        if not self.alive[node_id]:
            raise ValidationError(f"node {node_id} already dead")
        decision = ScheduleDecision()

        # (-rcost, key, step), sorted as is: the keys are unique
        hit_residents = sorted((-rcost(plan.step, self.cost_params), k, plan.step)
                               for k, plan in self.resident.items() if node_id in plan.nodes)
        hit_reservations = sorted((-rcost(plan.step, self.cost_params), k, plan.step)
                                  for k, (plan, _) in self.reservations.items()
                                  if node_id in plan.nodes)
        was_evicting = {k for _, k, _ in hit_residents if k in self.evicting}
        for _, key, _ in hit_residents:
            self._drop(key)
        for _, key, _ in hit_reservations:
            self._unreserve(key)
        self.alive[node_id] = False
        self.edge_writes += 1
        cap = self.capacities[node_id]
        if (self._held[node_id] != [0, 0]
                or self._free[node_id] != [cap.cpu_millicores, cap.memory_mb]):
            raise InternalConsistencyError(f"dead node {node_id} still holds allocations")
        self._live_cpu -= cap.cpu_millicores
        self._live_mem -= cap.memory_mb
        self._free[node_id] = self._free_now[node_id] = self._free_after_evictions[node_id] = None

        starts: dict[tuple[int, int], int] = {}  # from here on, space is only taken
        for _, key, step in hit_residents + hit_reservations:
            # an evicting resident is already promised to the cloud: it goes
            # now, the window is moot
            if key in was_evicting or not self._try_deploy_edge_now(step, key, decision, starts):
                self._deploy_cloud_now(key, decision)
        return decision
