"""Round-based Cheapest-First scheduling over a finite edge cluster with an
unbounded pay-per-use cloud behind it.

Placement decisions happen at round boundaries. The most expensive pending
steps (by rcost) claim the edge first; a newcomer may evict strictly cheaper
residents, who get an eviction window to finish in-flight work before moving
to the cloud. Anything sent to the cloud stays there for its lifetime.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    ResourceVector,
    StepSpec,
    ValidationError,
    rcost,
)
from hcs_sim.placement import (
    NodeState,
    PlacementPlan,
    PlacementPolicy,
    apply_plan,
    release,
    try_place_free,
)

log = logging.getLogger(__name__)

DEFAULT_ROUND_LENGTH = 30.0
DEFAULT_EVICTION_DEADLINE = 30.0

StepKey = tuple[str, str]  # (job_id, step_id)


class SchedulerMode(str, Enum):
    CHEAPEST_FIRST = "cheapest_first"
    CLOUD_ONLY = "cloud_only"


@dataclass(frozen=True)
class DeployEdge:
    job_id: str
    step_id: str
    plan: PlacementPlan
    effective_time: float


@dataclass(frozen=True)
class DeployCloud:
    job_id: str
    step_id: str
    endpoint_label: str
    effective_time: float


@dataclass(frozen=True)
class Evict:
    job_id: str
    step_id: str
    expiry_time: float


Directive = DeployEdge | DeployCloud | Evict


@dataclass
class ScheduleDecision:
    round_time: float
    directives: list[Directive] = field(default_factory=list)


@dataclass
class _Request:
    job: BatchJob
    step: StepSpec
    arrival: float


def cloud_label(job_id: str, step_id: str) -> str:
    return f"cloud://{job_id}/{step_id}"


class HcsScheduler:
    """Owns edge capacity accounting and emits deployment directives.

    Time comes in from the caller; the scheduler never schedules its own
    events. Capacity is tracked three ways: `nodes[i].allocated` is what is
    physically held right now (including steps inside an eviction window),
    `_reserved` is capacity promised to steps that activate at an eviction
    expiry, and `evicting` marks residents whose space frees at that expiry.
    The settings are a Scenario's, which guarantees positive round and
    eviction lengths and at least one node in cheapest-first mode.
    """

    def __init__(self, nodes: list[NodeState], cost_params: CostParams | None = None,
                 policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
                 round_length: float = DEFAULT_ROUND_LENGTH,
                 eviction_deadline: float = DEFAULT_EVICTION_DEADLINE,
                 mode: SchedulerMode = SchedulerMode.CHEAPEST_FIRST):
        self.nodes = nodes
        self.cost_params = cost_params or CostParams()
        self.policy = policy
        self.round_length = round_length
        self.eviction_deadline = eviction_deadline
        self.mode = mode
        self.resident: dict[StepKey, PlacementPlan] = {}
        self.evicting: dict[StepKey, float] = {}
        self.reservations: dict[StepKey, tuple[PlacementPlan, float]] = {}
        self.cloud_sticky: set[StepKey] = set()
        self.cloud_active: set[StepKey] = set()
        self.completed: set[StepKey] = set()
        self.pending: list[_Request] = []
        self.rr_cursor = 0
        self._jobs: dict[str, BatchJob] = {}
        self._reserved: list[ResourceVector] = [ResourceVector() for _ in nodes]

    # -- capacity views -------------------------------------------------------

    def _free_now(self) -> list[tuple[int, int] | None]:
        """Capacity free right now and not promised to anyone.

        Reservations may be backed by space evicting steps still hold, so the
        raw difference can dip below zero; clamping keeps the view conservative
        (such space is simply not available until the window expires).
        """
        out: list[tuple[int, int] | None] = []
        for node, res in zip(self.nodes, self._reserved):
            if not node.alive:
                out.append(None)
                continue
            cpu = node.capacity.cpu_millicores - node.allocated.cpu_millicores - res.cpu_millicores
            mem = node.capacity.memory_mb - node.allocated.memory_mb - res.memory_mb
            out.append((max(0, cpu), max(0, mem)))
        return out

    def _evicting_loads(self) -> list[ResourceVector]:
        loads = [ResourceVector() for _ in self.nodes]
        for key in self.evicting:
            for node_id, load in self.resident[key].node_loads().items():
                loads[node_id] = loads[node_id] + load
        return loads

    def _free_after_evictions(self) -> list[tuple[int, int] | None]:
        """Capacity view once every pending eviction window has expired."""
        loads = self._evicting_loads()
        out: list[tuple[int, int] | None] = []
        for node, res, ev in zip(self.nodes, self._reserved, loads):
            if not node.alive:
                out.append(None)
                continue
            cpu = (node.capacity.cpu_millicores - node.allocated.cpu_millicores
                   - res.cpu_millicores + ev.cpu_millicores)
            mem = (node.capacity.memory_mb - node.allocated.memory_mb
                   - res.memory_mb + ev.memory_mb)
            out.append((max(0, cpu), max(0, mem)))
        return out

    def rcost_of(self, step: StepSpec) -> float:
        return rcost(step, self.cost_params)

    # -- request intake -------------------------------------------------------

    def submit_request(self, job: BatchJob, now: float) -> None:
        """Queue all steps of a job for the round that now falls in."""
        if job.job_id in self._jobs:
            raise ValidationError(f"duplicate job_id {job.job_id!r}")
        self._jobs[job.job_id] = job
        for step in job.dag.steps:
            self.pending.append(_Request(job, step, now))

    def next_round_at(self, now: float) -> float:
        """First round boundary at or after now; boundaries sit at k*round_length, k>=1."""
        if now <= 0:
            return self.round_length
        k = int(now / self.round_length)
        boundary = k * self.round_length
        if boundary < now:
            boundary = (k + 1) * self.round_length
        return max(boundary, self.round_length)

    # -- the round ------------------------------------------------------------

    def run_round(self, now: float) -> ScheduleDecision:
        """Resolve every pending request into exactly one deployment directive.

        Requests are visited in descending rcost order so already-resident
        steps are never evicted for a cheaper same-round peer. Rule order per
        request: sticky cloud, free edge capacity, eviction of strictly
        cheaper residents, cloud fallback.
        """
        decision = ScheduleDecision(now)
        requests = sorted(
            self.pending,
            key=lambda r: (-self.rcost_of(r.step), r.arrival, r.job.job_id, r.step.step_id))
        self.pending = []
        for req in requests:
            key = (req.job.job_id, req.step.step_id)
            if self.mode is SchedulerMode.CLOUD_ONLY or key in self.cloud_sticky:
                self._deploy_cloud_now(key, decision, now)
                continue
            if self._try_deploy_edge_now(req, key, decision, now):
                continue
            if self._try_deploy_with_eviction(req, key, decision, now):
                continue
            self._deploy_cloud_now(key, decision, now)
        self._check_capacity_books()
        return decision

    def _deploy_cloud_now(self, key: StepKey, decision: ScheduleDecision, now: float) -> None:
        self.cloud_sticky.add(key)
        self.cloud_active.add(key)
        decision.directives.append(DeployCloud(key[0], key[1], cloud_label(*key), now))

    def _try_deploy_edge_now(self, req: _Request, key: StepKey,
                             decision: ScheduleDecision, now: float) -> bool:
        plan, cursor = try_place_free(req.step, self._free_now(), self.policy, self.rr_cursor)
        if plan is None:
            return False
        apply_plan(plan, self.nodes)
        self.rr_cursor = cursor
        self.resident[key] = plan
        decision.directives.append(DeployEdge(key[0], key[1], plan, now))
        return True

    def _try_deploy_with_eviction(self, req: _Request, key: StepKey,
                                  decision: ScheduleDecision, now: float) -> bool:
        expiry = now + self.eviction_deadline
        newcomer_cost = self.rcost_of(req.step)
        base = self._free_after_evictions()
        plan, cursor = try_place_free(req.step, base, self.policy, self.rr_cursor)
        victims: list[StepKey] = []
        if plan is None:
            candidates = sorted(
                (k for k in self.resident
                 if k not in self.evicting and self.rcost_of(self.resident[k].step) < newcomer_cost),
                key=lambda k: (self.rcost_of(self.resident[k].step), k))
            freed = [list(f) if f is not None else None for f in base]
            for cand in candidates:
                victims.append(cand)
                for node_id, load in self.resident[cand].node_loads().items():
                    if freed[node_id] is not None:
                        freed[node_id][0] += load.cpu_millicores
                        freed[node_id][1] += load.memory_mb
                view = [tuple(f) if f is not None else None for f in freed]
                plan, cursor = try_place_free(req.step, view, self.policy, self.rr_cursor)
                if plan is not None:
                    break
            if plan is None:
                return False
        for vic in victims:
            self.evicting[vic] = expiry
            decision.directives.append(Evict(vic[0], vic[1], expiry))
            decision.directives.append(DeployCloud(vic[0], vic[1], cloud_label(*vic), expiry))
            log.debug("t=%s evict %s (rcost %.1f) for %s (rcost %.1f)", now, vic,
                      self.rcost_of(self.resident[vic].step), key, newcomer_cost)
        self.rr_cursor = cursor
        self.reservations[key] = (plan, expiry)
        for node_id, load in plan.node_loads().items():
            self._reserved[node_id] = self._reserved[node_id] + load
        decision.directives.append(DeployEdge(key[0], key[1], plan, expiry))
        return True

    # -- window lifecycle -------------------------------------------------------

    def expire_eviction(self, key: StepKey, expiry: float) -> bool:
        """Victim's window ending at expiry closed: free its edge space, pin it
        to the cloud. False if the step has no window ending then (it
        completed, a failure re-homed it, or its window is a later one)."""
        if self.evicting.get(key) != expiry:
            return False
        del self.evicting[key]
        release(self.resident.pop(key), self.nodes)
        self.cloud_sticky.add(key)
        self.cloud_active.add(key)
        return True

    def has_reservation(self, key: StepKey) -> bool:
        return key in self.reservations

    def activate_reservation(self, key: StepKey, now: float) -> PlacementPlan:
        """Turn a promised deploy-at-expiry plan into a live allocation."""
        if key not in self.reservations:
            raise InternalConsistencyError(f"no reservation for {key}")
        plan, expiry = self.reservations.pop(key)
        if now + 1e-12 < expiry:
            raise InternalConsistencyError(f"reservation for {key} activated before expiry")
        for node_id, load in plan.node_loads().items():
            self._reserved[node_id] = self._reserved[node_id] - load
        apply_plan(plan, self.nodes)
        self.resident[key] = plan
        self._check_capacity_books()
        return plan

    # -- completions ------------------------------------------------------------

    def complete_step(self, job_id: str, step_id: str, now: float) -> str:
        """All fragments of a step are journaled; release whatever it held.

        Returns the region the step was occupying ("edge" or "cloud") so the
        caller knows whether edge utilization changed.
        """
        key = (job_id, step_id)
        if key in self.completed:
            raise InternalConsistencyError(f"step {key} completed twice")
        self.completed.add(key)
        if key in self.resident:
            release(self.resident.pop(key), self.nodes)
            self.evicting.pop(key, None)  # cancels the pending cloud handoff
            return "edge"
        if key in self.cloud_active:
            self.cloud_active.remove(key)
            return "cloud"
        raise InternalConsistencyError(f"completion for unknown deployment {key}")

    # -- faults -------------------------------------------------------------------

    def handle_node_failure(self, node_id: int, now: float) -> ScheduleDecision:
        """Kill a node and re-place every step that lost replicas on it.

        Affected residents lose their whole plan and are re-placed most
        expensive first: surviving edge capacity if it fits, else the cloud
        (sticky). Reservations touching the dead node are re-planned the same
        way. No new evictions are triggered by failure handling.
        """
        if node_id < 0 or node_id >= len(self.nodes):
            raise ValidationError(f"unknown node {node_id}")
        node = self.nodes[node_id]
        if not node.alive:
            raise ValidationError(f"node {node_id} already dead")
        decision = ScheduleDecision(now)

        hit_residents = [k for k, plan in self.resident.items()
                         if node_id in plan.node_loads()]
        hit_reservations = [k for k, (plan, _) in self.reservations.items()
                            if node_id in plan.node_loads()]
        was_evicting: set[StepKey] = set()
        for key in hit_residents:
            release(self.resident.pop(key), self.nodes)
            if key in self.evicting:
                del self.evicting[key]
                was_evicting.add(key)
        for key in hit_reservations:
            plan, _ = self.reservations.pop(key)
            for nid, load in plan.node_loads().items():
                self._reserved[nid] = self._reserved[nid] - load
        node.alive = False
        if node.allocated != ResourceVector() or self._reserved[node_id] != ResourceVector():
            raise InternalConsistencyError(f"dead node {node_id} still holds allocations")

        def by_cost(k: StepKey):
            return (-self.rcost_of(self._jobs[k[0]].dag.step(k[1])), k)

        for key in sorted(hit_residents, key=by_cost):
            if key in was_evicting:
                # already promised to the cloud; go now, the window is moot
                self._deploy_cloud_now(key, decision, now)
            else:
                self._replace_or_offload(key, decision, now)
        for key in sorted(hit_reservations, key=by_cost):
            self._replace_or_offload(key, decision, now)
        self._check_capacity_books()
        return decision

    def _replace_or_offload(self, key: StepKey, decision: ScheduleDecision,
                            now: float) -> None:
        step = self._jobs[key[0]].dag.step(key[1])
        plan, cursor = try_place_free(step, self._free_now(), self.policy, self.rr_cursor)
        if plan is not None:
            apply_plan(plan, self.nodes)
            self.rr_cursor = cursor
            self.resident[key] = plan
            decision.directives.append(DeployEdge(key[0], key[1], plan, now))
        else:
            self._deploy_cloud_now(key, decision, now)

    # -- invariants -----------------------------------------------------------------

    def _check_capacity_books(self) -> None:
        """Physical and promised capacity must both respect node limits."""
        evicting_loads = self._evicting_loads()
        for node, res, ev in zip(self.nodes, self._reserved, evicting_loads):
            if not node.allocated.fits_within(node.capacity):
                raise InternalConsistencyError(f"node {node.node_id} physically over capacity")
            promised = node.allocated - ev + res
            if not promised.fits_within(node.capacity):
                raise InternalConsistencyError(
                    f"node {node.node_id} over capacity after pending evictions")
        overlap = set(self.resident) & self.cloud_sticky
        if overlap:
            raise InternalConsistencyError(f"steps both resident and cloud-sticky: {overlap}")
