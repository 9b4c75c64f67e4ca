"""Greedy replica placement policies over per-node free capacity."""

from __future__ import annotations

import math
from enum import Enum

from hcs_sim.core_model import Record, ResourceVector, StepSpec, ValidationError


class PlacementPolicy(str, Enum):
    FIRST_FIT = "ff"
    BEST_FIT = "bf"
    ROUND_ROBIN = "rr"
    WORST_FIT = "wf"


class PlacementPlan(Record):
    """Committed outcome of a placement attempt: node id -> replicas placed
    there, in the order the nodes were chosen. Replicas are interchangeable,
    so the counts are the whole plan. Keyword-only, so a replica -> node
    dict cannot pass for one by position."""

    __slots__ = ("step", "nodes")

    def __init__(self, step: StepSpec, *, nodes: dict[int, int]):
        self.step = step
        self.nodes = nodes


def replica_slots(free: tuple[int, int] | None, demand: ResourceVector) -> float:
    """How many replicas of demand fit in one node's free (cpu, memory).

    A dimension with zero demand is unbounded, and a dead node (None) has no
    slot. Every policy of try_place_free puts each replica on some node with
    a slot left, and a replica takes exactly one slot of its node, so a
    replica set is placed exactly when its nodes' slots sum to its replica
    count or more.
    """
    if free is None:
        return 0
    cpu, mem = demand.cpu_millicores, demand.memory_mb
    if cpu:
        return min(free[0] // cpu, free[1] // mem) if mem else free[0] // cpu
    return free[1] // mem if mem else math.inf


def try_place_free(step: StepSpec, free: list[tuple[int, int] | None],
                   policy: PlacementPolicy, rr_cursor: int = 0, start: int = 0,
                   ) -> tuple[PlacementPlan | None, int]:
    """Plan a full replica set against per-node free capacity, all-or-nothing.

    Every policy makes the plan that placing one replica at a time by its
    rule would make. First fit and best fit fill each node with room before
    they move on, taking its slots (see `replica_slots`): first fit walks the
    nodes in index order from start, best fit the live nodes in ascending
    (free cpu, free memory, index) order. A replica only lowers its node's
    key and the other nodes keep theirs, so the tightest node with room stays
    the tightest until its slots are used. Worst fit (most free cpu, then
    memory, then the lowest index) and round robin (the first node with room
    from the cursor on, wrapping) spread the replicas, one per pick.

    Args:
        step: step whose replicas are being placed.
        free: per-node (cpu_millicores, memory_mb) still free; None marks a
            dead node. Read only: a caller may pass its live books.
        policy: greedy rule choosing a node per replica.
        rr_cursor: round-robin position; ignored by the other policies.
        start: first node first fit looks at; ignored by the other policies.
            The caller guarantees that no node below it has room for one
            replica.

    Returns:
        (plan, new_cursor). plan is None when the replica set does not fit,
        in which case no capacity or cursor change escapes.
    """
    demand = step.demand_per_replica
    dc, dm = demand.cpu_millicores, demand.memory_mb
    nodes: dict[int, int] = {}
    if policy is PlacementPolicy.FIRST_FIT or policy is PlacementPolicy.BEST_FIT:
        if policy is PlacementPolicy.FIRST_FIT:
            order = range(start, len(free))
        else:
            # a stable sort: nodes with equal free capacity stay in index order
            order = sorted((i for i, f in enumerate(free) if f is not None), key=free.__getitem__)
        placed, replicas = 0, step.replicas
        for i in order:
            f = free[i]
            if f is not None and f[0] >= dc and f[1] >= dm:
                take = nodes[i] = min(replica_slots(f, demand), replicas - placed)
                placed += take
                if placed == replicas:
                    return PlacementPlan(step, nodes=nodes), rr_cursor
        return None, rr_cursor
    remaining, cursor = list(free), rr_cursor
    for _ in range(step.replicas):
        room = [i for i, f in enumerate(remaining) if f is not None and f[0] >= dc and f[1] >= dm]
        if not room:
            return None, rr_cursor
        if policy is PlacementPolicy.WORST_FIT:
            i = max(room, key=remaining.__getitem__)  # the first of equals: the lowest index
        elif policy is PlacementPolicy.ROUND_ROBIN:
            i = next((i for i in room if i >= cursor % len(free)), room[0])
            cursor = (i + 1) % len(free)
        else:
            raise ValidationError(f"unknown policy {policy!r}")
        nodes[i] = nodes.get(i, 0) + 1
        f = remaining[i]
        remaining[i] = (f[0] - dc, f[1] - dm)
    return PlacementPlan(step, nodes=nodes), cursor
