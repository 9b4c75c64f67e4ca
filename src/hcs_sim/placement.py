"""Greedy replica placement policies over per-node free capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from hcs_sim.core_model import ResourceVector, StepSpec, ValidationError


class PlacementPolicy(str, Enum):
    FIRST_FIT = "ff"
    BEST_FIT = "bf"
    ROUND_ROBIN = "rr"
    WORST_FIT = "wf"


@dataclass
class PlacementPlan:
    """Committed outcome of a placement attempt: node id -> replicas placed
    there, in the order the nodes were chosen. Replicas are interchangeable,
    so the counts are the whole plan. Keyword-only, so a replica -> node
    dict cannot pass for one by position."""

    step: StepSpec
    nodes: dict[int, int] = field(kw_only=True)


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

    First fit walks the nodes from start and fills each node with room
    before it moves on: once a node's slots (see `replica_slots`) are used
    it no longer fits, and the nodes before it did not fit and only lost
    space, so this is the plan that placing one replica at a time on the
    lowest node with room would make. The caller guarantees that no node
    below start has room for one replica.

    Args:
        step: step whose replicas are being placed.
        free: per-node (cpu_millicores, memory_mb) still free; None marks a
            dead node. Read only: a caller may pass its live books.
        policy: greedy rule choosing a node per replica.
        rr_cursor: round-robin position; ignored by the other policies.
        start: first node first fit looks at; ignored by the other policies.

    Returns:
        (plan, new_cursor). plan is None when the replica set does not fit,
        in which case no capacity or cursor change escapes.
    """
    demand = step.demand_per_replica
    dc, dm = demand.cpu_millicores, demand.memory_mb
    if policy is PlacementPolicy.FIRST_FIT:
        nodes: dict[int, int] = {}
        placed, replicas = 0, step.replicas
        for i in range(start, len(free)):
            f = free[i]
            if f is not None and f[0] >= dc and f[1] >= dm:
                take = nodes[i] = min(replica_slots(f, demand), replicas - placed)
                placed += take
                if placed == replicas:
                    return PlacementPlan(step, nodes=nodes), rr_cursor
        return None, rr_cursor
    remaining = free  # the caller's list, copied before the first write
    n = len(remaining)
    if n == 0:
        return None, rr_cursor
    nodes = {}
    cursor = rr_cursor % n

    for _ in range(step.replicas):
        chosen = -1
        if policy is PlacementPolicy.BEST_FIT:
            best = None
            for i, f in enumerate(remaining):
                if f is None or f[0] < dc or f[1] < dm:
                    continue
                key = (f[0], f[1], i)  # least remaining cpu, then memory, then index
                if best is None or key < best:
                    best = key
                    chosen = i
        elif policy is PlacementPolicy.WORST_FIT:
            best = None
            for i, f in enumerate(remaining):
                if f is None or f[0] < dc or f[1] < dm:
                    continue
                key = (-f[0], -f[1], i)  # most remaining cpu, then memory, then index
                if best is None or key < best:
                    best = key
                    chosen = i
        elif policy is PlacementPolicy.ROUND_ROBIN:
            for off in range(n):
                i = (cursor + off) % n
                f = remaining[i]
                if f is not None and f[0] >= dc and f[1] >= dm:
                    chosen = i
                    cursor = (i + 1) % n
                    break
        else:
            raise ValidationError(f"unknown policy {policy!r}")
        if chosen < 0:
            return None, rr_cursor
        nodes[chosen] = nodes.get(chosen, 0) + 1
        if remaining is free:
            remaining = list(free)
        f = remaining[chosen]
        remaining[chosen] = (f[0] - dc, f[1] - dm)

    new_cursor = cursor if policy is PlacementPolicy.ROUND_ROBIN else rr_cursor
    return PlacementPlan(step, nodes=nodes), new_cursor

