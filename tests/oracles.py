"""Brute-force reference models and probes used only by tests.

Deliberately written with a different structure from the package under test:
a scan-everything time-stepping loop over explicit worker slots, no event
queue, no epochs, no eviction handling. Slow but obviously correct. Next to
it, the per-fragment engine the package used before per-step schedules: one
event per fragment completion, the differential oracle for the fast engine,
which also checks the prefix law the driver's per-step counts rest on and
stores the step lifecycle the driver derives; that derivation, from the
driver's counts; a view that expands those counts into fragment ids; the
driver's commit before plans were kept, which walks the schedule again,
over fragment ids, instead of cutting the stored plan; the driver's restart before it only requeued
in-flight work, which rebuilds every queue from the journals; the per-cell
report writer, with random tables to check the report writer against it; the
placement before first fit started from a per-shape bound, which places one
replica at a time, first fit scanning from node 0 for each, with random free
views to check the package's placement against it; the recompute of the
scheduler's capacity books from scratch, and the engine that runs it after
every instant and checks each first-fit start where it is used and each
plan a projection memo serves against a walk of its own; a run
that also returns its per-job drivers, for the exactly-once tests; the graph
lookups PipelineDag no longer offers, read off its steps and edges; and the
scheduler before incremental capacity books, the differential oracle for the
scheduler, with the per-node allocation account it kept before the
scheduler's books owned edge allocation. Last, the loader's fault list read
one object at a time through its diagnostic path alone, the reference for
the objects `cli._built` builds.
"""

from __future__ import annotations

import csv
import heapq
import random
import tempfile
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from hcs_sim import cli, hcs_scheduler, placement
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    ResourceVector,
    StepSpec,
    ValidationError,
    dag_violations,
    rcost,
    require,
)
from hcs_sim.hcs_scheduler import (
    DEFAULT_EVICTION_DEADLINE,
    DeployCloud,
    DeployEdge,
    Evict,
    HcsScheduler,
    ScheduleDecision,
    SchedulerMode,
)
from hcs_sim.metrics import JobOutcome, _fmt, _write_csv
from hcs_sim.pipeline_driver import PipelineDriver, _Run, _StepRuntime
from hcs_sim.placement import PlacementPlan, PlacementPolicy
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


# -- graph lookups that read a PipelineDag's steps and edges only ---------------


def step_spec(dag, step_id):
    """The step named step_id, by a scan over the steps."""
    for s in dag.steps:
        if s.step_id == step_id:
            return s
    raise KeyError(step_id)


def predecessors(dag, step_id):
    return [a for a, b in dag.edges if b == step_id]


def successors(dag, step_id):
    return [b for a, b in dag.edges if a == step_id]


def source_ids(dag):
    return [s.step_id for s in dag.steps if not predecessors(dag, s.step_id)]


def dag_index(dag):
    """(order, predecessors_by_step, terminal_ids) as PipelineDag derived
    them before its one pass over the edges: a scan of the edges per step,
    then Kahn's walk over those scans."""
    preds = {s.step_id: tuple(predecessors(dag, s.step_id)) for s in dag.steps}
    terminals = tuple(s.step_id for s in dag.steps if not successors(dag, s.step_id))
    indeg = {sid: len(p) for sid, p in preds.items()}
    order = [sid for sid, d in indeg.items() if d == 0]
    for sid in order:
        for nxt in successors(dag, sid):
            if nxt in indeg:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    order.append(nxt)
    return tuple(order), preds, terminals


def topological_order(dag):
    """Stable topological order of step ids; raises ValidationError on a cyclic graph."""
    problems = dag_violations(dag)
    if problems:
        raise ValidationError("; ".join(problems))
    return list(dag.order)


def vec_add(a, b):
    return ResourceVector(a.cpu_millicores + b.cpu_millicores, a.memory_mb + b.memory_mb)


def vec_sub(a, b):
    """a - b; a negative dimension is a ValidationError."""
    cpu, mem = a.cpu_millicores - b.cpu_millicores, a.memory_mb - b.memory_mb
    require((cpu >= 0, "cpu_millicores: must be >= 0"), (mem >= 0, "memory_mb: must be >= 0"))
    return ResourceVector(cpu, mem)


def fits_within(a, b):
    return a.cpu_millicores <= b.cpu_millicores and a.memory_mb <= b.memory_mb


@dataclass
class NodeState:
    """Mutable capacity account for one edge node."""

    node_id: int
    capacity: ResourceVector
    allocated: ResourceVector = field(default_factory=ResourceVector)
    alive: bool = True


def node_loads(plan):
    """Demand a plan puts on each node it touches."""
    loads = {}
    d = plan.step.demand_per_replica
    for node_id, count in plan.nodes.items():
        for _ in range(count):
            loads[node_id] = vec_add(loads.get(node_id, ResourceVector()), d)
    return loads


def apply_plan(plan, nodes):
    """Commit a plan's allocations. Capacity overrun means the planner is broken."""
    for node_id, load in node_loads(plan).items():
        node = nodes[node_id]
        if not node.alive:
            raise InternalConsistencyError(f"plan assigns replicas to dead node {node_id}")
        new_alloc = vec_add(node.allocated, load)
        if not fits_within(new_alloc, node.capacity):
            raise InternalConsistencyError(
                f"node {node_id} over capacity: {new_alloc} > {node.capacity}")
        node.allocated = new_alloc


def release(plan, nodes):
    """Return a plan's allocations. Releasing more than held means double release."""
    for node_id, load in node_loads(plan).items():
        node = nodes[node_id]
        if not fits_within(load, node.allocated):
            raise InternalConsistencyError(
                f"release of unheld allocation on node {node_id}: {load} > {node.allocated}")
        node.allocated = vec_sub(node.allocated, load)


def free_of(node):
    """What a node has left: capacity minus allocation."""
    return vec_sub(node.capacity, node.allocated)


def total_cost(step, params, deployed_time):
    """Cloud cost of a deployment held for deployed_time seconds."""
    if deployed_time < 0:
        raise ValidationError("deployed_time must be >= 0")
    return rcost(step, params) * deployed_time


def try_place_free(step: StepSpec, free: list[tuple[int, int] | None],
                   policy: PlacementPolicy, rr_cursor: int = 0,
                   ) -> tuple[PlacementPlan | None, int]:
    """Plan a full replica set against per-node free capacity, all-or-nothing.

    Args:
        step: step whose replicas are being placed.
        free: per-node (cpu_millicores, memory_mb) still free; None marks a
            dead node. Read only: a caller may pass its live books.
        policy: greedy rule choosing a node per replica.
        rr_cursor: round-robin position; ignored by the other policies.

    Returns:
        (plan, new_cursor). plan is None when the replica set does not fit,
        in which case no capacity or cursor change escapes.
    """
    dc, dm = step.demand_per_replica.cpu_millicores, step.demand_per_replica.memory_mb
    remaining = free  # the caller's list, copied before the first write
    n = len(remaining)
    if n == 0:
        return None, rr_cursor
    chosen_nodes: list[int] = []
    cursor = rr_cursor % n

    for _ in range(step.replicas):
        chosen = -1
        if policy is PlacementPolicy.FIRST_FIT:
            for i, f in enumerate(remaining):
                if f is not None and f[0] >= dc and f[1] >= dm:
                    chosen = i
                    break
        elif policy is PlacementPolicy.BEST_FIT:
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
        chosen_nodes.append(chosen)
        if remaining is free:
            remaining = list(free)
        f = remaining[chosen]
        remaining[chosen] = (f[0] - dc, f[1] - dm)

    new_cursor = cursor if policy is PlacementPolicy.ROUND_ROBIN else rr_cursor
    return PlacementPlan(step, nodes=dict(Counter(chosen_nodes))), new_cursor


def try_place(step, nodes, policy, rr_cursor=0):
    """Plan against live node state without mutating it."""
    free = [(free_of(n).cpu_millicores, free_of(n).memory_mb) if n.alive else None
            for n in nodes]
    return try_place_free(step, free, policy, rr_cursor)


def random_placement(rng: random.Random):
    """A step and a free view of 0-8 nodes as the scheduler passes them: dead
    nodes, dimensions clamped to zero, and few enough distinct values that
    nodes tie on free capacity."""
    dims = rng.choice([(0, 250, 500, 1000), tuple(range(0, 6001, 250))])
    free = [None if rng.random() < 0.2 else (rng.choice(dims), rng.choice(dims))
            for _ in range(rng.randint(0, 8))]
    demand = ResourceVector(rng.choice([0, 1, 250, 1000, 2500]), rng.choice([0, 1, 250, 1000]))
    return StepSpec("s", demand, rng.randint(1, 4), 1.0), free


def placement_mismatches(seeds) -> list[int]:
    """The seeds whose random_placement the package places other than the
    one-replica-at-a-time try_place_free above does: another plan, node
    order or cursor, for any policy and any round-robin cursor 0-9, and for
    first fit from any start up to the first node with room."""
    bad = []
    for seed in seeds:
        rng = random.Random(seed)
        step, free = random_placement(rng)
        cursor = rng.randint(0, 9)
        dc, dm = step.demand_per_replica.cpu_millicores, step.demand_per_replica.memory_mb
        first_room = next((i for i, f in enumerate(free)
                           if f is not None and f[0] >= dc and f[1] >= dm), len(free))
        tries = [(policy, 0) for policy in PlacementPolicy]
        tries += [(PlacementPolicy.FIRST_FIT, start) for start in range(1, first_room + 1)]
        for policy, start in tries:
            got = placement.try_place_free(step, free, policy, cursor, start)
            want = try_place_free(step, free, policy, cursor)
            if plan_items(got) != plan_items(want):
                bad.append(seed)
                break
    return bad


def plan_items(placed):
    """(plan, cursor) with the plan as its (node, replicas) list, in order."""
    plan, cursor = placed
    return (None if plan is None else (plan.step, list(plan.nodes.items()))), cursor


def oracle_feasible(step, nodes, max_replicas=12, max_nodes=6):
    """Exhaustive feasibility check for one replica set.

    Searches every way to split the replica count across nodes (replicas are
    interchangeable, so plans are multisets of node choices). Refuses
    instances larger than the stated bounds rather than run forever.
    """
    alive = [n for n in nodes if n.alive]
    if step.replicas > max_replicas or len(alive) > max_nodes:
        raise ValidationError(
            f"oracle limited to {max_replicas} replicas over {max_nodes} nodes")
    d = step.demand_per_replica
    caps = []
    for n in alive:
        free = free_of(n)
        per_dim = []
        if d.cpu_millicores > 0:
            per_dim.append(free.cpu_millicores // d.cpu_millicores)
        if d.memory_mb > 0:
            per_dim.append(free.memory_mb // d.memory_mb)
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

    Yields a Counter keyed by (job_id, step_id, fragment). It counts the
    indices handed to the journal's only writer, range(done, done + count),
    independently of the journal, so exactly-once checks do not rely on the
    bookkeeping they verify.
    """
    counts = Counter()
    real = PipelineDriver._journal

    def counting(self, rt, count):
        for f in range(rt.done, rt.done + count):
            counts[(self.job.job_id, rt.spec.step_id, f)] += 1
        return real(self, rt, count)

    PipelineDriver._journal = counting
    try:
        yield counts
    finally:
        PipelineDriver._journal = real


def prefix_law_breach(journal, in_flight, ready):
    """How a step's fragments break the law PipelineDriver keeps them by, or
    None: the journal is 0..k-1, the in-flight fragments are the next i
    indices with non-decreasing finish times, and the ready queue holds the
    r indices after those, in order."""
    k, i = len(journal), len(in_flight)
    if journal != set(range(k)):
        return "journal is not a prefix"
    if sorted(in_flight) != list(range(k, k + i)):
        return "in-flight fragments do not follow the journal"
    fins = [in_flight[f] for f in range(k, k + i)]
    if fins != sorted(fins):
        return "in-flight finish times decrease"
    if list(ready) != list(range(k + i, k + i + len(ready))):
        return "ready queue does not follow the in-flight fragments"
    return None


def fragment_view(drv):
    """A PipelineDriver's per-step counts expanded into fragment ids:
    {step: (journal set, {fragment: finish}, ready list)}."""
    view = {}
    for sid, rt in drv.steps.items():
        k, i = rt.done, len(rt.flight)
        view[sid] = (set(range(k)), dict(zip(range(k, k + i), rt.flight)),
                     list(range(k + i, k + i + rt.ready)))
    return view


# -- the re-walking commit -------------------------------------------------------


def _fifo_until(times, busy, free, t0, duration, cut):
    """Finish times of the queued fragments that start by cut, one dispatch
    at a time through a heap of worker free times."""
    workers = busy + [t0] * free
    heapq.heapify(workers)
    fins = []
    for ready in times:
        start = max(ready, workers[0])
        if start > cut:
            break
        heapq.heapreplace(workers, start + duration)
        fins.append(start + duration)
    return fins


def _rewalk_arrivals(drv, view, sid, t0, done, finished):
    """Fragments a walk up to its cut makes ready at a step: (ready times,
    fragments, whether a barrier releases)."""
    preds = drv._preds[sid]
    if drv.steps[sid].spec.feed_forward:
        if len(preds) == 1:
            return (*done[preds[0]], False)
        ready = {}
        for p in preds:
            for fin, f in zip(*done[p]):
                if fin > ready.get(f, t0):
                    ready[f] = fin
        planned = [(set(done[p][1]), view[p][0]) for p in preds]
        order = sorted((t, f) for f, t in ready.items()
                       if all(f in now or f in before for now, before in planned))
        return [t for t, _ in order], [f for _, f in order], False
    if not all(p in finished or drv.steps[p].done == drv.m for p in preds):
        return [], [], False
    when = max(finished[p] for p in preds if p in finished)
    frags = [f for f in range(drv.m) if f not in view[sid][0]]
    return [when] * len(frags), frags, True


def rewalk_commit(drv, t0, cut):
    """PipelineDriver.commit as it was before plans were kept and before
    steps kept counts: drop the plan projected at t0 and walk every step's
    schedule again from the committed state, expanded into fragment ids, up
    to cut, moving the durable state along it; the ids it leaves must obey
    the prefix law to be written back as counts. Which barriers were released
    is read before the walk, which journals their predecessors as it goes."""
    drv._plan = None
    view = fragment_view(drv)
    done = {}
    finished = {}
    was_released = {sid: all(drv.steps[p].done == drv.m for p in drv._preds[sid])
                    for sid in drv.topo}
    for sid in drv.topo:
        rt = drv.steps[sid]
        if rt.done == drv.m:
            done[sid] = ([], [])
            continue
        journal, in_flight, queue = view[sid]
        frags = list(queue)
        times = [t0] * len(frags)
        released = False
        if drv._preds[sid] and (rt.spec.feed_forward or not was_released[sid]):
            a_times, a_frags, released = _rewalk_arrivals(drv, view, sid, t0, done, finished)
            times += a_times
            frags += a_frags
        flight = sorted((fin, f) for f, fin in in_flight.items())
        landed = [(fin, f) for fin, f in flight if fin <= cut]
        fins = [fin for fin, _ in landed]
        out = [f for _, f in landed]
        new_fins = []
        if (frags and rt.region is not None and rt.pending_switch is None
                and (rt.spec.feed_forward or was_released[sid] or released)):
            new_fins = _fifo_until(times, [fin for fin, _ in flight], rt.pool - len(flight),
                                   t0, rt.service, cut)
        n_started = len(new_fins)
        n_landed = sum(1 for fin in new_fins if fin <= cut)
        fins += new_fins[:n_landed]
        out += frags[:n_landed]
        done[sid] = (fins, out)
        if len(journal) + len(out) == drv.m:
            finished[sid] = fins[-1]
        if journal & set(out) or len(set(out)) != len(out):
            raise InternalConsistencyError(f"fragment journaled twice at step {sid}")
        journal |= set(out)
        in_flight = {f: fin for f, fin in in_flight.items() if fin > cut}
        in_flight.update(zip(frags[n_landed:n_started], new_fins[n_landed:]))
        queue = frags[n_started:]
        breach = prefix_law_breach(journal, in_flight, queue)
        if breach:
            raise AssertionError(f"step {sid} after the walk: {breach}")
        if out:
            drv._journal(rt, len(out))
        rt.flight = [in_flight[f] for f in sorted(in_flight)]
        rt.ready = len(queue)
        if len(journal) == drv.m:
            if in_flight or queue:
                raise InternalConsistencyError(f"step {sid} complete with work left")
            rt.pending_switch = None


def rebuild_from_journal(drv, now):
    """PipelineDriver.resume_from_journal as it was before a restart only
    requeued in-flight work: commit, then rebuild every step's ready queue
    from its own and its predecessors' journals and start what it can."""
    drv.commit(now)
    for sid in drv.topo:
        rt = drv.steps[sid]
        rt.flight = []
        upstream = [drv.steps[p].done for p in drv._preds[sid]]
        if all(n == drv.m for n in upstream):
            rt.ready = drv.m - rt.done
        elif rt.spec.feed_forward:
            # journaled at every predecessor and not here
            rt.ready = len(range(rt.done, min(upstream)))
        else:
            rt.ready = 0
        drv._requeue(rt, now)  # requeues nothing: flight is empty


# -- the step lifecycle -------------------------------------------------------------


class StepState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    WAITING = "waiting"
    COMPLETED = "completed"


def step_state(drv, sid):
    """A PipelineDriver step's lifecycle, derived from the counts as the
    driver's module docstring states it."""
    rt = drv.steps[sid]
    if rt.done == drv.m:
        return StepState.COMPLETED
    if rt.region is None:
        return StepState.PENDING
    if rt.spec.feed_forward or all(drv.steps[p].done == drv.m for p in drv._preds[sid]):
        return StepState.RUNNING
    return StepState.WAITING


# -- the per-cell report writer ---------------------------------------------------


def write_csv_per_cell(path, header, rows):
    """metrics._write_csv as it was: every cell through metrics._fmt."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_LETTERS = "abcxyz"
_CHARS = ',"\r\n é' + _LETTERS  # every character csv may quote, and some it need not
_FLOATS = (-0.0, 0.0, 1e300, -1e300, 1e-10, 0.1, 123456789.5, 2.0 ** 53)
_CELLS = {
    "str": lambda rng: "".join(rng.choices(rng.choice([_CHARS, _LETTERS]), k=rng.randint(0, 5))),
    "float": lambda rng: rng.choice([rng.choice(_FLOATS), rng.uniform(-1e6, 1e6),
                                     rng.random() * 10.0 ** rng.randint(-12, 12)]),
    "int": lambda rng: rng.randint(-10 ** 6, 10 ** 6),
    "big": lambda rng: rng.randint(10 ** 10, 10 ** 20),
    "bool": lambda rng: rng.random() < 0.5,
    "none": lambda rng: None,
}
# a column draws each cell from one of its kinds
_COLUMNS = [("str",), ("float",), ("int",), ("big",), ("bool",), ("none",),
            ("big", "float"), ("int", "bool"), ("str", "none"), tuple(_CELLS)]


def random_table(rng: random.Random) -> tuple[list[str], list[tuple]]:
    """A header and rows of 2-6 columns and 0-12 rows; each column takes its
    cells from a random entry of _COLUMNS, so it may hold only floats, ints or
    strs, ints of 10**10 and up among floats, or any mix with bools and None."""
    kinds = [rng.choice(_COLUMNS) for _ in range(rng.randint(2, 6))]
    rows = [tuple(_CELLS[rng.choice(k)](rng) for k in kinds) for _ in range(rng.randint(0, 12))]
    return [f"c{i}" for i in range(len(kinds))], rows


def writer_mismatches(seeds) -> list[int]:
    """The seeds whose random_table metrics._write_csv writes other than the
    per-cell writer does, on the running interpreter's csv module."""
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        columns, cells = Path(tmp, "columns.csv"), Path(tmp, "cells.csv")
        for seed in seeds:
            header, rows = random_table(random.Random(seed))
            _write_csv(columns, header, rows)
            write_csv_per_cell(cells, header, rows)
            if columns.read_bytes() != cells.read_bytes():
                bad.append(seed)
    return bad


# -- the scheduler's books, recomputed from scratch ------------------------------


def add_load(book, plan):
    """Add a plan's load to a per-node book."""
    d = plan.step.demand_per_replica
    for node_id, k in plan.nodes.items():
        book[node_id][0] += k * d.cpu_millicores
        book[node_id][1] += k * d.memory_mb


def _clamped(book, extra=(0, 0)):
    """A book entry plus extra, each dimension at least 0 (None stays None)."""
    if book is None:
        return None
    return (max(book[0] + extra[0], 0), max(book[1] + extra[1], 0))


def edge_usage_walk(sched: HcsScheduler) -> tuple[int, int, int, int]:
    """What HcsScheduler.edge_usage sums, walked over the nodes: the held
    load and the capacity of every alive node."""
    cpu = cpu_cap = mem = mem_cap = 0
    for alive, (c, m), cap in zip(sched.alive, sched._held, sched.capacities):
        if alive:
            cpu += c
            cpu_cap += cap.cpu_millicores
            mem += m
            mem_cap += cap.memory_mb
    return cpu, cpu_cap, mem, mem_cap


def check_books(sched: HcsScheduler) -> None:
    """Recompute every HcsScheduler book from the residents, the eviction
    windows and the reservations, and raise InternalConsistencyError where
    one differs: physical and promised capacity both respect node limits, a
    dead node holds nothing, `_held`, `_free`, `_free_now` and
    `_free_after_evictions` equal their recompute, `_victims` lists the
    residents outside a window in (rcost, key) order, `edge_usage()` equals
    its walk over the nodes (edge_usage_walk), and no resident is
    cloud-sticky. The first-fit starts live only inside a round or a node
    failure, so they are checked where they are used
    (check_first_fit_start)."""
    held = [[0, 0] for _ in sched.capacities]
    reserved = [[0, 0] for _ in sched.capacities]
    evicting = [[0, 0] for _ in sched.capacities]
    for plan in sched.resident.values():
        add_load(held, plan)
    for plan, _ in sched.reservations.values():
        add_load(reserved, plan)
    for key in sched.evicting:
        add_load(evicting, sched.resident[key])
    free = []
    for node_id, (cap, alive, h, res, ev) in enumerate(
            zip(sched.capacities, sched.alive, held, reserved, evicting)):
        f = [cap.cpu_millicores - h[0], cap.memory_mb - h[1]]
        if f[0] < 0 or f[1] < 0:
            raise InternalConsistencyError(f"node {node_id} physically over capacity")
        if not alive and h != [0, 0]:
            raise InternalConsistencyError(f"dead node {node_id} holds allocations")
        f[0] -= res[0]
        f[1] -= res[1]
        if f[0] + ev[0] < 0 or f[1] + ev[1] < 0:
            raise InternalConsistencyError(
                f"node {node_id} over capacity after pending evictions")
        free.append(f if alive else None)
    if (held != sched._held or free != sched._free
            or list(map(_clamped, free)) != sched._free_now
            or list(map(_clamped, free, evicting)) != sched._free_after_evictions):
        raise InternalConsistencyError("capacity books differ from their recompute")
    victims = sorted((rcost(plan.step, sched.cost_params), key)
                     for key, plan in sched.resident.items()
                     if key not in sched.evicting)
    if victims != sched._victims:
        raise InternalConsistencyError("eviction candidate order drifted")
    if sched.edge_usage() != edge_usage_walk(sched):
        raise InternalConsistencyError("edge usage sums differ from the walk over the nodes")
    overlap = set(sched.resident) & sched.cloud_sticky
    if overlap:
        raise InternalConsistencyError(f"steps both resident and cloud-sticky: {overlap}")


def run_detailed(scenario, arrivals=None):
    """Like hcs_sim.run, but also returns the final per-job drivers so tests
    can inspect each step's journal count (exactly-once verification)."""
    if arrivals is None:
        arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    engine = _Engine(scenario, arrivals)
    return engine.run(), engine.drivers


def check_first_fit_start(step, free, start) -> None:
    """Raise InternalConsistencyError if a live node below a first-fit start
    has room for one replica of step in the free view the plan reads; first
    fit from start would then place other than first fit from node 0."""
    d = step.demand_per_replica
    for node_id, f in enumerate(free[:start]):
        if f is not None and f[0] >= d.cpu_millicores and f[1] >= d.memory_mb:
            raise InternalConsistencyError(
                f"node {node_id} has room for {d} below first-fit start {start}")


def clone_driver(drv):
    """A copy of a driver whose commit leaves the original as it was: a step
    holds scalars and a finish-time list the driver only ever replaces, and
    the plan, which names its steps, is read-only."""
    c = object.__new__(PipelineDriver)
    c.__dict__.update(drv.__dict__)
    c.steps = {}
    for sid, rt in drv.steps.items():
        c.steps[sid] = copy = object.__new__(_StepRuntime)
        for name in _StepRuntime.__slots__:
            setattr(copy, name, getattr(rt, name))
    return c


def plan_view(drv):
    """A driver's plan with each run as its (first, step, n), so two plans
    compare by value."""
    def times(t):
        return ("run", t.first, t.step, t.n) if type(t) is _Run else list(t)

    return [(sid, n_ready, times(a_times), times(fins), free)
            for sid, n_ready, a_times, fins, free in drv._plan]


class CheckedDriver(PipelineDriver):
    """The package's driver, noting whether its last projection walked the
    plan or a projection memo served it, and the completions it returned."""

    walked = False

    def project(self, now, memo=None):
        self.walked = False
        self.completions = super().project(now, memo)
        return self.completions

    def _follow(self, t0):
        self.walked = True
        return super()._follow(t0)


def check_served_projection(drv, now) -> None:
    """Raise InternalConsistencyError unless the completions and the plan a
    projection memo served drv at now are the ones _follow walks from a
    copy of drv's state."""
    fresh = clone_driver(drv)
    fresh._plan = None
    completions = list(PipelineDriver._follow(fresh, now).items())
    if drv.completions != completions or plan_view(drv) != plan_view(fresh):
        raise InternalConsistencyError(
            f"job {drv.job.job_id}: the plan served at {now} is not the one walked")


def check_driver_state(drv) -> None:
    """Raise InternalConsistencyError unless drv's completion count agrees
    with a walk of its terminal steps' journals, and each deployed step's
    service time is its spec's over its region's speed."""
    walked = all(drv.steps[t].done == drv.m for t in drv.terminal_ids)
    if drv.is_complete() != walked:
        raise InternalConsistencyError(
            f"job {drv.job.job_id}: is_complete() is {drv.is_complete()}, "
            f"its journal says {walked}")
    for sid, rt in drv.steps.items():
        if rt.region is None:
            continue
        speed = drv.edge_speed if rt.region == "edge" else drv.cloud_speed
        if rt.service != rt.spec.service_time_per_fragment / speed:
            raise InternalConsistencyError(
                f"job {drv.job.job_id} step {sid}: service time {rt.service} in the "
                f"{rt.region}, not {rt.spec.service_time_per_fragment} / {speed}")


def count_round_tries(sched: HcsScheduler, counts: Counter) -> None:
    """Wrap sched's run_round and its two tries so that counts sums, over its
    cheapest-first rounds, the free-room tries ("room"), the eviction tries
    ("evict") and the tries the no_room and no_victims memos skipped
    ("room_skips", "victim_skips"). A request tries free room unless no_room
    holds its shape, and one that free room did not place tries eviction
    unless no_victims does. A node failure's re-placements are not counted."""
    real_round, real_room = sched.run_round, sched._try_deploy_edge_now
    real_evict = sched._try_deploy_with_eviction
    tries = Counter()  # the current round's

    def room(*args):
        placed = real_room(*args)
        tries["room"] += 1
        tries["placed"] += placed
        return placed

    def evict(*args):
        tries["evict"] += 1
        return real_evict(*args)

    def round_(now):
        tries.clear()
        requests = len(sched.pending)
        decision = real_round(now)
        if sched.mode is SchedulerMode.CHEAPEST_FIRST:
            counts["room"] += tries["room"]
            counts["evict"] += tries["evict"]
            counts["room_skips"] += requests - tries["room"]
            counts["victim_skips"] += requests - tries["placed"] - tries["evict"]
        return decision

    sched.run_round, sched._try_deploy_edge_now = round_, room
    sched._try_deploy_with_eviction = evict


class CheckedEngine(_Engine):
    """The package's engine, with the scheduler's books recomputed from
    scratch (check_books) after every instant, every first-fit plan that
    starts past node 0 checked as it is made (check_first_fit_start), every
    plan a projection memo serves checked after its instant
    (check_served_projection), and every driver an instant touched, by an
    interruption or a live completion, checked after it
    (check_driver_state). bounded_first_fits, served_projections and
    completion_checks count those checks, so a caller sees that they ran;
    round_tries counts the rounds' tries and memo skips (count_round_tries)."""

    driver_type = CheckedDriver
    bounded_first_fits = 0
    served_projections = 0
    completion_checks = 0

    def run(self):
        self._completed = {}  # the drivers of this instant's live completions
        self.round_tries = Counter()
        count_round_tries(self.sched, self.round_tries)
        real = hcs_scheduler.try_place_free

        def place(step, free, policy, rr_cursor=0, start=0):
            if policy is PlacementPolicy.FIRST_FIT and start > 0:
                check_first_fit_start(step, free, start)
                self.bounded_first_fits += 1
            return real(step, free, policy, rr_cursor, start)

        hcs_scheduler.try_place_free = place
        try:
            return super().run()
        finally:
            hcs_scheduler.try_place_free = real

    def _on_completion(self, event, now):
        live = super()._on_completion(event, now)
        if live:
            self._completed[event[0]] = self.drivers[event[0]]
        return live

    def _end_instant(self, now):
        touched = list(self._touched.values())
        super()._end_instant(now)
        for drv in touched:
            if not drv.walked:
                check_served_projection(drv, now)
                self.served_projections += 1
        for drv in {*touched, *self._completed.values()}:
            check_driver_state(drv)
            self.completion_checks += 1
        self._completed.clear()
        check_books(self.sched)


# -- the per-fragment engine ----------------------------------------------------


@dataclass
class _FragmentStep:
    spec: object
    state: StepState = StepState.PENDING
    region: str | None = None
    pool: int = 0
    epoch: int = 0
    ready: deque = field(default_factory=deque)
    in_flight: dict = field(default_factory=dict)  # fragment -> finish time
    pending_switch: float | None = None  # the eviction window's expiry
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
        self._preds = {sid: predecessors(job.dag, sid) for sid in self.topo}
        self._succs = {sid: successors(job.dag, sid) for sid in self.topo}
        self.terminal_ids = job.dag.terminal_ids
        self.completed_at = None
        self.outbox = []
        self.steps = {}
        for sid in self.topo:
            rt = _FragmentStep(step_spec(job.dag, sid))
            if not self._preds[sid]:
                rt.ready = deque(range(self.m))
                rt.barrier_released = True
            self.steps[sid] = rt

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
        speed = self.edge_speed if rt.region == "edge" else self.cloud_speed
        duration = rt.spec.service_time_per_fragment / speed
        while rt.ready and len(rt.in_flight) < rt.pool:
            frag = rt.ready.popleft()
            rt.in_flight[frag] = now + duration
            self.outbox.append((now + duration, step_id, frag, rt.epoch))

    def on_deploy(self, step_id, region, pool_size, now):
        rt = self.steps[step_id]
        rt.region = region
        rt.pool = pool_size
        released = rt.spec.feed_forward or rt.barrier_released
        rt.state = StepState.RUNNING if released else StepState.WAITING
        self._dispatch(step_id, now)

    def deploy(self, step_id, region, pool_size, now):
        if self.steps[step_id].region is None:
            self.on_deploy(step_id, region, pool_size, now)
        else:
            self.redeploy(step_id, region, pool_size, now)

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

    def on_eviction_notice(self, step_id, expiry, now):
        rt = self.steps[step_id]
        cancelled = sorted(f for f, fin in rt.in_flight.items() if fin > expiry)
        for f in cancelled:
            del rt.in_flight[f]
        rt.ready.extendleft(reversed(cancelled))
        rt.pending_switch = expiry
        return cancelled

    def redeploy(self, step_id, region, pool_size, now):
        rt = self.steps[step_id]
        if rt.pending_switch is not None and now >= rt.pending_switch and rt.in_flight:
            raise InternalConsistencyError(f"bad switch for {step_id}")
        lost = sorted(rt.in_flight)
        rt.in_flight.clear()
        rt.ready.extendleft(reversed(lost))
        rt.pending_switch = None
        rt.region = region
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
            if rt.region is None:
                rt.state = StepState.PENDING
            elif rt.spec.feed_forward or rt.barrier_released:
                rt.state = StepState.RUNNING
                self._dispatch(sid, now)
            else:
                rt.state = StepState.WAITING


class FragmentEngine(CheckedEngine):
    """The engine with one event per fragment completion instead of per step.

    Shares the scheduler and metrics orchestration with the package's engine
    and replaces only how work is timed: the driver's dispatches are pushed
    as they happen, and a completion is live while its dispatch is current.

    It also checks the prefix law (see prefix_law_breach) that lets
    PipelineDriver keep counts instead of fragment ids: at every step of the
    driver after each live completion, and of every driver at the end of each
    instant. law_checks counts the step states checked, law_breaches names
    the (job, step, breach) found. As a CheckedEngine, it also recomputes
    the scheduler's books after every instant.
    """

    driver_type = FragmentDriver

    def __init__(self, scenario, arrivals):
        super().__init__(scenario, arrivals)
        work = sum(a.job.fragment_count * len(a.job.dag.steps) for a in arrivals)
        self._event_budget = 10_000 + 100 * (work + len(arrivals) + len(scenario.faults))
        self.law_checks = 0
        self.law_breaches = set()

    def _check_prefix_law(self, drivers):
        for drv in drivers:
            for sid, rt in drv.steps.items():
                breach = prefix_law_breach(drv.journal[sid], rt.in_flight, rt.ready)
                if breach:
                    self.law_breaches.add((drv.job.job_id, sid, breach))
                self.law_checks += 1

    def _end_instant(self, now):
        super()._end_instant(now)
        self._check_prefix_law(self.drivers.values())

    def _touch(self, drv):
        for finish, step_id, fragment, epoch in drv.outbox:
            self._push(finish, EventKind.STEP_COMPLETE, (drv, step_id, fragment, finish, epoch))
        drv.outbox.clear()

    def _on_completion(self, event, now):
        drv, step_id, fragment, finish, epoch = event
        if not drv.is_current(step_id, fragment, finish, epoch):
            return False  # cancelled by eviction, failure, or restart
        completed, job_done = drv.on_fragment_complete(step_id, fragment, now)
        self._check_prefix_law((drv,))
        self._touch(drv)
        job_id = drv.job.job_id
        for sid in completed:
            self.sched.complete_step(job_id, sid)
            self._close(job_id, sid, now)
        if job_done:
            self.outcomes.append(JobOutcome(
                job_id, self.templates[job_id], drv.job.arrival_time, now, drv.job.deadline))
        return True


# -- the scheduler without capacity books ----------------------------------------


@dataclass
class Request:
    """One step waiting for a round, as ReferenceScheduler queues it."""

    job: BatchJob
    step: StepSpec
    arrival: float


class ReferenceScheduler:
    """HcsScheduler as it was before incremental capacity books.

    Every capacity view is rebuilt from NodeState and the reservations for
    each request, rcost is recomputed at each use (a round sorts its own
    request records by it), and an eviction try filters and sorts all
    residents, then re-plans once per candidate victim. Each node's
    allocation is its own NodeState, written by apply_plan and release, and
    every plan comes from the oracle try_place_free above, which places one
    replica at a time. It also keeps cloud_active, the cloud deployments not
    yet complete, which HcsScheduler reads off as cloud_sticky - completed.
    Same constructor and calls as HcsScheduler, so both can take one call
    stream.
    """

    def __init__(self, capacities, cost_params=None, policy=PlacementPolicy.FIRST_FIT,
                 eviction_deadline=DEFAULT_EVICTION_DEADLINE,
                 mode=SchedulerMode.CHEAPEST_FIRST):
        self.nodes = [NodeState(i, c) for i, c in enumerate(capacities)]
        self.cost_params = cost_params or CostParams()
        self.policy = policy
        self.eviction_deadline = eviction_deadline
        self.mode = mode
        self.resident = {}
        self.evicting = {}
        self.reservations = {}
        self.cloud_sticky = set()
        self.cloud_active = set()
        self.completed = set()
        self.pending = []
        self.rr_cursor = 0
        self._jobs = {}
        self._reserved = [ResourceVector() for _ in self.nodes]

    def _free_now(self):
        out = []
        for node, res in zip(self.nodes, self._reserved):
            if not node.alive:
                out.append(None)
                continue
            cpu = node.capacity.cpu_millicores - node.allocated.cpu_millicores - res.cpu_millicores
            mem = node.capacity.memory_mb - node.allocated.memory_mb - res.memory_mb
            out.append((max(0, cpu), max(0, mem)))
        return out

    def _evicting_loads(self):
        loads = [ResourceVector() for _ in self.nodes]
        for key in self.evicting:
            for node_id, load in node_loads(self.resident[key]).items():
                loads[node_id] = vec_add(loads[node_id], load)
        return loads

    def _free_after_evictions(self):
        out = []
        for node, res, ev in zip(self.nodes, self._reserved, self._evicting_loads()):
            if not node.alive:
                out.append(None)
                continue
            cpu = (node.capacity.cpu_millicores - node.allocated.cpu_millicores
                   - res.cpu_millicores + ev.cpu_millicores)
            mem = (node.capacity.memory_mb - node.allocated.memory_mb
                   - res.memory_mb + ev.memory_mb)
            out.append((max(0, cpu), max(0, mem)))
        return out

    def rcost_of(self, step):
        return rcost(step, self.cost_params)

    def submit_request(self, job, now):
        if job.job_id in self._jobs:
            raise ValidationError(f"duplicate job_id {job.job_id!r}")
        self._jobs[job.job_id] = job
        for step in job.dag.steps:
            self.pending.append(Request(job, step, now))

    def run_round(self, now):
        decision = ScheduleDecision()
        requests = sorted(
            self.pending,
            key=lambda r: (-self.rcost_of(r.step), r.arrival, r.job.job_id, r.step.step_id))
        self.pending = []
        for req in requests:
            key = (req.job.job_id, req.step.step_id)
            if self.mode is SchedulerMode.CLOUD_ONLY or key in self.cloud_sticky:
                self._deploy_cloud_now(key, decision)
            elif not (self._try_deploy_edge_now(req.step, key, decision)
                      or self._try_deploy_with_eviction(req.step, key, decision, now)):
                self._deploy_cloud_now(key, decision)
        self._check_capacity_books()
        return decision

    def _try_deploy_edge_now(self, step, key, decision):
        plan, cursor = try_place_free(step, self._free_now(), self.policy, self.rr_cursor)
        if plan is None:
            return False
        apply_plan(plan, self.nodes)
        self.rr_cursor = cursor
        self.resident[key] = plan
        decision.directives.append(DeployEdge(key[0], key[1], plan))
        return True

    def _try_deploy_with_eviction(self, step, key, decision, now):
        expiry = now + self.eviction_deadline
        newcomer_cost = self.rcost_of(step)
        base = self._free_after_evictions()
        plan, cursor = try_place_free(step, base, self.policy, self.rr_cursor)
        victims = []
        if plan is None:
            candidates = sorted(
                (k for k in self.resident
                 if k not in self.evicting and self.rcost_of(self.resident[k].step) < newcomer_cost),
                key=lambda k: (self.rcost_of(self.resident[k].step), k))
            freed = [list(f) if f is not None else None for f in base]
            for cand in candidates:
                victims.append(cand)
                for node_id, load in node_loads(self.resident[cand]).items():
                    freed[node_id][0] += load.cpu_millicores
                    freed[node_id][1] += load.memory_mb
                view = [tuple(f) if f is not None else None for f in freed]
                plan, cursor = try_place_free(step, view, self.policy, self.rr_cursor)
                if plan is not None:
                    break
            if plan is None:
                return False
        for vic in victims:
            self.evicting[vic] = expiry
            decision.directives.append(Evict(vic[0], vic[1], expiry))
        self.rr_cursor = cursor
        self.reservations[key] = (plan, expiry)
        for node_id, load in node_loads(plan).items():
            self._reserved[node_id] = vec_add(self._reserved[node_id], load)
        decision.expiry = expiry
        return True

    def close_windows(self, expiry):
        """Expire each victim of a window ending at expiry, then activate
        each reservation made with them, one by one."""
        decision = ScheduleDecision()
        for key in [k for k, e in self.evicting.items() if e == expiry]:
            self.expire_eviction(key, expiry)
            decision.directives.append(DeployCloud(key[0], key[1]))
        for key in [k for k, (_, e) in self.reservations.items() if e == expiry]:
            plan = self.activate_reservation(key, expiry)
            decision.directives.append(DeployEdge(key[0], key[1], plan))
        return decision

    def _deploy_cloud_now(self, key, decision):
        self.cloud_sticky.add(key)
        self.cloud_active.add(key)
        decision.directives.append(DeployCloud(key[0], key[1]))

    def expire_eviction(self, key, expiry):
        if self.evicting.get(key) != expiry:
            return False
        del self.evicting[key]
        release(self.resident.pop(key), self.nodes)
        self.cloud_sticky.add(key)
        self.cloud_active.add(key)
        return True

    def activate_reservation(self, key, now):
        if key not in self.reservations:
            raise InternalConsistencyError(f"no reservation for {key}")
        plan, expiry = self.reservations.pop(key)
        if now + 1e-12 < expiry:
            raise InternalConsistencyError(f"reservation for {key} activated before expiry")
        for node_id, load in node_loads(plan).items():
            self._reserved[node_id] = vec_sub(self._reserved[node_id], load)
        apply_plan(plan, self.nodes)
        self.resident[key] = plan
        self._check_capacity_books()
        return plan

    def complete_step(self, job_id, step_id):
        key = (job_id, step_id)
        if key in self.completed:
            raise InternalConsistencyError(f"step {key} completed twice")
        self.completed.add(key)
        if key in self.resident:
            release(self.resident.pop(key), self.nodes)
            self.evicting.pop(key, None)
        elif key in self.cloud_active:
            self.cloud_active.remove(key)
        else:
            raise InternalConsistencyError(f"completion for unknown deployment {key}")

    def handle_node_failure(self, node_id):
        if node_id < 0 or node_id >= len(self.nodes):
            raise ValidationError(f"unknown node {node_id}")
        node = self.nodes[node_id]
        if not node.alive:
            raise ValidationError(f"node {node_id} already dead")
        decision = ScheduleDecision()
        hit_residents = [k for k, plan in self.resident.items()
                         if node_id in node_loads(plan)]
        hit_reservations = [k for k, (plan, _) in self.reservations.items()
                            if node_id in node_loads(plan)]
        was_evicting = set()
        for key in hit_residents:
            release(self.resident.pop(key), self.nodes)
            if key in self.evicting:
                del self.evicting[key]
                was_evicting.add(key)
        for key in hit_reservations:
            plan, _ = self.reservations.pop(key)
            for nid, load in node_loads(plan).items():
                self._reserved[nid] = vec_sub(self._reserved[nid], load)
        node.alive = False
        if node.allocated != ResourceVector() or self._reserved[node_id] != ResourceVector():
            raise InternalConsistencyError(f"dead node {node_id} still holds allocations")

        def by_cost(k):
            return (-self.rcost_of(step_spec(self._jobs[k[0]].dag, k[1])), k)

        for key in sorted(hit_residents, key=by_cost):
            if key in was_evicting:
                self._deploy_cloud_now(key, decision)
            else:
                self._replace_or_offload(key, decision)
        for key in sorted(hit_reservations, key=by_cost):
            self._replace_or_offload(key, decision)
        self._check_capacity_books()
        return decision

    def _replace_or_offload(self, key, decision):
        step = step_spec(self._jobs[key[0]].dag, key[1])
        if not self._try_deploy_edge_now(step, key, decision):
            self._deploy_cloud_now(key, decision)

    def _check_capacity_books(self):
        for node, res, ev in zip(self.nodes, self._reserved, self._evicting_loads()):
            if not fits_within(node.allocated, node.capacity):
                raise InternalConsistencyError(f"node {node.node_id} physically over capacity")
            if not node.alive and node.allocated != ResourceVector():
                raise InternalConsistencyError(f"dead node {node.node_id} holds allocations")
            if not fits_within(vec_add(vec_sub(node.allocated, ev), res), node.capacity):
                raise InternalConsistencyError(
                    f"node {node.node_id} over capacity after pending evictions")
        overlap = set(self.resident) & self.cloud_sticky
        if overlap:
            raise InternalConsistencyError(f"steps both resident and cloud-sticky: {overlap}")


def faults_per_object(objects) -> tuple[tuple, list[str]]:
    """(faults, problems) of a file's fault list read by `cli._Check.variant`
    and `build` alone, as the loader read every fault object before
    `cli._built` took the accepted ones: the faults built, and every problem
    of the objects, sorted. A Scenario checks the faults' own rules."""
    check = cli._Check()
    faults = []
    for i, obj in enumerate(objects):
        cls, got = check.variant(obj, f"faults[{i}]", cli._FAULTS)
        if cls is not None and None not in got.values():
            faults.append(check.build(f"faults[{i}].", cls, **got))
    return tuple(faults), sorted(set(check.problems))
