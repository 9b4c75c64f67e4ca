"""Brute-force reference models and probes used only by tests.

Deliberately written with a different structure from the package under test:
a scan-everything time-stepping loop over explicit worker slots, no event
queue, no epochs, no eviction handling. Slow but obviously correct.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from hcs_sim.core_model import ValidationError
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import try_place_free


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
    """Count every PipelineDriver.on_fragment_complete call while active.

    Yields a Counter keyed by (job_id, step_id, fragment). It counts calls,
    independently of the journal, so exactly-once checks do not rely on the
    bookkeeping they verify.
    """
    counts = Counter()
    real = PipelineDriver.on_fragment_complete

    def counting(self, step_id, fragment, now):
        counts[(self.job.job_id, step_id, fragment)] += 1
        return real(self, step_id, fragment, now)

    PipelineDriver.on_fragment_complete = counting
    try:
        yield counts
    finally:
        PipelineDriver.on_fragment_complete = real
