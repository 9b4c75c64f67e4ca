"""Seeded scenario generators for the benchmark's workloads.

Each workload turns a seed into one scenario dict (the JSON the program
reads) plus the hcs-sim subcommand that runs it. The templates are a copy of
the `saturating_mix` catalog kept here, so the benchmark's inputs do not move
when the repository's example scenarios change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# On this seed the `reference` scenario equals scenarios/saturating_mix.json,
# and the stored artifact digests (digests.json) are recorded on it.
DEFAULT_SEED = 2024

# name -> (fragment_count, deadline, steps, edges); a step is
# (step_id, cpu_millicores, memory_mb, service_time, feed_forward)
SATURATING_MIX = {
    "alpha": (120, 360.0, [("crunch", 375, 256, 2.0, True)], []),
    "beta": (180, 510.0, [("scan", 250, 192, 2.0, True)], []),
    "gamma": (120, 360.0, [("transform", 250, 192, 2.0, True)], []),
    "delta": (240, 660.0, [("filter", 125, 128, 2.0, True)], []),
    "pipe": (240, 361.25, [("extract", 250, 192, 1.0, True),
                           ("load", 125, 128, 1.0, True)],
             [["extract", "load"]]),
    "barrier": (120, 360.0, [("stage_a", 375, 256, 1.0, True),
                             ("stage_b", 250, 192, 1.0, False)],
                [["stage_a", "stage_b"]]),
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hcs-sim subcommand
    build: Callable[[int], dict]


def _catalog(fragment_divisor: int = 1, replica_cycle: int = 0) -> dict:
    """The saturating_mix catalog; with replica_cycle=k, step i gets i % k + 1 replicas."""
    catalog = {}
    index = 0
    for name, (frags, deadline, steps, edges) in SATURATING_MIX.items():
        step_objs = []
        for sid, cpu, mem, svc, ff in steps:
            step = {"step_id": sid, "cpu_millicores": cpu, "memory_mb": mem,
                    "service_time": svc}
            if replica_cycle:
                step["replicas"] = index % replica_cycle + 1
            index += 1
            if not ff:
                step["feed_forward"] = False
            step_objs.append(step)
        job = {"fragment_count": frags // fragment_divisor,
               "deadline": deadline / fragment_divisor, "steps": step_objs}
        if edges:
            job["edges"] = edges
        catalog[name] = job
    return catalog


def _scheduler(round_length: float = 30.0) -> dict:
    return {"policy": "cheapest_first", "placement": "ff",
            "round_length": round_length, "eviction_deadline": round_length,
            "execution_timeout": 60.0}


def _edge(node_count: int) -> dict:
    return {"node_count": node_count, "node_cpu_millicores": 3000,
            "node_memory_mb": 10240, "speed_factor": 0.8}


def build_reference(seed: int) -> dict:
    """The paper's headline experiment: saturating_mix with the seed substituted."""
    return {
        "scenario_id": "saturating-mix",
        "edge": _edge(6),
        "cloud": {"speed_factor": 1.0},
        "cost": {"c_cpu": 1000.0, "c_mem": 0.1},
        "scheduler": _scheduler(),
        "workloads": _catalog(),
        "arrivals": {"kind": "poisson", "generator": "pcg64", "rate": 0.205,
                     "seed": seed, "count": 800},
    }


WIDE_NODES = 200
WIDE_JOBS = 3000
WIDE_RATE = 60.0
WIDE_ROUND = 10.0


def build_wide(seed: int) -> dict:
    """Many short jobs on 200 nodes: scheduler rounds and placement dominate.

    Steps get 1 to 4 replicas in catalog order; fragment counts and deadlines
    are the saturating_mix ones divided by 10. Jobs arrive evenly spaced at
    WIDE_RATE and cycle through the six templates in an order the seed
    shuffles. With Poisson arrivals and template draws, or with a shuffle of
    all 3,000 jobs, one scenario's time moved by up to 15% or 8% from seed to
    seed over only 5 rounds; a fixed cycle keeps the load per round and the
    fixed work the same on every seed.
    """
    order = list(SATURATING_MIX)
    random.Random(seed).shuffle(order)
    templates = [order[i % len(order)] for i in range(WIDE_JOBS)]
    return {
        "scenario_id": "wide",
        "edge": _edge(WIDE_NODES),
        "cloud": {"speed_factor": 1.0},
        "cost": {"c_cpu": 1000.0, "c_mem": 0.1},
        "scheduler": _scheduler(WIDE_ROUND),
        "workloads": _catalog(10, 4),
        "arrivals": {"kind": "explicit",
                     "times": [(i + 1) / WIDE_RATE for i in range(len(templates))],
                     "templates": templates},
    }


FAULTY_JOBS = 800
FAULTY_RATE = 0.205
FAULTY_FAILED_NODES = 4
# Each job's driver restarts twice, inside windows (seconds after arrival)
# that every template is still running in: a job starts by the first round
# boundary (<= 30 s) and runs for at least 240 s.
RESTART_WINDOWS = ((40.0, 100.0), (120.0, 200.0))


def build_faulty(seed: int) -> dict:
    """saturating_mix under node failures and two driver restarts per job.

    Arrivals are explicit so restart times can be placed while each job runs;
    gaps are exponential at the reference rate and templates are uniform.
    """
    rng = random.Random(seed)
    names = list(SATURATING_MIX)
    times, templates, t = [], [], 0.0
    for _ in range(FAULTY_JOBS):
        t += rng.expovariate(FAULTY_RATE)
        times.append(t)
        templates.append(rng.choice(names))
    faults = []
    span = times[-1]
    failed = rng.sample(range(6), FAULTY_FAILED_NODES)
    for k, node in enumerate(failed):
        when = span * (k + 1) / (FAULTY_FAILED_NODES + 1) + rng.uniform(-30.0, 30.0)
        faults.append({"kind": "node_failure", "time": when, "node_id": node})
    for index, arrival in enumerate(times):
        for lo, hi in RESTART_WINDOWS:
            faults.append({"kind": "driver_restart",
                           "time": arrival + rng.uniform(lo, hi), "job_index": index})
    return {
        "scenario_id": "faulty",
        "edge": _edge(6),
        "cloud": {"speed_factor": 1.0},
        "cost": {"c_cpu": 1000.0, "c_mem": 0.1},
        "scheduler": _scheduler(),
        "workloads": _catalog(),
        "arrivals": {"kind": "explicit", "times": times, "templates": templates},
        "faults": faults,
    }


WORKLOADS = {w.name: w for w in (
    Workload("reference", "baseline", build_reference),
    Workload("wide", "run", build_wide),
    Workload("faulty", "run", build_faulty),
)}


def fragment_steps(scenario: dict, templates: list[str]) -> int:
    """Fixed work of one simulated run: sum over arrived jobs of m x steps."""
    catalog = scenario["workloads"]
    return sum(catalog[t]["fragment_count"] * len(catalog[t]["steps"]) for t in templates)
