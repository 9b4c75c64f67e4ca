"""Differential test: HcsScheduler's incremental capacity books against the
from-scratch ReferenceScheduler in tests/oracles.py.

Both schedulers take the same generated call stream: rounds of submitted
jobs, the closing of eviction windows at each expiry, step completions and
node failures, on 1 to 200 nodes under every placement policy. Every call
must return the same (directives and a decision's expiry included), and at
every instant the calls reach the two must hold the same round-robin cursor,
residents, eviction windows, reservations, cloud sets, node allocations and
utilization numbers, with the fast scheduler's capacity books equal to their
recompute.

Run a wider sweep from a checkout with

    PYTHONPATH=src python3 tests/test_scheduler_differential.py --seeds 0:2000

which prints the first differing seed and call, or the number of seeds that
matched.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

from hcs_sim.core_model import BatchJob, CostParams, PipelineDag, ResourceVector, StepSpec
from hcs_sim.hcs_scheduler import HcsScheduler
from hcs_sim.placement import PlacementPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import ReferenceScheduler, check_books, count_round_tries  # noqa: E402

TIER1_SEEDS = range(0, 80)
ROUND = 30.0
STATE = ("rr_cursor", "resident", "evicting", "reservations", "cloud_sticky")


class Mismatch(AssertionError):
    pass


class Pair:
    """One fast and one reference scheduler over the same node capacities."""

    def __init__(self, capacities, **settings):
        self.fast = HcsScheduler(capacities, **settings)
        self.ref = ReferenceScheduler(capacities, **settings)
        self.calls = 0

    def __call__(self, method, *args):
        """Make one call on both; their results must be equal."""
        self.calls += 1
        got = getattr(self.fast, method)(*args)
        want = getattr(self.ref, method)(*args)
        if hasattr(got, "directives"):
            got, want = (got.directives, got.expiry), (want.directives, want.expiry)
        if got != want:
            raise Mismatch(f"call {self.calls} {method}{args}: "
                           f"returned {got!r}, reference {want!r}")
        return got

    def compare(self) -> None:
        """Both schedulers hold the same state, the books are exact, and a
        utilization sample would read the same numbers from both."""
        for name in STATE:
            if getattr(self.fast, name) != getattr(self.ref, name):
                raise Mismatch(f"after call {self.calls}: {name} differs")
        if self.fast.cloud_sticky - self.fast.completed != self.ref.cloud_active:
            raise Mismatch(f"after call {self.calls}: cloud_active differs")
        nodes = self.ref.nodes
        if ([(alive, tuple(held)) for alive, held in zip(self.fast.alive, self.fast._held)]
                != [(n.alive, (n.allocated.cpu_millicores, n.allocated.memory_mb))
                    for n in nodes]):
            raise Mismatch(f"after call {self.calls}: node allocations differ")
        live = [n for n in nodes if n.alive]
        want = (sum(n.allocated.cpu_millicores for n in live),
                sum(n.capacity.cpu_millicores for n in live),
                sum(n.allocated.memory_mb for n in live),
                sum(n.capacity.memory_mb for n in live))
        if self.fast.edge_usage() != want:
            raise Mismatch(f"after call {self.calls}: edge usage "
                           f"{self.fast.edge_usage()} differs from the reference's {want}")
        check_books(self.fast)


def random_job(rng: random.Random, job_id: str) -> BatchJob:
    """A chain of 1-3 steps; a demand dimension is sometimes zero."""
    steps = []
    for i in range(rng.choice([1, 1, 2, 3])):
        cpu = rng.choice([0, 100, 250, 500, 1000, 1500, 2500]) if rng.random() < 0.9 \
            else rng.randrange(0, 2500)
        mem = 0 if rng.random() < 0.15 else rng.randrange(1, 2048)
        steps.append(StepSpec(f"s{i}", ResourceVector(cpu, mem), rng.randint(1, 4), 1.0))
    edges = [(f"s{i}", f"s{i + 1}") for i in range(len(steps) - 1)]
    return BatchJob(job_id, PipelineDag(steps, edges), 10, 1e6)


def run_stream(seed: int) -> Pair:
    """TestInvariantStreams.run_stream's rounds, widened: 1-200 nodes, node
    failures, windows that outlast a round, and both cost models' ties."""
    rng = random.Random(seed)
    # wide clusters are few: the reference rebuilds every node's view per try
    n_nodes = rng.randint(13, 200) if rng.random() < 0.07 else rng.choice([1, 2, 3,
                                                                          rng.randint(4, 12)])
    capacities = [ResourceVector(rng.choice([1000, 2000, 4000]), rng.choice([2048, 4096, 8192]))
                  for _ in range(n_nodes)]
    pair = Pair(capacities,
                cost_params=rng.choice([CostParams(), CostParams(c_cpu=250.0, c_mem=0.0),
                                        CostParams(c_cpu=0.0, c_mem=1.0)]),
                policy=rng.choice(list(PlacementPolicy)),
                eviction_deadline=rng.choice([ROUND, 10.0, 45.0]))
    fast = pair.fast
    fail_rate = rng.choice([0.0, 0.05, 0.3])
    per_round = max(3, n_nodes * rng.choice([1, 2]))  # enough to fill the edge
    job_seq = 0
    for round_no in range(10 if n_nodes < 13 else 3):
        now = (round_no + 1) * ROUND
        for _ in range(rng.randrange(0, per_round + 1)):
            pair("submit_request", random_job(rng, f"j{job_seq}"), now - rng.uniform(0.0, 29.9))
            job_seq += 1
        pair("run_round", now)
        pair.compare()
        t = now
        while t < now + ROUND:
            t = min(t + rng.uniform(0.0, 12.0), now + ROUND)
            due = sorted({e for e in fast.evicting.values() if e <= t}
                         | {e for _, e in fast.reservations.values() if e <= t})
            for e in due:
                pair("close_windows", e)
            alive = [i for i, up in enumerate(fast.alive) if up]
            if alive and rng.random() < fail_rate:
                pair("handle_node_failure", rng.choice(alive))
            active = sorted((set(fast.resident) | fast.cloud_sticky) - fast.completed)
            rng.shuffle(active)
            for key in active[:rng.randrange(0, len(active) // 2 + 2)]:
                pair("complete_step", key[0], key[1])
            pair.compare()
            if t == now + ROUND:
                break
    return pair


def test_streams_match_the_reference(monkeypatch):
    """Every tier-1 stream matches the reference, and together they skip
    tries the round already ruled out, kill some and all nodes of a cluster,
    run more than 150 nodes, use every placement policy, try an eviction
    for a shape with a zero demand dimension and evict a resident that
    holds at least 2 replicas on one node."""
    seen = set()
    tries = Counter()
    real_init = HcsScheduler.__init__
    real_evict = HcsScheduler._try_deploy_with_eviction

    def init(self, *args, **settings):
        real_init(self, *args, **settings)
        count_round_tries(self, tries)

    def evict(self, step, key, decision, now):
        d = step.demand_per_replica
        if not (d.cpu_millicores and d.memory_mb):
            seen.add("zero_dim_eviction_try")
        before = set(self.evicting)
        placed = real_evict(self, step, key, decision, now)
        if any(max(self.resident[k].nodes.values()) >= 2 for k in self.evicting.keys() - before):
            seen.add("stacked_victim")
        return placed

    monkeypatch.setattr(HcsScheduler, "__init__", init)
    monkeypatch.setattr(HcsScheduler, "_try_deploy_with_eviction", evict)
    for seed in TIER1_SEEDS:
        try:
            fast = run_stream(seed).fast
        except Mismatch as e:
            raise Mismatch(f"seed {seed}: {e}") from None
        alive = sum(fast.alive)
        seen.add("all_dead" if alive == 0 else "some_dead" if alive < len(fast.alive) else "")
        seen.add("wide" if len(fast.alive) > 150 else fast.policy.value)
    if tries["room_skips"]:
        seen.add("no_room_memo")
    if tries["victim_skips"]:
        seen.add("no_victims_memo")
    assert {"no_room_memo", "no_victims_memo", "wide", "all_dead", "some_dead",
            "zero_dim_eviction_try", "stacked_victim",
            *(p.value for p in PlacementPolicy)} <= seen, (seen, tries)


def _parse_seeds(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop)) if stop else range(int(start), int(start) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Sweep generated call streams through "
                                                 "both schedulers.")
    parser.add_argument("--seeds", type=_parse_seeds, default=TIER1_SEEDS,
                        help="START:STOP (half-open) or one seed")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        try:
            run_stream(seed)
        except Mismatch as e:
            print(f"seed {seed}: {e}")
            return 1
    print(f"{len(args.seeds)} seeds, no differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
