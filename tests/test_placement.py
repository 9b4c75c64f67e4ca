"""Placement policy behaviour against hand-worked layouts and the exhaustive oracle,
on the test-only NodeState account of tests/oracles.py."""

import random

import pytest

from hcs_sim.core_model import ResourceVector, StepSpec, ValidationError
from hcs_sim.placement import PlacementPolicy

from oracles import (NodeState, apply_plan, oracle_feasible, placement_mismatches, release,
                     try_place)


def nodes_of(*cpu_free, mem=8192, used_mem=0):
    """Nodes with the given free CPU (capacity fixed at 4000 unless free exceeds it)."""
    out = []
    for i, free_cpu in enumerate(cpu_free):
        cap = max(4000, free_cpu)
        out.append(NodeState(i, ResourceVector(cap, mem),
                             ResourceVector(cap - free_cpu, used_mem)))
    return out


def step_of(cpu=1000, mem_mb=1, replicas=1, sid="s"):
    return StepSpec(sid, ResourceVector(cpu, mem_mb), replicas, 1.0)


class TestPolicies:
    def test_first_fit_packs_lowest_index(self):
        nodes = nodes_of(4000, 4000)
        plan, _ = try_place(step_of(replicas=2), nodes, PlacementPolicy.FIRST_FIT)
        assert plan.nodes == {0: 2}

    def test_worst_fit_spreads(self):
        nodes = nodes_of(4000, 4000)
        plan, _ = try_place(step_of(replicas=2), nodes, PlacementPolicy.WORST_FIT)
        assert plan.nodes == {0: 1, 1: 1}

    def test_best_fit_takes_tightest_node(self):
        nodes = nodes_of(4000, 1000)
        plan, _ = try_place(step_of(replicas=1), nodes, PlacementPolicy.BEST_FIT)
        assert plan.nodes == {1: 1}

    def test_best_fit_memory_tiebreak(self):
        a = NodeState(0, ResourceVector(4000, 8192), ResourceVector(3000, 0))
        b = NodeState(1, ResourceVector(4000, 8192), ResourceVector(3000, 4096))
        plan, _ = try_place(step_of(cpu=500, mem_mb=512), [a, b], PlacementPolicy.BEST_FIT)
        assert plan.nodes == {1: 1}

    def test_infeasible_returns_none(self):
        nodes = nodes_of(4000, 4000)
        plan, cur = try_place(step_of(cpu=5000), nodes, PlacementPolicy.FIRST_FIT)
        assert plan is None and cur == 0

    def test_round_robin_cycles(self):
        nodes = nodes_of(4000, 4000, 4000)
        cursor = 0
        seen = []
        for i in range(6):
            plan, cursor = try_place(step_of(sid=f"s{i}"), nodes,
                                     PlacementPolicy.ROUND_ROBIN, cursor)
            seen.extend(plan.nodes)
            apply_plan(plan, nodes)
        assert seen == [0, 1, 2, 0, 1, 2]

    def test_round_robin_cursor_untouched_on_failure(self):
        nodes = nodes_of(500, 4000)
        plan, cursor = try_place(step_of(cpu=999999), nodes, PlacementPolicy.ROUND_ROBIN, 1)
        assert plan is None and cursor == 1

    def test_round_robin_skips_non_fitting(self):
        nodes = nodes_of(100, 4000)
        plan, cursor = try_place(step_of(), nodes, PlacementPolicy.ROUND_ROBIN, 0)
        assert plan.nodes == {1: 1}
        assert cursor == 0  # wrapped past the end

    def test_dead_nodes_never_assigned(self):
        nodes = nodes_of(4000, 4000)
        nodes[0].alive = False
        for pol in PlacementPolicy:
            plan, _ = try_place(step_of(replicas=2), nodes, pol)
            assert plan.nodes == {1: 2}

    def test_trial_copy_does_not_mutate(self):
        nodes = nodes_of(4000)
        before = nodes[0].allocated
        try_place(step_of(replicas=3), nodes, PlacementPolicy.FIRST_FIT)
        assert nodes[0].allocated == before


def test_package_placement_matches_the_oracle_on_seeded_views():
    """Plan, node order and cursor, for every policy. A sample of the seeded
    sweep; for a wide one, run `oracles.placement_mismatches(range(N))` from
    tests/ with src/ on the path."""
    assert placement_mismatches(range(2000)) == []


class TestOracle:
    def test_volume_equal_but_infeasible(self):
        # 2 x 1500 free cannot hold 3 x 1000 even though total volume could
        nodes = nodes_of(1500, 1500)
        assert oracle_feasible(step_of(replicas=3), nodes) is False

    def test_split_feasible(self):
        nodes = nodes_of(2000, 1000)
        assert oracle_feasible(step_of(replicas=3), nodes) is True

    def test_memory_bound(self):
        n = NodeState(0, ResourceVector(8000, 1024))
        assert oracle_feasible(step_of(cpu=100, mem_mb=512, replicas=2), [n]) is True
        assert oracle_feasible(step_of(cpu=100, mem_mb=512, replicas=3), [n]) is False

    def test_refuses_oversized_instances(self):
        nodes = nodes_of(*([4000] * 7))
        with pytest.raises(ValidationError):
            oracle_feasible(step_of(), nodes)
        with pytest.raises(ValidationError):
            oracle_feasible(step_of(replicas=13), nodes_of(4000))

    def test_dead_nodes_ignored(self):
        nodes = nodes_of(4000, 4000)
        nodes[1].alive = False
        assert oracle_feasible(step_of(cpu=3000, replicas=2), nodes) is False


class TestSoundness:
    def test_greedy_success_implies_oracle_feasible(self):
        # smaller companion to the acceptance sweep; also checks plan honesty
        rng = random.Random(2024)
        for trial in range(200):
            n = rng.randrange(1, 5)
            nodes = []
            for i in range(n):
                cap = ResourceVector(rng.randrange(500, 4001), rng.randrange(256, 8193))
                used = ResourceVector(rng.randrange(0, cap.cpu_millicores + 1),
                                      rng.randrange(0, cap.memory_mb + 1))
                nodes.append(NodeState(i, cap, used))
            step = step_of(cpu=rng.randrange(1, 2001), mem_mb=rng.randrange(1, 4097),
                           replicas=rng.randrange(1, 9))
            for pol in PlacementPolicy:
                plan, _ = try_place(step, nodes, pol, rr_cursor=rng.randrange(n))
                if plan is None:
                    continue
                assert oracle_feasible(step, nodes) is True
                assert sum(plan.nodes.values()) == step.replicas and min(plan.nodes.values()) >= 1
                snapshot = [nd.allocated for nd in nodes]
                apply_plan(plan, nodes)
                release(plan, nodes)
                assert [nd.allocated for nd in nodes] == snapshot

