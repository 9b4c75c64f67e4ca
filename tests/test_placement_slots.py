"""Property test: a replica set's slot count decides every greedy policy,
and the package's placement makes the plans of the one-replica-at-a-time
oracle in tests/oracles.py.

Needs hypothesis (the `test` extra in pyproject.toml); without it this
module is skipped and the rest of the suite runs unchanged.
"""

import pytest

from hcs_sim.core_model import ResourceVector, StepSpec
from hcs_sim.placement import PlacementPolicy, replica_slots, try_place_free

import oracles

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# free views as the scheduler passes them: dead nodes, and dimensions
# clamped to zero where reservations exceed what is physically free
_dimension = st.one_of(st.just(0), st.integers(0, 6000))
_free_views = st.lists(st.one_of(st.none(), st.tuples(_dimension, _dimension)), max_size=8)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(free=_free_views, cpu=st.sampled_from([0, 1, 250, 1000, 2500]),
       mem=st.sampled_from([0, 1, 256, 4096]), replicas=st.integers(1, 4),
       cursor=st.integers(0, 9))
def test_slot_count_decides_every_policy(free, cpu, mem, replicas, cursor):
    """Every greedy policy places a replica set iff its slots sum to the
    replica count, a failed try keeps the cursor, the view is unchanged,
    and the plan and cursor are the oracle's; first fit's are so from
    every start up to the first node with room for one replica. A plan
    counts at least one replica per node, all replicas in total, and
    names its nodes in the oracle's order: first fit in increasing index
    order, best fit in ascending (free cpu, free memory, index) order."""
    step = StepSpec("s", ResourceVector(cpu, mem), replicas, 1.0)
    slots = sum(replica_slots(f, step.demand_per_replica) for f in free)
    before = list(free)
    for policy in PlacementPolicy:
        placed = try_place_free(step, free, policy, cursor)
        plan, new_cursor = placed
        assert (plan is not None) == (slots >= replicas), policy
        if plan is None:
            assert new_cursor == cursor, policy
        assert free == before, policy
        want = oracles.try_place_free(step, free, policy, cursor)
        assert oracles.plan_items(placed) == oracles.plan_items(want), policy
        if plan is not None:
            assert min(plan.nodes.values()) >= 1, policy
            assert sum(plan.nodes.values()) == replicas, policy
            if policy is PlacementPolicy.FIRST_FIT:
                assert list(plan.nodes) == sorted(plan.nodes)
            elif policy is PlacementPolicy.BEST_FIT:
                keys = [(*free[i], i) for i in plan.nodes]
                assert keys == sorted(keys)
    first_room = next((i for i, f in enumerate(free)
                       if f is not None and f[0] >= cpu and f[1] >= mem), len(free))
    want = oracles.plan_items(
        oracles.try_place_free(step, free, PlacementPolicy.FIRST_FIT, cursor))
    for start in range(first_room + 1):
        placed = try_place_free(step, free, PlacementPolicy.FIRST_FIT, cursor, start)
        assert oracles.plan_items(placed) == want, start

