"""Cheapest-First round scheduling: rule order, eviction windows, stickiness,
capacity safety and node-failure handling."""

import logging
import random
from bisect import insort
from collections import Counter

import pytest

from hcs_sim import hcs_scheduler
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
    rcost,
)
from hcs_sim.hcs_scheduler import (
    DeployCloud,
    DeployEdge,
    Evict,
    HcsScheduler,
    SchedulerMode,
)
from hcs_sim.placement import PlacementPlan, PlacementPolicy, try_place_free
from hcs_sim.sim_engine import ExplicitArrivals, Scenario, generate_arrivals
from oracles import CheckedEngine, add_load, check_books, step_spec

# c_cpu=250, c_mem=0 makes rcost equal cpu/4, so demands map to round rcosts
QUARTER_CPU = CostParams(c_cpu=250.0, c_mem=0.0)
# memory-only pricing decouples a step's rcost from the CPU it occupies
MEM_COST = CostParams(c_cpu=0.0, c_mem=1.0)


def job_with_step(job_id, cpu, replicas=1, step_id="s0", mem=0):
    step = StepSpec(step_id, ResourceVector(cpu, mem), replicas, 1.0)
    return BatchJob(job_id, PipelineDag([step]), 10, 1e6)


def one_node(cpu=4000, mem=8192):
    return [ResourceVector(cpu, mem)]


def edges_of(decision):
    return [d for d in decision.directives if isinstance(d, DeployEdge)]


def clouds_of(decision):
    return [d for d in decision.directives if isinstance(d, DeployCloud)]


def evicts_of(decision):
    return [d for d in decision.directives if isinstance(d, Evict)]


def plan_of(job, nodes):
    """The plan that places job's one step as nodes counts (node -> replicas)."""
    return PlacementPlan(job.dag.steps[0], nodes=nodes)


class TestRounds:
    def test_requests_in_same_round_decided_together(self):
        s = HcsScheduler(one_node())
        s.submit_request(job_with_step("a", 1000), 5.0)
        s.submit_request(job_with_step("b", 1000), 20.0)
        decision = s.run_round(30.0)
        assert len(decision.directives) == 2
        assert not s.pending

    def test_duplicate_job_rejected(self):
        s = HcsScheduler(one_node())
        s.submit_request(job_with_step("a", 1000), 0.0)
        with pytest.raises(ValidationError):
            s.submit_request(job_with_step("a", 500), 1.0)

    def test_empty_edge_deploys_now(self):
        s = HcsScheduler(one_node())
        s.submit_request(job_with_step("a", 1000), 5.0)
        d = s.run_round(30.0)
        assert len(edges_of(d)) == 1 and d.expiry is None and not s.reservations
        assert s._held[0][0] == 1000

    def test_expensive_first_ordering(self):
        # cheap job arrives first but the expensive one gets the edge
        s = HcsScheduler(one_node(cpu=1000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("cheap", 800), 1.0)
        s.submit_request(job_with_step("dear", 1000), 2.0)
        d = s.run_round(30.0)
        assert edges_of(d)[0].job_id == "dear"
        assert clouds_of(d)[0].job_id == "cheap"


class TestEviction:
    def test_worked_eviction_example(self, caplog):
        # 4000 mCPU edge, resident g (rcost 500, 2000 mCPU), newcomer f
        # (rcost 1000, 4000 mCPU): g is evicted, f deploys at now+30
        caplog.set_level(logging.DEBUG, logger="hcs_sim.hcs_scheduler")
        s = HcsScheduler(one_node(cpu=4000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("g", 2000), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("f", 4000), 31.0)
        d = s.run_round(60.0)
        ev = evicts_of(d)
        assert len(ev) == 1 and ev[0].job_id == "g" and ev[0].expiry_time == 90.0
        assert not clouds_of(d)  # the Evict alone moves g to the cloud at 90
        # f deploys when the window closes, on the space reserved for it now
        assert not edges_of(d) and d.expiry == 90.0
        assert s.reservations[("f", "s0")][1] == 90.0
        # during the window g still physically holds its space
        assert s._held[0][0] == 2000
        assert caplog.messages == [
            "t=60.0 evict ('g', 's0') (rcost 500.0) for ('f', 's0') (rcost 1000.0)"]

    def test_victims_strictly_cheaper(self):
        # equal-cost newcomer must not evict
        s = HcsScheduler(one_node(cpu=2000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("g", 2000), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("f", 2000), 31.0)
        d = s.run_round(60.0)
        assert not evicts_of(d)
        assert clouds_of(d)[0].job_id == "f"

    def test_eviction_set_ascending_until_fit(self):
        # residents at 500/1000/1500 mCPU; newcomer needs 1200: evicts the two
        # cheapest (500 then 1000), never the 1500 one
        s = HcsScheduler(one_node(cpu=3000), cost_params=QUARTER_CPU)
        for name, cpu in [("a", 500), ("b", 1000), ("c", 1500)]:
            s.submit_request(job_with_step(name, cpu), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("n", 1200), 31.0)
        d = s.run_round(60.0)
        assert sorted(e.job_id for e in evicts_of(d)) == ["a", "b"]

    def test_expiry_activates_reservation_and_frees_victim(self):
        s = HcsScheduler(one_node(cpu=4000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("g", 2000), 0.0)
        s.run_round(30.0)
        f = job_with_step("f", 4000)
        s.submit_request(f, 31.0)
        s.run_round(60.0)
        d = s.close_windows(90.0)
        assert d.directives == [DeployCloud("g", "s0"), DeployEdge("f", "s0", plan_of(f, {0: 1}))]
        assert d.expiry is None
        assert s._held[0][0] == 4000
        assert ("g", "s0") in s.cloud_sticky and ("f", "s0") in s.resident

    def test_victim_completion_cancels_handoff(self):
        s = HcsScheduler(one_node(cpu=4000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("g", 2000), 0.0)
        s.run_round(30.0)
        f = job_with_step("f", 4000)
        s.submit_request(f, 31.0)
        s.run_round(60.0)
        s.complete_step("g", "s0")
        assert ("g", "s0") not in s.resident
        d = s.close_windows(90.0)
        assert d.directives == [DeployEdge("f", "s0", plan_of(f, {0: 1}))]
        assert ("g", "s0") not in s.cloud_sticky

    def test_second_newcomer_rides_existing_window(self):
        # A evicts v and leaves spare vacated room; cheaper same-round B takes
        # the spare room with no extra eviction, also effective at expiry
        s = HcsScheduler(one_node(cpu=4000), cost_params=MEM_COST)
        s.submit_request(job_with_step("v", 4000, mem=10), 0.0)
        s.run_round(30.0)
        a, b = job_with_step("a", 2000, mem=100), job_with_step("b", 1500, mem=80)
        s.submit_request(a, 31.0)
        s.submit_request(b, 32.0)
        d = s.run_round(60.0)
        assert [e.job_id for e in evicts_of(d)] == ["v"]
        assert not edges_of(d) and d.expiry == 90.0
        assert s.reservations[("a", "s0")][1] == s.reservations[("b", "s0")][1] == 90.0
        d = s.close_windows(90.0)
        assert d.directives == [DeployCloud("v", "s0"),
                                DeployEdge("a", "s0", plan_of(a, {0: 1})),
                                DeployEdge("b", "s0", plan_of(b, {0: 1}))]
        assert s._held[0][0] == 3500

    def test_reservation_a_failure_rehomed_stays_put(self):
        # k holds node 0 and g node 1; f evicts g and reserves node 1. Once k
        # completes, node 1's failure sends g to the cloud now and re-places f
        # on node 0, so nothing is left for the window to close at 90
        s = HcsScheduler([ResourceVector(4000, 8192)] * 2, cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("k", 4000), 0.0)
        s.submit_request(job_with_step("g", 2000), 0.0)
        s.run_round(30.0)
        f = job_with_step("f", 4000)
        s.submit_request(f, 31.0)
        d = s.run_round(60.0)
        assert [e.job_id for e in evicts_of(d)] == ["g"]
        assert s.reservations[("f", "s0")][0].nodes == {1: 1}
        s.complete_step("k", "s0")
        d = s.handle_node_failure(1)
        assert d.directives == [DeployCloud("g", "s0"), DeployEdge("f", "s0", plan_of(f, {0: 1}))]
        assert s.close_windows(90.0).directives == []
        assert s.resident == {("f", "s0"): plan_of(f, {0: 1})}

    def test_evicting_step_never_reevicted(self):
        s = HcsScheduler(one_node(cpu=4000), cost_params=MEM_COST)
        s.submit_request(job_with_step("v", 4000, mem=10), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("a", 4000, mem=50), 31.0)
        s.run_round(60.0)
        assert ("v", "s0") in s.evicting
        s.submit_request(job_with_step("big", 4000, mem=60), 61.0)
        d = s.run_round(90.0 - 1e-9)  # before expiry processing
        assert not evicts_of(d)
        assert clouds_of(d)[0].job_id == "big"


class TestSticky:
    def test_cloud_only_mode_never_touches_edge(self):
        s = HcsScheduler(one_node(), mode=SchedulerMode.CLOUD_ONLY)
        for i in range(5):
            s.submit_request(job_with_step(f"j{i}", 100), float(i))
        d = s.run_round(30.0)
        assert len(clouds_of(d)) == 5 and not edges_of(d)
        assert s._held[0] == [0, 0]


class TestCompletion:
    def test_edge_completion_frees_capacity(self):
        s = HcsScheduler(one_node())
        s.submit_request(job_with_step("a", 1000), 0.0)
        s.run_round(30.0)
        s.complete_step("a", "s0")
        assert s._held[0] == [0, 0]

    def test_cloud_completion(self):
        s = HcsScheduler(one_node(cpu=100))
        s.submit_request(job_with_step("a", 1000), 0.0)
        s.run_round(30.0)
        assert ("a", "s0") in s.cloud_sticky and ("a", "s0") not in s.completed
        s.complete_step("a", "s0")
        assert ("a", "s0") in s.cloud_sticky and ("a", "s0") in s.completed

    def test_unknown_or_double_completion_is_internal_error(self):
        s = HcsScheduler(one_node())
        with pytest.raises(InternalConsistencyError):
            s.complete_step("ghost", "s0")
        s.submit_request(job_with_step("a", 1000), 0.0)
        s.run_round(30.0)
        s.complete_step("a", "s0")
        with pytest.raises(InternalConsistencyError):
            s.complete_step("a", "s0")


class TestNodeFailure:
    def two_nodes(self):
        return [ResourceVector(2000, 8192), ResourceVector(2000, 8192)]

    def test_replan_onto_survivors(self):
        s = HcsScheduler(self.two_nodes(), policy=PlacementPolicy.WORST_FIT)
        s.submit_request(job_with_step("a", 1000, replicas=2), 0.0)
        s.run_round(30.0)
        assert s.resident[("a", "s0")].nodes == {0: 1, 1: 1}
        d = s.handle_node_failure(1)
        moved = edges_of(d)
        assert len(moved) == 1 and moved[0].plan.nodes == {0: 2}
        assert d.expiry is None
        assert not s.alive[1] and s._held[1] == [0, 0]

    def test_offload_when_no_survivor_fits(self):
        s = HcsScheduler(self.two_nodes())
        s.submit_request(job_with_step("a", 1500), 0.0)
        s.submit_request(job_with_step("b", 1500), 0.0)
        s.run_round(30.0)
        [victim_node] = s.resident[("a", "s0")].nodes
        d = s.handle_node_failure(victim_node)
        assert len(clouds_of(d)) == 1
        key = (clouds_of(d)[0].job_id, "s0")
        assert key in s.cloud_sticky

    def test_unaffected_steps_stay_put(self):
        s = HcsScheduler(self.two_nodes(), policy=PlacementPolicy.WORST_FIT)
        s.submit_request(job_with_step("a", 1000), 0.0)
        s.submit_request(job_with_step("b", 1000), 0.0)
        s.run_round(30.0)
        resident_before = dict(s.resident)
        [dead] = s.resident[("b", "s0")].nodes
        s.handle_node_failure(dead)
        assert s.resident[("a", "s0")] == resident_before[("a", "s0")]

    def test_failed_node_rejected_twice(self):
        s = HcsScheduler(self.two_nodes())
        s.handle_node_failure(0)
        with pytest.raises(ValidationError):
            s.handle_node_failure(0)
        with pytest.raises(ValidationError):
            s.handle_node_failure(7)

    def test_evicting_step_on_dead_node_goes_cloud_now(self):
        s = HcsScheduler(one_node(cpu=4000), cost_params=MEM_COST)
        s.submit_request(job_with_step("v", 4000, mem=10), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("a", 4000, mem=50), 31.0)
        s.run_round(60.0)
        d = s.handle_node_failure(0)
        v_cloud = [c for c in clouds_of(d) if c.job_id == "v"]
        a_cloud = [c for c in clouds_of(d) if c.job_id == "a"]
        assert v_cloud
        assert ("v", "s0") in s.cloud_sticky
        # a's reservation died with the node; no edge left, so cloud
        assert a_cloud and ("a", "s0") not in s.reservations


class TestCapacityBooks:
    def loaded(self):
        """r and h resident, g evicting for f, which holds a reservation."""
        s = HcsScheduler(one_node(cpu=6000), cost_params=QUARTER_CPU)
        for name, cpu in [("r", 2000), ("g", 1000), ("h", 1500)]:
            s.submit_request(job_with_step(name, cpu), 0.0)
        s.run_round(30.0)
        s.submit_request(job_with_step("f", 2500), 31.0)
        s.run_round(60.0)
        assert list(s.evicting) == [("g", "s0")] and ("f", "s0") in s.reservations
        assert [k for _, k in s._victims] == [("h", "s0"), ("r", "s0")]
        return s

    @pytest.mark.parametrize("fixture, corrupt", [
        ("loaded", lambda s: s._free[0].__setitem__(0, s._free[0][0] - 1)),
        # the evicting load's share of the book, one unit of memory off
        ("loaded", lambda s: s._free_after_evictions.__setitem__(0, (0, 8193))),
        ("loaded", lambda s: s._free_now.__setitem__(0, (0, 0))),
        ("loaded", lambda s: s._free_after_evictions.__setitem__(0, (6000, 8192))),
        ("loaded", lambda s: s._victims.reverse()),
        ("loaded", lambda s: s._victims.pop()),
        ("loaded", lambda s: s._held[0].__setitem__(0, s._held[0][0] + 1)),
    ], ids=["free", "evicting", "free_now", "free_after_evictions", "victim_order",
            "victim_missing", "held"])
    def test_a_drifted_book_is_an_internal_error(self, fixture, corrupt):
        s = getattr(self, fixture)()
        check_books(s)
        corrupt(s)
        with pytest.raises(InternalConsistencyError):
            check_books(s)

    @pytest.mark.parametrize("dim", [0, 1], ids=["cpu", "memory"])
    def test_a_reservation_past_free_and_evicting_space_is_an_internal_error(self, dim):
        """A reservation may take `_free` below zero only as far as evicting
        load backs it: `_shift` takes a plan up to free + evicting on its
        node, and refuses one unit more."""
        s = self.loaded()
        room = list(s._free_after_evictions[0])
        assert room == [0, 8192]
        demand = [0, 0]
        demand[dim] = room[dim]
        s._shift(plan_of(job_with_step("x", demand[0], mem=demand[1]), {0: 1}), 0, -1, 0)
        assert s._free_after_evictions[0] == (0, 8192 - demand[1])
        demand[dim] = 1
        with pytest.raises(InternalConsistencyError,
                           match="node 0 over capacity after pending evictions"):
            s._shift(plan_of(job_with_step("y", demand[0], mem=demand[1]), {0: 1}), 0, -1, 0)

    def test_a_first_fit_start_past_a_node_with_room_is_an_internal_error(self, monkeypatch):
        """A first-fit start is checked where a plan reads it: moved one node
        on after each plan, it skips node 0, which still has room for the
        round's second request, and the checked run stops there."""
        sc = Scenario(scenario_id="hand", node_capacities=(ResourceVector(4000, 8192),) * 2,
                      catalog={"t": job_with_step("t", 1000)},
                      arrivals=ExplicitArrivals((0.0, 1.0)), round_length=10.0)
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        engine.run()
        assert engine.bounded_first_fits == 0  # both plans start at node 0
        real = HcsScheduler._try_deploy_edge_now

        def drifting(self, step, key, decision, starts):
            placed = real(self, step, key, decision, starts)
            for shape in starts:
                starts[shape] += 1
            return placed

        monkeypatch.setattr(HcsScheduler, "_try_deploy_edge_now", drifting)
        with pytest.raises(InternalConsistencyError, match="node 0 has room .* start 1"):
            CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog)).run()

    def test_a_dead_node_holding_allocations_is_an_internal_error(self):
        s = HcsScheduler([ResourceVector(1000, 8192), ResourceVector(1000, 8192)])
        s.handle_node_failure(1)
        check_books(s)
        s._held[1][0] = 500  # a held load no resident plan backs
        with pytest.raises(InternalConsistencyError, match="books differ"):
            check_books(s)
        s._held[1][0] = 0
        # a resident on the dead node with every book in step: only the
        # recompute's look at `alive` can refuse it
        plan = PlacementPlan(job_with_step("ghost", 500).dag.steps[0], nodes={1: 1})
        s.resident[("ghost", "s0")] = plan
        add_load(s._held, plan)
        insort(s._victims, (rcost(plan.step, s.cost_params), ("ghost", "s0")))
        with pytest.raises(InternalConsistencyError, match="dead node 1"):
            check_books(s)


class TestHoldAndDrop:
    """`_hold` and `_drop` are the only writers of the held load, and refuse
    what only a broken planner or a double release could ask."""

    def plan(self, cpu, node_ids, mem=0):
        step = StepSpec("s0", ResourceVector(cpu, mem), len(node_ids), 1.0)
        return PlacementPlan(step, nodes=dict(Counter(node_ids)))

    def test_round_trip(self):
        s = HcsScheduler([ResourceVector(4000, 8192), ResourceVector(4000, 8192)])
        s._hold(("a", "s0"), self.plan(1000, [0, 1, 1], mem=100))
        assert s._held == [[1000, 100], [2000, 200]]
        assert s.edge_usage() == (3000, 8000, 300, 16384)
        check_books(s)
        s._drop(("a", "s0"))
        assert s._held == [[0, 0], [0, 0]] and s._free == [[4000, 8192], [4000, 8192]]
        assert s.edge_writes == 2
        check_books(s)

    def test_hold_on_a_dead_node_is_an_internal_error(self):
        s = HcsScheduler([ResourceVector(4000, 8192), ResourceVector(4000, 8192)])
        s.handle_node_failure(1)
        with pytest.raises(InternalConsistencyError,
                           match="plan assigns replicas to dead node 1"):
            s._hold(("a", "s0"), self.plan(1000, [0, 1]))

    @pytest.mark.parametrize("cpu, mem", [(600, 0), (0, 5000)], ids=["cpu", "memory"])
    def test_hold_past_capacity_is_an_internal_error(self, cpu, mem):
        s = HcsScheduler(one_node(cpu=1000, mem=8192))
        s._hold(("a", "s0"), self.plan(cpu, [0], mem=mem))
        with pytest.raises(InternalConsistencyError, match="node 0 over capacity"):
            s._hold(("b", "s0"), self.plan(cpu, [0], mem=mem))

    def test_drop_of_unheld_allocation_is_an_internal_error(self):
        s = HcsScheduler(one_node())
        s._hold(("a", "s0"), self.plan(1000, [0]))
        s._held[0] = [0, 0]
        with pytest.raises(InternalConsistencyError,
                           match="release of unheld allocation on node 0"):
            s._drop(("a", "s0"))


class TestRoundMemo:
    """A try that failed rules out the same shape, and a first-fit plan moves
    its shape's start, for the rest of its round only, and never for failure
    handling."""

    @staticmethod
    def count_tries(monkeypatch):
        """Counts of free-space plans and eviction tries, from now on."""
        calls = Counter()
        real_place = hcs_scheduler.try_place_free
        real_evict = HcsScheduler._try_deploy_with_eviction

        def place(*args):
            calls["place"] += 1
            return real_place(*args)

        def evict(self, *args):
            calls["evict"] += 1
            return real_evict(self, *args)

        monkeypatch.setattr(hcs_scheduler, "try_place_free", place)
        monkeypatch.setattr(HcsScheduler, "_try_deploy_with_eviction", evict)
        return calls

    def test_a_failed_shape_is_not_tried_again_in_its_round(self, monkeypatch):
        """b equals a, which found neither free room nor a cheaper victim, so
        b goes to the cloud untried: one free-space plan and one eviction try
        for the two."""
        calls = self.count_tries(monkeypatch)
        s = HcsScheduler(one_node(), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("r", 3000), 0.0)
        s.run_round(30.0)
        calls.clear()
        for name in "ab":
            s.submit_request(job_with_step(name, 2000), 31.0)
        d = s.run_round(60.0)
        assert [c.job_id for c in clouds_of(d)] == ["a", "b"]
        assert calls == {"place": 1, "evict": 1}

    def test_a_larger_shape_than_a_failed_one_is_tried(self, monkeypatch):
        """a and b cost what the resident r costs, so neither has a strictly
        cheaper victim; b is larger than a in cpu, not the same shape, so it
        is tried: two free-space plans and two eviction tries."""
        calls = self.count_tries(monkeypatch)
        s = HcsScheduler(one_node(cpu=1000), cost_params=MEM_COST)
        s.submit_request(job_with_step("r", 1000, mem=100), 0.0)
        assert [e.job_id for e in edges_of(s.run_round(30.0))] == ["r"]
        calls.clear()
        s.submit_request(job_with_step("a", 500, mem=100), 31.0)
        s.submit_request(job_with_step("b", 800, mem=100), 31.0)
        d = s.run_round(60.0)
        assert [c.job_id for c in clouds_of(d)] == ["a", "b"]
        assert calls == {"place": 2, "evict": 2}

    def test_a_first_fit_start_lives_for_one_round(self):
        """Round 1 fills node 0 and moves the shape's start to node 1; a
        completion frees room on node 0, where round 2 places the shape."""
        s = HcsScheduler([ResourceVector(4000, 8192)] * 2)
        for name in "abcde":
            s.submit_request(job_with_step(name, 1000), 0.0)
        d = s.run_round(30.0)
        assert [e.plan.nodes for e in edges_of(d)] == [{0: 1}] * 4 + [{1: 1}]
        s.complete_step("a", "s0")
        s.submit_request(job_with_step("f", 1000), 31.0)
        assert [e.plan.nodes for e in edges_of(s.run_round(60.0))] == [{0: 1}]

    def test_no_fit_ends_with_its_round(self):
        s = HcsScheduler(one_node(cpu=1000), cost_params=QUARTER_CPU)
        s.submit_request(job_with_step("a", 1000), 0.0)
        s.submit_request(job_with_step("b", 1000), 0.0)
        d = s.run_round(30.0)
        assert [e.job_id for e in edges_of(d)] == ["a"]
        assert [c.job_id for c in clouds_of(d)] == ["b"]
        s.complete_step("a", "s0")
        s.submit_request(job_with_step("c", 1000), 41.0)
        d = s.run_round(60.0)
        assert [e.job_id for e in edges_of(d)] == ["c"] and d.expiry is None

    def test_failure_replacement_after_a_failed_try(self):
        nodes = [ResourceVector(1000, 8192), ResourceVector(1000, 8192)]
        s = HcsScheduler(nodes, cost_params=QUARTER_CPU)
        for name in "xyz":
            s.submit_request(job_with_step(name, 1000), 0.0)
        d = s.run_round(30.0)
        assert [c.job_id for c in clouds_of(d)] == ["z"]
        s.complete_step("y", "s0")
        d = s.handle_node_failure(0)
        assert [(e.job_id, e.plan.nodes) for e in edges_of(d)] == [("x", {1: 1})]
        assert d.expiry is None


class TestInvariantStreams:
    """Scaled-down randomized stream harness; the acceptance suite runs the
    full-width version. Checks the capacity books (check_books) after every
    round, window close and completion, and stickiness monotonicity and
    edge-priority after every round."""

    def run_stream(self, seed):
        rng = random.Random(seed)
        n_nodes = rng.randrange(1, 4)
        nodes = [ResourceVector(rng.choice([1000, 2000, 4000]), rng.choice([2048, 4096, 8192]))
                 for _ in range(n_nodes)]
        policy = rng.choice(list(PlacementPolicy))
        s = HcsScheduler(nodes, policy=policy)
        active = {}  # key -> region
        sticky_seen = set()
        jobs = {}
        now = 0.0
        job_seq = 0
        for round_no in range(12):
            now = (round_no + 1) * 30.0
            for _ in range(rng.randrange(0, 4)):
                job = job_with_step(f"j{job_seq}", rng.randrange(100, 2500),
                                    replicas=rng.randrange(1, 4),
                                    mem=rng.randrange(0, 2048))
                job_seq += 1
                jobs[job.job_id] = job
                s.submit_request(job, now - rng.uniform(0.0, 29.9))
            decision = s.run_round(now)
            check_books(s)
            deploys = {}
            for d in decision.directives:
                key = (d.job_id, d.step_id)
                if isinstance(d, DeployEdge):
                    assert key not in sticky_seen, "sticky step returned to edge"
                    deploys[key] = deploys.get(key, 0) + 1
                    active[key] = "edge"
                elif isinstance(d, DeployCloud):
                    deploys[key] = deploys.get(key, 0) + 1
                    active[key] = "cloud"
            assert all(n == 1 for n in deploys.values()), "step deployed twice in a round"
            # edge-priority: immediate cloud fallbacks must not fit post-round
            for d in decision.directives:
                if isinstance(d, DeployCloud):
                    step = step_spec(jobs[d.job_id].dag, d.step_id)
                    plan, _ = try_place_free(step, s._free_after_evictions,
                                             policy, s.rr_cursor)
                    assert plan is None, "cloud fallback while edge had room"
            assert sticky_seen <= s.cloud_sticky, "cloud_sticky shrank"
            sticky_seen = set(s.cloud_sticky)
            # window lifecycle: close everything scheduled for this round
            expiries = sorted(set(s.evicting.values()) | {e for _, e in s.reservations.values()})
            for t in [e for e in expiries if e <= now + 30.0]:
                for d in s.close_windows(t).directives:
                    active[(d.job_id, d.step_id)] = (
                        "edge" if isinstance(d, DeployEdge) else "cloud")
                check_books(s)
            # randomly complete some active steps
            keys = sorted(active)
            rng.shuffle(keys)
            for key in keys[:rng.randrange(0, len(keys) + 1)]:
                s.complete_step(key[0], key[1])
                check_books(s)
                del active[key]
        return s

    def test_streams_hold_invariants(self):
        for seed in range(60):
            self.run_stream(seed)

    def test_decisions_deterministic(self):
        def trace(seed):
            s = HcsScheduler([ResourceVector(3000, 8192)])
            rng = random.Random(seed)
            out = []
            for r in range(6):
                now = (r + 1) * 30.0
                for _ in range(rng.randrange(0, 3)):
                    j = job_with_step(f"j{len(out)}-{r}-{rng.randrange(99)}",
                                      rng.randrange(100, 3000))
                    s.submit_request(j, now - 1.0)
                out.append(repr(s.run_round(now).directives))
            return out

        assert trace(5) == trace(5)
