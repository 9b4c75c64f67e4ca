"""End-to-end event-loop behavior: seeded arrivals, hand-traced runs,
eviction handoffs, faults, horizon, and determinism."""

import heapq
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from hcs_sim import sim_engine
from hcs_sim.cli import load_scenario, main
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    PipelineDag,
    ResourceVector,
    InternalConsistencyError,
    StepSpec,
    ValidationError,
)
from hcs_sim.hcs_scheduler import HcsScheduler, SchedulerMode
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    DriverRestartFault,
    EventKind,
    ExplicitArrivals,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
    ScheduledArrival,
    _Engine,
    generate_arrivals,
    next_round_at,
    require_finite_rounds,
    run,
)
import oracles
from oracles import CheckedEngine, FragmentEngine, run_detailed


def vec(cpu: int, mem: int = 0) -> ResourceVector:
    return ResourceVector(cpu, mem)


def step(sid: str = "s0", cpu: int = 500, mem: int = 512, replicas: int = 1,
         svc: float = 1.0, ff: bool = True) -> StepSpec:
    return StepSpec(sid, vec(cpu, mem), replicas, svc, ff)


def template(steps, edges=(), frags: int = 1, deadline: float = 1000.0) -> BatchJob:
    return BatchJob("tpl", PipelineDag(steps, edges), frags, deadline)


def arrival_at(time: float) -> ScheduledArrival:
    """One arrival at time, of a one-step template "a"."""
    return ScheduledArrival("a", BatchJob("a-0000", PipelineDag([step()]), 1, 1000.0, time))


def scenario(**kw) -> Scenario:
    defaults = dict(
        scenario_id="t",
        node_capacities=(vec(4000, 8192),),
        catalog={"basic": template([step()])},
        arrivals=ExplicitArrivals((5.0,)),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestGenerateArrivals:
    CATALOG = {"a": template([step()]), "b": template([step("s0", 100, 64)])}

    def test_same_seed_gives_identical_schedules(self):
        p = PoissonArrivals(rate=0.1, seed=42, count=50)
        one = generate_arrivals(p, self.CATALOG)
        two = generate_arrivals(p, self.CATALOG)
        assert one == two

    def test_different_seeds_differ(self):
        a = generate_arrivals(PoissonArrivals(0.1, 1, 50), self.CATALOG)
        b = generate_arrivals(PoissonArrivals(0.1, 2, 50), self.CATALOG)
        assert [x.job.arrival_time for x in a] != [x.job.arrival_time for x in b]

    def test_explicit_times_pass_through(self):
        arr = generate_arrivals(ExplicitArrivals((0.0, 10.0, 20.0)), self.CATALOG)
        assert [a.job.arrival_time for a in arr] == [0.0, 10.0, 20.0]
        assert [a.template for a in arr] == ["a", "b", "a"]  # cycles the catalog

    def test_explicit_named_templates(self):
        arr = generate_arrivals(
            ExplicitArrivals((1.0, 2.0), ("b", "b")), self.CATALOG)
        assert all(a.template == "b" for a in arr)

    def test_poisson_mean_matches_rate(self):
        rate = 0.5
        arr = generate_arrivals(PoissonArrivals(rate, 7, 10_000), self.CATALOG)
        times = [a.job.arrival_time for a in arr]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 1 / rate) / (1 / rate) < 0.05

    def test_templates_drawn_from_whole_catalog(self):
        arr = generate_arrivals(PoissonArrivals(1.0, 3, 200), self.CATALOG)
        assert {a.template for a in arr} == {"a", "b"}

    def test_job_ids_unique_and_ordered(self):
        arr = generate_arrivals(PoissonArrivals(1.0, 3, 100), self.CATALOG)
        ids = [a.job.job_id for a in arr]
        assert len(set(ids)) == 100

    @pytest.mark.parametrize("source", ["saturating_mix", "explicit_named"])
    def test_jobs_are_their_templates_replaced(self, source):
        """Each job is what Record.replace makes of its template, every
        other field kept, and shares the template's graph."""
        if source == "saturating_mix":
            s, _ = load_scenario(Path(__file__).resolve().parent.parent
                                 / "scenarios" / "saturating_mix.json")
            process, catalog = s.arrivals, s.catalog
        else:
            process = ExplicitArrivals((0.0, 2.5, 2.5, 9.0), ("b", "a", "b", "b"))
            catalog = self.CATALOG
        arr = generate_arrivals(process, catalog)
        assert len(arr) == (800 if source == "saturating_mix" else 4)
        for i, a in enumerate(arr):
            tpl = catalog[a.template]
            assert a.job == tpl.replace(job_id=f"{a.template}-{i:04d}",
                                        arrival_time=a.job.arrival_time), i
            assert a.job.dag is tpl.dag

    def test_reference_stream_is_pinned(self):
        """The first arrivals of scenarios/saturating_mix.json (seed 2024), as
        numpy's Generator(PCG64(2024)) drew them."""
        s, _ = load_scenario(Path(__file__).resolve().parent.parent
                             / "scenarios" / "saturating_mix.json")
        arr = generate_arrivals(s.arrivals, s.catalog)[:6]
        assert [(a.job.arrival_time, a.template) for a in arr] == [
            (5.495079691945971, "alpha"), (7.3012740257268405, "beta"),
            (15.139185992252871, "barrier"), (15.887583050685615, "barrier"),
            (16.287569773505368, "alpha"), (18.461889398095728, "beta")]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValidationError):
            generate_arrivals(PoissonArrivals(0.0, 1, 5), self.CATALOG)
        with pytest.raises(ValidationError):
            generate_arrivals(PoissonArrivals(-1.0, 1, 5), self.CATALOG)

    def test_unsorted_explicit_times_rejected(self):
        with pytest.raises(ValidationError):
            generate_arrivals(ExplicitArrivals((5.0, 1.0)), self.CATALOG)

    def test_unknown_template_rejected(self):
        # the catalog belongs to the scenario, which owns the rule
        with pytest.raises(ValidationError):
            scenario(catalog=self.CATALOG, arrivals=ExplicitArrivals((1.0,), ("zzz",)))


class TestRounds:
    def test_boundary_arithmetic(self):
        assert next_round_at(0.0, 30.0) == 30.0
        assert next_round_at(5.0, 30.0) == 30.0
        assert next_round_at(30.0, 30.0) == 30.0
        assert next_round_at(30.0000001, 30.0) == 60.0
        assert next_round_at(59.9, 30.0) == 60.0

    def test_boundary_is_the_first_grid_point_at_or_after_now(self):
        """Below 2^53 rounds, the bound require_finite_rounds keeps, the
        boundary is the first float k*round_length, k >= 1, at or after now:
        k is found here from the exact quotient."""
        rng = random.Random(53)
        top = 0
        for trial in range(20000):
            length = rng.choice([1e-9, 0.1, 0.3, 1.0, 30.0, 2.0 ** -30,
                                 rng.uniform(1e-6, 100.0)])
            rounds = rng.choice([0.0, 2.0 ** rng.uniform(0.0, 53.0),
                                 float(rng.randrange(2 ** 53)),
                                 2.0 ** 53 - rng.randrange(1, 1000)])
            now = rounds * length
            if rng.random() < 0.5:
                now = math.nextafter(now, rng.choice([0.0, math.inf]))
            arrivals = [arrival_at(now)]
            if not now / length < 2.0 ** 53:
                with pytest.raises(ValidationError, match="round_length"):
                    require_finite_rounds(arrivals, length)
                continue
            require_finite_rounds(arrivals, length)
            k = max(1, math.ceil(Fraction(now) / Fraction(length)))
            while k > 1 and (k - 1) * length >= now:
                k -= 1
            boundary = next_round_at(now, length)
            assert boundary >= now and boundary == k * length, (trial, now, length)
            top += now / length >= 2.0 ** 52
        assert top > 5000
        require_finite_rounds([arrival_at(2.0 ** 53 - 1.0)], 1.0)
        with pytest.raises(ValidationError, match="round_length"):
            require_finite_rounds([arrival_at(2.0 ** 53)], 1.0)

    def test_each_instant_projects_with_a_memo_of_its_own(self, monkeypatch):
        """The projection memo keys no instant, so the engine hands each
        instant that projects a fresh one: jobs arriving in two rounds
        project at both round instants, and no memo is seen at two."""
        sc = scenario(catalog={"basic": template([step(), step("s1")], [("s0", "s1")])},
                      arrivals=ExplicitArrivals((1.0, 2.0, 11.0, 12.0)), round_length=10.0)
        seen: list[tuple[dict, float]] = []  # holds each memo, so no id is reused
        real = PipelineDriver.project

        def project(self, now, memo=None):
            seen.append((memo, now))
            return real(self, now, memo)

        monkeypatch.setattr(PipelineDriver, "project", project)
        _Engine(sc, generate_arrivals(sc.arrivals, sc.catalog)).run()
        instants = {}
        for memo, now in seen:
            instants.setdefault(id(memo), set()).add(now)
        assert {now for _, now in seen} == {10.0, 20.0}
        assert all(len(nows) == 1 for nows in instants.values())

    def test_a_served_plan_other_than_the_walked_one_is_an_internal_error(self, monkeypatch):
        """Three jobs of one template join the round at 10, and the node
        holds two, so the third runs on the cloud. The checked run walks
        again the plan the second job is served; under a key that ignores
        every step's state, the third is served the edge plan, and the
        checked run stops at 10."""
        sc = scenario(node_capacities=(vec(2000, 4096),),
                      catalog={"basic": template([step(cpu=1000)], frags=4)},
                      arrivals=ExplicitArrivals((1.0, 2.0, 3.0)), round_length=10.0)
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        engine.run()
        assert engine.served_projections == 1
        monkeypatch.setattr(PipelineDriver, "_state_key", lambda self: ())
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        with pytest.raises(InternalConsistencyError, match="is not the one walked"):
            engine.run()
        assert engine.last_event_time == 10.0

    def test_a_completion_count_or_a_service_time_off_its_rule_is_an_internal_error(
            self, monkeypatch):
        """The checked run checks the driver after each instant that touches
        it: a count that calls the job complete before its journal does, or
        a service time deploy did not divide from the region's speed, stops
        it at the job's first round."""
        sc = scenario(catalog={"basic": template([step(), step("s1")], [("s0", "s1")])})
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        engine.run()
        # the round at 30 deploys both steps, then s0 and s1 complete apart
        assert engine.completion_checks == 3
        real = PipelineDriver.deploy

        def deploy(self, step_id, region, pool_size, now):
            real(self, step_id, region, pool_size, now)
            self.steps[step_id].service *= 2

        for name, patch, message in [
                ("is_complete", lambda self: True, r"is_complete\(\) is True, its journal says False"),
                ("deploy", deploy, r"step s0: service time 2\.5 in the edge, not 1\.0 / 0\.8")]:
            with monkeypatch.context() as m:
                m.setattr(PipelineDriver, name, patch)
                engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
                with pytest.raises(InternalConsistencyError, match=message):
                    engine.run()
                assert engine.last_event_time == 30.0


class TestSingleJobTrace:
    def test_zero_jobs_is_an_empty_report(self):
        r = run(scenario(arrivals=ExplicitArrivals(())))
        assert r.total_cost == 0.0
        assert r.job_outcomes == []
        assert r.utilization == []
        assert r.end_time == 0.0
        assert not r.horizon_reached

    def test_edge_job_completes_at_round_boundary_plus_service(self):
        # arrival 5 -> first boundary 30 -> one fragment at speed 0.8: 1.25s
        r = run(scenario())
        assert len(r.job_outcomes) == 1
        o = r.job_outcomes[0]
        assert o.completion == pytest.approx(30.0 + 1.0 / 0.8, rel=1e-12)
        assert o.duration == pytest.approx(26.25, rel=1e-12)
        assert r.total_cost == 0.0
        regions = [e.region for e in r.cost_ledger]
        assert regions == ["edge"]

    def test_arrival_exactly_on_boundary_is_scheduled_that_round(self):
        r = run(scenario(arrivals=ExplicitArrivals((30.0,))))
        assert r.job_outcomes[0].completion == pytest.approx(31.25, rel=1e-12)

    def test_cloud_only_cost_is_rate_times_deployed_time(self):
        r = run(scenario(mode=SchedulerMode.CLOUD_ONLY))
        # rcost: 512 MB * 0.1 + 0.5 vCPU * 1000 = 551.2 per second, held 1.0s
        assert len(r.cost_ledger) == 1
        e = r.cost_ledger[0]
        assert e.region == "cloud"
        assert e.deploy_start == 30.0
        assert e.deploy_end == pytest.approx(31.0, rel=1e-12)
        assert r.total_cost == pytest.approx(551.2, rel=1e-9)

    def test_multi_fragment_waves_on_edge(self):
        cat = {"w": template([step(replicas=2)], frags=4)}
        r = run(scenario(catalog=cat, arrivals=ExplicitArrivals((0.5,), ("w",))))
        # 4 fragments over 2 replicas at 1.25s each: two waves
        assert r.job_outcomes[0].completion == pytest.approx(32.5, rel=1e-12)

    def test_cloud_concurrency_overrides_pool(self):
        cat = {"w": template([step(replicas=1)], frags=4)}
        r = run(scenario(catalog=cat, arrivals=ExplicitArrivals((0.5,), ("w",)),
                         mode=SchedulerMode.CLOUD_ONLY, cloud_concurrency=4))
        assert r.job_outcomes[0].completion == pytest.approx(31.0, rel=1e-12)

    def test_two_step_chain_on_edge(self):
        # feed-forward chain, 3 fragments, 1 replica each: (m + N - 1) waves
        cat = {"c": template([step("a"), step("b")], [("a", "b")], frags=3)}
        r = run(scenario(catalog=cat, arrivals=ExplicitArrivals((1.0,), ("c",))))
        assert r.job_outcomes[0].completion == pytest.approx(30 + 4 * 1.25, rel=1e-12)

    def test_oversized_service_time_rejected(self):
        cat = {"slow": template([step(svc=61.0)])}
        with pytest.raises(ValidationError):
            run(scenario(catalog=cat, arrivals=ExplicitArrivals((1.0,), ("slow",))))


class TestEvictionHandoff:
    def build(self):
        cheap = template([step("s0", cpu=1000, mem=0, svc=1.0)], frags=100,
                         deadline=400.0)
        rich = template([step("s0", cpu=3500, mem=0, svc=1.0)], frags=20,
                        deadline=400.0)
        return scenario(
            node_capacities=(vec(4000, 8192),),
            catalog={"cheap": cheap, "rich": rich},
            arrivals=ExplicitArrivals((1.0, 31.0), ("cheap", "rich")),
            cost_params=CostParams(c_cpu=1000.0, c_mem=0.0),
        )

    def test_victim_moves_to_cloud_at_expiry(self):
        r = run(self.build())
        by_key = {}
        for e in r.cost_ledger:
            by_key.setdefault(e.job_id, []).append(e)
        cheap_entries = by_key["cheap-0000"]
        assert [(e.region, e.deploy_start, e.deploy_end) for e in cheap_entries] == [
            ("edge", 30.0, 90.0), ("cloud", 90.0, 165.0)]
        rich_entries = by_key["rich-0001"]
        assert rich_entries[0].region == "edge"
        assert rich_entries[0].deploy_start == 90.0  # waited out the window
        # 24 fragments done by the notice, one more allowed to finish by 61.25,
        # 75 baked on the cloud at rcost 1000/s for 1s each in sequence
        assert r.total_cost == pytest.approx(75_000.0, rel=1e-9)

    def test_both_jobs_complete_exactly_once(self):
        r = run(self.build())
        assert sorted(o.job_id for o in r.job_outcomes) == ["cheap-0000", "rich-0001"]
        cheap, rich = sorted(r.job_outcomes, key=lambda o: o.job_id)
        assert cheap.completion == pytest.approx(165.0, rel=1e-12)
        assert rich.completion == pytest.approx(90 + 20 * 1.25, rel=1e-12)
        assert all(o.met for o in r.job_outcomes)

    def test_utilization_trace_shows_the_swap(self):
        r = run(self.build())
        points = [(s.time, s.allocated_cpu_millicores) for s in r.utilization]
        assert points == [(30.0, 1000), (90.0, 3500), (115.0, 0)]

    def test_books_are_checked_at_an_activation_between_rounds(self, monkeypatch):
        """With a 10 s window the reservation activates at 70, between the
        rounds at 60 and 90; a drift it leaves stops the checked run at 70."""
        real = HcsScheduler.close_windows

        def drifting(self, expiry):
            decision = real(self, expiry)
            self._victims.append((0.0, ("ghost", "s0")))
            return decision

        monkeypatch.setattr(HcsScheduler, "close_windows", drifting)
        sc = self.build().replace(eviction_deadline=10.0)
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        with pytest.raises(InternalConsistencyError, match="candidate order"):
            engine.run()
        assert engine.last_event_time == 70.0

    def test_one_expiry_event_closes_the_window(self, monkeypatch):
        """The round at 60 evicts cheap for rich: one expiry event at 90
        moves the victim and deploys the reservation."""
        pushed = []
        real = _Engine._push

        def push(self, time, kind, payload):
            pushed.append((time, kind))
            real(self, time, kind, payload)

        monkeypatch.setattr(_Engine, "_push", push)
        run(self.build())
        assert [t for t, kind in pushed if kind == EventKind.EVICTION_EXPIRE] == [90.0]


class TestNodeFailure:
    def build(self, faults=()):
        tpl = template([step("s0", cpu=800, mem=0, svc=1.0)], frags=50, deadline=400.0)
        return scenario(
            node_capacities=(vec(1000, 1024), vec(1000, 1024)),
            catalog={"t": tpl},
            arrivals=ExplicitArrivals((1.0, 5.0), ("t", "t")),
            faults=tuple(faults),
        )

    def test_replicas_on_failed_node_move_to_cloud(self):
        clean = run(self.build())
        faulty = run(self.build([NodeFailureFault(45.0, 0)]))
        # job on node 0 (arrived first, FF) loses its deployment mid-run
        hit = [e for e in faulty.cost_ledger if e.job_id == "t-0000"]
        assert [e.region for e in hit] == ["edge", "cloud"]
        assert hit[0].deploy_end == 45.0
        assert hit[1].deploy_start == 45.0
        assert faulty.total_cost > 0.0
        # every job still completes, same fragment sets as the clean run
        assert sorted(o.job_id for o in faulty.job_outcomes) == \
            sorted(o.job_id for o in clean.job_outcomes)
        assert all(o.completed for o in faulty.job_outcomes)

    def test_unaffected_job_matches_clean_run(self):
        clean = run(self.build())
        faulty = run(self.build([NodeFailureFault(45.0, 0)]))
        pick = lambda r: next(o for o in r.job_outcomes if o.job_id == "t-0001")
        assert pick(faulty).completion == pick(clean).completion

    def test_idle_node_failure_changes_nothing_but_capacity(self):
        tpl = template([step("s0", cpu=800, mem=0)], frags=10, deadline=400.0)
        base = scenario(
            node_capacities=(vec(1000, 1024), vec(1000, 1024)),
            catalog={"t": tpl},
            arrivals=ExplicitArrivals((1.0,), ("t",)),
        )
        clean = run(base)
        faulty = run(base.replace(faults=(NodeFailureFault(35.0, 1),)))
        assert faulty.job_outcomes == clean.job_outcomes
        assert faulty.total_cost == clean.total_cost == 0.0
        assert faulty.utilization[-1].capacity_cpu_millicores == 1000

    def test_failure_of_evicting_node_sends_victim_to_cloud_now(self):
        cheap = template([step("s0", cpu=1000, mem=0)], frags=100, deadline=500.0)
        rich = template([step("s0", cpu=3500, mem=0)], frags=20, deadline=500.0)
        base = scenario(
            node_capacities=(vec(4000, 8192),),
            catalog={"cheap": cheap, "rich": rich},
            arrivals=ExplicitArrivals((1.0, 31.0), ("cheap", "rich")),
            cost_params=CostParams(c_cpu=1000.0, c_mem=0.0),
            faults=(NodeFailureFault(70.0, 0),),
        )
        r = run(base)
        cheap_entries = [e for e in r.cost_ledger if e.job_id == "cheap-0000"]
        assert [e.region for e in cheap_entries] == ["edge", "cloud"]
        assert cheap_entries[1].deploy_start == 70.0  # window cut short
        # the newcomer's reservation died with the node; it goes cloud too
        rich_entries = [e for e in r.cost_ledger if e.job_id == "rich-0001"]
        assert [e.region for e in rich_entries] == ["cloud"]
        assert rich_entries[0].deploy_start == 70.0
        assert all(o.completed for o in r.job_outcomes)

    def test_every_node_dies_while_resident_reserved_and_evicting(self):
        # round 10: r on node 0, g on node 1; round 20: f evicts g and holds
        # a reservation on node 1 from 50; both nodes die inside that window
        long = dict(mem=0, svc=1.0)
        sc = scenario(
            node_capacities=(vec(4000, 8192), vec(4000, 8192)),
            catalog={"r": template([step(cpu=3000, **long)], frags=60),
                     "g": template([step(cpu=2000, **long)], frags=60),
                     "f": template([step(cpu=4000, **long)], frags=60)},
            arrivals=ExplicitArrivals((1.0, 2.0, 12.0), ("r", "g", "f")),
            cost_params=CostParams(c_cpu=250.0, c_mem=0.0),
            round_length=10.0, eviction_deadline=30.0,
            faults=(NodeFailureFault(25.0, 0), NodeFailureFault(26.0, 1)),
        )
        engine = _Engine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        sched = engine.sched
        real_failure = sched.handle_node_failure
        held = []

        def failure(node_id):
            held.append((set(sched.resident) - set(sched.evicting), set(sched.evicting),
                         set(sched.reservations)))
            return real_failure(node_id)

        sched.handle_node_failure = failure
        report = engine.run()
        assert held[0] == ({("r-0000", "s0")}, {("g-0001", "s0")}, {("f-0002", "s0")})
        assert all(o.completed for o in report.job_outcomes) and len(report.job_outcomes) == 3
        last = {e.job_id: e for e in report.cost_ledger}
        assert {j: (e.region, e.deploy_start) for j, e in last.items()} == {
            "r-0000": ("cloud", 25.0), "g-0001": ("cloud", 26.0), "f-0002": ("cloud", 26.0)}
        assert not (sched.resident or sched.evicting or sched.reservations or sched._victims)
        assert sched._free == sched._free_now == sched._free_after_evictions == [None, None]
        assert report.utilization[-1].capacity_cpu_millicores == 0


class TestDriverRestart:
    def build(self, faults=()):
        tpl = template([step("a", cpu=500, mem=0), step("b", cpu=500, mem=0)],
                       [("a", "b")], frags=20, deadline=500.0)
        return scenario(
            catalog={"t": tpl},
            arrivals=ExplicitArrivals((1.0,), ("t",)),
            faults=tuple(faults),
        )

    def test_restart_preserves_exactly_once(self):
        clean = run(self.build())
        restarted = run(self.build([DriverRestartFault(40.0, 0)]))
        assert all(o.completed for o in restarted.job_outcomes)
        # in-flight work at the restart is redone, so completion can shift
        assert restarted.job_outcomes[0].completion >= clean.job_outcomes[0].completion

    def test_restart_after_completion_is_a_noop(self):
        clean = run(self.build())
        done_by = clean.job_outcomes[0].completion
        late = run(self.build([DriverRestartFault(done_by + 5.0, 0)]))
        assert late.job_outcomes == clean.job_outcomes
        assert late.cost_ledger == clean.cost_ledger

    def test_a_restart_is_a_noop_only_once_every_terminal_step_completed(self):
        # b and c are both terminal; c, four times slower, still runs when b ends
        tpl = template([step("a"), step("b"), step("c", svc=4.0)], [("a", "b"), ("a", "c")],
                       frags=4, deadline=500.0)

        def run_with(faults):
            return run(scenario(catalog={"t": tpl}, arrivals=ExplicitArrivals((1.0,), ("t",)),
                                faults=faults))

        clean = run_with(())
        ends = {e.step_id: e.deploy_end for e in clean.cost_ledger}
        done_by = clean.job_outcomes[0].completion
        assert ends["a"] < ends["b"] < done_by == ends["c"]
        # c's fragment in flight half a second after b ends starts again
        mid = run_with((DriverRestartFault(ends["b"] + 0.5, 0),))
        assert mid.job_outcomes[0].completion == done_by + 0.5
        # at the instant c ends its completion comes first, so the job is done
        late = run_with((DriverRestartFault(done_by, 0),))
        assert (late.job_outcomes, late.cost_ledger) == (clean.job_outcomes, clean.cost_ledger)

    def test_restart_before_arrival_is_a_noop(self):
        clean = run(self.build())
        early = run(self.build([DriverRestartFault(0.5, 0)]))
        assert early.job_outcomes == clean.job_outcomes

    # Two equal one-step jobs, one per node, deployed by the t=30 round,
    # finish in the same instant; their completions, and so their outcome
    # rows, come in the order the jobs were last touched.
    @staticmethod
    def twins(times, faults):
        tpl = template([step("s0", cpu=800, mem=0)], frags=10, deadline=500.0)
        return run(scenario(node_capacities=(vec(1000, 1024),) * 2, catalog={"t": tpl},
                            arrivals=ExplicitArrivals(times), edge_speed=1.0,
                            faults=faults))

    def test_a_restart_at_a_failure_comes_after_it(self):
        # node 1 fails at 32 and job 1 moves to the cloud; job 0 restarts
        # at 32 on node 0, and both finish at 40
        r = self.twins((1.0, 2.0), (NodeFailureFault(32.0, 1), DriverRestartFault(32.0, 0)))
        assert [(e.job_id, e.region, e.deploy_start) for e in r.cost_ledger] == [
            ("t-0000", "edge", 30.0), ("t-0001", "edge", 30.0), ("t-0001", "cloud", 32.0)]
        assert [(o.job_id, o.completion) for o in r.job_outcomes] == [
            ("t-0001", 40.0), ("t-0000", 40.0)]

    def test_a_restart_at_its_jobs_arrival_touches_nothing(self):
        # job 1 arrives on the t=30 boundary; its restart then finds no
        # driver, so the round alone orders the two jobs
        r = self.twins((1.0, 30.0), (DriverRestartFault(30.0, 1),))
        assert [(o.job_id, o.completion) for o in r.job_outcomes] == [
            ("t-0000", 40.0), ("t-0001", 40.0)]


class TestDrained:
    """A run that ends before any horizon with a job that never reported its
    last step is an internal error, on the event loop and job by job."""

    @pytest.mark.parametrize("compute", [
        lambda sc, arrivals: _Engine(sc, arrivals).run(),
        lambda sc, arrivals: sim_engine._run_cloud_only(
            sc.replace(mode=SchedulerMode.CLOUD_ONLY), arrivals),
    ], ids=["event-loop", "job-by-job"])
    def test_a_job_short_of_its_last_step_is_refused(self, monkeypatch, compute):
        """Every unfinished job is named, the second of two alike in
        template and round too, which job by job builds no driver."""
        monkeypatch.setattr(PipelineDriver, "on_step_complete", lambda self, step_id, now: False)
        for times, unfinished in [((5.0,), "['basic-0000']"),
                                  ((5.0, 6.0), "['basic-0000', 'basic-0001']")]:
            sc = scenario(arrivals=ExplicitArrivals(times))
            with pytest.raises(InternalConsistencyError) as err:
                compute(sc, generate_arrivals(sc.arrivals, sc.catalog))
            assert str(err.value) == f"run drained with unfinished work: {unfinished}"


class TestCloudOnlyMemo:
    def test_jobs_alike_in_template_and_round_build_one_driver(self, monkeypatch):
        """saturating_mix, forced cloud-only, builds a driver for 513 of its
        800 jobs: each later job of a template in a round takes the first
        one's completions."""
        built = []

        class CountedDriver(PipelineDriver):
            def __init__(self, *args):
                built.append(args[0].job_id)
                super().__init__(*args)

        monkeypatch.setattr(sim_engine, "PipelineDriver", CountedDriver)
        s, _ = load_scenario(Path(__file__).resolve().parent.parent
                             / "scenarios" / "saturating_mix.json")
        r = run(s.replace(mode=SchedulerMode.CLOUD_ONLY))
        assert (len(built), len(r.job_outcomes)) == (513, 800)


class TestInjectFaults:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            scenario().replace(faults=(NodeFailureFault(10.0, 9),))

    def test_double_kill_rejected(self):
        with pytest.raises(ValidationError):
            scenario().replace(faults=(NodeFailureFault(10.0, 0),
                                       NodeFailureFault(20.0, 0)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            scenario().replace(faults=(DriverRestartFault(-1.0, 0),))

    def test_fault_past_horizon_rejected(self):
        with pytest.raises(ValidationError):
            scenario(horizon=100.0).replace(faults=(NodeFailureFault(200.0, 0),))

    def test_job_index_out_of_range_fails_at_run(self):
        with pytest.raises(ValidationError):
            run(scenario(faults=(DriverRestartFault(10.0, 5),)))


class TestHorizon:
    def test_horizon_cuts_unfinished_work(self):
        tpl = template([step(svc=2.0)], frags=200, deadline=800.0)
        s = scenario(catalog={"t": tpl},
                     arrivals=ExplicitArrivals((1.0,), ("t",)), horizon=50.0)
        r = run(s)
        assert r.horizon_reached
        assert r.end_time == 50.0
        o = r.job_outcomes[0]
        assert not o.completed and not o.met
        assert o.completion == 50.0
        assert all(e.deploy_end is not None and e.deploy_end <= 50.0
                   for e in r.cost_ledger)

    def test_the_horizon_instant_is_sampled(self):
        # the t=10 round deploys the step on the edge; the horizon at 10
        # ends the run after it, and the trace still shows that round
        sc = scenario(node_capacities=(vec(2000, 8192),),
                      catalog={"t": template([step(cpu=1000)])},
                      arrivals=ExplicitArrivals((1.0,), ("t",)),
                      round_length=10.0, horizon=10.0)
        r = run(sc)
        assert r.horizon_reached
        assert [(s.time, s.allocated_cpu_millicores) for s in r.utilization] == [(10.0, 1000)]

    def test_horizon_after_completion_is_clean(self):
        r = run(scenario(horizon=10_000.0))
        assert not r.horizon_reached
        assert r.end_time == pytest.approx(31.25)
        assert r.job_outcomes[0].completed


class TestDeterminism:
    def build(self):
        cat = {
            "small": template([step("s0", cpu=400, mem=256, svc=0.5)], frags=30,
                              deadline=600.0),
            "chain": template(
                [step("a", cpu=900, mem=512, svc=1.0, replicas=2),
                 step("b", cpu=600, mem=256, svc=0.8)],
                [("a", "b")], frags=40, deadline=600.0),
        }
        return scenario(
            node_capacities=(vec(2000, 2048), vec(2000, 2048)),
            catalog=cat,
            arrivals=PoissonArrivals(rate=0.05, seed=99, count=12),
            placement=PlacementPolicy.BEST_FIT,
        )

    def test_repeated_runs_are_identical(self):
        a, b = run(self.build()), run(self.build())
        assert repr(a) == repr(b)
        assert a.total_cost == b.total_cost

    def test_shared_arrivals_can_be_reused(self):
        from hcs_sim.sim_engine import generate_arrivals
        s = self.build()
        arr = generate_arrivals(s.arrivals, s.catalog)
        a = run(s, arrivals=arr)
        b = run(s)
        assert repr(a) == repr(b)

    def test_all_jobs_complete_and_books_balance(self):
        r = run(self.build())
        assert len(r.job_outcomes) == 12
        assert all(o.completed for o in r.job_outcomes)
        assert r.utilization[-1].allocated_cpu_millicores == 0
        recomputed = sum(e.rcost_per_second * (e.deploy_end - e.deploy_start)
                         for e in r.cost_ledger if e.region == "cloud")
        assert r.total_cost == pytest.approx(recomputed, rel=1e-12)


class TestRegressions:
    def test_stale_eviction_expiry_is_ignored(self):
        # the t=20 round reserves space for X and names the expiry 50; the
        # t=25 failure re-places X on the edge at once, and the t=30 round
        # evicts X with expiry 60. The windows closed at 50 must not move X.
        def one(mem, m, svc):
            return template([step("s", 1000, mem, 1, svc)], frags=m, deadline=1e6)

        sc = scenario(
            node_capacities=tuple(vec(1000, 4096) for _ in range(3)),
            catalog={"V": one(100, 20, 10.0), "W": one(50, 20, 10.0), "Y": one(90, 1, 12.0),
                     "X": one(80, 10, 10.0), "Z": one(200, 10, 10.0)},
            arrivals=ExplicitArrivals((1.0, 1.0, 1.0, 15.0, 28.0),
                                      ("V", "W", "Y", "X", "Z")),
            round_length=10.0, eviction_deadline=30.0, edge_speed=1.0,
            faults=(NodeFailureFault(25.0, 2),))
        report = run(sc)
        assert all(o.completed for o in report.job_outcomes) and len(report.job_outcomes) == 5
        x = [(e.region, e.deploy_start, e.deploy_end) for e in report.cost_ledger
             if e.job_id == "X-0003"]
        assert x == [("edge", 25.0, 60.0), ("cloud", 60.0, 150.0)]

    def test_cancelled_fragment_does_not_set_end_time(self):
        # the edge fragment (finishing at 32.5) dies with its node at 31; the
        # cloud redeploy finishes it at 32.0, which is the end of the run
        sc = scenario(
            node_capacities=(vec(1000, 4096),),
            catalog={"one": template([step("s", 1000, 512, 1, 2.0)])},
            arrivals=ExplicitArrivals((1.0,)),
            edge_speed=0.8, cloud_speed=2.0,
            faults=(NodeFailureFault(31.0, 0),))
        report = run(sc)
        assert [o.completion for o in report.job_outcomes] == [32.0]
        assert report.end_time == 32.0


class TestEventBudget:
    def test_budget_counts_steps_not_fragments(self):
        from hcs_sim.sim_engine import _Engine
        sc = scenario(catalog={"two": template([step("a"), step("b")], [("a", "b")],
                                               frags=500)},
                      arrivals=ExplicitArrivals((1.0, 2.0, 3.0)),
                      faults=(DriverRestartFault(40.0, 0),))
        engine = _Engine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        # job 0: 2 steps, re-projected at most per step and per restart
        pushes = 2 * (2 + 1) + 2 * 2 + 2 * 2
        assert engine._event_budget == 10_000 + 100 * (pushes + 3 + 1)

    def test_many_steps_evicted_in_one_round(self):
        # 300 steps of one cheap job fill the node from the t=30 round; the
        # t=60 round evicts all of them for a dearer newcomer, and their
        # windows expire together at 65. The job is projected once per
        # instant (30, 60, 65); projected after each of the 300 expiries,
        # its stale completions alone would exhaust the event budget.
        n = 300
        cheap = template([step(f"s{i}", 10, 10, 1, 50.0) for i in range(n)], deadline=1e6)
        dear = template([step("x", 3000, 100, 1, 1.0)], deadline=1e6)
        sc = scenario(node_capacities=(vec(3000, 4096),),
                      catalog={"cheap": cheap, "dear": dear},
                      arrivals=ExplicitArrivals((1.0, 31.0), ("cheap", "dear")),
                      eviction_deadline=5.0, edge_speed=1.0)
        report, drivers = run_detailed(sc)
        assert all(o.completed for o in report.job_outcomes) and len(report.job_outcomes) == 2
        assert drivers["cheap-0000"].version == 3
        cheap_regions = {(e.region, e.deploy_start, e.deploy_end)
                         for e in report.cost_ledger if e.job_id == "cheap-0000"}
        assert cheap_regions == {("edge", 30.0, 65.0), ("cloud", 65.0, 115.0)}

    def test_livelock_trips_the_budget(self, monkeypatch):
        from hcs_sim.sim_engine import EventKind, _Engine
        def repush(self, event, now):
            # a broken handler that re-schedules the same completion forever
            self._push(now, EventKind.STEP_COMPLETE, event)
            return True

        monkeypatch.setattr(_Engine, "_on_completion", repush)
        with pytest.raises(InternalConsistencyError, match="event budget 10200 exhausted"):
            run(scenario())


class TestCompletionEvents:
    """One completion event per instant and completion time, listing its
    steps in projection order, and none after the job's next restart."""

    @staticmethod
    def counted(monkeypatch) -> Counter:
        """Completion events popped, and the entries they carried."""
        counts = Counter()
        real = _Engine._on_completion

        def on_completion(self, batch, now):
            counts["events"] += 1
            counts["entries"] += len(batch)
            return real(self, batch, now)

        monkeypatch.setattr(_Engine, "_on_completion", on_completion)
        return counts

    @staticmethod
    def many_jobs() -> Scenario:
        """24 jobs of two templates, one each 2.5 s over two rounds, more than
        the edge holds: alike jobs of one round complete together, on the
        edge or in the cloud."""
        chain = template([step("a", 500, 512, 1, 2.0), step("b", 1000, 512, 2, 1.0)],
                         [("a", "b")], frags=6, deadline=500.0)
        fan = template([step("x", 700, 256, 1, 1.5), step("y"), step("z", svc=3.0)],
                       [("x", "y"), ("x", "z")], frags=4, deadline=500.0)
        return scenario(node_capacities=(vec(4000, 8192),) * 3,
                        catalog={"chain": chain, "fan": fan},
                        arrivals=ExplicitArrivals(tuple(2.5 * i for i in range(1, 25))))

    @pytest.mark.parametrize("name, events, entries", [
        ("saturating_mix", 723, 1349),
        ("many_jobs", 10, 60),
    ])
    def test_pinned_event_and_entry_counts(self, monkeypatch, name, events, entries):
        if name == "saturating_mix":
            sc, _ = load_scenario(Path(__file__).resolve().parent.parent
                                  / "scenarios" / "saturating_mix.json")
            assert sc.mode is SchedulerMode.CHEAPEST_FIRST
        else:
            sc = self.many_jobs()
        counts = self.counted(monkeypatch)
        run(sc)
        assert counts == {"events": events, "entries": entries}

    def test_a_completion_at_its_jobs_restart_is_live_and_none_after_is_queued(
            self, monkeypatch):
        # a then b, one 10 s fragment each: the t=30 round deploys both, a
        # completes at 40, the first restart's time, and b would at 50. The
        # restart at 40 starts b's fragment again, which would end at 50, past
        # the restart at 45, which starts it again to end at 55.
        tpl = template([step("a", svc=10.0), step("b", svc=10.0)], [("a", "b")],
                       deadline=500.0)
        sc = scenario(catalog={"t": tpl}, arrivals=ExplicitArrivals((1.0,)), edge_speed=1.0,
                      faults=(DriverRestartFault(45.0, 0), DriverRestartFault(40.0, 0)))
        arrivals = generate_arrivals(sc.arrivals, sc.catalog)
        oracle = FragmentEngine(sc, arrivals).run()
        queued, instant, live = [], [0.0], []  # (instant, time) of each queued completion
        real_end, real_completion = _Engine._end_instant, _Engine._on_completion

        def end_instant(self, now):
            instant[0] = now
            real_end(self, now)

        def on_completion(self, batch, now):
            live.extend((now, entry[1]) for entry in batch
                        if entry[2] == self.drivers[entry[0]].version)
            return real_completion(self, batch, now)

        def heappush(heap, item):
            if item[1] == EventKind.STEP_COMPLETE:
                queued.append((instant[0], item[0]))
            heapq.heappush(heap, item)

        monkeypatch.setattr(_Engine, "_end_instant", end_instant)
        monkeypatch.setattr(_Engine, "_on_completion", on_completion)
        monkeypatch.setattr(sim_engine, "heapq",
                            SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        report = _Engine(sc, arrivals).run()
        assert queued == [(30.0, 40.0), (45.0, 55.0)]
        assert live == [(40.0, "a"), (55.0, "b")]
        assert [(o.completion, o.completed) for o in report.job_outcomes] == [(55.0, True)]
        assert (report.job_outcomes, report.cost_ledger) == (oracle.job_outcomes,
                                                             oracle.cost_ledger)

    def test_the_checked_engine_checks_every_live_entry_of_an_event(self, monkeypatch):
        # two equal one-step jobs, one per node, finish together at 40, at
        # an instant that touches neither, in one event
        tpl = template([step("s0", cpu=800, mem=0)], frags=10, deadline=500.0)
        sc = scenario(node_capacities=(vec(1000, 1024),) * 2, catalog={"t": tpl},
                      arrivals=ExplicitArrivals((1.0, 2.0)), edge_speed=1.0)
        batches, checked = [], Counter()
        real_completion, real_check = CheckedEngine._on_completion, oracles.check_driver_state

        def on_completion(self, batch, now):
            batches.append((now, list(batch)))
            return real_completion(self, batch, now)

        def check_driver_state(drv):
            checked[drv.job.job_id] += 1
            real_check(drv)

        monkeypatch.setattr(CheckedEngine, "_on_completion", on_completion)
        monkeypatch.setattr(oracles, "check_driver_state", check_driver_state)
        engine = CheckedEngine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        engine.run()
        assert batches == [(40.0, [("t-0000", "s0", 1), ("t-0001", "s0", 1)])]
        # each after its deploy at 30 and after its completion at 40
        assert checked == {"t-0000": 2, "t-0001": 2} and engine.completion_checks == 4
        assert (engine.completion_events, engine.live_entries, engine.stale_entries) == (1, 2, 0)


class TestDispatch:
    def test_every_pop_goes_through_the_module_heapq_to_its_handler(self, monkeypatch):
        """Counting pops through sim_engine's heapq name, as a tracer does,
        sees every event of a run with every kind, and each kind reaches
        its own handler as often as it is popped."""
        popped, handled = Counter(), Counter()

        def heappop(heap):
            item = heapq.heappop(heap)
            popped[item[1]] += 1
            return item

        monkeypatch.setattr(sim_engine, "heapq",
                            SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
        for owner, name, kind in [
                (_Engine, "_on_completion", EventKind.STEP_COMPLETE),
                (HcsScheduler, "close_windows", EventKind.EVICTION_EXPIRE),
                (HcsScheduler, "handle_node_failure", EventKind.NODE_FAILURE),
                (_Engine, "_on_driver_restart", EventKind.DRIVER_RESTART),
                (_Engine, "_on_arrival", EventKind.JOB_ARRIVAL),
                (HcsScheduler, "run_round", EventKind.ROUND_TICK),
                (_Engine, "_finish_at_horizon", EventKind.SIMULATION_END)]:
            def counted(*args, _real=getattr(owner, name), _kind=kind):
                handled[_kind] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        # the eviction handoff, with a small second node that fails, a
        # restart of the victim, and a horizon before the victim finishes
        sc = TestEvictionHandoff().build().replace(
            node_capacities=(vec(4000, 8192), vec(500, 8192)),
            faults=(NodeFailureFault(50.0, 1), DriverRestartFault(100.0, 0)), horizon=120.0)
        engine = _Engine(sc, generate_arrivals(sc.arrivals, sc.catalog))
        report = engine.run()
        assert report.horizon_reached
        assert set(popped) == set(EventKind)
        assert popped == handled
        # every push takes one sequence number; the cut leaves the rest queued
        assert popped.total() == engine.seq - len(engine.heap)

    def test_an_unknown_kind_is_an_internal_error(self, monkeypatch, tmp_path, capsys):
        real = _Engine.__init__

        def init(self, *args):
            real(self, *args)
            self._push(0.5, 9, None)

        monkeypatch.setattr(_Engine, "__init__", init)
        with pytest.raises(InternalConsistencyError, match=r"^unknown event kind 9$"):
            run(scenario())
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "edge": {"node_count": 1, "node_cpu_millicores": 2000, "node_memory_mb": 2048},
            "workloads": {"w": {"fragment_count": 2, "deadline": 300, "steps": [
                {"step_id": "s0", "cpu_millicores": 500, "memory_mb": 256,
                 "service_time": 1.0}]}},
            "arrivals": {"kind": "explicit", "times": [1.0]}}), encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "internal error: unknown event kind 9\n"
