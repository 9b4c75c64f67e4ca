"""Pipeline driver behaviour: pipelining laws, barriers, eviction handoff
and journal-based recovery."""

import copy
import heapq
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from hcs_sim.core_model import (
    BatchJob,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
)
from hcs_sim.pipeline_driver import (
    PipelineDriver,
    _fifo,
    _Run,
)

from oracles import (
    StepState,
    _fifo_until,
    chain_makespan,
    clone_driver,
    counting_completions,
    fragment_view,
    pipeline_makespan,
    plan_view,
    rebuild_from_journal,
    rewalk_commit,
    step_state,
)

CLOUD = "cloud"
EDGE = "edge"


def make_job(n_steps=3, fragments=5, service=1.0, ff=True, replicas=1,
             job_id="j0", deadline=1e6, ff_flags=None, edges=None):
    flags = ff_flags or [ff] * n_steps
    steps = [StepSpec(f"s{i}", ResourceVector(100, 16), replicas, service,
                      feed_forward=flags[i]) for i in range(n_steps)]
    if edges is None:
        edges = [(f"s{i}", f"s{i+1}") for i in range(n_steps - 1)]
    return BatchJob(job_id, PipelineDag(steps, edges), fragments, deadline)


def run_to_completion(driver, region=CLOUD, pools=None, deploy_at=0.0, until=None):
    """Deploy every step at once and report the projected step completions in
    time order; returns the time of the one that completed the job, or None
    when until, where the plan is committed instead, comes first."""
    for sid in driver.topo:
        pool = (pools or {}).get(sid, driver.steps[sid].spec.replicas)
        driver.deploy(sid, region, pool, deploy_at)
    for t, sid in sorted((t, sid) for sid, t in driver.project(deploy_at)):
        if until is not None and t > until:
            driver.commit(until)
            return None
        if driver.on_step_complete(sid, t):
            return t
    return None


class TestPipeliningLaws:
    def test_feed_forward_chain_law(self):
        # frozen from the oracle: m=5, N=3, t=1 -> 7.0
        drv = PipelineDriver(make_job(3, 5, 1.0, ff=True), cloud_speed=1.0)
        assert run_to_completion(drv) == 7.0
        for m in (1, 5, 20):
            for n in (1, 3, 5):
                drv = PipelineDriver(make_job(n, m, 1.0, ff=True), cloud_speed=1.0)
                got = run_to_completion(drv)
                assert got == (m + n - 1) * 1.0
                assert got == chain_makespan(n, m, 1.0, feed_forward=True)

    def test_barrier_chain_law(self):
        for m in (1, 5, 20):
            for n in (1, 3, 5):
                drv = PipelineDriver(make_job(n, m, 1.0, ff=False), cloud_speed=1.0)
                got = run_to_completion(drv)
                assert got == n * m * 1.0
                assert got == chain_makespan(n, m, 1.0, feed_forward=False)

    def test_middle_barrier_frozen_example(self):
        # oracle says 11.0 for 3 steps, 5 fragments, 1 s, middle step a barrier
        drv = PipelineDriver(make_job(3, 5, 1.0, ff_flags=[True, False, True]),
                             cloud_speed=1.0)
        assert run_to_completion(drv) == 11.0

    def test_single_fragment_is_sum_of_service_times(self):
        drv = PipelineDriver(make_job(4, 1, 2.5), cloud_speed=1.0)
        assert run_to_completion(drv) == 10.0

    def test_random_dags_match_oracle(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randrange(1, 5)
            flags = [rng.random() < 0.6 for _ in range(n)]
            m = rng.randrange(1, 9)
            service = rng.choice([0.5, 1.0, 2.0])
            replicas = rng.randrange(1, 4)
            if n >= 3 and rng.random() < 0.4:
                edges = [("s0", "s1"), ("s0", "s2")] + [(f"s{i}", f"s{i+1}") for i in range(2, n - 1)]
            else:
                edges = [(f"s{i}", f"s{i+1}") for i in range(n - 1)]
            job = make_job(n, m, service, ff_flags=flags, replicas=replicas, edges=edges)
            drv = PipelineDriver(job, cloud_speed=1.0)
            with counting_completions() as completions:
                got = run_to_completion(drv)
            want = pipeline_makespan(
                [(s.step_id, service, s.feed_forward) for s in job.dag.steps],
                edges, m, {s.step_id: replicas for s in job.dag.steps}, speed=1.0)
            assert math.isclose(got, want, rel_tol=1e-9), (trial, got, want)
            assert all(v == 1 for v in completions.values())

    def test_edge_speed_stretches_durations(self):
        drv = PipelineDriver(make_job(1, 5, 1.0), edge_speed=0.8)
        assert run_to_completion(drv, region=EDGE) == 6.25


class TestDeploySemantics:
    def test_unknown_step_is_refused_by_deploy_and_eviction_notice(self):
        drv = PipelineDriver(make_job(1, 3))
        with pytest.raises(ValidationError, match=r"job j0 has no step 'nope'"):
            drv.deploy("nope", "edge", 1, 0.0)
        with pytest.raises(ValidationError, match=r"job j0 has no step 'nope'"):
            drv.on_eviction_notice("nope", 5.0, 0.0)
        assert drv.steps["s0"].region is None and drv.version == 0

    def test_non_source_feed_forward_runs_with_nothing_in_flight(self):
        drv = PipelineDriver(make_job(2, 5))
        drv.deploy("s1", CLOUD, 1, 0.0)
        _, in_flight, _ = fragment_view(drv)["s1"]
        assert step_state(drv, "s1") is StepState.RUNNING and not in_flight

    def test_barrier_step_waits_until_all_predecessors_finish(self):
        drv = PipelineDriver(make_job(2, 3, ff_flags=[True, False]), cloud_speed=1.0)
        drv.deploy("s0", CLOUD, 1, 0.0)
        drv.deploy("s1", CLOUD, 3, 0.0)
        assert step_state(drv, "s1") is StepState.WAITING
        drv.project(0.0)
        drv.commit(2.5)  # two of the three fragments are done at s0
        assert len(fragment_view(drv)["s0"][0]) == 2
        assert step_state(drv, "s1") is StepState.WAITING and not fragment_view(drv)["s1"][1]
        drv.project(2.5)
        drv.commit(3.0)
        # all fragments released at once
        assert step_state(drv, "s1") is StepState.RUNNING
        assert list(fragment_view(drv)["s1"][1].values()) == [4.0, 4.0, 4.0]

    def test_barrier_commits_at_its_release_instant(self):
        drv = PipelineDriver(make_job(2, 3, ff_flags=[True, False]), cloud_speed=1.0)
        drv.deploy("s0", CLOUD, 1, 0.0)
        drv.deploy("s1", CLOUD, 3, 0.0)
        assert ("s0", 3.0) in drv.project(0.0)
        at, before = copy.deepcopy(drv), copy.deepcopy(drv)
        at.commit(3.0)
        assert step_state(at, "s1") is StepState.RUNNING
        _, in_flight, ready = fragment_view(at)["s1"]
        assert in_flight == {0: 4.0, 1: 4.0, 2: 4.0} and not ready
        before.commit(3.0 - 1e-9)
        assert step_state(before, "s1") is StepState.WAITING
        _, in_flight, ready = fragment_view(before)["s1"]
        assert not in_flight and not ready

    def test_barrier_journaled_before_release_is_an_internal_error(self):
        drv = PipelineDriver(make_job(2, 3, ff_flags=[True, False]), cloud_speed=1.0)
        drv.deploy("s0", CLOUD, 1, 0.0)
        drv.steps["s1"].done = 1
        with pytest.raises(InternalConsistencyError, match="journaled before release"):
            drv.project(0.0)

    def test_deploying_a_completed_step_is_an_internal_error(self):
        drv = PipelineDriver(make_job(2, 3), cloud_speed=1.0)
        run_to_completion(drv, until=3.5)  # s0 completes at 3.0, s1 at 4.0
        assert step_state(drv, "s0") is StepState.COMPLETED
        drv.deploy("s1", EDGE, 1, 3.5)  # a second deploy moves a step
        with pytest.raises(InternalConsistencyError, match="deploy of completed step"):
            drv.deploy("s0", EDGE, 1, 3.5)

    def test_pool_bounds_concurrency(self):
        drv = PipelineDriver(make_job(1, 10, replicas=3), cloud_speed=1.0)
        drv.deploy("s0", CLOUD, 3, 0.0)
        assert len(fragment_view(drv)["s0"][1]) == 3
        drv.project(0.0)
        for t in (0.5, 1.0, 2.5):
            drv.commit(t)
            assert len(fragment_view(drv)["s0"][1]) == 3
            drv.project(t)
        drv.commit(3.0)
        journal, in_flight, _ = fragment_view(drv)["s0"]
        assert len(journal) == 9 and list(in_flight) == [9]


class TestEviction:
    def make_running(self, m=6, service=2.0):
        drv = PipelineDriver(make_job(1, m, service, replicas=2), edge_speed=1.0,
                             cloud_speed=1.0)
        drv.deploy("s0", EDGE, 2, 0.0)
        drv.project(0.0)
        return drv

    def test_in_flight_finishing_by_expiry_survives(self):
        drv = self.make_running()
        # fragments 0,1 in flight finishing at t=2; notice at t=1 with expiry t=5
        drv.on_eviction_notice("s0", 5.0, 1.0)
        _, in_flight, ready = fragment_view(drv)["s0"]
        assert set(in_flight) == {0, 1} and ready == [2, 3, 4, 5]

    def test_in_flight_past_expiry_cancelled_and_requeued(self):
        drv = self.make_running(service=10.0)
        version = drv.version
        drv.on_eviction_notice("s0", 5.0, 1.0)
        _, in_flight, ready = fragment_view(drv)["s0"]
        assert ready[:2] == [0, 1]
        assert not in_flight
        # the plan that completed them is superseded, and nothing completes now
        assert drv.project(1.0) == [] and drv.version == version + 1

    def test_no_dispatch_between_notice_and_expiry(self):
        drv = self.make_running(service=2.0)
        drv.on_eviction_notice("s0", 5.0, 1.0)
        drv.project(1.0)
        drv.commit(4.9)  # 0 and 1 finish at 2.0, before expiry, and count
        journal, in_flight, ready = fragment_view(drv)["s0"]
        assert not in_flight
        assert journal == {0, 1}
        assert ready == [2, 3, 4, 5]

    def test_switch_resumes_on_new_endpoint(self):
        drv = self.make_running(service=2.0)
        drv.on_eviction_notice("s0", 5.0, 1.0)
        drv.project(1.0)
        drv.deploy("s0", CLOUD, 2, 5.0)
        journal, in_flight, _ = fragment_view(drv)["s0"]
        assert journal == {0, 1}
        assert list(in_flight.values()) == [7.0, 7.0]
        assert drv.steps["s0"].region == "cloud"

    def test_waiting_step_switches_silently(self):
        drv = PipelineDriver(make_job(2, 3, ff_flags=[True, False]), cloud_speed=1.0)
        drv.deploy("s0", EDGE, 1, 0.0)
        drv.deploy("s1", EDGE, 1, 0.0)
        drv.on_eviction_notice("s1", 30.0, 0.0)
        assert fragment_view(drv)["s1"] == (set(), {}, [])
        drv.deploy("s1", CLOUD, 1, 30.0)
        assert not fragment_view(drv)["s1"][1] and step_state(drv, "s1") is StepState.WAITING

    def test_notice_for_cloud_step_rejected(self):
        drv = PipelineDriver(make_job(1, 2))
        drv.deploy("s0", CLOUD, 1, 0.0)
        with pytest.raises(InternalConsistencyError):
            drv.on_eviction_notice("s0", 5.0, 0.0)

    def test_completion_during_window_clears_switch(self):
        drv = self.make_running(m=2, service=1.0)
        drv.on_eviction_notice("s0", 5.0, 0.5)
        assert drv.project(0.5) == [("s0", 1.0)]
        assert drv.on_step_complete("s0", 1.0)
        assert step_state(drv, "s0") is StepState.COMPLETED
        assert drv.steps["s0"].pending_switch is None

    @pytest.mark.parametrize("at", [5.0, 5.5])
    def test_work_in_flight_at_a_redeploy_from_the_expiry_is_an_internal_error(self, at):
        drv = self.make_running(service=2.0)
        drv.on_eviction_notice("s0", 5.0, 1.0)
        drv.steps["s0"].flight = [6.0, 6.0]  # past the expiry, which the notice cut
        with pytest.raises(InternalConsistencyError, match="in-flight work at eviction expiry"):
            drv.deploy("s0", CLOUD, 2, at)

    def test_redeploy_inside_the_window_requeues_in_flight(self):
        # a node failure inside the window: fragments 0 and 1 start again
        drv = self.make_running(service=2.0)
        drv.on_eviction_notice("s0", 5.0, 1.0)
        drv.deploy("s0", CLOUD, 2, 1.5)
        assert fragment_view(drv)["s0"][1] == {0: 3.5, 1: 3.5}
        assert drv.steps["s0"].pending_switch is None


class TestRecovery:
    def test_resume_redispatches_only_unjournaled(self):
        drv = PipelineDriver(make_job(2, 100, 1.0), cloud_speed=1.0)
        run_to_completion(drv, pools={"s0": 1, "s1": 1}, until=40.0)
        assert len(fragment_view(drv)["s0"][0]) == 40
        drv.resume_from_journal(40.0)
        # exactly the 60 unjournaled fragments are pending again at step s0
        journal, in_flight, ready = fragment_view(drv)["s0"]
        assert len(ready) + len(in_flight) == 60
        assert set(ready) | set(in_flight) == set(range(100)) - journal

    def test_resume_with_full_journal_is_noop(self):
        drv = PipelineDriver(make_job(2, 5), cloud_speed=1.0)
        run_to_completion(drv)
        assert drv.is_complete()
        drv.resume_from_journal(100.0)
        assert all(step_state(drv, sid) is StepState.COMPLETED for sid in drv.steps)
        assert fragment_view(drv) == {"s0": (set(range(5)), {}, []),
                                      "s1": (set(range(5)), {}, [])}

    def test_resume_drops_stale_completions_and_preserves_exactly_once(self):
        drv = PipelineDriver(make_job(2, 20, 1.0), cloud_speed=1.0)
        for sid in drv.topo:
            drv.deploy(sid, CLOUD, 1, 0.0)
        plan = drv.project(0.0)
        heap = [(t, sid, drv.version) for sid, t in plan]
        heapq.heapify(heap)
        restarted = False
        stale = 0
        completed_at = None
        with counting_completions() as completions:
            while heap:
                t, sid, version = heapq.heappop(heap)
                if not restarted and t > 7.0:
                    heapq.heappush(heap, (t, sid, version))
                    drv.resume_from_journal(7.0)
                    for nsid, nt in drv.project(7.0):
                        heapq.heappush(heap, (nt, nsid, drv.version))
                    restarted = True
                    continue
                if version != drv.version:
                    stale += 1
                    continue
                if drv.on_step_complete(sid, t):
                    completed_at = t
        assert drv.is_complete() and completed_at == 21.0
        assert stale == 2  # the first plan's completions of s0 and s1
        assert all(v == 1 for v in completions.values())
        assert sum(completions.values()) == 40

    def test_redeploy_requeues_in_flight(self):
        drv = PipelineDriver(make_job(1, 6, 5.0, replicas=2), edge_speed=1.0)
        drv.deploy("s0", EDGE, 2, 0.0)
        drv.project(0.0)
        version = drv.version
        drv.deploy("s0", CLOUD, 2, 2.0)
        # same fragments, restarted on the cloud; the old plan is superseded
        assert fragment_view(drv)["s0"][1] == {0: 7.0, 1: 7.0}
        assert drv.project(2.0) == [("s0", 17.0)] and drv.version == version + 1


def _values(times):
    """A plan's times, a list or a run, as a list."""
    return times if type(times) is list else times.values()


def _state(drv):
    """The durable state a commit or a restart leaves."""
    return {sid: (rt.done, rt.flight, rt.ready, rt.pending_switch)
            for sid, rt in drv.steps.items()}


def _random_job(rng, trial):
    shape = rng.choice(["chain", "join", "join"])
    if shape == "chain":
        ids = [f"s{i}" for i in range(rng.randrange(1, 5))]
        edges = list(zip(ids, ids[1:]))
    else:  # three sources joined at s3, sometimes followed by s4
        ids = [f"s{i}" for i in range(rng.choice([4, 5]))]
        edges = [("s0", "s3"), ("s1", "s3"), ("s2", "s3")] + [("s3", "s4")] * (len(ids) == 5)
    steps = [StepSpec(sid, ResourceVector(100, 16), rng.randrange(1, 5),
                      rng.choice([0.5, 1.0, 1.5, 2.0]), feed_forward=rng.random() < 0.6)
             for sid in ids]
    return BatchJob(f"j{trial}", PipelineDag(steps, edges), rng.randrange(1, 13), 1e6)


def _interrupt(drv, rng, now, pools):
    """One random interruption at now, as the engine may deliver it; pools
    keeps the cloud pool drawn at each notice for its switch."""
    drv.commit(now)  # so the choices see the state the interruption meets
    rts = drv.steps
    choices = ["commit", "restart"]
    choices += [("deploy", s) for s, rt in rts.items() if rt.done < drv.m]
    choices += [("notice", s) for s, rt in rts.items() if rt.region == EDGE
                and rt.pending_switch is None and rt.done < drv.m]
    choices += [("switch", s) for s, rt in rts.items()
                if rt.pending_switch is not None and rt.pending_switch <= now]
    pick = rng.choice(choices)
    if pick == "commit":
        pass
    elif pick == "restart":
        drv.resume_from_journal(now)
    elif pick[0] == "deploy":
        drv.deploy(pick[1], rng.choice([EDGE, CLOUD]), rng.randrange(1, 5), now)
    elif pick[0] == "notice":
        expiry = now + rng.choice([0.0, 0.7, 3.0])
        pools[pick[1]] = rng.randrange(1, 5)
        drv.on_eviction_notice(pick[1], expiry, now)
    else:
        drv.deploy(pick[1], CLOUD, pools[pick[1]], now)


def _random_plans(rng, trials):
    """Random jobs, each projected up to 8 times with a random interruption
    between projections. Yields (trial, driver, plan start, cuts), the cuts
    being every time the plan holds and the instants just around it."""
    for trial in range(trials):
        job = _random_job(rng, trial)
        drv = PipelineDriver(job, edge_speed=0.8, cloud_speed=1.0)
        for sid in drv.topo:
            if rng.random() < 0.7:
                drv.deploy(sid, rng.choice([EDGE, CLOUD]), rng.randrange(1, 5), 0.0)
        t0 = 0.0
        pools = {}
        for _ in range(8):
            drv.project(t0)
            times = {t0}
            for sid, _, a_times, fins, _ in drv._plan:
                times.update(_values(a_times), _values(fins), drv.steps[sid].flight)
            cuts = sorted({c + e for c in times for e in (-1e-9, 0.0, 1e-9)})
            yield trial, drv, t0, cuts
            t0 = rng.choice([c for c in cuts if c < 30.0] or [t0])
            _interrupt(drv, rng, t0, pools)
            if drv.is_complete():
                break


def test_commit_cuts_the_plan_as_a_rewalk_would():
    """Committing the stored plan at any instant leaves the same durable
    state as walking the schedule again from the plan's start up to it."""
    cuts_checked = workers_bound = 0
    for trial, drv, t0, cuts in _random_plans(random.Random(8), 150):
        # cuts where the workers freed, not the fragments ready, bound the starts
        for sid, n_ready, a_times, fins, free in drv._plan:
            a_times, fins = _values(a_times), _values(fins)
            flight = drv.steps[sid].flight
            for cut in cuts if free is not None else ():
                freed = free + sum(fin <= cut for fin in [*flight, *fins])
                workers_bound += freed < n_ready + bisect_right(a_times, cut)
        for cut in cuts:
            cut_drv, walk_drv = clone_driver(drv), clone_driver(drv)
            cut_drv.commit(cut)
            rewalk_commit(walk_drv, t0, cut)
            assert _state(cut_drv) == _state(walk_drv), (trial, t0, cut)
            cuts_checked += 1
    assert cuts_checked > 10000 and workers_bound > 1000


def test_restart_requeues_as_a_rebuild_from_the_journal_would():
    """A restart at any instant of a plan leaves the same state as rebuilding
    every step's queue from the journal."""
    cuts_checked = in_window = barrier_waiting = 0
    for trial, drv, _, cuts in _random_plans(random.Random(11), 140):
        for cut in cuts:
            restarted = clone_driver(drv)
            restarted.commit(cut)
            rebuilt = clone_driver(restarted)
            restarted.resume_from_journal(cut)
            rebuild_from_journal(rebuilt, cut)
            assert _state(restarted) == _state(rebuilt), (trial, cut)
            cuts_checked += 1
            in_window += any(rt.pending_switch is not None for rt in restarted.steps.values())
            barrier_waiting += any(step_state(restarted, sid) is StepState.WAITING
                                   for sid in restarted.steps)
    assert cuts_checked > 10000 and in_window > 1000 and barrier_waiting > 1000


def _count_walks(monkeypatch):
    """A list whose length is the number of _follow walks from now on."""
    walks, real = [], PipelineDriver._follow

    def follow(self, t0):
        walks.append(self.job.job_id)
        return real(self, t0)

    monkeypatch.setattr(PipelineDriver, "_follow", follow)
    return walks


def _unmemoized(drv, now):
    """drv's completions and plan at now, projected on a copy without a memo."""
    fresh = clone_driver(drv)
    return fresh.project(now), plan_view(fresh)


def _of_template(template, job_id, fragments=None):
    """A job of template's DAG, the one object, as the engine's jobs share it."""
    return BatchJob(job_id, template.dag, fragments or template.fragment_count, 1e6)


def test_jobs_of_one_template_deployed_alike_share_one_walk(monkeypatch):
    """Jobs of one template deployed alike at one instant walk their plan
    once; each takes the first's plan itself, which equals its own
    unmemoized projection, and a commit of one leaves the others' plans and
    states as they were."""
    template = make_job(5, 9, 1.5, replicas=2, edges=[
        ("s0", "s3"), ("s1", "s3"), ("s2", "s3"), ("s3", "s4")],
        ff_flags=[True, True, True, True, False])
    drivers = [PipelineDriver(_of_template(template, f"j{i}")) for i in range(4)]
    for drv in drivers:
        for sid, region, pool in [("s0", EDGE, 2), ("s1", CLOUD, 3), ("s2", EDGE, 1),
                                  ("s3", CLOUD, 2), ("s4", EDGE, 2)]:
            drv.deploy(sid, region, pool, 10.0)
    want = [_unmemoized(drv, 10.0) for drv in drivers]
    walks = _count_walks(monkeypatch)
    memo = {}
    got = [drv.project(10.0, memo) for drv in drivers]
    assert walks == ["j0"]
    for drv, completions, (want_completions, want_plan) in zip(drivers, got, want):
        assert completions == want_completions and plan_view(drv) == want_plan
    assert all(drv._plan is drivers[0]._plan for drv in drivers[1:])
    keys = [drv._state_key() for drv in drivers[1:]]
    drivers[0].commit(13.0)
    assert [plan_view(drv) for drv in drivers[1:]] == [plan for _, plan in want[1:]]
    # a commit of the shared plan writes only the committing job's steps
    assert [drv._state_key() for drv in drivers[1:]] == keys
    assert drivers[0]._state_key() != keys[0]
    # a later plan walks, even with the same memo
    drivers[0].project(13.0, memo)
    assert walks == ["j0", "j0"]


# a value for one field of s1 that _mid_run sets otherwise
_ONE_FIELD = {"region": CLOUD, "pool": 3, "pending_switch": 9.0, "done": 2, "flight": [4.75],
              "ready": 2}


def _set_region(drv, rt, region):
    """Write a step's region as deploy does, with its service time by
    deploy's rule, but without deploy's requeue."""
    rt.region = region
    rt.service = rt.spec.service_time_per_fragment / (
        drv.edge_speed if region == EDGE else drv.cloud_speed)


def _mid_run(job):
    """A driver of job in a state its first plan is walked from at 4.0: s0
    on the cloud with 3 fragments journaled, s1 on the edge with 1, s2, a
    barrier, waiting. _ONE_FIELD's changes need not keep the prefix law:
    the memo's key, not the law, is under test."""
    drv = PipelineDriver(job)
    for sid, region, pool, done, flight, ready in [
            ("s0", CLOUD, 1, 3, [4.5], 2), ("s1", EDGE, 2, 1, [4.25], 1),
            ("s2", CLOUD, 1, 0, [], 0)]:
        rt = drv.steps[sid]
        rt.pool, rt.done, rt.flight, rt.ready = pool, done, flight, ready
        _set_region(drv, rt, region)
    return drv


@pytest.mark.parametrize("field", [*_ONE_FIELD, "fragment_count", "service_time"])
def test_a_job_differing_in_one_key_field_walks_its_own_plan(monkeypatch, field):
    """A job whose state, fragment count or template differs from an
    earlier job's in one field walks afresh and gets its own unmemoized
    plan, which differs from the earlier one's; a third job alike to the
    first is served the first's plan."""
    template = make_job(3, 6, 1.0, replicas=2, ff_flags=[True, True, False])
    base = _mid_run(_of_template(template, "base"))
    if field == "fragment_count":
        other = _mid_run(_of_template(template, "other", fragments=7))
    elif field == "service_time":  # the same step ids, another DAG
        other = _mid_run(make_job(3, 6, 1.25, replicas=2, ff_flags=[True, True, False],
                                  job_id="other"))
    else:
        other = _mid_run(_of_template(template, "other"))
        if field == "region":
            _set_region(other, other.steps["s1"], _ONE_FIELD[field])
        else:
            setattr(other.steps["s1"], field, _ONE_FIELD[field])
    alike = _mid_run(_of_template(template, "alike"))
    want_base, want_other = _unmemoized(base, 4.0), _unmemoized(other, 4.0)
    assert want_base != want_other
    walks = _count_walks(monkeypatch)
    memo = {}
    got = [drv.project(4.0, memo) for drv in (base, other, alike)]
    assert walks == ["base", "other"]
    assert (got[1], plan_view(other)) == want_other
    assert (got[0], plan_view(base)) == (got[2], plan_view(alike)) == want_base


def test_journaling_past_the_fragment_count_is_an_internal_error():
    drv = PipelineDriver(make_job(2, 5), cloud_speed=1.0)
    run_to_completion(drv)
    assert drv.is_complete()
    with pytest.raises(InternalConsistencyError, match="journaled twice"):
        drv._journal(drv.steps["s0"], 1)
    drv = PipelineDriver(make_job(1, 5))
    drv._journal(drv.steps["s0"], 3)
    with pytest.raises(InternalConsistencyError, match="journaled twice"):
        drv._journal(drv.steps["s0"], 3)
    assert drv.steps["s0"].done == 3


def test_queued_fragment_landing_before_an_in_flight_one_is_an_internal_error():
    drv = PipelineDriver(make_job(1, 5, 1.0, replicas=2), cloud_speed=1.0)
    drv.deploy("s0", CLOUD, 2, 0.0)
    drv.project(0.0)  # 0 and 1 finish at 1.0, 2 and 3 at 2.0, 4 at 3.0
    drv.steps["s0"].flight = [1.0, 9.0]  # break the law: 1 finishes after 2 and 3
    with pytest.raises(InternalConsistencyError, match="before an in-flight one"):
        drv.commit(2.0)


_UNITS = 2 ** 53


def _grid_run(rng, scale, lo):
    """Ready times spaced by a multiple of scale, the first at least lo, as a
    run when it meets the driver's exactness rule, else as a list; and as a
    list of floats computed from rationals."""
    n = rng.randrange(1, 12)
    first = (math.ceil(lo / scale) + rng.randrange(0, 6)) * scale
    step = rng.randrange(1, 9) * scale
    values = [float(Fraction(first) + k * Fraction(step)) for k in range(n)]
    return (_Run(first, step, n) if _on_grid(first, step, n) else values), values


def _on_grid(first, step, n):
    """Whether first and step are multiples of a common 2^-s and the last
    time, first + (n-1)*step, is at most 2^53 of those units."""
    q = max(Fraction(first).denominator, Fraction(step).denominator)
    return (Fraction(first) + (n - 1) * Fraction(step)) * q <= _UNITS


def _fifo_case(rng):
    """Random _fifo inputs: (n_ready, arrivals as given, arrivals as a list,
    busy, free, t0, duration, the kind the result must be or None)."""
    pick = rng.random()
    if pick < 0.15:
        # a backlog whose last finish is a few units of 2^-s either side of
        # 2^53 units: a run at or below the bound, the running sum above it;
        # an odd multiple of 2^-s as the service time makes 2^-s the grid
        scale = rng.choice([1.0, 2.0 ** -3, 2.0 ** -52])
        du, n, over = rng.choice([1, 3]), rng.randrange(1, 7), rng.randrange(-3, 4)
        w = (_UNITS + over - n * du) * scale
        return n, [], [], [w], 0, 0.0, du * scale, _Run if over <= 0 else list
    if pick < 0.2:
        # a service time that underflowed to 0, behind a backlog or fed by a
        # run, whose times the finishes then repeat
        d = math.ulp(0.0) / 3.0
        assert d == 0.0
        if pick < 0.175:
            return rng.randrange(1, 6), [], [], [], 1, rng.choice([0.0, 1.5, 0.1]), d, list
        arrivals, values = _grid_run(rng, rng.choice([1.0, 0.25]), 0.0)
        return 0, arrivals, values, [], 1, 0.0, d, None
    if pick < 0.3:
        # a backlog on a step of 0.1 or 0.3: the running sum rounds
        d = rng.choice([0.1, 0.3])
        return rng.randrange(3, 12), [], [], [], 1, rng.choice([0.0, 0.1, 0.3, 2.0]), d, list
    dyadic = rng.random() < 0.7
    scale = rng.choice([1.0, 0.5, 0.25, 2.0 ** -10]) if dyadic else rng.choice([0.1, 0.3])
    t0 = rng.randrange(0, 20) * scale
    pool = rng.choice([1, 1, 1, 2, 3])
    busy = sorted(t0 + rng.randrange(0, 12) * scale for _ in range(rng.randrange(0, pool + 1)))
    n_ready = rng.choice([0, 0, 1, 4])
    shape = rng.choice(["run", "run", "list", "empty"] if n_ready else ["run", "run", "list"])
    if shape == "run":
        arrivals, values = _grid_run(rng, scale, t0)
    elif shape == "list":
        values = sorted(t0 + rng.randrange(0, 30) * scale for _ in range(rng.randrange(1, 10)))
        arrivals = values
    else:
        arrivals = values = []
    d = rng.randrange(1, 8) * rng.choice([scale, scale / 2, 0.1])
    return n_ready, arrivals, values, busy, pool - len(busy), t0, d, None


def _cuts(values):
    """Instants before the first value, on each value, between values and
    after the last."""
    cuts = {values[0] - 1.0, math.nextafter(values[0], -math.inf), values[-1] + 1.0}
    for a, b in zip(values, values[1:]):
        cuts.add((a + b) / 2)
    for v in values:
        cuts.update((v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
    return sorted(cuts)


def test_one_worker_runs_match_the_heap_loop():
    """_fifo's finish times, a list or a run, are the heap loop's element for
    element; a run's values are exact, and its count at any cut is the
    bisection of its values."""
    rng = random.Random(25)
    kinds = {list: 0, _Run: 0}
    runs_checked = kept_up = 0
    for trial in range(20000):
        n_ready, arrivals, values, busy, free, t0, d, kind = _fifo_case(rng)
        got = _fifo(n_ready, arrivals, busy, free, t0, d)
        want = _fifo_until([t0] * n_ready + values, busy, free, t0, d, math.inf)
        assert _values(got) == want, trial
        assert kind is None or type(got) is kind, (trial, n_ready, values, busy, free, t0, d)
        kinds[type(got)] += 1
        kept_up += type(got) is _Run and got.step != d  # one finish per arrival
        checked = [(got, want)] if type(got) is _Run else []
        if type(arrivals) is _Run:
            checked.append((arrivals, values))
        for run, vals in checked:
            assert run.n == len(vals) and run.last == vals[-1], trial
            assert _on_grid(run.first, run.step, run.n), trial
            for k, v in enumerate(vals):
                assert Fraction(run.first) + k * Fraction(run.step) == Fraction(v), (trial, k)
                assert run.first + k * run.step == v, (trial, k)
            for cut in _cuts(vals):
                assert run.count(cut) == bisect_right(vals, cut), (trial, cut)
            # an in-flight finish before the run: the term before it, or not
            back = vals[0] - run.step
            for prev in (back, math.nextafter(back, 0.0), vals[0] - 0.5 * run.step, vals[0] - 0.1):
                if prev < 0:
                    continue
                longer = run.after(prev)
                assert _values(longer) == [prev] + vals, trial
                if type(longer) is _Run:
                    assert _on_grid(longer.first, longer.step, longer.n), trial
                    terms = [longer.first + k * longer.step for k in range(longer.n)]
                    assert terms == [prev] + vals, trial
            runs_checked += 1
    assert kinds[list] > 8000 and kinds[_Run] > 3000 and kept_up > 300 and runs_checked > 6000


def test_one_worker_list_plans_match_the_heap_loop_bit_for_bit():
    """With one worker, _fifo's list is the heap loop's, float for float,
    over ready and service times that are not short binary fractions, such
    as multiples of 0.1, which round at every sum."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    times = st.one_of(st.integers(0, 10 ** 4).map(lambda k: k * 0.1),
                      st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False))
    durations = st.one_of(st.integers(1, 100).map(lambda k: k * 0.1),
                          st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False))

    @settings(max_examples=400, deadline=None)
    @given(t0=times, offsets=st.lists(times, max_size=12), n_ready=st.integers(0, 4),
           busy=st.one_of(st.none(), times), duration=durations)
    def check(t0, offsets, n_ready, busy, duration):
        assume(n_ready or offsets)  # a step with nothing queued plans nothing
        arrivals = sorted(t0 + x for x in offsets)
        in_flight = [] if busy is None else [t0 + busy]
        got = _fifo(n_ready, arrivals, in_flight, 1 - len(in_flight), t0, duration)
        want = _fifo_until([t0] * n_ready + arrivals, in_flight, 1 - len(in_flight), t0,
                           duration, math.inf)
        assert [x.hex() for x in _values(got)] == [x.hex() for x in want]

    check()
