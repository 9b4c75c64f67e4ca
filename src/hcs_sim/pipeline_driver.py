"""Per-job pipeline driver: per-step fragment schedules through the DAG,
journaling at commit, eviction handoff and restart recovery.

Between two interruptions of a job nothing outside it touches its fragments.
Each step is then a FIFO queue in front of a pool of p workers, and its
fragment finish times follow the max-plus recurrence
f[k] = max(a[k], f[k-p]) + d, with a[k] the ready time and d the service time
over the region's speed. The driver keeps the durable state of its last
commit (journal, ready queues, in-flight fragments, regions, pending
eviction switches) and projects every step's schedule from it, one plain loop
per step in topological order; the engine schedules one event per projected
step completion. The projection is kept as the plan. An interruption first
commits it up to its instant, cutting each step's planned queue by bisection:
fragments finished by then are journaled, started ones are in flight, ready
ones queue. The interruption then applies and the job is projected again.
A plan follows from the state, the DAG, the fragment count, the speeds and
the instant alone, so jobs alike in all of them may share one first plan
(project's memo). A plan names each step by its id and holds nothing of one
driver, so a shared plan is used as it is. Plans, and the lists and runs in
them, are therefore read-only: a commit slices them into new lists.

A one-worker step may plan its finish times as a run, first + k*step for
k < n, in place of a float per fragment: _fifo gives the cases, and _exact the
rule that makes each time equal, bit for bit, the running sum.

Every step takes its fragments in index order: sources queue them so, a FIFO
pool of equal service times finishes them in start order, a requeue puts the
lower (cancelled or lost) indices first, and a fragment becomes ready at a
join no earlier than every lower one. So completions at equal times, which
the event queue would order by insertion, are ordered by fragment index.
A feed-forward fragment arrives in the commit that journals it at its last
predecessor, and a barrier releases in the commit that completes its last
predecessor. Hence the law the state is written in: after every mutation a
step's journal is the prefix 0..k-1, its in-flight fragments are the next i
indices, with non-decreasing finish times, and its ready queue is the r
indices after those. A step keeps k, the i finish times and r, never a
fragment id; a driver restart only requeues the in-flight ones, and the
fragments that become ready at a join are the common prefix of its
predecessors' journaled and planned ones.

A step's lifecycle is not stored: it is COMPLETED when k is the fragment
count, PENDING while it has no region, and otherwise RUNNING when it is
feed-forward or every predecessor is complete, WAITING when it is not. Two
facts make the counts enough. An undeployed step has a pool of 0, so it
never dispatches. A barrier's ready count stays 0 until its predecessors
complete: it gains fragments only at its release, and in-flight fragments
only go back to the queue after a dispatch. deploy is the one writer of a
step's region, pool and service time (the fragment's over the region's
speed), and _journal of k; is_complete reads the count of steps whose
completion on_step_complete took, once each.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heapreplace
from itertools import accumulate, repeat

from hcs_sim.core_model import (
    BatchJob,
    InternalConsistencyError,
    StepSpec,
    ValidationError,
)


class _StepRuntime:
    """A step's durable state, as counts of its fragments in index order.

    Fragments 0..done-1 are journaled; flight holds the finish times,
    non-decreasing, of the next len(flight), which are in flight; the ready
    fragments after those queue. flight is only ever replaced, never changed
    in place: a plan shares it. The step's lifecycle follows from these
    counts, its region and its predecessors' counts (see the module
    docstring). PipelineDriver.deploy is the one writer of region, pool and
    service, and PipelineDriver._journal the one writer of done.
    """

    __slots__ = ("spec", "region", "pool", "service", "done", "flight", "ready", "pending_switch")

    def __init__(self, spec: StepSpec):
        self.spec = spec
        self.region: str | None = None  # "edge" or "cloud" once deployed
        self.pool = 0  # 0 until deployed, so an undeployed step never dispatches
        self.service = 0.0  # a fragment's service time in the region, once deployed
        self.done = 0
        self.flight: list[float] = []
        self.ready = 0
        # the expiry of the eviction window a notice opened; the step
        # dispatches nothing until the deploy that ends the window
        self.pending_switch: float | None = None


_UNITS = 1 << 53  # the most units of a common 2^-s an exact run may reach


def _exact(x: float, d: float, step: float, n: int) -> bool:
    """Whether the values x + d + k*step, k < n, and every sum that forms
    them, are exact in floats: x, d and step non-negative multiples of a
    common 2^-s with step positive, and x + d + (n-1)*step at most 2^53 of
    those units, checked in integers. A float sum is exact when its result
    is representable, so then first + k*step and the running sum give the
    same float; otherwise the step takes the list. d is 0 only when a
    service time underflowed: a backlog then fails on step, and a run fed to
    a worker free by its first time finishes at the run's own exact times."""
    if not (x >= 0.0 and step > 0.0 and x + d + (n - 1) * step <= _UNITS):
        return False  # also an infinite or nan operand, or a time past 2^53
    (xn, xq), (dn, dq), (sn, sq) = (x.as_integer_ratio(), d.as_integer_ratio(),
                                    step.as_integer_ratio())
    q = max(xq, dq, sq)  # each a power of two
    return xn * (q // xq) + dn * (q // dq) + (n - 1) * sn * (q // sq) <= _UNITS


class _Run:
    """The times first + k*step for k < n, n >= 1, made by _fifo only when
    _exact holds: a one-worker step's finish times, or its successor's ready
    times. Never changed after it is built."""

    __slots__ = ("first", "step", "n", "last")

    def __init__(self, first: float, step: float, n: int):
        self.first = first
        self.step = step
        self.n = n
        self.last = first + (n - 1) * step

    def values(self) -> list[float]:
        """The times as a list: the running sum, which is exact."""
        return list(accumulate(repeat(self.step, self.n - 1), initial=self.first))

    def count(self, cut: float) -> int:
        """How many of the times are at most cut."""
        if cut < self.first:
            return 0
        if cut >= self.last:
            return self.n
        # the quotient rounds to the count or one less: cut - first and the
        # division round monotonically, and first + k*step is exact
        k = int((cut - self.first) / self.step)
        while self.first + k * self.step <= cut:
            k += 1
        return k

    def after(self, prev: float) -> list[float] | _Run:
        """prev followed by the times: a run one longer when prev is first -
        step. prev, an in-flight finish time, is >= 0: step is then at most
        first, on its grid and in its bound, so the subtraction is exact."""
        if prev == self.first - self.step:
            return _Run(prev, self.step, self.n + 1)
        return [prev] + self.values()


def _fifo(n_ready: int, arrivals: list[float] | _Run, busy: list[float], free: int,
          t0: float, duration: float) -> list[float] | _Run:
    """Finish times of the queued fragments, in queue order.

    n_ready fragments are ready at t0 and the arrivals after them (ready
    times, non-decreasing, a list or a run); busy are the finish times of the
    fragments in flight and free the idle workers at t0. Each fragment takes
    the earliest free worker: start = max(ready, worker free), finish = start
    + duration, the same float operations as one dispatch at a time. Starts,
    and so finishes, are non-decreasing in queue order.

    With one worker free at w the finishes are a run, when exact (see
    _exact), in two cases. A backlog, every fragment ready by the first start
    s: s + duration, then one every duration. Arrivals a run (fa, da) and
    none ready at t0: the worker paces them when da <= duration, giving
    max(fa, w) + duration, then one every duration; it keeps up when da >
    duration and w <= fa, giving fa + duration, then one every da. Otherwise
    the list, by the loop; with one worker fin = max(ready, fin) + duration
    from fin = w, the float operations of a heap of one.
    """
    fed = arrivals.__class__ is _Run
    one = free + len(busy) == 1
    if one:
        if fed:
            n, head, tail = n_ready + arrivals.n, arrivals.first, arrivals.last
        elif arrivals:
            n, head, tail = n_ready + len(arrivals), arrivals[0], arrivals[-1]
        else:
            n, head, tail = n_ready, t0, t0
        if n_ready:
            head = t0
        w = busy[0] if busy else t0
        start = max(head, w)
        if tail <= start:
            if _exact(start, duration, duration, n):
                return _Run(start + duration, duration, n)
            # inexact: the running sum, computed in C
            return list(accumulate(repeat(duration, n - 1), initial=start + duration))
        if fed and not n_ready and (arrivals.step <= duration or w <= head):
            step = max(arrivals.step, duration)
            if _exact(start, duration, step, n):
                return _Run(start + duration, step, n)
    times = [t0] * n_ready + (arrivals.values() if fed else arrivals)
    fins: list[float] = []
    if one:
        fin = w
        for ready in times:
            fin = (ready if ready > fin else fin) + duration
            fins.append(fin)
        return fins
    workers = busy + [t0] * free
    heapify(workers)
    for ready in times:
        start = workers[0]
        if ready > start:
            start = ready
        finish = start + duration
        heapreplace(workers, finish)
        fins.append(finish)
    return fins


class PipelineDriver:
    """Drives one job's fragments through its pipeline.

    The journal (each step's count of completed fragments, a prefix of the
    indices) is the durable record: a restart loses in-flight work but never
    journaled completions, and no count passes the fragment count. The job's
    graph, the speeds and the pools come from a Scenario, which has validated
    them.

    Protocol: project(now, memo) plans the job and returns its step
    completions, which may be shared with other jobs and are read-only, as
    is the plan; the caller reports each with on_step_complete(step, time)
    while the plan is current (version unchanged). Every interruption method
    commits the plan first, and the caller projects again after the
    interruptions of one instant. A step runs in a region, "edge" or
    "cloud", which sets its speed; after an eviction notice it dispatches
    nothing until the deploy that moves it to the cloud at the expiry.
    """

    def __init__(self, job: BatchJob, edge_speed: float = 0.8, cloud_speed: float = 1.0):
        self.job = job
        self.edge_speed = edge_speed
        self.cloud_speed = cloud_speed
        self.topo = job.dag.order
        self.m = job.fragment_count
        self.steps: dict[str, _StepRuntime] = {}
        self._preds = job.dag.predecessors_by_step
        self.terminal_ids = job.dag.terminal_ids
        self.version = 0  # bumped by every projection
        self._plan: list[tuple] | None = None  # per unfinished step, see _follow
        self._steps_done = 0  # steps whose completion on_step_complete took
        specs = {s.step_id: s for s in job.dag.steps}
        for sid in self.topo:
            rt = _StepRuntime(specs[sid])
            if not self._preds[sid]:
                rt.ready = self.m
            self.steps[sid] = rt

    # -- queries ------------------------------------------------------------

    def step_runtime(self, step_id: str) -> _StepRuntime:
        rt = self.steps.get(step_id)
        if rt is None:
            raise ValidationError(f"job {self.job.job_id} has no step {step_id!r}")
        return rt

    def is_complete(self) -> bool:
        return self._steps_done == len(self.topo)

    # -- plans ----------------------------------------------------------------

    def project(self, now: float, memo: dict | None = None) -> list[tuple[str, float]]:
        """Plan every step from the state committed at now.

        Returns (step_id, completion time) for each step the plan finishes;
        the plan holds until the next commit and is identified by version.
        The list, and the times of the plan, may be shared with other jobs
        and are read-only.

        memo, kept by the caller for one instant, shares first plans: a job
        projected for the first time is keyed by its DAG, fragment count and
        every step's state (_state_key), and takes the completions and plan
        of an earlier job of its key as they are, without a walk. Every job
        that uses one memo has the same now and speeds, and its DAG stays
        alive, so the DAG's identity stands for its step specs. Later plans,
        which rarely repeat, are walked without a key.
        """
        if self._plan is not None:
            raise InternalConsistencyError(f"job {self.job.job_id} projected twice")
        self.version += 1
        if memo is None or self.version != 1:
            return list(self._follow(now).items())
        key = (id(self.job.dag), self.m, self._state_key())
        served = memo.get(key)
        if served is None:
            done = list(self._follow(now).items())
            memo[key] = (done, self._plan)
            return done
        done, self._plan = served
        return done

    def _state_key(self) -> tuple:
        """Every step's state that its plan is walked from, in topological order."""
        return tuple([(rt.region, rt.pool, rt.pending_switch, rt.done, tuple(rt.flight), rt.ready)
                      for rt in self.steps.values()])

    def commit(self, now: float) -> None:
        """Move the durable state along the current plan to now (no-op without one).

        Each step's plan is cut at now by bisection, or a run by its count.
        Its ready times and its finish times are non-decreasing in queue
        order, and a FIFO pool has started, by now, the fewer of the
        fragments ready and the workers freed (idle at the plan's start, or
        released by a finish).
        """
        plan, self._plan = self._plan, None
        if plan is None:
            return
        steps = self.steps
        for sid, n_ready, a_times, fins, free in plan:
            rt = steps[sid]
            flight = rt.flight
            n_fl = bisect_right(flight, now)
            ran = fins.__class__ is _Run
            n_landed = fins.count(now) if ran else bisect_right(fins, now)
            if n_landed and n_fl < len(flight):
                raise InternalConsistencyError(
                    f"step {sid}: a queued fragment finished before an in-flight one")
            n_arrived = n_ready + (a_times.count(now) if a_times.__class__ is _Run
                                   else bisect_right(a_times, now))
            n_started = 0 if free is None else min(n_arrived, free + n_fl + n_landed)
            if n_fl or n_landed:
                self._journal(rt, n_fl + n_landed)
            if not ran:
                rt.flight = flight[n_fl:] + fins[n_landed:n_started]
            elif n_started > n_landed:  # one worker: it starts one at most
                rt.flight = flight[n_fl:] + [fins.first + n_landed * fins.step]
            else:
                rt.flight = flight[n_fl:]
            rt.ready = n_arrived - n_started
            if rt.done == self.m:
                if rt.flight or rt.ready:
                    raise InternalConsistencyError(f"step {sid} complete with work left")
                rt.pending_switch = None

    def on_step_complete(self, step_id: str, now: float) -> bool:
        """A step completion of the current plan happened; returns whether the
        whole job finished with it, in which case the plan is committed."""
        if self.steps[step_id].done == self.m:
            raise InternalConsistencyError(f"step {step_id} completed twice")
        self._steps_done += 1
        if self._steps_done < len(self.topo):
            return False
        self.commit(now)
        for sid in self.terminal_ids:
            if self.steps[sid].done != self.m:
                raise InternalConsistencyError(
                    f"job {self.job.job_id}: every step reported complete, journal disagrees")
        return True

    def _journal(self, rt: _StepRuntime, count: int) -> None:
        """Record the next count (>= 1) completed fragments at a step; the
        only writer of the journal."""
        if rt.done + count > self.m:
            raise InternalConsistencyError(
                f"fragment journaled twice at step {rt.spec.step_id}")
        rt.done += count

    def _arrivals(self, sid: str, rt: _StepRuntime, t0: float, done: dict,
                  finished: dict) -> list[float]:
        """Ready times of the fragments the plan makes ready at a step, in
        index order after its available ones."""
        preds = self._preds[sid]
        if rt.spec.feed_forward:
            if len(preds) == 1:
                return done[preds[0]]
            # a join: a fragment is ready once every predecessor finished it,
            # at the last of those completions within the plan; a predecessor
            # that journaled it before t0 counts t0, earlier than every finish
            # of the plan, so max picks the same float as a walk would
            avail = rt.done + len(rt.flight) + rt.ready
            aligned = []
            for p in preds:
                lead = self.steps[p].done - avail
                times = done[p] if done[p].__class__ is list else done[p].values()
                aligned.append([t0] * lead + times if lead else times)
            return list(map(max, *aligned))
        # a barrier releases at its last predecessor's completion, and its
        # step journals nothing before that; released before the plan, its
        # fragments are counted in its ready ones
        ends = [finished[p] for p in preds if p in finished]
        if not ends or not all(p in finished or self.steps[p].done == self.m for p in preds):
            return []
        if rt.done:
            raise InternalConsistencyError(f"barrier step {sid} journaled before release")
        return [max(ends)] * self.m

    def _follow(self, t0: float) -> dict[str, float]:
        """Walk every step's schedule from the durable state at t0 and keep it
        as the plan commit cuts.

        Returns the completion time of each step the schedule finishes. Per
        unfinished step the plan holds (sid, n_ready, a_times, fins, free):
        its id, the fragments ready at t0, the ready times of the ones that
        arrive after them, the queue's finish times (each a list or a run)
        and the idle workers at t0 (None when it does not dispatch). It holds
        no runtime or in-flight finish times: commit reads the driver's own,
        and every mutator commits before it replaces them.
        """
        # per step, the finish times of its next unjournaled fragments in the plan
        done: dict[str, list[float] | _Run] = {}
        finished: dict[str, float] = {}
        plan = []
        for sid in self.topo:
            rt = self.steps[sid]
            if rt.done == self.m:
                done[sid] = []
                continue
            n_ready = rt.ready
            a_times = self._arrivals(sid, rt, t0, done, finished) if self._preds[sid] else []
            busy = rt.flight
            fins: list[float] | _Run = []
            free = None
            if (n_ready or a_times) and rt.region is not None and rt.pending_switch is None:
                free = rt.pool - len(busy)
                fins = _fifo(n_ready, a_times, busy, free, t0, rt.service)
            if fins.__class__ is _Run:  # one worker, so one fragment in flight at most
                all_fins = fins.after(busy[0]) if busy else fins
            else:
                all_fins = busy + fins if busy else fins
            done[sid] = all_fins
            if all_fins.__class__ is _Run:
                if rt.done + all_fins.n == self.m:
                    finished[sid] = all_fins.last
            elif rt.done + len(all_fins) == self.m:
                finished[sid] = all_fins[-1]
            plan.append((sid, n_ready, a_times, fins, free))
        self._plan = plan
        return finished

    def _requeue(self, rt: _StepRuntime, now: float) -> None:
        """Requeue in-flight fragments at the front of the queue, then start what
        the pool takes of it unless an eviction window holds the step."""
        ready = rt.ready + len(rt.flight)
        n = 0 if rt.pending_switch is not None else min(ready, rt.pool)
        rt.flight = [now + rt.service] * n
        rt.ready = ready - n

    # -- deployment -----------------------------------------------------------

    def deploy(self, step_id: str, region: str, pool_size: int, now: float) -> None:
        """Deploy a step in region with pool_size workers: its first
        deployment, or a move after a node failure lost its deployment or its
        eviction window ended. In-flight work requeues (a first deployment has
        none) and ready work starts; from a window's expiry on, nothing may
        still be in flight, since the notice kept only the fragments finishing
        by then."""
        self.commit(now)
        rt = self.step_runtime(step_id)
        if rt.done == self.m:
            raise InternalConsistencyError(f"deploy of completed step {step_id}")
        if rt.pending_switch is not None and now >= rt.pending_switch and rt.flight:
            raise InternalConsistencyError(
                f"step {step_id} still has in-flight work at eviction expiry")
        rt.pending_switch = None
        rt.region = region
        rt.pool = pool_size
        rt.service = rt.spec.service_time_per_fragment / (
            self.edge_speed if region == "edge" else self.cloud_speed)
        self._requeue(rt, now)

    # -- eviction -------------------------------------------------------------

    def on_eviction_notice(self, step_id: str, expiry: float, now: float) -> None:
        """Stop feeding the edge deployment; cancel work that cannot finish in time.

        In-flight fragments finishing by the expiry run to completion; the rest
        go back to the front of the ready queue for the cloud deployment that
        a deploy starts at the expiry.
        """
        self.commit(now)
        rt = self.step_runtime(step_id)
        if rt.region != "edge":
            raise InternalConsistencyError(f"eviction notice for non-edge step {step_id}")
        if rt.pending_switch is not None:
            raise InternalConsistencyError(f"step {step_id} already has an eviction pending")
        keep = bisect_right(rt.flight, expiry)
        rt.ready += len(rt.flight) - keep
        rt.flight = rt.flight[:keep]
        rt.pending_switch = expiry

    # -- restart ------------------------------------------------------------

    def resume_from_journal(self, now: float) -> None:
        """Restart the driver: in-flight work is lost and starts again.

        The journal, regions and eviction notices are durable. After the
        commit a step's in-flight fragments are the ones just past its journal
        and before its ready ones (see the module docstring), so requeueing
        them is the whole rebuild. Journaled work is never resent.
        """
        self.commit(now)
        for rt in self.steps.values():
            self._requeue(rt, now)
