"""Per-job pipeline driver: fragment dispatch through the DAG, journaling,
eviction handoff and restart recovery."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from hcs_sim.core_model import (
    BatchJob,
    EdgePlacement,
    InternalConsistencyError,
    Placement,
    StepSpec,
    StepState,
    ValidationError,
    assert_step_transition,
)


def cloud_pool_size(step: StepSpec, cloud_concurrency: int | None = None) -> int:
    """Worker pool for a cloud deployment: configured override or one per replica."""
    return step.replicas if cloud_concurrency is None else cloud_concurrency


@dataclass(frozen=True)
class Dispatch:
    """One fragment handed to a worker; the engine schedules its completion."""

    job_id: str
    step_id: str
    fragment: int
    finish_time: float
    epoch: int


@dataclass
class DriverEffects:
    dispatches: list[Dispatch] = field(default_factory=list)
    completed_steps: list[str] = field(default_factory=list)
    job_completed: bool = False


@dataclass
class _StepRuntime:
    spec: StepSpec
    state: StepState = StepState.PENDING
    endpoint: Placement | None = None
    pool: int = 0
    epoch: int = 0
    ready: deque = field(default_factory=deque)
    in_flight: dict[int, float] = field(default_factory=dict)
    # (expiry, new_endpoint, new_pool) once an eviction notice arrives
    pending_switch: tuple[float, Placement, int] | None = None
    barrier_released: bool = False


class PipelineDriver:
    """Drives one job's fragments through its pipeline.

    The journal (per-step sets of completed fragments) is the durable record:
    a restart loses in-flight work but never journaled completions, and no
    fragment is ever journaled twice at the same step. The job's graph, the
    speeds and the pools come from a Scenario, which has validated them.
    """

    def __init__(self, job: BatchJob, edge_speed: float = 0.8, cloud_speed: float = 1.0):
        self.job = job
        self.edge_speed = edge_speed
        self.cloud_speed = cloud_speed
        self.topo = job.dag.order
        self.m = job.fragment_count
        self.journal: dict[str, set[int]] = {sid: set() for sid in self.topo}
        self.steps: dict[str, _StepRuntime] = {}
        self._preds = {sid: job.dag.predecessors(sid) for sid in self.topo}
        self._succs = {sid: job.dag.successors(sid) for sid in self.topo}
        self.terminal_ids = job.dag.terminal_ids()
        self.completed_at: float | None = None
        for sid in self.topo:
            rt = _StepRuntime(job.dag.step(sid))
            if not self._preds[sid]:
                rt.ready = deque(range(self.m))
                rt.barrier_released = True
            self.steps[sid] = rt

    # -- queries ------------------------------------------------------------

    def step_runtime(self, step_id: str) -> _StepRuntime:
        rt = self.steps.get(step_id)
        if rt is None:
            raise ValidationError(f"job {self.job.job_id} has no step {step_id!r}")
        return rt

    def is_complete(self) -> bool:
        return all(self.steps[t].state is StepState.COMPLETED for t in self.terminal_ids)

    def is_current_completion(self, step_id: str, fragment: int,
                              finish_time: float, epoch: int) -> bool:
        """Whether a scheduled completion is still live (not cancelled or superseded)."""
        rt = self.steps.get(step_id)
        if rt is None or rt.epoch != epoch:
            return False
        return rt.in_flight.get(fragment) == finish_time

    def _speed(self, endpoint: Placement) -> float:
        return self.edge_speed if isinstance(endpoint, EdgePlacement) else self.cloud_speed

    def _service(self, rt: _StepRuntime) -> float:
        return rt.spec.service_time_per_fragment / self._speed(rt.endpoint)

    # -- dispatching --------------------------------------------------------

    def _dispatch(self, step_id: str, now: float) -> list[Dispatch]:
        rt = self.steps[step_id]
        out: list[Dispatch] = []
        if rt.state is not StepState.RUNNING or rt.pending_switch is not None:
            return out
        duration = self._service(rt)
        while rt.ready and len(rt.in_flight) < rt.pool:
            frag = rt.ready.popleft()
            finish = now + duration
            rt.in_flight[frag] = finish
            out.append(Dispatch(self.job.job_id, step_id, frag, finish, rt.epoch))
        return out

    def on_deploy(self, step_id: str, endpoint: Placement, pool_size: int,
                  now: float) -> list[Dispatch]:
        """First deployment of a step; dispatches up to pool_size ready fragments."""
        rt = self.step_runtime(step_id)
        if rt.endpoint is not None or rt.state is not StepState.PENDING:
            raise InternalConsistencyError(
                f"step {step_id} deployed twice (state {rt.state.value})")
        rt.endpoint = endpoint
        rt.pool = pool_size
        if rt.spec.feed_forward or rt.barrier_released:
            assert_step_transition(rt.state, StepState.RUNNING)
            rt.state = StepState.RUNNING
        else:
            assert_step_transition(rt.state, StepState.WAITING)
            rt.state = StepState.WAITING
        return self._dispatch(step_id, now)

    # -- completions --------------------------------------------------------

    def on_fragment_complete(self, step_id: str, fragment: int, now: float) -> DriverEffects:
        """Journal a completion, refill the freed worker, wake successors.

        Args:
            step_id: step whose worker finished.
            fragment: fragment index that completed.
            now: completion time.

        Returns:
            New dispatches, any steps that just completed, and whether the
            whole job finished with this completion.
        """
        rt = self.step_runtime(step_id)
        if fragment not in rt.in_flight:
            raise InternalConsistencyError(
                f"completion for {step_id}#{fragment} which is not in flight")
        del rt.in_flight[fragment]
        if fragment in self.journal[step_id]:
            raise InternalConsistencyError(
                f"fragment {fragment} journaled twice at step {step_id}")
        self.journal[step_id].add(fragment)

        effects = DriverEffects()
        if len(self.journal[step_id]) == self.m:
            if rt.in_flight:
                raise InternalConsistencyError(
                    f"step {step_id} complete with work in flight")
            assert_step_transition(rt.state, StepState.COMPLETED)
            rt.state = StepState.COMPLETED
            rt.pending_switch = None
            rt.ready.clear()
            effects.completed_steps.append(step_id)
        else:
            effects.dispatches.extend(self._dispatch(step_id, now))

        for succ in self._succs[step_id]:
            srt = self.steps[succ]
            if srt.spec.feed_forward:
                if all(fragment in self.journal[p] for p in self._preds[succ]):
                    srt.ready.append(fragment)
                    effects.dispatches.extend(self._dispatch(succ, now))
            elif not srt.barrier_released and len(self.journal[step_id]) == self.m:
                if all(len(self.journal[p]) == self.m for p in self._preds[succ]):
                    srt.barrier_released = True
                    srt.ready = deque(f for f in range(self.m) if f not in self.journal[succ])
                    if srt.state is StepState.WAITING:
                        assert_step_transition(srt.state, StepState.RUNNING)
                        srt.state = StepState.RUNNING
                    effects.dispatches.extend(self._dispatch(succ, now))

        if effects.completed_steps and self.is_complete() and self.completed_at is None:
            self.completed_at = now
            effects.job_completed = True
        return effects

    # -- eviction and failure handoff ----------------------------------------

    def on_eviction_notice(self, step_id: str, expiry: float, new_endpoint: Placement,
                           new_pool: int, now: float) -> list[int]:
        """Stop feeding the edge deployment; cancel work that cannot finish in time.

        In-flight fragments finishing by the expiry run to completion; the rest
        go back to the front of the ready queue for the replacement endpoint.
        """
        rt = self.step_runtime(step_id)
        if not isinstance(rt.endpoint, EdgePlacement):
            raise InternalConsistencyError(f"eviction notice for non-edge step {step_id}")
        if rt.pending_switch is not None:
            raise InternalConsistencyError(f"step {step_id} already has an eviction pending")
        cancelled = sorted(f for f, fin in rt.in_flight.items() if fin > expiry)
        for f in cancelled:
            del rt.in_flight[f]
        rt.ready.extendleft(reversed(cancelled))
        rt.pending_switch = (expiry, new_endpoint, new_pool)
        return cancelled

    def switch_at_expiry(self, step_id: str, now: float) -> list[Dispatch]:
        """Move a noticed step onto its replacement endpoint and resume dispatch."""
        rt = self.step_runtime(step_id)
        if rt.pending_switch is None:
            raise InternalConsistencyError(f"step {step_id} has no pending switch")
        expiry, endpoint, pool = rt.pending_switch
        if now < expiry:
            raise InternalConsistencyError(f"switch for {step_id} before expiry")
        if rt.in_flight:
            raise InternalConsistencyError(
                f"step {step_id} still has in-flight work at eviction expiry")
        rt.pending_switch = None
        rt.endpoint = endpoint
        rt.pool = pool
        rt.epoch += 1
        return self._dispatch(step_id, now)

    def redeploy(self, step_id: str, endpoint: Placement, pool_size: int,
                 now: float) -> list[Dispatch]:
        """Replace a lost deployment (node failure): in-flight work requeues."""
        rt = self.step_runtime(step_id)
        if rt.endpoint is None or rt.state is StepState.COMPLETED:
            raise InternalConsistencyError(f"redeploy of undeployed/completed step {step_id}")
        lost = sorted(rt.in_flight)
        rt.in_flight.clear()
        rt.ready.extendleft(reversed(lost))
        rt.pending_switch = None
        rt.endpoint = endpoint
        rt.pool = pool_size
        rt.epoch += 1
        return self._dispatch(step_id, now)

    # -- restart ------------------------------------------------------------

    def resume_from_journal(self, now: float) -> list[Dispatch]:
        """Rebuild volatile dispatch state after a driver restart.

        The journal, endpoint assignments and pending eviction notices are
        durable; the in-flight set is lost, so unjournaled fragments are
        re-queued and re-dispatched. Already-journaled work is never resent.
        """
        dispatches: list[Dispatch] = []
        for sid in self.topo:
            rt = self.steps[sid]
            rt.epoch += 1
            rt.in_flight.clear()
            if len(self.journal[sid]) == self.m:
                if rt.state is not StepState.COMPLETED:
                    rt.state = StepState.COMPLETED
                rt.ready.clear()
                continue
            preds = self._preds[sid]
            rt.barrier_released = (not preds) or all(
                len(self.journal[p]) == self.m for p in preds)
            if not preds:
                rt.ready = deque(f for f in range(self.m) if f not in self.journal[sid])
            elif rt.spec.feed_forward:
                rt.ready = deque(
                    f for f in range(self.m)
                    if f not in self.journal[sid]
                    and all(f in self.journal[p] for p in preds))
            else:
                if rt.barrier_released:
                    rt.ready = deque(f for f in range(self.m) if f not in self.journal[sid])
                else:
                    rt.ready = deque()
            if rt.endpoint is None:
                rt.state = StepState.PENDING
            elif rt.spec.feed_forward or rt.barrier_released:
                rt.state = StepState.RUNNING
                dispatches.extend(self._dispatch(sid, now))
            else:
                rt.state = StepState.WAITING
        return dispatches
