"""Cost model and domain type checks."""

import inspect
import math
import random
from collections import Counter

import pytest

import hcs_sim.cli  # noqa: F401  every module with a record is imported, for Record's subclasses
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    PipelineDag,
    Record,
    ResourceVector,
    StepSpec,
    ValidationError,
    dag_violations,
    rcost,
    validate_job,
)

from hcs_sim.hcs_scheduler import SchedulerMode
from hcs_sim.metrics import CostLedgerEntry, JobOutcome, RunReport, UtilizationSample
from hcs_sim.sim_engine import (
    DriverRestartFault,
    ExplicitArrivals,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
)

from oracles import (dag_index, fits_within, source_ids, topological_order, total_cost,
                     vec_add, vec_sub)

REL = 1e-9


def make_step(sid="s0", cpu=500, mem=128, replicas=1, service=1.0, ff=True):
    return StepSpec(sid, ResourceVector(cpu, mem), replicas, service, feed_forward=ff)


def chain_job(n_steps=3, job_id="j0", fragments=10, deadline=100.0, ff=True):
    steps = [make_step(f"s{i}", ff=ff) for i in range(n_steps)]
    edges = [(f"s{i}", f"s{i+1}") for i in range(n_steps - 1)]
    return BatchJob(job_id, PipelineDag(steps, edges), fragments, deadline)


class TestResourceVector:
    def test_arithmetic(self):
        a = ResourceVector(1000, 512)
        b = ResourceVector(400, 112)
        assert vec_add(a, b) == ResourceVector(1400, 624)
        assert vec_sub(a, b) == ResourceVector(600, 400)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            StepSpec("s0", ResourceVector(-1, 0), 1, 1.0)
        with pytest.raises(ValidationError):
            vec_sub(ResourceVector(100, 50), ResourceVector(200, 0))

    def test_fits_within_componentwise(self):
        assert fits_within(ResourceVector(500, 128), ResourceVector(500, 128))
        assert not fits_within(ResourceVector(501, 128), ResourceVector(500, 129))
        assert not fits_within(ResourceVector(500, 129), ResourceVector(501, 128))


class TestRcost:
    def test_single_vcpu_no_memory(self):
        # (0 * 0.1 + 1000/1000 * 1000) * 1 = 1000
        step = make_step(cpu=1000, mem=0, replicas=1)
        assert rcost(step, CostParams()) == 1000.0

    def test_two_replica_example(self):
        # hand-derived: (128 * 0.1 + 500/1000 * 1000) * 2 = 1025.6
        step = make_step(cpu=500, mem=128, replicas=2)
        assert math.isclose(rcost(step, CostParams()), 1025.6, rel_tol=REL)

    def test_linear_in_replicas(self):
        rng = random.Random(7)
        params = CostParams()
        for _ in range(200):
            cpu = rng.randrange(0, 8001)
            mem = rng.randrange(0, 16385)
            if cpu == 0 and mem == 0:
                continue
            base = make_step(cpu=cpu, mem=mem, replicas=1)
            k = rng.randrange(1, 17)
            scaled = make_step(cpu=cpu, mem=mem, replicas=k)
            assert math.isclose(rcost(scaled, params), k * rcost(base, params), rel_tol=REL)

    def test_monotone_in_each_resource(self):
        p = CostParams()
        assert rcost(make_step(cpu=600, mem=128), p) > rcost(make_step(cpu=500, mem=128), p)
        assert rcost(make_step(cpu=500, mem=256), p) > rcost(make_step(cpu=500, mem=128), p)


class TestTotalCost:
    def test_zero_time(self):
        assert total_cost(make_step(), CostParams(), 0.0) == 0.0

    def test_hundred_seconds_example(self):
        # 1025.6/s held for 100 s
        step = make_step(cpu=500, mem=128, replicas=2)
        assert math.isclose(total_cost(step, CostParams(), 100.0), 102560.0, rel_tol=REL)

    def test_half_second(self):
        step = make_step(cpu=1000, mem=0, replicas=1)
        assert math.isclose(total_cost(step, CostParams(), 0.5), 500.0, rel_tol=REL)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            total_cost(make_step(), CostParams(), -1.0)

    def test_linear_in_time(self):
        rng = random.Random(13)
        p = CostParams()
        step = make_step(cpu=750, mem=96, replicas=3)
        for _ in range(100):
            t = rng.uniform(0, 1e4)
            assert math.isclose(total_cost(step, p, 2 * t), 2 * total_cost(step, p, t), rel_tol=REL)


class TestSpecValidation:
    def test_bad_scalars_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            make_step(replicas=0)
        with pytest.raises(ValidationError):
            make_step(service=0.0)
        with pytest.raises(ValidationError):
            BatchJob("j", PipelineDag([make_step()]), 0, 10.0)
        with pytest.raises(ValidationError):
            BatchJob("j", PipelineDag([make_step()]), 1, 0.0)

    def test_linear_pipeline_ok(self):
        assert validate_job(chain_job(3), 60.0, 1.0) == []

    def test_cycle_detected(self):
        steps = [make_step("a"), make_step("b")]
        job = BatchJob("j", PipelineDag(steps, [("a", "b"), ("b", "a")]), 1, 10.0)
        problems = validate_job(job, 60.0, 1.0)
        assert any("cycle" in p for p in problems)
        # a cycle behind a source
        steps = [make_step("a"), make_step("b"), make_step("c")]
        job = BatchJob("j", PipelineDag(steps, [("a", "b"), ("b", "c"), ("c", "b")]), 1, 10.0)
        assert validate_job(job, 60.0, 1.0) == ["job j: cycle detected"]

    def test_timeout_violation(self):
        steps = [StepSpec("slow", ResourceVector(100, 10), 1, 61.0)]
        job = BatchJob("j", PipelineDag(steps), 1, 10.0)
        problems = validate_job(job, 60.0, 1.0)
        assert len(problems) == 1 and "timeout" in problems[0]
        # exactly at the limit is allowed
        ok = BatchJob("j2", PipelineDag([StepSpec("s", ResourceVector(1, 1), 1, 60.0)]), 1, 10.0)
        assert validate_job(ok, 60.0, 1.0) == []

    def test_timeout_uses_slowest_region(self):
        # 50 s of work takes 62.5 s at a 0.8-speed region
        steps = [StepSpec("s", ResourceVector(100, 10), 1, 50.0)]
        job = BatchJob("j", PipelineDag(steps), 1, 10.0)
        assert validate_job(job, 60.0, 0.8)
        assert validate_job(job, 60.0, 1.0) == []

    def test_duplicate_and_unknown_ids(self):
        job = BatchJob("j", PipelineDag([make_step("a"), make_step("a")]), 1, 10.0)
        assert any("duplicate" in p for p in validate_job(job, 60.0, 1.0))
        job2 = BatchJob("j", PipelineDag([make_step("a")], [("a", "zz")]), 1, 10.0)
        assert any("unknown" in p for p in validate_job(job2, 60.0, 1.0))

    def test_random_dags_accepted_iff_invariants_hold(self):
        # random DAG layering always yields acyclic graphs; reversing one edge
        # inside a layer chain or duplicating an id must trip validation
        rng = random.Random(99)
        for trial in range(150):
            n = rng.randrange(1, 7)
            steps = [make_step(f"s{i}") for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        edges.append((f"s{i}", f"s{j}"))
            job = BatchJob("j", PipelineDag(steps, edges), 1, 10.0)
            assert validate_job(job, 60.0, 1.0) == []
            if edges and rng.random() < 0.5:
                a, b = edges[rng.randrange(len(edges))]
                bad = BatchJob("j", PipelineDag(steps, edges + [(b, a)]), 1, 10.0)
                assert validate_job(bad, 60.0, 1.0) != []


class TestDag:
    def test_topological_order(self):
        dag = PipelineDag([make_step("a"), make_step("b"), make_step("c")],
                          [("a", "b"), ("b", "c"), ("a", "c")])
        order = topological_order(dag)
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_order_raises_on_cycle(self):
        dag = PipelineDag([make_step("a"), make_step("b")], [("a", "b"), ("b", "a")])
        with pytest.raises(ValidationError):
            topological_order(dag)

    def test_sources_and_terminals(self):
        dag = PipelineDag([make_step("a"), make_step("b"), make_step("c")],
                          [("a", "c"), ("b", "c")])
        assert source_ids(dag) == ["a", "b"]
        assert dag.terminal_ids == ("c",)
        assert dag_violations(dag) == []

    def test_derived_values_match_the_per_step_scans_on_any_graph(self):
        """One pass over the edges gives the order, predecessors and
        terminals the per-step edge scans give, on valid graphs and on
        graphs with duplicate ids, unknown endpoints, self edges, repeated
        edges and cycles; and the no-source verdict is the scans' too."""
        rng = random.Random(7)
        kinds = Counter()
        for _ in range(3000):
            ids = [f"s{rng.randrange(6)}" for _ in range(rng.randrange(0, 6))]
            ends = ids + ["zz"] if rng.random() < 0.2 else ids
            edges = ([(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randrange(0, 9))]
                     if ends else [])
            dag = PipelineDag([make_step(sid) for sid in ids], edges)
            assert (dag.order, dag.predecessors_by_step, dag.terminal_ids) == dag_index(dag)
            assert list(dag.predecessors_by_step) == list(dict.fromkeys(ids))
            problems = dag_violations(dag)
            kinds.update(problems or ["valid"])
            if ids and not any("edge" in p or "duplicate" in p for p in problems):
                assert ("pipeline has no source step" in problems) == (not source_ids(dag))
        assert {"valid", "pipeline has no source step", "cycle detected"} <= set(kinds), kinds



RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)


def record(cls, **changed):
    """A cls with each field set to a value named after the field (so fields
    of one name hold equal values across types), changed ones overridden.
    Built without __init__, so every field is set whatever the signature."""
    obj = cls.__new__(cls)
    for f in cls.__slots__:
        setattr(obj, f, changed.get(f, f"{f}-value"))
    return obj


class TestRecord:
    def test_the_plain_records_are_records(self):
        assert {cls.__name__ for cls in RECORDS} >= {
            "DeployEdge", "DeployCloud", "Evict", "ScheduleDecision", "PlacementPlan",
            "ScheduledArrival"}

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_slots_are_its_own_and_there_is_no_dict(self, cls):
        # a subclass without __slots__ would inherit (): no field would compare
        assert "__slots__" in vars(cls) and cls.__slots__
        assert not hasattr(record(cls), "__dict__")

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_equal_fields_are_equal_and_each_field_counts(self, cls):
        assert record(cls) == record(cls) and not record(cls) != record(cls)
        for f in cls.__slots__:
            other = record(cls, **{f: "changed"})
            assert record(cls) != other and not record(cls) == other, f

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_never_equals_a_tuple_or_another_record_type(self, cls):
        obj = record(cls)
        assert obj != tuple(getattr(obj, f) for f in cls.__slots__)
        for other in RECORDS:
            if other is not cls:
                assert obj != record(other) and record(other) != obj

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_unhashable(self, cls):
        with pytest.raises(TypeError):
            hash(record(cls))

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_repr_names_every_slot_in_order(self, cls):
        fields = ", ".join(f"{f}='{f}-value'" for f in cls.__slots__)
        assert repr(record(cls)) == f"{cls.__name__}({fields})"


def valid_values():
    """One record of each public value type, built by its constructor."""
    job = chain_job(2)
    sample = UtilizationSample(1.0, 500, 2000, 128, 4096)
    entry = CostLedgerEntry("j0", "s0", "cloud", 625.0, 1.0, 3.0)
    outcome = JobOutcome("j0", "w", 1.0, 9.0, 100.0)
    return [
        ResourceVector(500, 128), CostParams(900.0, 0.2), make_step(), job.dag, job,
        PoissonArrivals(0.5, 7, 3), ExplicitArrivals((1.0, 2.0), ("w", "w")),
        NodeFailureFault(5.0, 0), DriverRestartFault(4.0, 1),
        Scenario("sc", (ResourceVector(2000, 4096),), {"w": job}, PoissonArrivals(0.5, 7, 3),
                 faults=(NodeFailureFault(5.0, 0), DriverRestartFault(4.0, 1))),
        sample, entry, outcome,
        RunReport("sc", "cheapest_first", "first_fit", [(1.0, "j0", "w")], [sample], [entry],
                  [outcome], 9.0)]


VALUES = valid_values()


def each_value(test):
    return pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)(test)


class TestPublicValueTypes:
    def test_the_fourteen_types_are_records(self):
        assert len({type(v) for v in VALUES}) == 14
        assert all(isinstance(v, Record) for v in VALUES)

    @each_value
    def test_fields_are_the_constructor_parameters_in_order(self, value):
        # replace passes every field back to __init__ by name
        params = inspect.signature(type(value)).parameters
        assert list(params) == list(type(value).__slots__)

    @each_value
    def test_equal_by_type_and_fields(self, value):
        copy = value.replace()
        assert copy is not value and copy == value and not copy != value
        for f in type(value).__slots__:
            changed = value.replace()
            setattr(changed, f, "changed")
            assert changed != value and value != changed, f

    @each_value
    def test_never_equals_a_tuple_of_its_fields(self, value):
        assert value != tuple(getattr(value, f) for f in type(value).__slots__)

    @each_value
    def test_unhashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    @each_value
    def test_repr_names_the_fields_in_order(self, value):
        fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in type(value).__slots__)
        assert repr(value) == f"{type(value).__name__}({fields})"

    def test_repr_of_a_nested_record(self):
        assert repr(make_step(cpu=1, mem=2)) == (
            "StepSpec(step_id='s0', demand_per_replica=ResourceVector(cpu_millicores=1, "
            "memory_mb=2), replicas=1, service_time_per_fragment=1.0, feed_forward=True)")

    def test_replace_changes_the_named_fields_only(self):
        scenario = VALUES[9]
        moved = scenario.replace(mode=SchedulerMode.CLOUD_ONLY, horizon=50.0)
        assert (moved.mode, moved.horizon) == (SchedulerMode.CLOUD_ONLY, 50.0)
        assert moved == Scenario(*(getattr(scenario, f) for f in Scenario.__slots__[:4]),
                                 mode=SchedulerMode.CLOUD_ONLY, horizon=50.0,
                                 faults=scenario.faults)
        assert scenario.mode is SchedulerMode.CHEAPEST_FIRST and scenario.horizon is None

    def test_replace_runs_the_constructor_checks(self):
        scenario = VALUES[9]
        with pytest.raises(ValidationError) as built:
            Scenario(*(getattr(scenario, f) for f in Scenario.__slots__[:4]), round_length=0.0,
                     faults=scenario.faults)
        with pytest.raises(ValidationError) as replaced:
            scenario.replace(round_length=0.0)
        assert replaced.value.problems == built.value.problems == [
            "scheduler.round_length: must be > 0 and finite"]

    def test_replace_of_an_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            VALUES[9].replace(round_lenght=5.0)

    def test_dag_derives_its_order_once_and_again_on_replace(self):
        dag = PipelineDag([make_step("a"), make_step("b"), make_step("c")],
                          [("b", "a"), ("a", "c")])
        assert (dag.order, dag.terminal_ids) == (("b", "a", "c"), ("c",))
        assert dag.predecessors_by_step == {"a": ("b",), "b": (), "c": ("a",)}
        flipped = dag.replace(edges=[("a", "b"), ("b", "c")])
        assert flipped.order == ("a", "b", "c") and flipped != dag
        assert "order" not in repr(dag)

    def test_dag_with_an_edge_to_an_unknown_step_builds(self):
        dag = PipelineDag([make_step("a"), make_step("b")], [("a", "zz"), ("a", "b")])
        assert dag.order == ("a", "b")
        assert dag_violations(dag) == ["edge references unknown step 'zz'"]
