"""Scenario file validation, subcommand orchestration, and artifact layout."""

import errno
import gc
import json
import os
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import hcs_sim
from hcs_sim import cli
from hcs_sim.cli import load_scenario, main
from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
)
from hcs_sim.hcs_scheduler import HcsScheduler, SchedulerMode
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    DriverRestartFault,
    ExplicitArrivals,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
)


def minimal_config() -> dict:
    return {
        "edge": {"node_count": 2, "node_cpu_millicores": 2000, "node_memory_mb": 2048},
        "workloads": {
            "w": {
                "fragment_count": 5,
                "deadline": 300,
                "steps": [{"step_id": "s0", "cpu_millicores": 500,
                           "memory_mb": 256, "service_time": 1.0}],
            }
        },
        "arrivals": {"kind": "explicit", "times": [1.0, 2.0]},
    }


def write_config(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def problems(path) -> list[str]:
    """The problems of the ValidationError load_scenario raises for a file,
    or [] when it loads."""
    try:
        load_scenario(path)
    except ValidationError as e:
        return e.problems
    return []


class TestLoadScenario:
    def test_minimal_config_fills_documented_defaults(self, tmp_path):
        s, output_dir = load_scenario(write_config(tmp_path, minimal_config()))
        assert output_dir is None
        assert s.scenario_id == "scenario"
        assert s.round_length == 30.0
        assert s.eviction_deadline == 30.0
        assert s.execution_timeout == 60.0
        assert s.edge_speed == 0.8
        assert s.cloud_speed == 1.0
        assert s.cost_params.c_cpu == 1000.0
        assert s.cost_params.c_mem == 0.1
        assert s.placement is PlacementPolicy.FIRST_FIT
        assert s.arrivals == ExplicitArrivals((1.0, 2.0))
        assert len(s.node_capacities) == 2

    def test_negative_rate_diagnostic(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": -0.5, "seed": 1, "count": 3}
        assert "arrivals.rate: must be > 0" in problems(write_config(tmp_path, cfg))

    def test_service_time_beyond_timeout_cites_the_rule(self, tmp_path):
        cfg = minimal_config()
        cfg["workloads"]["w"]["steps"][0]["service_time"] = 61.0
        assert any("execution timeout" in d for d in problems(write_config(tmp_path, cfg)))

    def test_unknown_keys_rejected_everywhere(self, tmp_path):
        cfg = minimal_config()
        cfg["extra_top"] = 1
        cfg["edge"]["colour"] = "blue"
        cfg["workloads"]["w"]["steps"][0]["nodes"] = 3
        cfg["workloads"]["w"]["steps"][0]["fragment_size_bytes"] = 1024
        got = problems(write_config(tmp_path, cfg))
        assert "extra_top: unknown key" in got
        assert "edge.colour: unknown key" in got
        assert "workloads.w.steps[0].nodes: unknown key" in got
        assert "workloads.w.steps[0].fragment_size_bytes: unknown key" in got

    def test_all_violations_reported_at_once(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0, "seed": 1, "count": -2}
        cfg["scheduler"] = {"placement": "zz"}
        cfg["workloads"]["w"]["fragment_count"] = 0
        assert len(problems(write_config(tmp_path, cfg))) >= 4

    def test_arrival_generator_is_pinned(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "generator": "mt19937",
                           "rate": 1.0, "seed": 1, "count": 3}
        assert any("pcg64" in d for d in problems(write_config(tmp_path, cfg)))
        cfg["arrivals"]["generator"] = "pcg64"
        s, _ = load_scenario(write_config(tmp_path, cfg))
        assert s.arrivals == PoissonArrivals(1.0, 1, 3)

    def test_dag_violations_surface(self, tmp_path):
        cfg = minimal_config()
        cfg["workloads"]["w"]["edges"] = [["s0", "ghost"]]
        assert any("ghost" in d for d in problems(write_config(tmp_path, cfg)))

    def test_cloud_only_needs_no_edge_nodes(self, tmp_path):
        cfg = minimal_config()
        cfg["edge"]["node_count"] = 0
        del cfg["edge"]["node_cpu_millicores"]
        del cfg["edge"]["node_memory_mb"]
        cfg["scheduler"] = {"policy": "cloud_only"}
        s, _ = load_scenario(write_config(tmp_path, cfg))
        assert s.node_capacities == ()

    def test_cheapest_first_requires_edge_nodes(self, tmp_path):
        cfg = minimal_config()
        cfg["edge"]["node_count"] = 0
        assert any("node_count" in d for d in problems(write_config(tmp_path, cfg)))

    def test_missing_file_and_bad_json(self, tmp_path):
        assert problems(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert any("invalid JSON" in d for d in problems(bad))

    def test_required_keys_absent_or_null(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"times": [1.0]}
        cfg["faults"] = [{"kind": "node_failure"}, {"time": 1.0}]
        cfg["workloads"]["w"]["fragment_count"] = None
        assert problems(write_config(tmp_path, cfg)) == [
            "arrivals.kind: is required", "faults[0].node_id: is required",
            "faults[0].time: is required", "faults[1].kind: is required",
            "workloads.w.fragment_count: is required"]

    def test_scenario_field_ranges_come_with_the_scenario_rules(self, tmp_path):
        cfg = minimal_config()
        cfg["horizon"] = 0
        cfg["workloads"]["w"]["edges"] = [["s0", "ghost"]]
        assert problems(write_config(tmp_path, cfg)) == [
            "horizon: must be > 0", "workloads.w: job w: edge references unknown step 'ghost'"]

    def test_deadline_and_service_time_stay_as_written(self, tmp_path):
        # a float would print a 10**10 deadline as 1e+10 in job_outcomes.csv
        cfg = minimal_config()
        cfg["workloads"]["w"]["deadline"] = 10**10
        cfg["workloads"]["w"]["steps"][0]["service_time"] = 2
        s, _ = load_scenario(write_config(tmp_path, cfg))
        template = s.catalog["w"]
        assert type(template.deadline) is int and template.deadline == 10**10
        assert type(template.dag.steps[0].service_time_per_fragment) is int

    def test_faults_parse_and_validate(self, tmp_path):
        cfg = minimal_config()
        cfg["faults"] = [
            {"kind": "node_failure", "time": 40.0, "node_id": 1},
            {"kind": "driver_restart", "time": 35.0, "job_index": 0},
        ]
        s, _ = load_scenario(write_config(tmp_path, cfg))
        assert len(s.faults) == 2
        cfg["faults"].append({"kind": "node_failure", "time": 1.0, "node_id": 7})
        assert any("node_id" in d for d in problems(write_config(tmp_path, cfg)))


def library_scenario(**overrides) -> Scenario:
    """The scenario minimal_config() loads to, built directly."""
    fields = dict(
        scenario_id="scenario",
        node_capacities=(ResourceVector(2000, 2048),) * 2,
        catalog={"w": library_template()},
        arrivals=ExplicitArrivals((1.0, 2.0)),
    )
    fields.update(overrides)
    return Scenario(**fields)


def library_template(service_time=1.0, edges=(), replicas=1, cpu=500, memory=256,
                     fragments=5, deadline=300.0) -> BatchJob:
    step = StepSpec("s0", ResourceVector(cpu, memory), replicas, service_time)
    return BatchJob("w", PipelineDag([step], edges), fragments, deadline)


def step_edit(**fields):
    return lambda c: c["workloads"]["w"]["steps"][0].update(fields)


def faults(*items):
    return lambda c: c.update(faults=list(items))


# (case, edit to minimal_config(), overrides for library_scenario(), text in
# the loader's diagnostic). Overrides are built lazily so that a fault or
# arrival type that rejects its own fields raises inside pytest.raises.
RULES = [
    ("edge-speed", lambda c: c["edge"].update(speed_factor=0),
     lambda: dict(edge_speed=0.0), "edge.speed_factor"),
    ("cloud-speed", lambda c: c.update(cloud={"speed_factor": -1.0}),
     lambda: dict(cloud_speed=-1.0), "cloud.speed_factor"),
    ("horizon", lambda c: c.update(horizon=0),
     lambda: dict(horizon=0.0), "horizon"),
    ("round-length", lambda c: c.update(scheduler={"round_length": 0}),
     lambda: dict(round_length=0.0), "round_length"),
    ("eviction-deadline", lambda c: c.update(scheduler={"eviction_deadline": 0}),
     lambda: dict(eviction_deadline=0.0), "eviction_deadline"),
    ("cloud-concurrency-hybrid", lambda c: c.update(cloud={"cloud_concurrency": 0}),
     lambda: dict(cloud_concurrency=0), "cloud_concurrency"),
    ("no-edge-nodes-hybrid", lambda c: c["edge"].update(node_count=0),
     lambda: dict(node_capacities=()), "node_count"),
    ("empty-catalog", lambda c: c.update(workloads={}),
     lambda: dict(catalog={}), "workloads"),
    ("empty-steps", lambda c: c["workloads"]["w"].update(steps=[]),
     lambda: dict(catalog={"w": BatchJob("w", PipelineDag([]), 5, 300.0)}),
     "workloads.w: job w: pipeline has no steps"),
    ("dag", lambda c: c["workloads"]["w"].update(edges=[["s0", "ghost"]]),
     lambda: dict(catalog={"w": library_template(edges=[("s0", "ghost")])}), "ghost"),
    ("execution-timeout", lambda c: c["workloads"]["w"]["steps"][0].update(service_time=61.0),
     lambda: dict(catalog={"w": library_template(service_time=61.0)}), "execution timeout"),
    ("poisson-rate", lambda c: c.update(
        arrivals={"kind": "poisson", "rate": 0, "seed": 1, "count": 3}),
     lambda: dict(arrivals=PoissonArrivals(0.0, 1, 3)), "arrivals.rate"),
    ("poisson-seed", lambda c: c.update(
        arrivals={"kind": "poisson", "rate": 1.0, "seed": -1, "count": 3}),
     lambda: dict(arrivals=PoissonArrivals(1.0, -1, 3)), "arrivals.seed"),
    ("poisson-count", lambda c: c.update(
        arrivals={"kind": "poisson", "rate": 1.0, "seed": 1, "count": -1}),
     lambda: dict(arrivals=PoissonArrivals(1.0, 1, -1)), "arrivals.count"),
    ("negative-arrival-time", lambda c: c["arrivals"].update(times=[-1.0, 2.0]),
     lambda: dict(arrivals=ExplicitArrivals((-1.0, 2.0))), "arrivals.times"),
    ("unsorted-arrival-times", lambda c: c["arrivals"].update(times=[2.0, 1.0]),
     lambda: dict(arrivals=ExplicitArrivals((2.0, 1.0))), "sorted"),
    ("template-count", lambda c: c["arrivals"].update(templates=["w"]),
     lambda: dict(arrivals=ExplicitArrivals((1.0, 2.0), ("w",))), "arrivals.templates"),
    ("unknown-template", lambda c: c["arrivals"].update(templates=["w", "zzz"]),
     lambda: dict(arrivals=ExplicitArrivals((1.0, 2.0), ("w", "zzz"))), "zzz"),
    ("unknown-node", faults({"kind": "node_failure", "time": 1.0, "node_id": 7}),
     lambda: dict(faults=(NodeFailureFault(1.0, 7),)), "node_id"),
    ("double-node-kill", faults({"kind": "node_failure", "time": 1.0, "node_id": 0},
                                {"kind": "node_failure", "time": 200.0, "node_id": 0}),
     lambda: dict(faults=(NodeFailureFault(1.0, 0), NodeFailureFault(200.0, 0))),
     "already fails"),
    ("negative-fault-time", faults({"kind": "node_failure", "time": -1.0, "node_id": 0}),
     lambda: dict(faults=(NodeFailureFault(-1.0, 0),)), "faults[0].time"),
    ("negative-job-index", faults({"kind": "driver_restart", "time": 1.0, "job_index": -1}),
     lambda: dict(faults=(DriverRestartFault(1.0, -1),)), "job_index"),
    ("job-index-out-of-range",
     faults({"kind": "driver_restart", "time": 10.0, "job_index": 2}),
     lambda: dict(faults=(DriverRestartFault(10.0, 2),)), "job_index"),
    ("fault-past-horizon",
     lambda c: c.update(horizon=100.0, faults=[
         {"kind": "node_failure", "time": 200.0, "node_id": 0}]),
     lambda: dict(horizon=100.0, faults=(NodeFailureFault(200.0, 0),)),
     "past the horizon"),
    ("replicas", step_edit(replicas=0),
     lambda: dict(catalog={"w": library_template(replicas=0)}),
     "workloads.w.steps[0].replicas: must be >= 1"),
    ("service-time", step_edit(service_time=0),
     lambda: dict(catalog={"w": library_template(service_time=0.0)}),
     "workloads.w.steps[0].service_time: must be > 0"),
    ("step-cpu", step_edit(cpu_millicores=-1),
     lambda: dict(catalog={"w": library_template(cpu=-1)}),
     "workloads.w.steps[0].cpu_millicores: must be >= 0"),
    ("step-memory", step_edit(memory_mb=-1),
     lambda: dict(catalog={"w": library_template(memory=-1)}),
     "workloads.w.steps[0].memory_mb: must be >= 0"),
    ("fragment-count", lambda c: c["workloads"]["w"].update(fragment_count=0),
     lambda: dict(catalog={"w": library_template(fragments=0)}),
     "workloads.w.fragment_count: must be >= 1"),
    ("deadline", lambda c: c["workloads"]["w"].update(deadline=0),
     lambda: dict(catalog={"w": library_template(deadline=0.0)}),
     "workloads.w.deadline: must be > 0"),
    ("c-cpu", lambda c: c.update(cost={"c_cpu": -1.0}),
     lambda: dict(cost_params=CostParams(c_cpu=-1.0)), "cost.c_cpu: must be >= 0 and finite"),
    ("c-mem", lambda c: c.update(cost={"c_mem": -0.5}),
     lambda: dict(cost_params=CostParams(c_mem=-0.5)), "cost.c_mem: must be >= 0 and finite"),
    ("execution-timeout-zero", lambda c: c.update(scheduler={"execution_timeout": 0}),
     lambda: dict(execution_timeout=0.0), "scheduler.execution_timeout: must be > 0"),
    ("node-cpu", lambda c: c["edge"].update(node_cpu_millicores=0),
     lambda: dict(node_capacities=(ResourceVector(0, 2048),) * 2),
     "edge.node_cpu_millicores: must be >= 1"),
    ("node-memory", lambda c: c["edge"].update(node_memory_mb=0),
     lambda: dict(node_capacities=(ResourceVector(2000, 0),) * 2),
     "edge.node_memory_mb: must be >= 1"),
]


@pytest.mark.parametrize("edit, overrides, diagnostic",
                         [pytest.param(*r[1:], id=r[0]) for r in RULES])
def test_one_rule_every_entry_point(tmp_path, capsys, edit, overrides, diagnostic):
    """Each scenario rule rejects the file before any simulation and the
    directly built Scenario on construction, whatever the mode or the run."""
    cfg = minimal_config()
    edit(cfg)
    path = write_config(tmp_path, cfg)
    got = problems(path)
    assert any(diagnostic in d for d in got), got
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    assert "error:" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        library_scenario(**overrides())


HUGE = "1" + "0" * 400


# each edit writes the token itself or, for a literal json.dumps cannot write,
# the placeholder 1234.5 that the token replaces
@pytest.mark.parametrize("edit, token", [
    pytest.param(lambda c: c["arrivals"].update(times=[float("nan")]), "NaN",
                 id="nan-arrival-time"),
    pytest.param(lambda c: c.update(cost={"c_cpu": float("inf")},
                                    scheduler={"policy": "cloud_only"}), "Infinity",
                 id="infinite-price"),
    pytest.param(lambda c: c["edge"].update(speed_factor=float("inf")), "Infinity",
                 id="infinite-speed"),
    pytest.param(lambda c: c.update(horizon=1234.5), "1e400", id="overflowing-float"),
    pytest.param(lambda c: c.update(horizon=1234.5), HUGE, id="overflowing-integer"),
])
def test_non_finite_numbers_are_invalid_json(tmp_path, capsys, edit, token):
    cfg = minimal_config()
    edit(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg).replace("1234.5", token), encoding="utf-8")
    assert token in path.read_text(encoding="utf-8")
    assert problems(path) == [f"{path}: invalid JSON: {token} is not a finite number"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_file_that_is_not_utf8_is_one_diagnostic(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"scenario_id": "\xff\xfe"}')
    assert problems(path) == [f"{path}: not UTF-8 text: invalid start byte at offset 17"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at offset 17\n")
    assert not (tmp_path / "o").exists()


# past the JSON parser's nesting limit on every supported Python (3.13 parses
# a 3,000-deep list)
DEEP = 100_000


@pytest.mark.parametrize("where", ["steps", "top"])
def test_a_file_nested_too_deeply_is_one_diagnostic(tmp_path, capsys, where):
    path = tmp_path / "scenario.json"
    if where == "steps":
        cfg = minimal_config()
        cfg["workloads"]["w"]["steps"] = "DEEP"
        text = json.dumps(cfg).replace('"DEEP"', "[" * DEEP + "]" * DEEP)
    else:
        text = "[" * DEEP + "]" * DEEP
    path.write_text(text, encoding="utf-8")
    assert problems(path) == [f"{path}: invalid JSON: nested too deeply"]
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: invalid JSON: nested too deeply\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, extra", [
    ("run", []), ("sweep", []), ("baseline", []), ("replicate", ["--seeds", "1,2"])])
def test_an_output_path_that_is_a_file_is_one_diagnostic(tmp_path, capsys, monkeypatch,
                                                         command, extra):
    """Refused before the first simulation starts."""
    def no_run(*args):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(cli, "run", no_run)
    cfg = minimal_config()
    cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
    out = tmp_path / "taken"
    out.write_text("not a directory", encoding="utf-8")
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(out), *extra]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(out))}/[\w-]+: "
                        rf"{re.escape(os.strerror(errno.ENOTDIR))}\n", err), err
    assert out.read_text(encoding="utf-8") == "not a directory"


def test_a_write_error_without_a_path_is_one_diagnostic(tmp_path, capsys, monkeypatch):
    def full(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "emit_report", full)
    argv = ["run", "--config", write_config(tmp_path, minimal_config()),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOSPC)}\n"


SATURATING_MIX = Path(__file__).resolve().parent.parent / "scenarios" / "saturating_mix.json"


# a valid file whose arrival times, or those times in rounds, pass the float range
@pytest.mark.parametrize("section, key, problem", [
    ("scheduler", "round_length", "scheduler.round_length: must be large enough for "
     "every arrival time to be fewer than 2^53 rounds"),
    ("arrivals", "rate", "arrivals.rate: must be large enough for every arrival time "
     "to be finite"),
])
@pytest.mark.parametrize("command", ["run", "sweep", "baseline", "replicate"])
def test_a_schedule_past_the_float_range_is_refused_before_the_run(
        tmp_path, capsys, command, section, key, problem):
    cfg = json.loads(SATURATING_MIX.read_text(encoding="utf-8"))
    cfg["arrivals"]["count"] = 5
    cfg[section][key] = 1e-320
    path = write_config(tmp_path, cfg)
    assert problems(path) == []
    extra = ["--seeds", "1,2"] if command == "replicate" else []
    assert main([command, "--config", path, "--out", str(tmp_path / "o"), *extra]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "o").exists()


# 2^53 rounds of 1e-9 s end at about 9,007,199 s; past them int(now /
# round_length) drops units, and the round an arrival asked for fell before it
@pytest.mark.parametrize("time, code", [(9_000_000.0, 0), (381204856483.97473, 1)],
                         ids=["inside", "past"])
def test_an_arrival_past_2_53_rounds_is_refused_before_the_run(tmp_path, capsys, time, code):
    cfg = minimal_config()
    cfg["edge"]["node_count"] = 1
    cfg["scheduler"] = {"round_length": 1e-9}
    cfg["arrivals"] = {"kind": "explicit", "times": [time]}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: scheduler.round_length: must be large enough for every "
                       "arrival time to be fewer than 2^53 rounds\n")
        assert not (tmp_path / "o").exists()
    else:
        assert err == "" and (tmp_path / "o" / "run" / "summary.json").exists()


def workload_edit(**fields):
    return lambda c: c["workloads"]["w"].update(fields)


POISSON = {"kind": "poisson", "rate": 1.0, "seed": 1, "count": 3}


# (case, edit to minimal_config() that may return a whole new document, the
# loader's exact diagnostics, with <file> for the scenario file's path)
SHAPES = [
    ("number", step_edit(service_time="1"),
     ["workloads.w.steps[0].service_time: must be a number"]),
    ("integer", workload_edit(fragment_count=1.5),
     ["workloads.w.fragment_count: must be an integer"]),
    ("string", step_edit(step_id=3), ["workloads.w.steps[0].step_id: must be a string"]),
    ("boolean", step_edit(feed_forward="yes"),
     ["workloads.w.steps[0].feed_forward: must be true or false"]),
    ("policy", lambda c: c.update(scheduler={"policy": "fast"}),
     ["scheduler.policy: must be one of cheapest_first, cloud_only"]),
    ("placement", lambda c: c.update(scheduler={"placement": "xx"}),
     ["scheduler.placement: must be one of ff, bf, rr, wf"]),
    ("generator", lambda c: c.update(arrivals={**POISSON, "generator": "mt19937"}),
     ["arrivals.generator: must be one of pcg64"]),
    ("arrivals-kind", lambda c: c["arrivals"].update(kind="burst"),
     ["arrivals.kind: must be one of poisson, explicit"]),
    ("fault-kind", faults({"kind": "meteor", "time": 1.0}),
     ["faults[0].kind: must be one of node_failure, driver_restart"]),
    ("section-object", lambda c: c.update(cost=[1]), ["cost: must be an object"]),
    ("cloud-object", lambda c: c.update(cloud=3), ["cloud: must be an object"]),
    ("scheduler-object", lambda c: c.update(scheduler="ff"),
     ["scheduler: must be an object"]),
    ("step-object", workload_edit(steps=[3]), ["workloads.w.steps[0]: must be an object"]),
    ("fault-object", faults(3), ["faults[0]: must be an object"]),
    ("faults-list", lambda c: c.update(faults={"kind": "node_failure"}),
     ["faults: must be a list"]),
    ("steps-list", workload_edit(steps={"step_id": "s0"}),
     ["workloads.w.steps: must be a list"]),
    ("times", lambda c: c["arrivals"].update(times=[1.0, "2"]),
     ["arrivals.times: must be a list of numbers"]),
    ("times-bool", lambda c: c["arrivals"].update(times=[1.0, True]),
     ["arrivals.times: must be a list of numbers"]),
    ("times-int", lambda c: c["arrivals"].update(times=[1, 2.5]),
     "ExplicitArrivals(times=(1.0, 2.5), templates=None)"),
    ("templates", lambda c: c["arrivals"].update(templates=["w", 2]),
     ["arrivals.templates: must be a list of template names"]),
    ("edges-list", workload_edit(edges="s0"),
     ["workloads.w.edges: must be a list of [from, to] pairs"]),
    ("edge-pair", workload_edit(edges=[["s0"]]),
     ["workloads.w.edges[0]: must be a [from, to] pair of step ids"]),
    ("arrivals-section", lambda c: c.update(arrivals=None),
     ["arrivals: section is required"]),
    ("edge-section", lambda c: c.update(edge=None),
     ["edge: section is required (node_count, node_cpu_millicores, node_memory_mb)"]),
    ("edge-capacity", lambda c: c["edge"].update(node_memory_mb=None),
     ["edge: node_cpu_millicores and node_memory_mb are required"]),
    ("node-count", lambda c: c["edge"].update(node_count=-1), ["edge.node_count: must be >= 0"]),
    ("node-count-limit", lambda c: c["edge"].update(node_count=1_000_001),
     ["edge.node_count: must be <= 1000000"]),
    ("node-count-huge", lambda c: c["edge"].update(node_count=10**30),
     ["edge.node_count: must be <= 1000000"]),
    ("top-level", lambda c: [c], ["<file>: top level must be an object"]),
    ("workloads", lambda c: c.update(workloads=["w"]),
     ["workloads: must be a non-empty object of named templates"]),
]


def drop_steps(cfg):
    del cfg["workloads"]["w"]["steps"]


def cloud_only_slow_edge(cfg):
    cfg.update(scheduler={"policy": "cloud_only"})
    cfg["edge"]["speed_factor"] = 0.5  # 40 s of service takes 80 s there, past the timeout
    cfg["workloads"]["w"]["steps"][0]["service_time"] = 40.0


# the same, for a missing steps list, for rules whose one owner sets the text
# and for range rules at their bounds
OWNED_MESSAGES = [
    ("steps-absent", drop_steps, ["workloads.w.steps: is required"]),
    ("steps-null", workload_edit(steps=None), ["workloads.w.steps: is required"]),
    ("no-edge-nodes", lambda c: c["edge"].update(node_count=0),
     ["edge.node_count: must be >= 1 unless the mode is cloud_only"]),
    ("negative-node-cpu", lambda c: c["edge"].update(node_cpu_millicores=-1),
     ["edge.node_cpu_millicores: must be >= 1"]),
    ("zero-node-cpu", lambda c: c["edge"].update(node_cpu_millicores=0),
     ["edge.node_cpu_millicores: must be >= 1"]),
    ("seed-zero", lambda c: c.update(arrivals={**POISSON, "seed": 0}), []),
    ("one-mcpu-node", lambda c: c["edge"].update(node_cpu_millicores=1), []),
    ("one-mb-node", lambda c: c["edge"].update(node_memory_mb=1), []),
    ("cloud-speed-zero", lambda c: c.update(cloud={"speed_factor": 0}),
     ["cloud.speed_factor: must be > 0"]),
    ("execution-timeout-zero", lambda c: c.update(scheduler={"execution_timeout": 0}),
     ["scheduler.execution_timeout: must be > 0"]),
    ("cloud-only-slow-edge", cloud_only_slow_edge, []),
    ("fault-at-horizon", lambda c: c.update(horizon=100.0, faults=[
        {"kind": "node_failure", "time": 100.0, "node_id": 0}]), []),
    ("node-id-at-node-count", faults({"kind": "node_failure", "time": 1.0, "node_id": 2}),
     ["faults[0].node_id: must be < 2, the node count"]),
]


# a section set to null reads as absent, as every other null key does
NULL_SECTIONS = [(f"{key}-null", lambda c, key=key: c.update({key: None}), [])
                 for key in ("cloud", "cost", "scheduler")]


# a row's expected value is its exact diagnostics, or the repr of the
# arrivals the file loads to, which tells an int time from a float one
@pytest.mark.parametrize("edit, diagnostics", [pytest.param(*r[1:], id=r[0])
                                               for r in SHAPES + OWNED_MESSAGES + NULL_SECTIONS])
def test_each_problem_has_one_exact_diagnostic(tmp_path, edit, diagnostics):
    cfg = minimal_config()
    path = write_config(tmp_path, edit(cfg) or cfg)
    if isinstance(diagnostics, str):
        assert repr(load_scenario(path)[0].arrivals) == diagnostics
    else:
        assert problems(path) == [d.replace("<file>", path) for d in diagnostics]


def test_node_count_at_the_limit_loads(tmp_path):
    cfg = minimal_config()
    cfg["edge"]["node_count"] = cli.MAX_NODE_COUNT
    s, _ = load_scenario(write_config(tmp_path, cfg))
    assert len(s.node_capacities) == 1_000_000


def test_library_scenario_matches_the_loaded_one(tmp_path):
    assert library_scenario() == load_scenario(write_config(tmp_path, minimal_config()))[0]


def test_null_sections_load_as_absent(tmp_path):
    cfg = {**minimal_config(), "cloud": None, "cost": None, "scheduler": None}
    assert library_scenario() == load_scenario(write_config(tmp_path, cfg))[0]


NF, DR = "node_failure", "driver_restart"

# (case, a file's fault list, and the repr of the faults it loads to or else
# its exact diagnostics). The loader builds a fault whose keys and value types
# its table accepts with `_built` and reads any other through _Check; these
# sit on both sides of that line. Faults compare by repr, as == cannot tell
# an int time from a float one.
FAULT_EDGES = [
    ("int-time", [{"kind": NF, "time": 40, "node_id": 1}, {"kind": DR, "time": 0, "job_index": 0}],
     "(NodeFailureFault(time=40.0, node_id=1), DriverRestartFault(time=0.0, job_index=0))"),
    ("negative-zero-time", [{"kind": NF, "time": -0.0, "node_id": 0}],
     "(NodeFailureFault(time=-0.0, node_id=0),)"),
    ("any-key-order", [{"node_id": 1, "time": 3, "kind": NF},
                       {"job_index": 1, "kind": DR, "time": 2.5}],
     "(NodeFailureFault(time=3.0, node_id=1), DriverRestartFault(time=2.5, job_index=1))"),
    ("bool-node-id", [{"kind": NF, "time": 1.0, "node_id": True}],
     ["faults[0].node_id: must be a number"]),
    ("bool-job-index", [{"kind": DR, "time": 1.0, "job_index": False}],
     ["faults[0].job_index: must be a number"]),
    ("bool-time", [{"kind": NF, "time": True, "node_id": 0}], ["faults[0].time: must be a number"]),
    ("float-node-id", [{"kind": NF, "time": 1.0, "node_id": 1.0}],
     ["faults[0].node_id: must be an integer"]),
    ("string-time", [{"kind": NF, "time": "1", "node_id": 0}],
     ["faults[0].time: must be a number"]),
    ("extra-key", [{"kind": NF, "time": 1.0, "node_id": 0, "note": "x"}],
     ["faults[0].note: unknown key"]),
    ("other-kinds-key", [{"kind": NF, "time": 1.0, "job_index": 0}],
     ["faults[0].job_index: unknown key", "faults[0].node_id: is required"]),
    ("null-index", [{"kind": DR, "time": 1.0, "job_index": None}],
     ["faults[0].job_index: is required"]),
    ("null-time", [{"kind": DR, "time": None, "job_index": 0}], ["faults[0].time: is required"]),
    ("negative-index", [{"kind": DR, "time": 1.0, "job_index": -1}],
     ["faults[0].job_index: must be >= 0"]),
    ("negative-node-id", [{"kind": NF, "time": 1.0, "node_id": -1}],
     ["faults[0].node_id: must be >= 0"]),
    ("negative-time-and-index", [{"kind": DR, "time": -1, "job_index": -1}],
     ["faults[0].job_index: must be >= 0", "faults[0].time: must be >= 0 and finite"]),
    ("non-objects", [{"kind": NF, "time": 1.0, "node_id": 0}, [NF, 1.0, 0], "x"],
     ["faults[1]: must be an object", "faults[2]: must be an object"]),
    ("missing-kind", [{"time": 1.0, "node_id": 0}], ["faults[0].kind: is required"]),
    ("null-kind", [{"kind": None, "time": 1.0, "node_id": 0}], ["faults[0].kind: is required"]),
    ("unknown-kind", [{"kind": "meteor", "time": 1.0, "node_id": 0}],
     ["faults[0].kind: must be one of node_failure, driver_restart"]),
    ("list-kind", [{"kind": [NF], "time": 1.0, "node_id": 0}],
     ["faults[0].kind: must be a string"]),
]


@pytest.mark.parametrize("objects, expected", [pytest.param(*r[1:], id=r[0])
                                               for r in FAULT_EDGES])
def test_fault_objects_at_every_rule_edge(tmp_path, objects, expected):
    path = write_config(tmp_path, {**minimal_config(), "faults": objects})
    if isinstance(expected, str):
        assert repr(load_scenario(path)[0].faults) == expected
    else:
        assert problems(path) == expected


@pytest.mark.parametrize("time", [3, 2.5], ids=["int-time", "float-time"])
@pytest.mark.parametrize("keys", [pytest.param(keys, id="-".join(keys))
                                  for _, table in cli._FAULTS.values()
                                  for keys in permutations(table)])
def test_a_fault_object_in_any_key_order_builds_as_checked(keys, time):
    """`_built` takes a fault object's keys in any order, and an int time as
    the float `_Check` casts it to: the fault is the one `_Check` builds."""
    values = {"time": time, "node_id": 1, "job_index": 1}
    tag = NF if "node_id" in keys else DR
    obj = {key: tag if key == "kind" else values[key] for key in keys}
    check = cli._Check()
    cls, got = check.variant(obj, "faults[0]", cli._FAULTS)
    expected = check.build("faults[0].", cls, **got)
    assert check.problems == []
    assert repr(cli._built(obj, cli._FAULTS)) == repr(expected)


@pytest.mark.parametrize("objects", [
    pytest.param(row[1], id=row[0]) for row in FAULT_EDGES
    if row[0] in ("extra-key", "other-kinds-key", "bool-node-id", "bool-job-index", "bool-time",
                  "null-index", "null-time")])
def test_built_leaves_a_fault_object_off_its_shape_to_check(objects):
    """An extra or foreign key, a bool or a null is not built: `_Check` reads
    the object again for its problems."""
    assert [cli._built(obj, cli._FAULTS) for obj in objects] == [None]


# An integer token of fewer than 309 characters is inside the float range;
# a longer one is checked. deadline keeps the integer as written.
@pytest.mark.parametrize("token, diagnostics", [
    pytest.param("1" + "0" * 308, [], id="1e308"),
    pytest.param("9" * 308, [], id="308-nines"),
    pytest.param("2" + "0" * 308, ["<file>: invalid JSON: <token> is not a finite number"],
                 id="2e308"),
    pytest.param("-" + "9" * 308, ["workloads.w.deadline: must be > 0"], id="minus-308-nines"),
    pytest.param("-1" + "0" * 308, ["workloads.w.deadline: must be > 0"], id="minus-1e308"),
    pytest.param("-2" + "0" * 308, ["<file>: invalid JSON: <token> is not a finite number"],
                 id="minus-2e308"),
])
def test_integer_tokens_at_the_float_range_edge(tmp_path, token, diagnostics):
    cfg = minimal_config()
    cfg["workloads"]["w"]["deadline"] = 1234.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg).replace("1234.5", token), encoding="utf-8")
    assert problems(path) == [d.replace("<file>", str(path)).replace("<token>", token)
                              for d in diagnostics]
    if not diagnostics:
        deadline = load_scenario(path)[0].catalog["w"].deadline
        assert type(deadline) is int and deadline == int(token)


NAN = float("nan")
INF = float("inf")
DAG = PipelineDag([StepSpec("s0", ResourceVector(1, 1), 1, 1.0)])


# (case, constructor call, every problem it must report in one ValidationError)
OWN_FIELDS = [
    ("step-demand", lambda: StepSpec("s0", ResourceVector(-1, -1), 1, 1.0),
     ["cpu_millicores: must be >= 0", "memory_mb: must be >= 0"]),
    ("cost-params", lambda: CostParams(-1.0, NAN),
     ["c_cpu: must be >= 0 and finite", "c_mem: must be >= 0 and finite"]),
    ("cost-params-inf", lambda: CostParams(INF, INF),
     ["c_cpu: must be >= 0 and finite", "c_mem: must be >= 0 and finite"]),
    ("step-spec", lambda: StepSpec("", ResourceVector(), 0, NAN),
     ["step_id: must be non-empty", "replicas: must be >= 1", "service_time: must be > 0"]),
    ("batch-job", lambda: BatchJob("", DAG, 0, NAN, -1.0),
     ["job_id: must be non-empty", "fragment_count: must be >= 1", "deadline: must be > 0",
      "arrival_time: must be >= 0"]),
    ("batch-job-one-fragment", lambda: BatchJob("j", DAG, 1, 0.0), ["deadline: must be > 0"]),
    ("poisson-arrivals", lambda: PoissonArrivals(0.0, -1, -1),
     ["arrivals.rate: must be > 0", "arrivals.seed: must be >= 0",
      "arrivals.count: must be >= 0"]),
    ("explicit-arrivals", lambda: ExplicitArrivals((2.0, -1.0), ("w",)),
     ["arrivals.times: must be >= 0 and finite", "arrivals.times: must be sorted ascending",
      "arrivals.templates: must match times in length"]),
    ("explicit-arrivals-nan", lambda: ExplicitArrivals((NAN,)),
     ["arrivals.times: must be >= 0 and finite"]),
    ("explicit-arrivals-inf", lambda: ExplicitArrivals((1.0, INF)),
     ["arrivals.times: must be >= 0 and finite"]),
    ("node-failure", lambda: NodeFailureFault(NAN, -1),
     ["time: must be >= 0 and finite", "node_id: must be >= 0"]),
    ("node-failure-inf", lambda: NodeFailureFault(INF, 0), ["time: must be >= 0 and finite"]),
    ("driver-restart", lambda: DriverRestartFault(-1.0, -1),
     ["time: must be >= 0 and finite", "job_index: must be >= 0"]),
    ("driver-restart-inf", lambda: DriverRestartFault(INF, 0),
     ["time: must be >= 0 and finite"]),
    ("scenario", lambda: library_scenario(
        node_capacities=(ResourceVector(0, 0),), edge_speed=NAN, cloud_speed=0.0,
        cloud_concurrency=0, round_length=NAN, eviction_deadline=-1.0,
        execution_timeout=NAN, horizon=0.0),
     ["edge.speed_factor: must be > 0", "cloud.speed_factor: must be > 0",
      "cloud.cloud_concurrency: must be >= 1", "edge.node_cpu_millicores: must be >= 1",
      "edge.node_memory_mb: must be >= 1", "scheduler.round_length: must be > 0 and finite",
      "scheduler.eviction_deadline: must be > 0 and finite",
      "scheduler.execution_timeout: must be > 0", "horizon: must be > 0"]),
    ("scenario-inf", lambda: library_scenario(round_length=INF, eviction_deadline=INF),
     ["scheduler.round_length: must be > 0 and finite",
      "scheduler.eviction_deadline: must be > 0 and finite"]),
    ("failure-of-node-count", lambda: HcsScheduler((ResourceVector(1, 1),) * 2)
     .handle_node_failure(2), ["unknown node 2"]),
]


@pytest.mark.parametrize("build, problems", [pytest.param(*r[1:], id=r[0]) for r in OWN_FIELDS])
def test_each_type_reports_all_of_its_own_bad_fields_at_once(build, problems):
    """NaN fails every range rule, as it fails the loader's number check, and
    the rules on times, the round grid and the prices refuse infinity, which no
    file holds."""
    with pytest.raises(ValidationError) as e:
        build()
    assert e.value.problems == problems


def test_zero_capacity_node_rejected():
    with pytest.raises(ValidationError) as e:
        library_scenario(node_capacities=(ResourceVector(2000, 2048), ResourceVector(0, 0)),
                         mode=SchedulerMode.CLOUD_ONLY)
    assert e.value.problems == ["edge.node_cpu_millicores: must be >= 1",
                                "edge.node_memory_mb: must be >= 1"]


class TestRunCommand:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, minimal_config())
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        for name in ("arrivals.csv", "utilization.csv", "cost_ledger.csv",
                     "job_outcomes.csv", "summary.json"):
            assert (tmp_path / "o" / "run" / name).exists()
        out = capsys.readouterr().out
        assert "2 jobs" in out

    def test_run_twice_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, minimal_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("arrivals.csv", "utilization.csv", "cost_ledger.csv",
                     "job_outcomes.csv", "summary.json"):
            assert (tmp_path / "a" / "run" / name).read_bytes() == \
                (tmp_path / "b" / "run" / name).read_bytes()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["arrivals"]["times"] = [5.0, 1.0]
        code = main(["run", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_placement_override(self, tmp_path):
        cfg = write_config(tmp_path, minimal_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--placement", "wf"]) == 0
        summary = json.loads(
            (tmp_path / "o" / "run" / "summary.json").read_text(encoding="utf-8"))
        assert summary["placement"] == "wf"

    def test_emit_plot_data_flag(self, tmp_path):
        cfg = write_config(tmp_path, minimal_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--emit-plot-data"]) == 0
        assert (tmp_path / "o" / "run" / "plot_utilization.csv").exists()

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, minimal_config())
        # the child imports the same hcs_sim as this process, installed or not
        src = str(Path(hcs_sim.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hcs_sim.cli", "run", "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr

    def test_log_setting_that_names_no_level_reads_as_warning(self, tmp_path):
        # BASIC_FORMAT is a logging attribute but a format string, not a level
        cfg = write_config(tmp_path, minimal_config())
        src = str(Path(hcs_sim.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hcs_sim.cli", "run", "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "HCS_SIM_LOG": "basic_format"})
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("command", ["run", "sweep", "baseline", "replicate"])
    def test_info_log_has_one_phase_line_and_leaves_artifacts_alone(self, tmp_path, command):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.5, "seed": 1, "count": 4}
        path = write_config(tmp_path, cfg)
        argv = [command, "--config", path, "--emit-plot-data"] + (
            ["--seeds", "1,2"] if command == "replicate" else [])
        src = str(Path(hcs_sim.__file__).resolve().parent.parent)
        pypath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hcs_sim.cli", *argv, "--out", str(tmp_path / "info")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": pypath, "HCS_SIM_LOG": "INFO"})
        assert proc.returncode == 0, proc.stderr
        phase_lines = [line for line in proc.stderr.splitlines() if "by phase" in line]
        assert len(phase_lines) == 1, proc.stderr
        assert re.fullmatch(r"INFO hcs_sim\.cli: wall-clock seconds by phase: load [0-9.]+, "
                            r"arrivals [0-9.]+, simulate [0-9.]+, emit [0-9.]+", phase_lines[0])
        assert main([*argv, "--out", str(tmp_path / "quiet")]) == 0

        def artifacts(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        info, quiet = artifacts(tmp_path / "info"), artifacts(tmp_path / "quiet")
        assert info == quiet and len(info) > 5

    @staticmethod
    def loaded_by_import(*modules: str) -> list[str]:
        """Which of modules a fresh interpreter has loaded after `import hcs_sim.cli`."""
        src = str(Path(hcs_sim.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = f"import sys, hcs_sim.cli; print(*(m for m in {modules!r} if m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_loads_no_numpy(self):
        assert self.loaded_by_import("numpy") == []

    def test_import_loads_no_dataclasses_or_inspect(self):
        # the records are plain classes: their setup cost stays out of every command
        assert self.loaded_by_import("dataclasses", "inspect") == []

    def test_import_loads_no_logging(self):
        assert self.loaded_by_import("logging") == []

    @staticmethod
    def run_in_child(cfg: str, out, log_setting: str | None) -> subprocess.CompletedProcess:
        """A `run` through cli.main in a fresh interpreter, with HCS_SIM_LOG set
        to log_setting or unset; its stdout ends with whether logging loaded."""
        src = str(Path(hcs_sim.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("HCS_SIM_LOG", None)
        if log_setting is not None:
            env["HCS_SIM_LOG"] = log_setting
        code = ("import sys; from hcs_sim.cli import main; code = main(sys.argv[1:]); "
                "print('logging' in sys.modules); sys.exit(code)")
        return subprocess.run(
            [sys.executable, "-c", code, "run", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("log_setting", [None, "WARNING"], ids=["unset", "warning"])
    def test_a_run_that_logs_nothing_loads_no_logging(self, tmp_path, log_setting):
        proc = self.run_in_child(write_config(tmp_path, minimal_config()), tmp_path / "o",
                                 log_setting)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "False"

    def test_debug_log_names_each_eviction(self, tmp_path):
        # one 4000 mCPU node: the dear job's step evicts the cheap one's at t=60
        cfg = minimal_config()
        cfg["edge"] = {"node_count": 1, "node_cpu_millicores": 4000, "node_memory_mb": 4096}
        step = {"step_id": "s0", "memory_mb": 256, "service_time": 10.0}
        cfg["workloads"] = {
            "cheap": {"fragment_count": 20, "deadline": 600,
                      "steps": [{**step, "cpu_millicores": 2000}]},
            "dear": {"fragment_count": 2, "deadline": 600,
                     "steps": [{**step, "cpu_millicores": 4000}]}}
        cfg["arrivals"] = {"kind": "explicit", "times": [1.0, 31.0],
                           "templates": ["cheap", "dear"]}
        proc = self.run_in_child(write_config(tmp_path, cfg), tmp_path / "o", "DEBUG")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"
        lines = proc.stderr.splitlines()
        assert lines[:2] == [
            "INFO hcs_sim.sim_engine: run scenario: 2 arrivals, mode=cheapest_first placement=ff",
            "DEBUG hcs_sim.hcs_scheduler: t=60.0 evict ('cheap-0000', 's0') (rcost 2025.6) "
            "for ('dear-0001', 's0') (rcost 4025.6)"]
        assert len(lines) == 3 and "by phase" in lines[2]


class TestCollectorPause:
    """A command runs with the cyclic collector paused, whatever its exit."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("problem, code", [
        (None, 0), (ValidationError("bad"), 1), (InternalConsistencyError("books"), 2)])
    def test_collector_restored_as_found(self, tmp_path, monkeypatch, capsys,
                                         collecting, problem, code):
        seen = []
        real_run = cli.run

        def run(*args, **kwargs):
            seen.append(gc.isenabled())
            if problem is not None:
                raise problem
            return real_run(*args, **kwargs)

        monkeypatch.setattr(cli, "run", run)
        cfg = write_config(tmp_path, minimal_config())
        found = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == code
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if found else gc.disable)()
        assert seen == [False]

    def test_cyclic_garbage_does_not_grow_with_the_run(self, tmp_path, capsys):
        """Runs make no reference cycles (test_differential checks that on
        the generated scenarios). A command's own cyclic garbage, the parser
        and json's indenting encoder, is the same for 1 job as for 60."""
        def garbage(times):
            cfg = minimal_config()
            cfg["arrivals"]["times"] = times
            path = write_config(tmp_path, cfg)
            gc.collect()
            assert main(["baseline", "--config", path, "--out", str(tmp_path / "o"),
                         "--emit-plot-data"]) == 0
            return gc.collect()

        found = gc.isenabled()
        gc.disable()
        try:
            assert garbage([1.0]) == garbage([t / 2 for t in range(60)])
        finally:
            if found:
                gc.enable()


class TestSweepCommand:
    def test_sweep_all_shares_one_arrival_schedule(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 11, "count": 6}
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"),
                     "--placement", "all"]) == 0
        arrival_files = [(tmp_path / "o" / p / "arrivals.csv").read_bytes()
                         for p in ("ff", "bf", "rr", "wf")]
        assert all(f == arrival_files[0] for f in arrival_files)
        summary = json.loads(
            (tmp_path / "o" / "sweep_summary.json").read_text(encoding="utf-8"))
        assert set(summary["placements"]) == {"ff", "bf", "rr", "wf"}

    def test_sweep_single_placement(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o"),
                     "--placement", "rr"]) == 0
        assert (tmp_path / "o" / "rr" / "summary.json").exists()
        assert not (tmp_path / "o" / "ff").exists()


class TestBaselineCommand:
    def test_everything_fits_at_edge_is_zero_percent(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["baseline", "--config", path, "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(
            (tmp_path / "o" / "baseline_summary.json").read_text(encoding="utf-8"))
        assert summary["cost_vs_baseline_percent"] == 0.0
        assert summary["hybrid"]["total_cost"] == 0.0
        assert summary["cloud_only"]["total_cost"] > 0.0
        hybrid_arr = (tmp_path / "o" / "hybrid" / "arrivals.csv").read_bytes()
        cloud_arr = (tmp_path / "o" / "cloud_only" / "arrivals.csv").read_bytes()
        assert hybrid_arr == cloud_arr

    def test_cloud_only_file_without_edge_nodes_is_refused_for_baseline(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["edge"] = {"node_count": 0}
        cfg["scheduler"] = {"policy": "cloud_only"}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == 0
        capsys.readouterr()
        assert main(["baseline", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: baseline ")
        assert "hybrid run needs edge nodes" in err[0] and "unless the mode" not in err[0]
        assert not (tmp_path / "o").exists()


class TestReplicateCommand:
    def test_seed_sweep_aggregates(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 4}
        path = write_config(tmp_path, cfg)
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", "3,4,5"]) == 0
        summary = json.loads(
            (tmp_path / "o" / "replicate_summary.json").read_text(encoding="utf-8"))
        assert set(summary["seeds"]) == {"3", "4", "5"}
        agg = summary["aggregate"]
        assert set(agg) == {"total_cost", "mean_utilization", "deadline_met_fraction"}
        assert agg["deadline_met_fraction"]["mean"] >= 0.0
        for s in ("3", "4", "5"):
            assert (tmp_path / "o" / f"seed-{s}" / "summary.json").exists()

    def test_replicate_rejects_explicit_arrivals(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", "1,2"]) == 1
        assert "poisson" in capsys.readouterr().err

    def test_bad_seed_list(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
        path = write_config(tmp_path, cfg)
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", "a,b"]) == 1
        assert "--seeds" in capsys.readouterr().err

    def test_repeated_seed_is_an_error_before_any_run(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
        path = write_config(tmp_path, cfg)
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", "3,3,4"]) == 1
        err = capsys.readouterr().err
        assert err == "error: --seeds lists 3 more than once\n"
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_an_error_before_any_run(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
        path = write_config(tmp_path, cfg)
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"),
                     "--seeds", "2,-1"]) == 1
        err = capsys.readouterr().err
        assert "error: arrivals.seed" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seeds", [
        ["--seeds", "-1,2"], ["--seeds", "-1"], ["--seeds=-1,2"], ["--seed", "-1,2"]],
        ids=["spaced-list", "spaced", "joined", "abbreviated"])
    def test_leading_negative_seed_reaches_the_seed_check(self, tmp_path, capsys, seeds):
        # argparse alone reads "-1,2" as an option and leaves --seeds empty
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
        path = write_config(tmp_path, cfg)
        assert main(["replicate", "--config", path, "--out", str(tmp_path / "o"), *seeds]) == 1
        assert capsys.readouterr().err == "error: arrivals.seed: must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_missing_seed_list_is_a_usage_error(self, tmp_path):
        cfg = minimal_config()
        cfg["arrivals"] = {"kind": "poisson", "rate": 0.05, "seed": 1, "count": 2}
        path = write_config(tmp_path, cfg)
        with pytest.raises(SystemExit) as exit_info:
            main(["replicate", "--config", path, "--out", str(tmp_path / "o"), "--seeds"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "o").exists()
