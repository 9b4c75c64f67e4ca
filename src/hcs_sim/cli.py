"""Command-line entry point: strict scenario files, experiment orchestration
(policy sweeps, baseline pairing, seed replication), and report emission."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
)
from hcs_sim.hcs_scheduler import SchedulerMode
from hcs_sim.metrics import cost_vs_baseline, emit_report, round9, summary_dict, write_json
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    ExplicitArrivals,
    DriverRestartFault,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
    generate_arrivals,
    run,
)

log = logging.getLogger(__name__)

_PLACEMENTS = ("ff", "bf", "rr", "wf")


@dataclass
class LoadResult:
    scenario: Scenario | None
    output_dir: str | None
    diagnostics: list[str]


class _Check:
    """Collects every config violation instead of stopping at the first."""

    def __init__(self):
        self.problems: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def section(self, obj: dict, path: str, allowed: dict) -> dict:
        """Reject unknown keys; return {key: value-or-default} for known ones."""
        for key in obj:
            if key not in allowed:
                self.err(f"{path}.{key}" if path else key, "unknown key")
        return {k: obj.get(k, d) for k, d in allowed.items()}

    def number(self, value, path: str, minimum=None, exclusive=False,
               integer=False, default=None):
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.err(path, "must be a number")
            return default
        if integer and not isinstance(value, int):
            self.err(path, "must be an integer")
            return default
        if minimum is not None:
            if exclusive and not value > minimum:
                self.err(path, f"must be > {minimum}")
                return default
            if not exclusive and not value >= minimum:
                self.err(path, f"must be >= {minimum}")
                return default
        return value

    def string(self, value, path: str, choices=None, default=None):
        if value is None:
            return default
        if not isinstance(value, str):
            self.err(path, "must be a string")
            return default
        if choices is not None and value not in choices:
            self.err(path, f"must be one of {', '.join(choices)}")
            return default
        return value

    def boolean(self, value, path: str, default=None):
        if value is None:
            return default
        if not isinstance(value, bool):
            self.err(path, "must be true or false")
            return default
        return value


def _parse_workload(name: str, obj, check: _Check) -> BatchJob | None:
    path = f"workloads.{name}"
    if not isinstance(obj, dict):
        check.err(path, "must be an object")
        return None
    got = check.section(obj, path, {
        "fragment_count": None, "deadline": None, "steps": None, "edges": []})
    for key in ("fragment_count", "deadline", "steps"):
        if key not in obj:
            check.err(f"{path}.{key}", "is required")
    frags = check.number(got["fragment_count"], f"{path}.fragment_count",
                         minimum=1, integer=True)
    deadline = check.number(got["deadline"], f"{path}.deadline", minimum=0,
                            exclusive=True)
    steps_raw = got["steps"]
    if not isinstance(steps_raw, list) or not steps_raw:
        check.err(f"{path}.steps", "must be a non-empty list")
        return None
    steps: list[StepSpec] = []
    for i, s in enumerate(steps_raw):
        sp = f"{path}.steps[{i}]"
        if not isinstance(s, dict):
            check.err(sp, "must be an object")
            continue
        fields = check.section(s, sp, {
            "step_id": None, "cpu_millicores": None, "memory_mb": None,
            "replicas": 1, "service_time": None, "feed_forward": True})
        for key in ("step_id", "cpu_millicores", "memory_mb", "service_time"):
            if key not in s:
                check.err(f"{sp}.{key}", "is required")
        sid = check.string(fields["step_id"], f"{sp}.step_id")
        cpu = check.number(fields["cpu_millicores"], f"{sp}.cpu_millicores",
                           minimum=0, integer=True)
        mem = check.number(fields["memory_mb"], f"{sp}.memory_mb",
                           minimum=0, integer=True)
        replicas = check.number(fields["replicas"], f"{sp}.replicas",
                                minimum=1, integer=True, default=1)
        svc = check.number(fields["service_time"], f"{sp}.service_time",
                           minimum=0, exclusive=True)
        ff = check.boolean(fields["feed_forward"], f"{sp}.feed_forward", default=True)
        if None in (sid, cpu, mem, replicas, svc) or ff is None:
            continue
        try:
            steps.append(StepSpec(sid, ResourceVector(cpu, mem), replicas, svc, ff))
        except ValidationError as e:
            check.err(sp, str(e))
    edges = []
    if not isinstance(got["edges"], list):
        check.err(f"{path}.edges", "must be a list of [from, to] pairs")
    else:
        for i, e in enumerate(got["edges"]):
            if (not isinstance(e, list) or len(e) != 2
                    or not all(isinstance(x, str) for x in e)):
                check.err(f"{path}.edges[{i}]", "must be a [from, to] pair of step ids")
            else:
                edges.append((e[0], e[1]))
    if frags is None or deadline is None or len(steps) != len(steps_raw):
        return None
    try:
        return BatchJob(name, PipelineDag(steps, edges), frags, deadline)
    except ValidationError as e:
        check.err(path, str(e))
        return None


def _parse_arrivals(obj, check: _Check):
    if not isinstance(obj, dict):
        check.err("arrivals", "must be an object")
        return None
    kind = check.string(obj.get("kind"), "arrivals.kind", choices=("poisson", "explicit"))
    if kind is None:
        return None
    if kind == "poisson":
        got = check.section(obj, "arrivals", {
            "kind": None, "generator": "pcg64", "rate": None, "seed": None,
            "count": None})
        for key in ("rate", "seed", "count"):
            if key not in obj:
                check.err(f"arrivals.{key}", "is required")
        generator = check.string(got["generator"], "arrivals.generator",
                                 default="pcg64")
        if generator != "pcg64":
            check.err("arrivals.generator", 'only "pcg64" is supported')
        rate = check.number(got["rate"], "arrivals.rate", minimum=0, exclusive=True)
        seed = check.number(got["seed"], "arrivals.seed", minimum=0, integer=True)
        count = check.number(got["count"], "arrivals.count", minimum=0, integer=True)
        if None in (rate, seed, count):
            return None
        return PoissonArrivals(float(rate), seed, count)
    got = check.section(obj, "arrivals", {"kind": None, "times": None,
                                          "templates": None})
    if "times" not in obj:
        check.err("arrivals.times", "is required")
        return None
    times = got["times"]
    if not isinstance(times, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in times):
        check.err("arrivals.times", "must be a list of numbers")
        return None
    templates = got["templates"]
    if templates is not None:
        if (not isinstance(templates, list)
                or not all(isinstance(t, str) for t in templates)):
            check.err("arrivals.templates", "must be a list of template names")
            return None
        templates = tuple(templates)
    try:
        return ExplicitArrivals(tuple(float(t) for t in times), templates)
    except ValidationError as e:
        check.problems.extend(e.problems)
        return None


def _parse_faults(obj, check: _Check):
    faults = []
    if obj is None:
        return ()
    if not isinstance(obj, list):
        check.err("faults", "must be a list")
        return ()
    for i, f in enumerate(obj):
        path = f"faults[{i}]"
        if not isinstance(f, dict):
            check.err(path, "must be an object")
            continue
        kind = check.string(f.get("kind"), f"{path}.kind",
                            choices=("node_failure", "driver_restart"))
        if kind == "node_failure":
            got = check.section(f, path, {"kind": None, "time": None, "node_id": None})
            t = check.number(got["time"], f"{path}.time", minimum=0)
            nid = check.number(got["node_id"], f"{path}.node_id", minimum=0, integer=True)
            if t is None or nid is None:
                continue
            faults.append(NodeFailureFault(float(t), nid))
        elif kind == "driver_restart":
            got = check.section(f, path, {"kind": None, "time": None, "job_index": None})
            t = check.number(got["time"], f"{path}.time", minimum=0)
            idx = check.number(got["job_index"], f"{path}.job_index", minimum=0,
                               integer=True)
            if t is None or idx is None:
                continue
            faults.append(DriverRestartFault(float(t), idx))
    return tuple(faults)


def load_scenario(path: str | Path) -> LoadResult:
    """Parse and validate a scenario file, reporting every violation at once."""
    check = _Check()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        return LoadResult(None, None, [f"{path}: {e.strerror or e}"])
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        return LoadResult(None, None, [f"{path}: invalid JSON: {e}"])
    if not isinstance(raw, dict):
        return LoadResult(None, None, [f"{path}: top level must be an object"])

    top = check.section(raw, "", {
        "scenario_id": None, "edge": None, "cloud": {}, "cost": {},
        "scheduler": {}, "workloads": None, "arrivals": None, "faults": None,
        "horizon": None, "output_dir": None})

    scenario_id = check.string(top["scenario_id"], "scenario_id",
                               default=Path(path).stem)

    edge_raw = top["edge"]
    node_count, node_cap, edge_speed = 0, ResourceVector(1, 1), 0.8
    if not isinstance(edge_raw, dict):
        check.err("edge", "section is required (node_count, node_cpu_millicores, "
                          "node_memory_mb)")
    else:
        got = check.section(edge_raw, "edge", {
            "node_count": None, "node_cpu_millicores": None,
            "node_memory_mb": None, "speed_factor": 0.8})
        if "node_count" not in edge_raw:
            check.err("edge.node_count", "is required")
        node_count = check.number(got["node_count"], "edge.node_count",
                                  minimum=0, integer=True, default=0)
        cpu = check.number(got["node_cpu_millicores"], "edge.node_cpu_millicores",
                           minimum=1, integer=True)
        mem = check.number(got["node_memory_mb"], "edge.node_memory_mb",
                           minimum=1, integer=True)
        edge_speed = check.number(got["speed_factor"], "edge.speed_factor",
                                  minimum=0, exclusive=True, default=0.8)
        if node_count and (cpu is None or mem is None):
            check.err("edge", "node_cpu_millicores and node_memory_mb are required")
        elif node_count:
            node_cap = ResourceVector(cpu, mem)

    cloud = check.section(top["cloud"] if isinstance(top["cloud"], dict) else {},
                          "cloud", {"speed_factor": 1.0, "cloud_concurrency": None})
    if not isinstance(top["cloud"], dict):
        check.err("cloud", "must be an object")
    cloud_speed = check.number(cloud["speed_factor"], "cloud.speed_factor",
                               minimum=0, exclusive=True, default=1.0)
    cloud_conc = check.number(cloud["cloud_concurrency"], "cloud.cloud_concurrency",
                              minimum=1, integer=True)

    cost = check.section(top["cost"] if isinstance(top["cost"], dict) else {},
                         "cost", {"c_cpu": 1000.0, "c_mem": 0.1})
    if not isinstance(top["cost"], dict):
        check.err("cost", "must be an object")
    c_cpu = check.number(cost["c_cpu"], "cost.c_cpu", minimum=0, default=1000.0)
    c_mem = check.number(cost["c_mem"], "cost.c_mem", minimum=0, default=0.1)

    sched = check.section(top["scheduler"] if isinstance(top["scheduler"], dict) else {},
                          "scheduler", {
                              "policy": "cheapest_first", "placement": "ff",
                              "round_length": 30.0, "eviction_deadline": 30.0,
                              "execution_timeout": 60.0})
    if not isinstance(top["scheduler"], dict):
        check.err("scheduler", "must be an object")
    policy = check.string(sched["policy"], "scheduler.policy",
                          choices=("cheapest_first", "cloud_only"),
                          default="cheapest_first")
    placement = check.string(sched["placement"], "scheduler.placement",
                             choices=_PLACEMENTS, default="ff")
    round_length = check.number(sched["round_length"], "scheduler.round_length",
                                minimum=0, exclusive=True, default=30.0)
    eviction = check.number(sched["eviction_deadline"], "scheduler.eviction_deadline",
                            minimum=0, exclusive=True, default=30.0)
    timeout = check.number(sched["execution_timeout"], "scheduler.execution_timeout",
                           minimum=0, exclusive=True, default=60.0)

    workloads_raw = top["workloads"]
    catalog: dict[str, BatchJob] = {}
    if not isinstance(workloads_raw, dict) or not workloads_raw:
        check.err("workloads", "must be a non-empty object of named templates")
    else:
        for name, w in workloads_raw.items():
            job = _parse_workload(name, w, check)
            if job is not None:
                catalog[name] = job

    arrivals = None
    if top["arrivals"] is None:
        check.err("arrivals", "section is required")
    else:
        arrivals = _parse_arrivals(top["arrivals"], check)

    horizon = check.number(top["horizon"], "horizon", minimum=0, exclusive=True)
    output_dir = check.string(top["output_dir"], "output_dir")
    faults = _parse_faults(top["faults"], check)

    if check.problems:
        return LoadResult(None, None, sorted(set(check.problems)))

    # the scenario's own rules span sections; each violation is one diagnostic
    try:
        scenario = Scenario(
            scenario_id=scenario_id,
            node_capacities=tuple(node_cap for _ in range(node_count)),
            catalog=catalog,
            arrivals=arrivals,
            cost_params=CostParams(float(c_cpu), float(c_mem)),
            mode=SchedulerMode(policy),
            placement=PlacementPolicy(placement),
            round_length=float(round_length),
            eviction_deadline=float(eviction),
            edge_speed=float(edge_speed),
            cloud_speed=float(cloud_speed),
            cloud_concurrency=cloud_conc,
            execution_timeout=float(timeout),
            horizon=float(horizon) if horizon is not None else None,
            faults=faults,
        )
    except ValidationError as e:
        return LoadResult(None, None, sorted(set(e.problems)))
    return LoadResult(scenario, output_dir, [])


# -- commands -------------------------------------------------------------------


def _load_or_fail(args) -> tuple[Scenario | None, Path | None]:
    res = load_scenario(args.config)
    if res.diagnostics:
        for d in res.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return None, None
    out = Path(args.out or res.output_dir or "out")
    return res.scenario, out


def _run_one(scenario: Scenario, out: Path, emit_plot_data: bool, arrivals=None):
    report = run(scenario, arrivals=arrivals)
    emit_report(report, out, emit_plot_data)
    return report


def cmd_run(args) -> int:
    scenario, out = _load_or_fail(args)
    if scenario is None:
        return 1
    if args.placement:
        scenario = dataclasses.replace(
            scenario, placement=PlacementPolicy(args.placement))
    report = _run_one(scenario, out / "run", args.emit_plot_data)
    s = summary_dict(report)
    print(f"{s['scenario_id']}: {s['job_count']} jobs, total_cost {s['total_cost']:g}, "
          f"mean_utilization {s['mean_utilization']:.3f}, "
          f"deadline_met {s['deadline_met_fraction']:.3f} -> {out / 'run'}")
    return 0


def cmd_sweep(args) -> int:
    scenario, out = _load_or_fail(args)
    if scenario is None:
        return 1
    placements = _PLACEMENTS if args.placement in (None, "all") else (args.placement,)
    arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    summary: dict[str, dict] = {}
    for p in placements:
        s = dataclasses.replace(scenario, placement=PlacementPolicy(p))
        report = _run_one(s, out / p, args.emit_plot_data, arrivals)
        summary[p] = summary_dict(report)
        print(f"{p}: total_cost {summary[p]['total_cost']:g}, "
              f"mean_utilization {summary[p]['mean_utilization']:.3f}")
    write_json(out / "sweep_summary.json",
               {"scenario_id": scenario.scenario_id, "placements": summary})
    return 0


def cmd_baseline(args) -> int:
    scenario, out = _load_or_fail(args)
    if scenario is None:
        return 1
    arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
    hybrid = _run_one(
        dataclasses.replace(scenario, mode=SchedulerMode.CHEAPEST_FIRST),
        out / "hybrid", args.emit_plot_data, arrivals)
    baseline = _run_one(
        dataclasses.replace(scenario, mode=SchedulerMode.CLOUD_ONLY),
        out / "cloud_only", args.emit_plot_data, arrivals)
    pct = cost_vs_baseline(hybrid, baseline)
    write_json(out / "baseline_summary.json", {
        "scenario_id": scenario.scenario_id,
        "cost_vs_baseline_percent": round9(pct),
        "hybrid": summary_dict(hybrid),
        "cloud_only": summary_dict(baseline),
    })
    print(f"hybrid cost is {pct:.2f}% of the cloud-only baseline "
          f"({hybrid.total_cost:g} vs {baseline.total_cost:g})")
    return 0


def cmd_replicate(args) -> int:
    scenario, out = _load_or_fail(args)
    if scenario is None:
        return 1
    if not isinstance(scenario.arrivals, PoissonArrivals):
        print("error: replicate needs poisson arrivals (explicit times have "
              "no seed to sweep)", file=sys.stderr)
        return 1
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        print(f"error: --seeds must be a comma-separated integer list, "
              f"got {args.seeds!r}", file=sys.stderr)
        return 1
    if not seeds:
        print("error: --seeds is empty", file=sys.stderr)
        return 1
    # every seed is checked before the first run
    scenarios = [(seed, dataclasses.replace(
        scenario, arrivals=dataclasses.replace(scenario.arrivals, seed=seed)))
        for seed in seeds]
    per_seed: dict[str, dict] = {}
    series: dict[str, list[float]] = {
        "total_cost": [], "mean_utilization": [], "deadline_met_fraction": []}
    for seed, s in scenarios:
        report = _run_one(s, out / f"seed-{seed}", args.emit_plot_data)
        d = summary_dict(report)
        per_seed[str(seed)] = d
        for k in series:
            series[k].append(d[k])
    aggregate = {
        k: {"mean": round9(statistics.mean(v)),
            "stdev": round9(statistics.stdev(v) if len(v) > 1 else 0.0)}
        for k, v in series.items()}
    write_json(out / "replicate_summary.json", {
        "scenario_id": scenario.scenario_id,
        "seeds": per_seed,
        "aggregate": aggregate,
    })
    print(f"{len(seeds)} seeds: mean total_cost {aggregate['total_cost']['mean']:g} "
          f"(stdev {aggregate['total_cost']['stdev']:g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcs-sim",
        description="Hybrid edge/cloud batch-pipeline scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, placement_choices=None):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output directory (default: scenario "
                                     "output_dir, then ./out)")
        p.add_argument("--emit-plot-data", action="store_true",
                       help="also write downsampled plot-ready CSV series")
        if placement_choices:
            p.add_argument("--placement", choices=placement_choices,
                           help="override the scenario's placement policy")

    common(sub.add_parser("run", help="single run of the scenario as configured"),
           _PLACEMENTS)
    common(sub.add_parser(
        "sweep", help="run every placement policy over one arrival schedule"),
        _PLACEMENTS + ("all",))
    common(sub.add_parser(
        "baseline", help="paired hybrid vs cloud-only runs on identical arrivals"))
    rep = sub.add_parser("replicate", help="repeat the scenario across seeds")
    common(rep)
    rep.add_argument("--seeds", required=True,
                     help="comma-separated seed list, e.g. 1,2,3")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("HCS_SIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "baseline": cmd_baseline, "replicate": cmd_replicate}[args.command]
    try:
        return handler(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
