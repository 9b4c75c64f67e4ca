"""Command-line entry point: strict scenario files, experiment orchestration
(policy sweeps, baseline pairing, seed replication), and report emission."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
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

_PLACEMENTS = tuple(p.value for p in PlacementPolicy)


@dataclass
class LoadResult:
    scenario: Scenario | None
    output_dir: str | None
    diagnostics: list[str]


class _Check:
    """Collects every config violation instead of stopping at the first.

    It checks only what a JSON file needs: shapes, types, choices, unknown and
    required keys. Range rules and defaults belong to the domain types; their
    problems come back with the object's file path in front.
    """

    def __init__(self):
        self.problems: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def section(self, obj, path: str, keys: tuple[str, ...],
                required: tuple[str, ...] = ()) -> dict | None:
        """{key: value, None when absent or null} for an object; unknown keys
        and absent required keys are problems. A non-object is a problem and
        gives None."""
        if not isinstance(obj, dict):
            self.err(path, "must be an object")
            return None
        for key in obj:
            if key not in keys:
                self.err(f"{path}.{key}" if path else key, "unknown key")
        for key in required:
            if obj.get(key) is None:
                self.err(f"{path}.{key}", "is required")
        return {key: obj.get(key) for key in keys}

    def number(self, value, path: str, integer=False):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.err(path, "must be a number")
            return None
        if integer and not isinstance(value, int):
            self.err(path, "must be an integer")
            return None
        return value

    def real(self, value, path: str) -> float | None:
        """A number as the float the domain field holds."""
        value = self.number(value, path)
        return None if value is None else float(value)

    def string(self, value, path: str, choices=None, default=None):
        if value is None:
            return default
        if not isinstance(value, str):
            self.err(path, "must be a string")
            return None
        if choices is not None and value not in choices:
            self.err(path, f"must be one of {', '.join(choices)}")
            return None
        return value

    def boolean(self, value, path: str):
        if value is not None and not isinstance(value, bool):
            self.err(path, "must be true or false")
            return None
        return value

    def build(self, prefix: str, cls, *args, **kwargs):
        """cls(*args, **kwargs), or None after recording each of its problems
        with prefix, the object's file path, in front."""
        try:
            return cls(*args, **kwargs)
        except ValidationError as e:
            self.problems.extend(prefix + p for p in e.problems)
            return None


def _given(**fields) -> dict:
    """The fields the file sets; the domain type's defaults fill in the rest."""
    return {key: value for key, value in fields.items() if value is not None}


def _finite(token: str, kind=float):
    """A JSON number token as kind; NaN, Infinity, -Infinity and literals past
    the float range are not numbers a scenario can hold."""
    if not math.isfinite(float(token)):
        raise ValueError(f"{token} is not a finite number")
    return kind(token)


def _parse_step(obj, path: str, check: _Check) -> StepSpec | None:
    got = check.section(obj, path, (
        "step_id", "cpu_millicores", "memory_mb", "replicas", "service_time",
        "feed_forward"), required=("step_id", "cpu_millicores", "memory_mb", "service_time"))
    if got is None:
        return None
    sid = check.string(got["step_id"], f"{path}.step_id")
    cpu = check.number(got["cpu_millicores"], f"{path}.cpu_millicores", integer=True)
    mem = check.number(got["memory_mb"], f"{path}.memory_mb", integer=True)
    replicas = (1 if got["replicas"] is None
                else check.number(got["replicas"], f"{path}.replicas", integer=True))
    svc = check.number(got["service_time"], f"{path}.service_time")
    ff = check.boolean(got["feed_forward"], f"{path}.feed_forward")
    if None in (sid, cpu, mem, replicas, svc):
        return None
    # a bad demand is already a problem; the step is still built to report its own
    demand = check.build(f"{path}.", ResourceVector, cpu, mem)
    return check.build(f"{path}.", StepSpec, sid, demand, replicas, svc,
                       **_given(feed_forward=ff))


def _parse_workload(name: str, obj, check: _Check) -> BatchJob | None:
    path = f"workloads.{name}"
    got = check.section(obj, path, ("fragment_count", "deadline", "steps", "edges"),
                        required=("fragment_count", "deadline", "steps"))
    if got is None:
        return None
    frags = check.number(got["fragment_count"], f"{path}.fragment_count", integer=True)
    deadline = check.number(got["deadline"], f"{path}.deadline")
    if not isinstance(got["steps"], list):
        check.err(f"{path}.steps", "must be a list")
        return None
    steps = [_parse_step(s, f"{path}.steps[{i}]", check) for i, s in enumerate(got["steps"])]
    edges = []
    if not isinstance(got["edges"], (list, type(None))):
        check.err(f"{path}.edges", "must be a list of [from, to] pairs")
    else:
        for i, e in enumerate(got["edges"] or ()):
            if (not isinstance(e, list) or len(e) != 2
                    or not all(isinstance(x, str) for x in e)):
                check.err(f"{path}.edges[{i}]", "must be a [from, to] pair of step ids")
            else:
                edges.append((e[0], e[1]))
    if frags is None or deadline is None:
        return None
    return check.build(f"{path}.", BatchJob, name,
                       PipelineDag([s for s in steps if s], edges), frags, deadline)


def _parse_arrivals(obj, check: _Check):
    if not isinstance(obj, dict):
        check.err("arrivals", "must be an object")
        return None
    if obj.get("kind") is None:
        check.err("arrivals.kind", "is required")
    kind = check.string(obj.get("kind"), "arrivals.kind", choices=("poisson", "explicit"))
    if kind == "poisson":
        got = check.section(obj, "arrivals", ("kind", "generator", "rate", "seed", "count"),
                            required=("rate", "seed", "count"))
        check.string(got["generator"], "arrivals.generator", choices=("pcg64",))
        rate = check.real(got["rate"], "arrivals.rate")
        seed = check.number(got["seed"], "arrivals.seed", integer=True)
        count = check.number(got["count"], "arrivals.count", integer=True)
        if None in (rate, seed, count):
            return None
        # the arrival types write the arrivals. path themselves
        return check.build("", PoissonArrivals, rate, seed, count)
    if kind != "explicit":
        return None
    got = check.section(obj, "arrivals", ("kind", "times", "templates"), required=("times",))
    times, templates = got["times"], got["templates"]
    if times is None:
        return None
    if not isinstance(times, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in times):
        check.err("arrivals.times", "must be a list of numbers")
        return None
    if templates is not None:
        if (not isinstance(templates, list)
                or not all(isinstance(t, str) for t in templates)):
            check.err("arrivals.templates", "must be a list of template names")
            return None
        templates = tuple(templates)
    return check.build("", ExplicitArrivals, tuple(float(t) for t in times), templates)


def _parse_faults(obj, check: _Check) -> tuple:
    if not isinstance(obj, list):
        check.err("faults", "must be a list")
        return ()
    faults = []
    for i, f in enumerate(obj):
        path = f"faults[{i}]"
        if not isinstance(f, dict):
            check.err(path, "must be an object")
            continue
        if f.get("kind") is None:
            check.err(f"{path}.kind", "is required")
        kind = check.string(f.get("kind"), f"{path}.kind",
                            choices=("node_failure", "driver_restart"))
        if kind is None:
            continue
        cls, target = ((NodeFailureFault, "node_id") if kind == "node_failure"
                       else (DriverRestartFault, "job_index"))
        got = check.section(f, path, ("kind", "time", target), required=("time", target))
        t = check.real(got["time"], f"{path}.time")
        ref = check.number(got[target], f"{path}.{target}", integer=True)
        if t is not None and ref is not None:
            faults.append(check.build(f"{path}.", cls, t, ref))
    return tuple(faults)


def load_scenario(path: str | Path) -> LoadResult:
    """Parse and validate a scenario file, reporting every violation at once.

    The first pass reports every problem of the file's shape and types and of
    the objects built inside it; the second, every problem of the Scenario.
    """
    check = _Check()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        return LoadResult(None, None, [f"{path}: {e.strerror or e}"])
    try:
        raw = json.loads(text, parse_constant=_finite, parse_float=_finite,
                         parse_int=lambda token: _finite(token, int))
    except ValueError as e:  # JSONDecodeError is one
        return LoadResult(None, None, [f"{path}: invalid JSON: {e}"])
    if not isinstance(raw, dict):
        return LoadResult(None, None, [f"{path}: top level must be an object"])

    top = check.section(raw, "", (
        "scenario_id", "edge", "cloud", "cost", "scheduler", "workloads", "arrivals",
        "faults", "horizon", "output_dir"))
    scenario_id = check.string(top["scenario_id"], "scenario_id", default=Path(path).stem)

    nodes: tuple[ResourceVector, ...] = ()
    edge = top["edge"]
    if not isinstance(edge, dict):
        check.err("edge", "section is required (node_count, node_cpu_millicores, "
                          "node_memory_mb)")
        edge = {}
    else:
        edge = check.section(edge, "edge", (
            "node_count", "node_cpu_millicores", "node_memory_mb", "speed_factor"),
            required=("node_count",))
        node_count = check.number(edge["node_count"], "edge.node_count", integer=True)
        cpu = check.number(edge["node_cpu_millicores"], "edge.node_cpu_millicores",
                           integer=True)
        mem = check.number(edge["node_memory_mb"], "edge.node_memory_mb", integer=True)
        # the count exists only in the file: the scenario holds one capacity per node
        if node_count is not None and not node_count >= 0:
            check.err("edge.node_count", "must be >= 0")
        elif node_count and (cpu is None or mem is None):
            check.err("edge", "node_cpu_millicores and node_memory_mb are required")
        elif node_count:
            # the node's keys are the capacity's keys with node_ in front
            nodes = (check.build("edge.node_", ResourceVector, cpu, mem),) * node_count

    cloud = check.section(raw.get("cloud", {}), "cloud",
                          ("speed_factor", "cloud_concurrency")) or {}
    cost = check.section(raw.get("cost", {}), "cost", ("c_cpu", "c_mem")) or {}
    cost_params = check.build("cost.", CostParams, **_given(
        c_cpu=check.real(cost.get("c_cpu"), "cost.c_cpu"),
        c_mem=check.real(cost.get("c_mem"), "cost.c_mem")))
    sched = check.section(raw.get("scheduler", {}), "scheduler", (
        "policy", "placement", "round_length", "eviction_deadline",
        "execution_timeout")) or {}
    policy = check.string(sched.get("policy"), "scheduler.policy",
                          choices=tuple(m.value for m in SchedulerMode))
    placement = check.string(sched.get("placement"), "scheduler.placement",
                             choices=_PLACEMENTS)

    catalog: dict[str, BatchJob] = {}
    if not isinstance(top["workloads"], dict):
        check.err("workloads", "must be a non-empty object of named templates")
    else:
        for name, w in top["workloads"].items():
            catalog[name] = _parse_workload(name, w, check)

    arrivals = None
    if top["arrivals"] is None:
        check.err("arrivals", "section is required")
    else:
        arrivals = _parse_arrivals(top["arrivals"], check)

    settings = _given(
        cost_params=cost_params,
        mode=policy and SchedulerMode(policy),
        placement=placement and PlacementPolicy(placement),
        round_length=check.real(sched.get("round_length"), "scheduler.round_length"),
        eviction_deadline=check.real(sched.get("eviction_deadline"),
                                     "scheduler.eviction_deadline"),
        edge_speed=check.real(edge.get("speed_factor"), "edge.speed_factor"),
        cloud_speed=check.real(cloud.get("speed_factor"), "cloud.speed_factor"),
        cloud_concurrency=check.number(cloud.get("cloud_concurrency"),
                                       "cloud.cloud_concurrency", integer=True),
        execution_timeout=check.real(sched.get("execution_timeout"),
                                     "scheduler.execution_timeout"),
        horizon=check.real(top["horizon"], "horizon"),
        faults=None if top["faults"] is None else _parse_faults(top["faults"], check))
    output_dir = check.string(top["output_dir"], "output_dir")

    if check.problems:
        return LoadResult(None, None, sorted(set(check.problems)))
    try:
        scenario = Scenario(scenario_id, nodes, catalog, arrivals, **settings)
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
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        print(f"error: --seeds lists {', '.join(map(str, repeated))} more than once",
              file=sys.stderr)
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
    import statistics  # its only user; fractions and decimal load with it

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
    # a level name maps to its number; any other value reads as WARNING
    level = logging.getLevelName(os.environ.get("HCS_SIM_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
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
