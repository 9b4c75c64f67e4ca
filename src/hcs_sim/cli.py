"""Command-line entry point: strict scenario files, experiment orchestration
(policy sweeps, baseline pairing, seed replication), and report emission."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

from hcs_sim.core_model import (
    BatchJob,
    CostParams,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
    log,
)
from hcs_sim.hcs_scheduler import SchedulerMode
from hcs_sim.metrics import arrivals_csv, cost_vs_baseline, emit_report, round9, write_json
from hcs_sim.placement import PlacementPolicy
from hcs_sim.sim_engine import (
    ExplicitArrivals,
    DriverRestartFault,
    NodeFailureFault,
    PoissonArrivals,
    Scenario,
    generate_arrivals,
    require_finite_rounds,
    run,
)

_PLACEMENTS = tuple(p.value for p in PlacementPolicy)
MAX_NODE_COUNT = 1_000_000  # the largest edge.node_count a file may set


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

    def fields(self, obj, path: str, table: dict) -> dict | None:
        """{key: value read by its kind} for each table key that the object
        sets or requires; None marks an absent required key or a value of the
        wrong kind. Those are problems, as are unknown keys and a non-object,
        which gives None. A key without a kind is left to its own reader."""
        if not isinstance(obj, dict):
            self.err(path, "must be an object")
            return None
        at = f"{path}." if path else ""
        for key in obj:
            if key not in table:
                self.err(at + key, "unknown key")
        got = {}
        for key, (kind, required) in table.items():
            value = obj.get(key)
            if value is None:
                if required:
                    self.err(at + key, "is required" if required is True else required)
                    got[key] = None
            elif kind is not None:
                try:
                    got[key] = kind(value)
                except ValidationError as e:
                    self.err(at + key, str(e))
                    got[key] = None
        return got

    def variant(self, obj, path: str, kinds: dict):
        """(type, fields) of an object whose `kind` key picks them from kinds;
        (None, None) when the object or its kind is bad."""
        if not isinstance(obj, dict):
            self.err(path, "must be an object")
            return None, None
        tag = obj.get("kind")
        if type(tag) is not str or tag not in kinds:
            # read the bad tag alone, for its problem
            self.fields({"kind": tag}, path, {"kind": (_one_of(*kinds), True)})
            return None, None
        cls, table = kinds[tag]
        return cls, self.fields(obj, path, table)

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


def _finite(token: str) -> float:
    """A JSON number or constant token as a float, parsed once; NaN, Infinity,
    -Infinity and literals past the float range are not numbers a scenario
    can hold."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _finite_int(token: str) -> int:
    """A JSON integer token as an int. One of fewer than 309 characters has
    at most 308 digits, so it lies below 1e308, inside the float range."""
    if len(token) >= 309:
        _finite(token)
    return int(token)


def _is(types: tuple, problem: str, cast=None):
    """A value whose JSON type is one of types, as cast(value) when a cast is
    given. `_built` and `_list_of` read both."""
    def kind(value):
        if type(value) not in types:
            raise ValidationError(problem)
        return value if cast is None else cast(value)
    kind.types, kind.cast = types, cast
    return kind


_number = _is((int, float), "must be a number")  # as written; a bool is no number
_real = _is((int, float), "must be a number", float)  # as the float the domain field holds
_object = _is((dict,), "must be an object")
_string = _is((str,), "must be a string")
_boolean = _is((bool,), "must be true or false")
_list = _is((list,), "must be a list")


def _integer(value) -> int:
    if type(value) is not int:
        raise ValidationError("must be an integer" if type(value) is float else "must be a number")
    return value


_integer.types, _integer.cast = (int,), None  # as `_is` marks its kinds, for `_built`


def _one_of(*choices, member=str):
    """A string among choices, as member(value)."""
    def kind(value):
        if _string(value) not in choices:
            raise ValidationError(f"must be one of {', '.join(choices)}")
        return member(value)
    return kind


def _list_of(item, problem: str):
    """A list as the tuple of item(element), or else the one problem. A list
    whose elements all have a type that item returns unchanged (by the marks
    of `_is`: no cast, or a cast to that same type) is taken whole."""
    unchanged = {t for t in item.types if item.cast in (None, t)}

    def kind(value) -> tuple:
        if type(value) is list:
            if set(map(type, value)) <= unchanged:
                return tuple(value)
            try:
                return tuple(map(item, value))
            except ValidationError:
                pass
        raise ValidationError(problem)
    return kind


_NO_EDGE = "section is required (node_count, node_cpu_millicores, node_memory_mb)"
_NO_CATALOG = "must be a non-empty object of named templates"

# One table per JSON object: key -> (kind, required). A kind takes a JSON value
# and returns what the domain holds, or raises the value's problem. A required
# key may name the problem of its absence; a key without a kind has its own reader.
_TOP = {
    "scenario_id": (_string, False), "edge": (_is((dict,), _NO_EDGE), _NO_EDGE),
    "cloud": (_object, False), "cost": (_object, False), "scheduler": (_object, False),
    "workloads": (_is((dict,), _NO_CATALOG), _NO_CATALOG),
    "arrivals": (None, "section is required"), "faults": (_list, False),
    "horizon": (_real, False), "output_dir": (_string, False)}
_EDGE = {"node_count": (_integer, True), "node_cpu_millicores": (_integer, False),
         "node_memory_mb": (_integer, False), "speed_factor": (_real, False)}
_CLOUD = {"speed_factor": (_real, False), "cloud_concurrency": (_integer, False)}
_COST = {"c_cpu": (_real, False), "c_mem": (_real, False)}
_SCHEDULER = {
    "policy": (_one_of(*(m.value for m in SchedulerMode), member=SchedulerMode), False),
    "placement": (_one_of(*_PLACEMENTS, member=PlacementPolicy), False),
    "round_length": (_real, False), "eviction_deadline": (_real, False),
    "execution_timeout": (_real, False)}
_WORKLOAD = {
    "fragment_count": (_integer, True), "deadline": (_number, True), "steps": (_list, True),
    "edges": (_is((list,), "must be a list of [from, to] pairs"), False)}
_STEP = {
    "step_id": (_string, True), "cpu_millicores": (_integer, True),
    "memory_mb": (_integer, True), "replicas": (_integer, False),
    "service_time": (_number, True), "feed_forward": (_boolean, False)}
# a kind-tagged object: kind -> (the type it builds, its table)
_ARRIVALS = {
    "poisson": (PoissonArrivals, {
        "kind": (None, True), "generator": (_one_of("pcg64"), False),
        "rate": (_real, True), "seed": (_integer, True), "count": (_integer, True)}),
    "explicit": (ExplicitArrivals, {
        "kind": (None, True), "times": (_list_of(_real, "must be a list of numbers"), True),
        "templates": (_list_of(_string, "must be a list of template names"), False)})}
_FAULTS = {
    "node_failure": (NodeFailureFault, {
        "kind": (None, True), "time": (_real, True), "node_id": (_integer, True)}),
    "driver_restart": (DriverRestartFault, {
        "kind": (None, True), "time": (_real, True), "job_index": (_integer, True)})}


def _built(obj, kinds: dict):
    """What a kind-tagged object builds when it has its kind's keys, in any
    order, each with a JSON type its key's kind takes, cast as that kind casts
    it; None for any other object, and for one its type refuses. `_Check`
    reads those again, as the one source of their problems."""
    if type(obj) is not dict or type(tag := obj.get("kind")) is not str or tag not in kinds:
        return None
    cls, table = kinds[tag]
    if obj.keys() != table.keys():  # order-free
        return None
    got = {}
    for key, (kind, _) in table.items():
        if kind is not None:  # the tag's key has no kind
            value = obj[key]
            if type(value) not in kind.types:
                return None
            got[key] = value if kind.cast is None else kind.cast(value)
    try:
        return cls(**got)
    except ValidationError:
        return None


def _parse_step(obj, path: str, check: _Check) -> StepSpec | None:
    got = check.fields(obj, path, _STEP)
    if got is None:
        return None
    replicas = got.get("replicas", 1)
    sid, cpu, mem, svc = (got["step_id"], got["cpu_millicores"], got["memory_mb"],
                          got["service_time"])
    if None in (sid, cpu, mem, replicas, svc):
        return None
    return check.build(f"{path}.", StepSpec, sid, ResourceVector(cpu, mem), replicas, svc,
                       **_given(feed_forward=got.get("feed_forward")))


def _parse_workload(name: str, obj, check: _Check) -> BatchJob | None:
    path = f"workloads.{name}"
    got = check.fields(obj, path, _WORKLOAD)
    if got is None or got["steps"] is None:
        return None
    steps = [_parse_step(s, f"{path}.steps[{i}]", check) for i, s in enumerate(got["steps"])]
    edges = []
    for i, e in enumerate(got.get("edges") or ()):
        if isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e):
            edges.append((e[0], e[1]))
        else:
            check.err(f"{path}.edges[{i}]", "must be a [from, to] pair of step ids")
    if got["fragment_count"] is None or got["deadline"] is None:
        return None
    return check.build(f"{path}.", BatchJob, name, PipelineDag([s for s in steps if s], edges),
                       got["fragment_count"], got["deadline"])


def load_scenario(path: str | Path) -> tuple[Scenario, str | None]:
    """Parse and validate a scenario file: its Scenario and its output_dir,
    or one ValidationError with every problem, sorted.

    The first pass reports every problem of the file's shape and types and of
    the objects built inside it; the second, every problem of the Scenario.
    """
    check = _Check()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text: {e.reason} at offset {e.start}") from None
    try:
        raw = json.loads(text, parse_constant=_finite, parse_float=_finite,
                         parse_int=_finite_int)
    except ValueError as e:  # JSONDecodeError is one
        raise ValidationError(f"{path}: invalid JSON: {e}") from None
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top level must be an object")

    top = check.fields(raw, "", _TOP)
    nodes: tuple[ResourceVector, ...] = ()
    edge = {} if top["edge"] is None else check.fields(top["edge"], "edge", _EDGE)
    node_count = edge.get("node_count")
    cpu, mem = edge.get("node_cpu_millicores"), edge.get("node_memory_mb")
    # the count exists only in the file: the scenario holds one capacity per node
    if node_count is not None and not node_count >= 0:
        check.err("edge.node_count", "must be >= 0")
    elif node_count is not None and not node_count <= MAX_NODE_COUNT:
        check.err("edge.node_count", f"must be <= {MAX_NODE_COUNT}")
    elif node_count and (cpu is None or mem is None):
        check.err("edge", "node_cpu_millicores and node_memory_mb are required")
    elif node_count:
        nodes = (ResourceVector(cpu, mem),) * node_count

    cloud = check.fields(top.get("cloud") or {}, "cloud", _CLOUD)
    cost = check.fields(top.get("cost") or {}, "cost", _COST)
    sched = check.fields(top.get("scheduler") or {}, "scheduler", _SCHEDULER)

    catalog = {name: _parse_workload(name, w, check)
               for name, w in (top["workloads"] or {}).items()}

    arrivals = None
    if raw.get("arrivals") is not None:
        cls, got = check.variant(raw["arrivals"], "arrivals", _ARRIVALS)
        if cls is not None:
            got.pop("generator", None)  # checked; pcg64 is the only generator
            if None not in got.values():
                arrivals = check.build("", cls, **got)  # its type writes "arrivals."
    faults = []
    for i, f in enumerate(top.get("faults") or ()):
        fault = _built(f, _FAULTS)
        if fault is None:
            cls, got = check.variant(f, f"faults[{i}]", _FAULTS)
            if cls is None or None in got.values():
                continue
            fault = check.build(f"faults[{i}].", cls, **got)
        faults.append(fault)

    # every other scheduler and cloud key is a Scenario field name
    settings = _given(
        cost_params=check.build("cost.", CostParams, **_given(**cost)),
        mode=sched.pop("policy", None), cloud_speed=cloud.pop("speed_factor", None),
        edge_speed=edge.get("speed_factor"), horizon=top.get("horizon"),
        faults=tuple(faults), **sched, **cloud)

    if check.problems:
        raise ValidationError(*sorted(set(check.problems)))
    try:
        scenario = Scenario(top.get("scenario_id", Path(path).stem), nodes, catalog,
                            arrivals, **settings)
    except ValidationError as e:
        raise ValidationError(*sorted(set(e.problems))) from None
    return scenario, top.get("output_dir")


# -- commands -------------------------------------------------------------------


def _timed(phases: dict[str, float], phase: str, fn, *args):
    """fn(*args), its wall-clock seconds added to phases[phase]."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        phases[phase] += time.perf_counter() - start


def _runs(args, phases: dict[str, float], out: Path, runs: list[tuple[str, Scenario]]):
    """Run and emit each (directory name, scenario) pair of a command under
    out, yielding each run's (report, summary). Runs that share an arrival
    process share its one schedule, and the bytes of its arrivals.csv. Every
    schedule is checked, and then every run directory made, before the first
    run: a schedule out of range, or an output path that cannot be written,
    is refused before any simulation."""
    schedules = {}  # by the identity of the arrival process
    csvs = {}  # arrivals.csv, by the same key
    for _, s in runs:
        if id(s.arrivals) not in schedules:
            schedules[id(s.arrivals)] = _timed(phases, "arrivals", generate_arrivals,
                                               s.arrivals, s.catalog)
    for _, s in runs:
        require_finite_rounds(schedules[id(s.arrivals)], s.round_length)
    for name, _ in runs:
        (out / name).mkdir(parents=True, exist_ok=True)
    for name, s in runs:
        report = _timed(phases, "simulate", run, s, schedules[id(s.arrivals)])
        if id(s.arrivals) not in csvs:
            csvs[id(s.arrivals)] = _timed(phases, "emit", arrivals_csv, report)
        yield report, _timed(phases, "emit", emit_report, report, out / name,
                             args.emit_plot_data, csvs[id(s.arrivals)])


def cmd_run(args, scenario: Scenario, out: Path, phases: dict[str, float]) -> int:
    if args.placement:
        scenario = scenario.replace(placement=PlacementPolicy(args.placement))
    [(_, s)] = _runs(args, phases, out, [("run", scenario)])
    print(f"{s['scenario_id']}: {s['job_count']} jobs, total_cost {s['total_cost']:g}, "
          f"mean_utilization {s['mean_utilization']:.3f}, "
          f"deadline_met {s['deadline_met_fraction']:.3f} -> {out / 'run'}")
    return 0


def cmd_sweep(args, scenario: Scenario, out: Path, phases: dict[str, float]) -> int:
    placements = _PLACEMENTS if args.placement in (None, "all") else (args.placement,)
    runs = [(p, scenario.replace(placement=PlacementPolicy(p))) for p in placements]
    summary: dict[str, dict] = {}
    for p, (_, s) in zip(placements, _runs(args, phases, out, runs)):
        summary[p] = s
        print(f"{p}: total_cost {s['total_cost']:g}, "
              f"mean_utilization {s['mean_utilization']:.3f}")
    _timed(phases, "emit", write_json, out / "sweep_summary.json",
           {"scenario_id": scenario.scenario_id, "placements": summary})
    return 0


def cmd_baseline(args, scenario: Scenario, out: Path, phases: dict[str, float]) -> int:
    if not scenario.node_capacities:
        raise ValidationError("baseline compares a hybrid run with a cloud-only one, and "
                              "the hybrid run needs edge nodes (edge.node_count >= 1)")
    (hybrid, hybrid_summary), (baseline, baseline_summary) = _runs(args, phases, out, [
        ("hybrid", scenario.replace(mode=SchedulerMode.CHEAPEST_FIRST)),
        ("cloud_only", scenario.replace(mode=SchedulerMode.CLOUD_ONLY))])
    pct = cost_vs_baseline(hybrid, baseline)
    _timed(phases, "emit", write_json, out / "baseline_summary.json", {
        "scenario_id": scenario.scenario_id,
        "cost_vs_baseline_percent": round9(pct),
        "hybrid": hybrid_summary,
        "cloud_only": baseline_summary,
    })
    print(f"hybrid cost is {pct:.2f}% of the cloud-only baseline "
          f"({hybrid.total_cost:g} vs {baseline.total_cost:g})")
    return 0


def cmd_replicate(args, scenario: Scenario, out: Path, phases: dict[str, float]) -> int:
    if not isinstance(scenario.arrivals, PoissonArrivals):
        raise ValidationError("replicate needs poisson arrivals (explicit times have "
                              "no seed to sweep)")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValidationError(f"--seeds must be a comma-separated integer list, "
                              f"got {args.seeds!r}") from None
    if not seeds:
        raise ValidationError("--seeds is empty")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValidationError(f"--seeds lists {', '.join(map(str, repeated))} more than once")
    # every seed, and the schedule it draws, is checked before the first run
    runs = [(f"seed-{seed}", scenario.replace(arrivals=scenario.arrivals.replace(seed=seed)))
            for seed in seeds]
    per_seed = {str(seed): s for seed, (_, s) in zip(seeds, _runs(args, phases, out, runs))}
    import statistics  # its only user; fractions and decimal load with it

    aggregate = {}
    for k in ("total_cost", "mean_utilization", "deadline_met_fraction"):
        v = [s[k] for s in per_seed.values()]
        aggregate[k] = {"mean": round9(statistics.mean(v)),
                        "stdev": round9(statistics.stdev(v) if len(v) > 1 else 0.0)}
    _timed(phases, "emit", write_json, out / "replicate_summary.json", {
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
    setting = os.environ.get("HCS_SIM_LOG", "WARNING").upper()
    # At WARNING the package logs nothing, so logging is loaded only for another
    # setting, or configured as before when the host process has already loaded it.
    if setting != "WARNING" or "logging" in sys.modules:
        import logging

        # a level name maps to its number; any other value reads as WARNING
        level = logging.getLevelName(setting)
        logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes a word like -1,2 for an option, which leaves --seeds, or
    # a prefix of it, without a value; joined as --seeds=-1,2 it is the value
    for i in range(len(argv) - 2, -1, -1):
        opt, val = argv[i:i + 2]
        if len(opt) > 2 and "--seeds".startswith(opt) and val[:1] == "-" and val[1:2].isdigit():
            argv = [*argv[:i], f"{opt}={val}", *argv[i + 2:]]
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "baseline": cmd_baseline, "replicate": cmd_replicate}[args.command]
    # A run makes no reference cycles, so the cyclic collector would find
    # nothing to free in it: the command runs with the collector paused, and
    # the collector is left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    # wall-clock seconds per phase, summed over the command's runs
    phases = dict.fromkeys(("load", "arrivals", "simulate", "emit"), 0.0)
    try:
        scenario, output_dir = _timed(phases, "load", load_scenario, args.config)
        return handler(args, scenario, Path(args.out or output_dir or "out"), phases)
    except ValidationError as e:
        for problem in e.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # an output path that cannot be written, or a full disk
        print(f"error: {e.filename}: {e.strerror}" if e.filename is not None
              else f"error: {e.strerror or e}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
        # by its import name: run as `python -m hcs_sim.cli`, this module is __main__
        log("hcs_sim.cli", "info", "wall-clock seconds by phase: load %.6f, arrivals %.6f, "
            "simulate %.6f, emit %.6f", *phases.values())


if __name__ == "__main__":
    sys.exit(main())
