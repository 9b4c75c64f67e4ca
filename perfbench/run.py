"""hcs-sim benchmark: timed or traced runs of one workload.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Generates the workload's scenarios from --seed and runs the hcs-sim command on
them through `hcs_sim.cli.main`, one fresh child process at a time, for about
--seconds. Every child's artifacts are checked: exit code 0, consistent
reports, bytes identical across children of one scenario, and equal to the
sha256 digests in perfbench/digests.json for a child on the default seed,
which each run starts with. A child that fails a check counts in `failed`.
Times are rescaled to a reference host speed (see hostspeed.py).

--trace 0 prints the end-to-end metrics (medians over the timed children).
--trace 1 alternates untraced and traced children and prints the per-layer
metrics; every counter must repeat exactly between traced children.
The last line of stdout is the result as one JSON object. See README.md.

    python3 perfbench/run.py --record-digests

re-records digests.json, after a deliberate change to the program's outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS, fragment_steps  # noqa: E402

MIN_TIMED = 4  # timed children per run, whatever --seconds says
MIN_TRACED = 2  # the counter check needs two traced children
SCENARIOS_PER_RUN = 8
SEED_STRIDE = 10_007
RUN_CAP_S = 150.0  # start no child after this, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EVENT_KINDS = ("FRAGMENT_COMPLETE", "EVICTION_EXPIRE", "NODE_FAILURE",
               "DRIVER_RESTART", "JOB_ARRIVAL", "ROUND_TICK", "SIMULATION_END")
TIMED_LAYERS = ("cli", "sim_engine", "pipeline_driver", "hcs_scheduler",
                "placement", "metrics")


class Run:
    """Children of one benchmark invocation and the failures among them."""

    def __init__(self, workload: str):
        self.workload = WORKLOADS[workload]
        self.born = self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.work: dict[int, int] = {}  # seed -> fragment-steps per command
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def elapsed(self) -> float:
        """Seconds since the timed part of the run started."""
        return time.monotonic() - self.started

    def scenario(self, seed: int) -> tuple[dict, Path]:
        scenario = self.workload.build(seed)
        path = self.dir / f"scenario-{seed}.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        return scenario, path

    def child(self, seed: int, trace: bool, expect: dict[str, str] | None) -> dict | None:
        """Run the command once in a fresh process and check its artifacts.

        The first child of each seed gets the consistency checks, and the
        artifacts' digests must equal expect unless it is None. Returns the
        child's measurements plus its digests, or None if it failed.
        """
        scenario, config = self.scenario(seed)
        self.attempted += 1
        out = self.dir / f"out-{self.attempted}"
        result = self.dir / f"result-{self.attempted}.json"
        argv = [self.workload.command, "--config", str(config), "--out", str(out)]
        # numpy's BLAS pool would be the only other thread, and the probe's
        # SIGALRM may be delivered to it
        env = dict(os.environ, HCS_SIM_LOG="WARNING", OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), repr(spawned),
               "1" if trace else "0", "--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(5.0, 170.0 - (spawned - self.born)))
        except subprocess.TimeoutExpired:
            return self.fail(f"seed {seed}: child timed out")
        if proc.returncode != 0 or not result.exists():
            return self.fail(f"seed {seed}: child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        data = json.loads(result.read_text(encoding="utf-8"))
        data["digests"] = digest_tree(out)
        problems = []
        if seed not in self.work:
            problems, self.work[seed] = check_outputs(self.workload, scenario, out)
        if expect is not None:
            problems += [f"artifacts differ: {f}" for f in differing(expect, data["digests"])]
        shutil.rmtree(out)
        result.unlink()
        if problems:
            return self.fail(f"seed {seed}: " + "; ".join(problems))
        return data

    def fail(self, message: str) -> None:
        self.failed += 1
        print(message, file=sys.stderr)
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def digest_tree(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def differing(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload, scenario: dict, out: Path) -> tuple[list[str], int]:
    """Consistency checks on one command's artifacts; returns (problems, work)."""
    problems: list[str] = []
    work = 0
    run_dirs = ["hybrid", "cloud_only"] if workload.command == "baseline" else ["run"]
    for name in run_dirs:
        d = out / name
        summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
        arrivals = read_csv(d / "arrivals.csv")
        outcomes = read_csv(d / "job_outcomes.csv")
        ledger = read_csv(d / "cost_ledger.csv")
        work += fragment_steps(scenario, [a["template"] for a in arrivals])
        if not summary["job_count"] == len(arrivals) == len(outcomes):
            problems.append(f"{name}: job_count {summary['job_count']}, "
                            f"{len(arrivals)} arrivals, {len(outcomes)} outcomes")
        if summary["horizon_reached"] or any(o["completed"] != "true" for o in outcomes):
            problems.append(f"{name}: not every job completed")
        ledger_cost = sum(float(e["cost"]) for e in ledger)
        if abs(ledger_cost - summary["total_cost"]) > 1e-6 * max(1.0, ledger_cost):
            problems.append(f"{name}: ledger sums to {ledger_cost}, "
                            f"summary says {summary['total_cost']}")
        if summary["total_cost"] <= 0:
            problems.append(f"{name}: no cloud cost, so the edge never saturated")
    if workload.command == "baseline":
        pct = json.loads((out / "baseline_summary.json").read_text(
            encoding="utf-8"))["cost_vs_baseline_percent"]
        if not 0 < pct <= 100:
            problems.append(f"hybrid costs {pct}% of cloud-only")
    return problems, work


def stored_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]["files"]


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def scenario_seeds(seed: int) -> list[int]:
    """The scenarios one timed run cycles over, all derived from --seed.

    One scenario's time depends on its seed by a few percent (the template
    mix on `reference`, the eviction path on `wide`); medians over eight
    scenarios keep that out of the run-to-run spread. The first is the seed
    itself.
    """
    return [seed + SEED_STRIDE * j for j in range(SCENARIOS_PER_RUN)]


def keep_going(run: Run, seconds: float, done: int, minimum: int,
               durations: list[float]) -> bool:
    """Whether another child fits in the run's time (after the minimum)."""
    if done < minimum:
        return run.elapsed() < RUN_CAP_S
    estimate = statistics.median(durations) if durations else 0.0
    return run.elapsed() + estimate <= min(seconds, RUN_CAP_S)


# -- timed mode ---------------------------------------------------------------


def timed(run: Run, seed: int, seconds: float) -> dict:
    """Children cycle over the run's scenarios; metrics are medians over all."""
    stored = stored_digests(run.workload.name)
    run.child(DEFAULT_SEED, False, stored)
    run.started = time.monotonic()  # --seconds covers the timed children only
    seeds = scenario_seeds(seed)
    expect = {s: stored if s == DEFAULT_SEED else None for s in seeds}
    samples: list[dict] = []
    durations: list[float] = []
    while keep_going(run, seconds, len(durations), MIN_TIMED, durations):
        s = seeds[len(durations) % len(seeds)]
        start = time.monotonic()
        data = run.child(s, False, expect[s])
        durations.append(time.monotonic() - start)
        if data is not None:
            expect[s] = data["digests"]
            samples.append(data)
    shown = [*END_TO_END, "wall_raw_s", "cpu_raw_s", "setup_raw_s", "speed_scale"]
    spread = {m: quartiles([s[m] for s in samples]) for m in shown} if samples else {}
    print(json.dumps({"workload": run.workload.name, "seeds": seeds,
                      "fragment_steps": [run.work.get(s) for s in seeds], "spread": spread}))
    return {m: {"value": spread[m]["median"], "unit": u}
            for m, u in END_TO_END.items() if m in spread}


# -- traced mode ----------------------------------------------------------------


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child, before taking medians."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for span in trace["spans"]:
        name = span["name"]
        calls[name] = calls.get(name, 0) + span["calls"]
        self_s[name] = self_s.get(name, 0.0) + span["self_s"]
        if span["parent"] != name:
            total_s[name] = total_s.get(name, 0.0) + span["total_s"]
    counts = trace["counts"]

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m: dict[str, float] = {}
    m["sim_engine.run.self_s"] = self_s.get("sim_engine.run", 0.0)
    for kind in EVENT_KINDS:
        m[f"sim_engine.events.{kind}"] = counts.get(f"sim_engine.events.{kind}", 0)
    m["sim_engine.events_total"] = prefixed(counts, "sim_engine.events.")
    m["sim_engine.generate_arrivals.s"] = total_s.get("sim_engine.generate_arrivals", 0.0)
    m["pipeline_driver.on_fragment_complete.calls"] = calls.get(
        "pipeline_driver.on_fragment_complete", 0)
    m["pipeline_driver.on_fragment_complete.self_s"] = self_s.get(
        "pipeline_driver.on_fragment_complete", 0.0)
    m["pipeline_driver.interrupts.calls"] = prefixed(calls, "pipeline_driver.interrupts.")
    m["pipeline_driver.interrupts.self_s"] = prefixed(self_s, "pipeline_driver.interrupts.")
    checks = counts.get("pipeline_driver.is_current_completion", 0)
    m["pipeline_driver.stale_completion_ratio"] = (
        counts.get("pipeline_driver.is_current_completion.stale", 0) / checks if checks else 0.0)
    m["hcs_scheduler.run_round.calls"] = calls.get("hcs_scheduler.run_round", 0)
    m["hcs_scheduler.run_round.self_s"] = self_s.get("hcs_scheduler.run_round", 0.0)
    m["hcs_scheduler.lifecycle.self_s"] = prefixed(self_s, "hcs_scheduler.lifecycle.")
    for kind in ("deploy_edge", "deploy_cloud", "evict"):
        m[f"hcs_scheduler.directives.{kind}"] = counts.get(f"hcs_scheduler.directives.{kind}", 0)
    placements = calls.get("placement.try_place_free", 0)
    m["placement.try_place_free.calls"] = placements
    m["placement.try_place_free.self_s"] = self_s.get("placement.try_place_free", 0.0)
    m["placement.fit_ratio"] = (
        counts.get("placement.try_place_free.fits", 0) / placements if placements else 0.0)
    m["placement.apply_release.calls"] = prefixed(calls, "placement.apply_release.")
    m["core_model.rcost.calls"] = counts.get("core_model.rcost", 0)
    m["metrics.sample.calls"] = calls.get("metrics.sample", 0)
    m["metrics.sample.self_s"] = self_s.get("metrics.sample", 0.0)
    m["metrics.emit_report.s"] = total_s.get("metrics.emit_report", 0.0)
    m["metrics.ledger_entries"] = calls.get("metrics.collector.open_entry", 0)
    m["cli.load_scenario.s"] = total_s.get("cli.load_scenario", 0.0)
    layer_self = {layer: prefixed(self_s, layer + ".") for layer in TIMED_LAYERS}
    traced_total = sum(layer_self.values())
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = value
        m[f"layer.{layer}.share"] = value / traced_total if traced_total else 0.0
    return m


def traced(run: Run, seed: int, seconds: float) -> dict:
    """Untraced and traced children alternate on the seed's first scenario.

    Traced self times are rescaled by the child's host-speed factor, like
    the timed metrics; counters must repeat exactly between traced children
    and the traced artifacts must equal the untraced ones byte for byte.
    """
    stored = stored_digests(run.workload.name)
    run.child(DEFAULT_SEED, False, stored)
    run.started = time.monotonic()
    expect = stored if seed == DEFAULT_SEED else None
    untraced_walls: list[float] = []
    per_child: list[dict[str, float]] = []
    durations: list[float] = []
    counters: dict | None = None
    absent: list[str] = []
    while keep_going(run, seconds, len(durations), MIN_TRACED, durations):
        pair_start = time.monotonic()
        plain = run.child(seed, False, expect)
        if plain is not None:
            expect = plain["digests"]
            untraced_walls.append(plain["wall_s"])
        data = run.child(seed, True, expect)
        durations.append(time.monotonic() - pair_start)
        if data is None:
            continue
        expect = data["digests"]
        metrics = {k: v * data["speed_scale"] if unit_of(k) == "s" else v
                   for k, v in layer_metrics(data["trace"]).items()}
        metrics["trace.wall_s"] = data["wall_s"]
        # every counter metric derives from these
        exact = {f"span {s['name']} < {s['parent']}": s["calls"]
                 for s in data["trace"]["spans"]}
        exact.update(data["trace"]["counts"])
        if counters is None:
            counters = exact
        elif exact != counters:
            run.fail("traced counters differ between children: "
                     + ", ".join(differing(counters, exact)))
        absent = data["trace"]["absent"]
        per_child.append(metrics)
    if not per_child or not untraced_walls:
        return {}
    # counters are equal in every traced child (checked above); times vary
    values = {k: statistics.median(c[k] for c in per_child)
              if unit_of(k) == "s" or k.endswith(".share") else v
              for k, v in per_child[0].items()}
    values["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1
    print(json.dumps({"workload": run.workload.name, "seed": seed,
                      "traced_children": len(per_child), "fragment_steps": run.work.get(seed),
                      "absent": absent}))
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


# -- digests ------------------------------------------------------------------------


def record_digests() -> int:
    """Re-record every workload's default-seed artifact digests."""
    record = {}
    for name, workload in WORKLOADS.items():
        run = Run(name)
        first = run.child(DEFAULT_SEED, False, None)
        second = first and run.child(DEFAULT_SEED, False, first["digests"])
        run.close()
        if not second:
            print(f"{name}: not recorded", file=sys.stderr)
            return 1
        record[name] = {"seed": DEFAULT_SEED, "command": workload.command,
                        "fragment_steps": run.work[DEFAULT_SEED],
                        "files": first["digests"]}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hcs_sim" / "cli.py").is_file():
        print(f"no hcs_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload)
    try:
        metrics = (traced if args.trace else timed)(run, args.seed, args.seconds)
    finally:
        run.close()
    if not metrics:
        print("no child completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
