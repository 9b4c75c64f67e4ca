"""Mutation check: does tier-1 catch small faults planted in src/?

Each mutant names a module of hcs_sim, the exact texts it replaces and what
it puts in their place, and the verdict it is expected to get. For each one
the script copies src/, tests/ and scenarios/ to a temporary directory,
applies the mutant there, and runs tier-1 against the copy with -x; a
mutant that lists test files runs those first, and the whole suite only if
they pass, so the verdict is the whole suite's. The verdicts:

- killed: a test failed; the first failing test is printed.
- survived: every test passed, on a mutant that changes behaviour.
- equivalent: every test passed, on a mutant listed as equivalent, next to
  the argument for why it cannot change an output.
- invalid: an old text does not occur exactly once, or the run failed on a
  NameError, ImportError or SyntaxError, so the mutant is broken, not caught.

Run from a checkout with

    python3 tests/mutants.py [NAME ...]

It exits 1 if a mutant's verdict is not the one expected. Each mutant costs
up to one tier-1 run.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/hcs_sim
    edits: tuple[tuple[str, str], ...]  # (exact old text, new text), in order
    expected: str  # "killed" or "equivalent"
    why: str = ""  # an equivalent mutant's argument
    first: tuple[str, ...] = ()  # test files that kill it, tried before the whole suite


MUTANTS = [
    Mutant("round-boundary-on-now-moves-on", "sim_engine.py", (
        ("    if boundary < now:\n", "    if boundary <= now:\n"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("round-boundary-drops-first-round-floor", "sim_engine.py", (
        ("    return max(boundary, round_length)\n", "    return boundary\n"),), "killed"),
    Mutant("event-tie-order", "sim_engine.py", (
        ("    EVICTION_EXPIRE = 1\n    NODE_FAILURE = 2\n",
         "    EVICTION_EXPIRE = 2\n    NODE_FAILURE = 1\n"),), "killed",
        first=("tests/test_differential.py",)),
    Mutant("event-tie-complete-expiry", "sim_engine.py", (
        ("    STEP_COMPLETE = 0\n    EVICTION_EXPIRE = 1\n",
         "    STEP_COMPLETE = 1\n    EVICTION_EXPIRE = 0\n"),), "killed"),
    Mutant("event-tie-failure-restart", "sim_engine.py", (
        ("    NODE_FAILURE = 2\n    DRIVER_RESTART = 3\n",
         "    NODE_FAILURE = 3\n    DRIVER_RESTART = 2\n"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("event-tie-restart-arrival", "sim_engine.py", (
        ("    DRIVER_RESTART = 3\n    JOB_ARRIVAL = 4\n",
         "    DRIVER_RESTART = 4\n    JOB_ARRIVAL = 3\n"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("event-tie-arrival-round", "sim_engine.py", (
        ("    JOB_ARRIVAL = 4\n    ROUND_TICK = 5\n",
         "    JOB_ARRIVAL = 5\n    ROUND_TICK = 4\n"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("event-tie-round-end", "sim_engine.py", (
        ("    ROUND_TICK = 5\n    SIMULATION_END = 6\n",
         "    ROUND_TICK = 6\n    SIMULATION_END = 5\n"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("job-by-job-outcomes-by-time-alone", "sim_engine.py", (
        ("    outcomes.sort()\n", "    outcomes.sort(key=itemgetter(0))\n"),), "killed",
        first=("tests/test_differential.py",)),
    Mutant("job-by-job-ledger-in-arrival-order", "sim_engine.py", (
        ("    ledger.sort()\n", ""),), "killed", first=("tests/test_differential.py",)),
    Mutant("cloud-only-key-ignores-fragment-count", "sim_engine.py", (
        ("key = (id(job.dag), job.fragment_count, now)", "key = (id(job.dag), now)"),),
        "killed", first=("tests/test_differential.py",)),
    Mutant("cloud-only-key-ignores-round", "sim_engine.py", (
        ("key = (id(job.dag), job.fragment_count, now)",
         "key = (id(job.dag), job.fragment_count)"),), "killed",
        first=("tests/test_differential.py",)),
    Mutant("drained-check-dropped", "sim_engine.py", (
        ("_require_drained(self.drivers, len(self.arrivals))", "pass"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("job-by-job-drained-check-dropped", "sim_engine.py", (
        ("_require_drained(drivers, len(arrivals))", "pass"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("report-drops-horizon", "sim_engine.py", (
        ("samples, ledger, outcomes, end_time, horizon_reached)",
         "samples, ledger, outcomes, end_time, False)"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("commit-flight-bisect-left", "pipeline_driver.py", (
        ("from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
        ("n_fl = bisect_right(flight, now)", "n_fl = bisect_left(flight, now)")), "killed"),
    Mutant("commit-landed-bisect-left", "pipeline_driver.py", (
        ("from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
        ("else bisect_right(fins, now)", "else bisect_left(fins, now)")), "killed"),
    Mutant("commit-arrived-bisect-left", "pipeline_driver.py", (
        ("from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
        ("bisect_right(a_times, now)", "bisect_left(a_times, now)")), "killed"),
    Mutant("run-count-strict", "pipeline_driver.py", (
        ("while self.first + k * self.step <= cut:", "while self.first + k * self.step < cut:"),),
        "killed", first=("tests/test_driver.py",)),
    Mutant("run-grid-check-accepts-all", "pipeline_driver.py", (
        ("return xn * (q // xq) + dn * (q // dq) + (n - 1) * sn * (q // sq) <= _UNITS",
         "return True"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("run-bound-strict", "pipeline_driver.py", (
        ("(n - 1) * sn * (q // sq) <= _UNITS", "(n - 1) * sn * (q // sq) < _UNITS"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("run-count-drops-correction", "pipeline_driver.py", (
        ("        while self.first + k * self.step <= cut:\n            k += 1\n", ""),),
        "killed", first=("tests/test_driver.py",)),
    Mutant("completion-count-one-short", "pipeline_driver.py", (
        ("return self._steps_done == len(self.topo)",
         "return self._steps_done >= len(self.topo) - 1"),), "killed",
        first=("tests/test_sim_engine.py",)),
    Mutant("requeue-ignores-eviction-window", "pipeline_driver.py", (
        ("n = 0 if rt.pending_switch is not None else min(ready, rt.pool)",
         "n = min(ready, rt.pool)"),), "killed", first=("tests/test_driver.py",)),
    Mutant("service-at-edge-speed", "pipeline_driver.py", (
        ("self.edge_speed if region == \"edge\" else self.cloud_speed)", "self.edge_speed)"),),
        "killed", first=("tests/test_driver.py",)),
    Mutant("one-worker-fin-ignores-ready", "pipeline_driver.py", (
        ("fin = (ready if ready > fin else fin) + duration", "fin = fin + duration"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("expiry-cut-bisect-left", "pipeline_driver.py", (
        ("from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
        ("keep = bisect_right(rt.flight, expiry)", "keep = bisect_left(rt.flight, expiry)")),
        "killed", first=("tests/test_differential.py",)),
    Mutant("drop-evicting-keeps-evicting-load", "hcs_scheduler.py", (
        ("self._shift(plan, -1, 1, -1)", "self._shift(plan, -1, 1, 0)"),), "killed"),
    Mutant("hold-skips-victim-insort", "hcs_scheduler.py", (
        ("        insort(self._victims, (rcost(plan.step, self.cost_params), key))\n", ""),),
        "killed"),
    Mutant("victims-include-equal-cost", "hcs_scheduler.py", (
        ("from bisect import bisect_left, insort",
         "from bisect import bisect_left, bisect_right, insort"),
        ("stop = bisect_left(self._victims, (cost,))",
         "stop = bisect_right(self._victims, cost, key=lambda v: v[0])")), "killed"),
    Mutant("first-fit-starts-outlive-the-round", "hcs_scheduler.py", (
        ("        starts: dict[tuple[int, int], int] = {}\n        for _, _, job_id",
         "        starts = self.__dict__.setdefault(\"_starts\", {})\n        for _, _, job_id"),),
        "killed", first=("tests/test_scheduler.py",)),
    Mutant("first-fit-start-past-first-node", "hcs_scheduler.py", (
        ("starts[shape] = next(iter(plan.nodes))", "starts[shape] = next(iter(plan.nodes)) + 1"),),
        "killed", first=("tests/test_scheduler.py",)),
    Mutant("memo-shape-ignores-replicas", "hcs_scheduler.py", (
        ("shape = (d.cpu_millicores, d.memory_mb, step.replicas)",
         "shape = (d.cpu_millicores, d.memory_mb, 1)"),), "killed"),
    Mutant("one-memo-for-room-and-victims", "hcs_scheduler.py", (
        ("        no_victims: set[tuple[int, int, int]] = set()\n",
         "        no_victims = no_room\n"),), "killed"),
    Mutant("eviction-final-slots-check-non-strict", "hcs_scheduler.py", (
        ("        if slots < step.replicas:\n", "        if slots <= step.replicas:\n"),),
        "killed", first=("tests/test_acceptance.py",)),
    Mutant("eviction-loop-slots-check-non-strict", "hcs_scheduler.py", (
        ("while slots < step.replicas and", "while slots <= step.replicas and"),), "killed",
        first=("tests/test_scheduler.py",)),
    Mutant("runs-one-schedule-per-run", "cli.py", (
        ("if id(s.arrivals) not in schedules:", "if True:"),), "killed",
        first=("tests/test_commands.py",)),
    Mutant("command-summarises-again", "cli.py", (
        ("        yield _timed(phases, \"emit\", emit_report, report, out / name,\n"
         "                     args.emit_plot_data, csvs[id(s.arrivals)])\n",
         "        _, total = _timed(phases, \"emit\", emit_report, report, out / name,\n"
         "                          args.emit_plot_data, csvs[id(s.arrivals)])\n"
         "        from hcs_sim.metrics import summary_dict\n"
         "        yield summary_dict(report, total, report.deadline_met_fraction), total\n"),),
        "killed", first=("tests/test_commands.py",)),
    Mutant("baseline-percent-inverted", "cli.py", (
        ("pct = cost_vs_baseline(hybrid_cost, baseline_cost)",
         "pct = cost_vs_baseline(baseline_cost, hybrid_cost)"),), "killed",
        first=("tests/test_cli.py",)),
    Mutant("fault-shape-takes-a-bool", "cli.py", (
        ("if type(value) not in kind.types:", "if type(value) not in (*kind.types, bool):"),),
        "killed",
        first=("tests/test_cli.py",)),
    Mutant("fault-shape-keeps-an-int-time", "cli.py", (
        ("got[key] = value if kind.cast is None else kind.cast(value)", "got[key] = value"),),
        "killed",
        first=("tests/test_cli.py",)),
    Mutant("int-token-guard-one-longer", "cli.py", (
        ("if len(token) >= 309:", "if len(token) >= 310:"),), "killed",
        first=("tests/test_cli.py",)),
    Mutant("logging-condition-inverted", "cli.py", (
        ('if setting != "WARNING" or "logging" in sys.modules:',
         'if not (setting != "WARNING" or "logging" in sys.modules):'),), "killed",
        first=("tests/test_cli.py",)),
    Mutant("projection-memo-ignores-flight", "pipeline_driver.py", (
        ("rt.done, tuple(rt.flight), rt.ready)", "rt.done, rt.ready)"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("projection-memo-ignores-fragment-count", "pipeline_driver.py", (
        ("key = (id(self.job.dag), self.m, self._state_key())",
         "key = (id(self.job.dag), 0, self._state_key())"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("projection-memo-ignores-dag", "pipeline_driver.py", (
        ("key = (id(self.job.dag), self.m, self._state_key())",
         "key = (self.m, self._state_key())"),), "killed",
        first=("tests/test_driver.py",)),
    Mutant("projection-memo-outlives-its-instant", "sim_engine.py", (
        ("            memo: dict = {}  #",
         "            memo: dict = self.__dict__.setdefault(\"_memo\", {})  #"),),
        "killed", first=("tests/test_sim_engine.py",)),
    Mutant("sample-before-projecting", "sim_engine.py", (
        ("            self._touched.clear()\n"
         "        if self.sched.edge_writes != self._sampled_writes:\n"
         "            self._sampled_writes = self.sched.edge_writes\n"
         "            self.samples.append(UtilizationSample(now, *self.sched.edge_usage()))\n",
         "            self._touched.clear()\n"),
        ('        """\n        if self._touched:\n',
         '        """\n'
         "        if self.sched.edge_writes != self._sampled_writes:\n"
         "            self._sampled_writes = self.sched.edge_writes\n"
         "            self.samples.append(UtilizationSample(now, *self.sched.edge_usage()))\n"
         "        if self._touched:\n")),
        "equivalent",
        "projection writes no scheduler state, so the edge usage sampled is the "
        "same before it and after it; 0 of 4,000 generated scenarios differed"),
    Mutant("restart-cut-inclusive", "sim_engine.py", (
        ("                    if time > cut:\n", "                    if time >= cut:\n"),),
        "killed", first=("tests/test_sim_engine.py",)),
    Mutant("restart-cut-takes-a-past-restart", "sim_engine.py", (
        ("from bisect import bisect_right\n", "from bisect import bisect_left, bisect_right\n"),
        ("cut = times[bisect_right(times, now)]", "cut = times[bisect_left(times, now)]")),
        "killed", first=("tests/test_sim_engine.py",)),
    Mutant("completions-batched-per-job", "sim_engine.py", (
        ("batch = batches.get(time)", "batch = batches.get((job_id, time))"),
        ("batches[time] = [", "batches[job_id, time] = ["),
        ("            for time, batch in batches.items():\n",
         "            for (_, time), batch in batches.items():\n")),
        "killed", first=("tests/test_sim_engine.py",)),
]

# a failure that shows the mutant itself is broken
BROKEN = re.compile(r"^E\s+(?:\w+\.)*(NameError|ImportError|ModuleNotFoundError|"
                    r"SyntaxError|IndentationError)\b", re.M)
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def verdict(mutant: Mutant, work: Path) -> tuple[str, str]:
    """(verdict, detail) of one mutant, tried in the empty directory work."""
    for part in ("src", "tests", "scenarios"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", work)  # its pytest settings put src on the path
    path = work / "src" / "hcs_sim" / mutant.module
    text = path.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        if text.count(old) != 1:
            return "invalid", f"old text occurs {text.count(old)} times: {old!r}"
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    for paths in [mutant.first, ()] if mutant.first else [()]:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *paths],
            cwd=work, capture_output=True, text=True)
        if proc.returncode:
            break
    if proc.returncode == 0:
        return "equivalent" if mutant.expected == "equivalent" else "survived", ""
    first = FIRST_FAILURE.search(proc.stdout)
    detail = first.group(1) if first else f"pytest exited {proc.returncode}"
    broken = BROKEN.search(proc.stdout)
    if broken:
        return "invalid", f"{detail}: {broken.group(1)}"
    return "killed", detail


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    wrong = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            got, detail = verdict(mutant, Path(tmp))
        wrong += got != mutant.expected
        note = detail or mutant.why
        print(f"{mutant.name}: {got}{'' if got == mutant.expected else ' (UNEXPECTED)'}"
              f"{f' - {note}' if note else ''} [{time.perf_counter() - start:.1f} s]",
              flush=True)
    print(f"{wrong} unexpected verdicts")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
