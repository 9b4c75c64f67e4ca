"""The four commands end to end: their artifacts are pinned, and each value a
command needs is computed once.

tests/command_digests.json holds one sha256 per command over the name, size
and bytes of every file the command writes under --out, summary files and
plot data included. Each command runs on scenarios/saturating_mix.json cut
to 200 arrivals. A change that alters the artifacts on purpose regenerates
the file with

    PYTHONPATH=src python3 tests/test_commands.py --write-digests

and says in CHANGES.md which commands changed, and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from hcs_sim import cli, metrics
from hcs_sim.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "command_digests.json"
SATURATING_MIX = HERE.parent / "scenarios" / "saturating_mix.json"
COMMANDS = {
    "run": ["run"],
    "sweep": ["sweep", "--placement", "all"],
    "baseline": ["baseline"],
    "replicate": ["replicate", "--seeds", "3,4"],
}


def write_scenario(directory: Path, count: int) -> str:
    """saturating_mix with its first count arrivals, as a file in directory."""
    cfg = json.loads(SATURATING_MIX.read_text(encoding="utf-8"))
    cfg["arrivals"]["count"] = count
    path = directory / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def tree_digest(directory: Path) -> str:
    """sha256 over the relative name, size and bytes of each file under
    directory, by name."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(directory).as_posix()}\n{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def command_digest(command: str, directory: Path) -> str:
    """The digest of what command writes, run in directory."""
    out = directory / command
    argv = [*COMMANDS[command], "--config", write_scenario(directory, 200),
            "--out", str(out), "--emit-plot-data"]
    if main(argv) != 0:
        raise AssertionError(f"{command} failed")
    return tree_digest(out)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_artifacts_match_their_pinned_digests(tmp_path, command):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert command_digest(command, tmp_path) == pinned[command]


# (argv, calls to generate_arrivals and to arrivals_csv, calls to
# summary_dict, reads of each cost per cost_ledger.csv row): one schedule, and
# one arrivals.csv, per arrival process, one summary per run, and each cost
# read where its row is written; baseline also sums both ledgers through
# cost_vs_baseline and again for its printout
ONCE = [
    (["run"], 1, 1, 1),
    (["sweep", "--placement", "all"], 1, 4, 1),
    (["baseline"], 1, 2, 3),
    (["replicate", "--seeds", "3,4,5"], 3, 3, 1),
]


def rows_written(out: Path, name: str) -> int:
    """The rows of every file called name under out, headers not counted."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in out.rglob(name))


@pytest.mark.parametrize("argv, schedules, summaries, cost_reads", ONCE,
                         ids=[a[0] for a, *_ in ONCE])
def test_each_value_is_computed_once(tmp_path, monkeypatch, argv, schedules, summaries,
                                     cost_reads):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "generate_arrivals",
                        counted("generate_arrivals", cli.generate_arrivals))
    # by the command, and by the report writer if it is not handed the bytes
    arrivals_csv = counted("arrivals_csv", metrics.arrivals_csv)
    for module in (cli, metrics):
        monkeypatch.setattr(module, "arrivals_csv", arrivals_csv)
    # wherever a summary is looked up: the report writer's module, and the
    # command's if it imports its own
    summary_dict = counted("summary_dict", metrics.summary_dict)
    for module in (cli, metrics):
        if hasattr(module, "summary_dict"):
            monkeypatch.setattr(module, "summary_dict", summary_dict)
    # a summary's total cost and fraction of deadlines met come from the
    # costs and verdicts of the rows the writer computed for its tables
    monkeypatch.setattr(metrics.CostLedgerEntry, "cost",
                        property(counted("cost", metrics.CostLedgerEntry.cost.fget)))
    monkeypatch.setattr(metrics.JobOutcome, "verdict",
                        counted("verdict", metrics.JobOutcome.verdict))
    path = write_scenario(tmp_path, 20)
    out = tmp_path / "o"
    assert main([*argv, "--config", path, "--out", str(out)]) == 0
    ledger_rows = rows_written(out, "cost_ledger.csv")
    assert ledger_rows and calls == {
        "generate_arrivals": schedules, "arrivals_csv": schedules, "summary_dict": summaries,
        "cost": cost_reads * ledger_rows, "verdict": rows_written(out, "job_outcomes.csv")}


def write_digests() -> None:
    """Pin the current artifacts of every command."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = {command: command_digest(command, Path(tmp)) for command in COMMANDS}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit(f"usage: {sys.argv[0]} --write-digests  (rewrites {DIGESTS.name})")
    write_digests()
