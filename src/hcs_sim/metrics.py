"""Run measurements: edge utilization trace, cloud cost ledger, per-job outcomes,
and deterministic report files."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path

from hcs_sim.core_model import InternalConsistencyError, Record, ValidationError


class UtilizationSample(Record):
    """Edge allocation snapshot; capacity covers alive nodes only."""

    __slots__ = ("time", "allocated_cpu_millicores", "capacity_cpu_millicores",
                 "allocated_memory_mb", "capacity_memory_mb")

    def __init__(self, time: float, allocated_cpu_millicores: int, capacity_cpu_millicores: int,
                 allocated_memory_mb: int, capacity_memory_mb: int):
        self.time = time
        self.allocated_cpu_millicores = allocated_cpu_millicores
        self.capacity_cpu_millicores = capacity_cpu_millicores
        self.allocated_memory_mb = allocated_memory_mb
        self.capacity_memory_mb = capacity_memory_mb

    @property
    def cpu_ratio(self) -> float:
        if self.capacity_cpu_millicores == 0:
            return 0.0
        return self.allocated_cpu_millicores / self.capacity_cpu_millicores


class CostLedgerEntry(Record):
    """One deployment interval of one step in one region."""

    __slots__ = ("job_id", "step_id", "region", "rcost_per_second", "deploy_start", "deploy_end")

    def __init__(self, job_id: str, step_id: str, region: str, rcost_per_second: float,
                 deploy_start: float, deploy_end: float | None = None):
        self.job_id = job_id
        self.step_id = step_id
        self.region = region  # "edge" | "cloud"
        self.rcost_per_second = rcost_per_second
        self.deploy_start = deploy_start
        self.deploy_end = deploy_end

    @property
    def cost(self) -> float:
        if self.deploy_end is None:
            raise InternalConsistencyError(
                f"open ledger entry for {self.job_id}/{self.step_id}")
        if self.region == "edge":
            return 0.0
        return self.rcost_per_second * (self.deploy_end - self.deploy_start)


class JobOutcome(Record):
    __slots__ = ("job_id", "template", "arrival", "completion", "deadline", "completed")

    def __init__(self, job_id: str, template: str, arrival: float, completion: float,
                 deadline: float, completed: bool = True):
        self.job_id = job_id
        self.template = template
        self.arrival = arrival
        self.completion = completion
        self.deadline = deadline
        self.completed = completed

    @property
    def duration(self) -> float:
        return self.completion - self.arrival

    @property
    def met(self) -> bool:
        return self.verdict()[1]

    @property
    def miss_by(self) -> float:
        return self.verdict()[2]

    def verdict(self) -> tuple[float, bool, float]:
        """(duration, met, miss_by), each computed once: a job meets its
        deadline if it completed within it, and misses it by how far its
        duration so far runs past it."""
        duration = self.duration
        met = self.completed and duration <= self.deadline
        return duration, met, 0.0 if met else max(0.0, duration - self.deadline)


class RunReport(Record):
    __slots__ = ("scenario_id", "mode", "placement", "arrivals", "utilization",
                 "cost_ledger", "job_outcomes", "end_time", "horizon_reached")

    def __init__(self, scenario_id: str, mode: str, placement: str,
                 arrivals: list[tuple[float, str, str]], utilization: list[UtilizationSample],
                 cost_ledger: list[CostLedgerEntry], job_outcomes: list[JobOutcome],
                 end_time: float, horizon_reached: bool = False):
        self.scenario_id = scenario_id
        self.mode = mode
        self.placement = placement
        self.arrivals = arrivals  # (time, job_id, template)
        self.utilization = utilization
        self.cost_ledger = cost_ledger
        self.job_outcomes = job_outcomes
        self.end_time = end_time
        self.horizon_reached = horizon_reached

    @property
    def total_cost(self) -> float:
        return sum(e.cost for e in self.cost_ledger)  # in ledger order, as emit_report sums

    @property
    def deadline_met_fraction(self) -> float:
        return met_fraction([o.met for o in self.job_outcomes])

    @property
    def mean_utilization(self) -> float:
        """Time-weighted CPU utilization over the whole run (zero before the
        first sample)."""
        if not self.utilization or self.end_time <= 0:
            return 0.0
        t0 = self.utilization[0].time
        if t0 >= self.end_time:
            return 0.0
        busy = time_weighted_utilization(self.utilization, t0, self.end_time)
        return busy * (self.end_time - t0) / self.end_time

    @property
    def peak_utilization(self) -> float:
        return max((s.cpu_ratio for s in self.utilization), default=0.0)


def met_fraction(met: list[bool]) -> float:
    """The share of jobs that met their deadline, of the jobs' verdicts;
    1.0 when there are none."""
    return sum(met) / len(met) if met else 1.0


def time_weighted_utilization(trace: list[UtilizationSample], t0: float, t1: float) -> float:
    """Integral of the piecewise-constant CPU allocation ratio over [t0, t1].

    Each sample's ratio holds until the next sample; the last one extends to
    t1. The trace must start at or before t0.
    """
    if t1 <= t0:
        raise ValidationError("need t1 > t0")
    if not trace:
        raise ValidationError("empty utilization trace")
    if trace[0].time > t0:
        raise ValidationError(f"trace starts at {trace[0].time}, after t0={t0}")
    area = 0.0
    for i, s in enumerate(trace):
        seg_start = max(s.time, t0)
        seg_end = trace[i + 1].time if i + 1 < len(trace) else t1
        seg_end = min(seg_end, t1)
        if seg_end > seg_start:
            area += s.cpu_ratio * (seg_end - seg_start)
        if seg_end >= t1:
            break
    return area / (t1 - t0)


def cost_vs_baseline(cost: float, baseline_cost: float) -> float:
    """A run's total cost as a percentage of its baseline's; 100 when both are 0."""
    if baseline_cost == 0.0:
        if cost > 0.0:
            raise ValidationError("baseline run has zero cost but hybrid does not")
        return 100.0
    return 100.0 * cost / baseline_cost


_FLOAT = ".9g"  # every float the reports print


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, _FLOAT)
    return str(value)


def round9(value: float) -> float:
    """A float rounded to the 9 significant digits the reports print."""
    return float(format(value, _FLOAT))


_QUOTED = ',"\r\n'  # a str cell with none of these goes out as it is


def _plain(text: str) -> bool:
    return not any(map(text.__contains__, _QUOTED))


def _csv_cell(cell: str) -> str:
    """A str cell as csv.writer writes it between other cells."""
    if _plain(cell):
        return cell
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((cell,))
    return buf.getvalue()[:-1]


def _csv_lines(header: list[str], rows: list[tuple]) -> Iterator[str]:
    """The lines of a table of two or more columns, each row through one
    %-template built from its column kinds: a column of only floats prints
    _FLOAT, one of only ints or only strs prints as str does, and any other
    goes through _fmt. Str cells are quoted as csv.writer quotes them."""
    if len(header) < 2:  # csv.writer writes a lone empty cell as ""
        raise ValueError("a report table has two or more columns")
    cols: list = list(zip(*rows, strict=True))
    slots, recast = [], False
    for i, col in enumerate(cols):
        kinds = set(map(type, col))
        if kinds == {float}:
            slots.append("%" + _FLOAT)
            continue
        slots.append("%s")
        if kinds == {int}:
            continue
        if kinds != {str}:
            col = tuple(map(_fmt, col))
        if not _plain("".join(col)):
            col = tuple(map(_csv_cell, col))
        if col is not cols[i]:
            cols[i], recast = col, True
    if recast:
        rows = zip(*cols)
    return chain((",".join(map(_csv_cell, header)) + "\n",),
                 map((",".join(slots) + "\n").__mod__, rows))


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(_csv_lines(header, rows))


def arrivals_csv(report: RunReport) -> bytes:
    """The bytes of arrivals.csv, the same for every run of one schedule."""
    return "".join(_csv_lines(["time", "job_id", "template"], report.arrivals)).encode()


def write_json(path: Path, obj: dict) -> None:
    """Deterministic JSON: sorted keys, 2-space indent, LF, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_dict(report: RunReport, total_cost: float, deadline_met_fraction: float) -> dict:
    """The run's summary, with the report's total cost and fraction of
    deadlines met as the writer computed them from its rows."""
    return {
        "scenario_id": report.scenario_id,
        "mode": report.mode,
        "placement": report.placement,
        "job_count": len(report.job_outcomes),
        "total_cost": round9(total_cost),
        "mean_utilization": round9(report.mean_utilization),
        "peak_utilization": round9(report.peak_utilization),
        "deadline_met_fraction": round9(deadline_met_fraction),
        "end_time": round9(report.end_time),
        "horizon_reached": report.horizon_reached,
    }


def emit_report(report: RunReport, out_dir: str | Path, emit_plot_data: bool = False,
                arrivals: bytes | None = None) -> tuple[dict, float]:
    """Write the report as CSV files plus a JSON summary, and return the
    summary and the unrounded total cost it rounds, which equals the
    report's total_cost; with emit_plot_data, also three small ready-to-plot
    series taken from the same rows: utilization over time, cumulative cloud
    cost over time, and per-job durations. arrivals, when given, is arrivals_csv of a
    run of the same schedule, written as it is.

    Output is byte-deterministic: stable sort orders, 9-significant-digit
    floats, LF newlines, UTF-8, and nothing time-of-day dependent.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "arrivals.csv").write_bytes(arrivals_csv(report) if arrivals is None else arrivals)

    samples = [(s.time, s.allocated_cpu_millicores, s.capacity_cpu_millicores,
                s.allocated_memory_mb, s.capacity_memory_mb, s.cpu_ratio)
               for s in report.utilization]
    _write_csv(out / "utilization.csv",
               ["time", "allocated_cpu_millicores", "capacity_cpu_millicores",
                "allocated_memory_mb", "capacity_memory_mb", "cpu_utilization"], samples)

    # each cost read once; the total sums them in ledger order, as RunReport.total_cost does
    ledger = [(e.job_id, e.step_id, e.region, e.rcost_per_second, e.deploy_start, e.deploy_end,
               e.cost) for e in report.cost_ledger]
    total_cost = sum([row[6] for row in ledger])
    ledger.sort(key=itemgetter(0, 1, 4))  # by job_id, step_id and deploy_start
    _write_csv(out / "cost_ledger.csv", ["job_id", "step_id", "region", "rcost_per_second",
                                         "deploy_start", "deploy_end", "cost"], ledger)

    jobs = sorted(report.job_outcomes, key=attrgetter("arrival", "job_id"))
    outcomes = [(o.job_id, o.template, o.arrival, o.completion, duration, o.deadline, met,
                 miss_by, o.completed)
                for o, (duration, met, miss_by) in zip(jobs, map(JobOutcome.verdict, jobs))]
    _write_csv(out / "job_outcomes.csv", ["job_id", "template", "arrival", "completion",
                                          "duration", "deadline", "met", "miss_by", "completed"],
               outcomes)

    summary = summary_dict(report, total_cost, met_fraction([row[6] for row in outcomes]))
    write_json(out / "summary.json", summary)
    if not emit_plot_data:
        return summary, total_cost

    kept = samples[::max(1, len(samples) // 500)]
    if samples and kept[-1] is not samples[-1]:
        kept.append(samples[-1])
    _write_csv(out / "plot_utilization.csv", ["time", "cpu_utilization"],
               [(time, ratio) for time, *_, ratio in kept])

    running, cost = 0.0, []
    for end, c in sorted((end, c) for *_, end, c in ledger if c > 0):
        running += c
        cost.append((end, running))
    _write_csv(out / "plot_cost.csv", ["time", "cumulative_cost"], cost)

    _write_csv(out / "plot_durations.csv", ["job_id", "template", "duration", "deadline", "met"],
               [(job_id, template, duration, deadline, met)
                for job_id, template, _, _, duration, deadline, met, _, _ in outcomes])
    return summary, total_cost
