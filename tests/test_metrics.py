"""Utilization integration, cost accounting, outcome bookkeeping, and the
deterministic report files."""

import json
import math

import pytest

from hcs_sim import metrics
from hcs_sim.core_model import (
    BatchJob,
    InternalConsistencyError,
    PipelineDag,
    ResourceVector,
    StepSpec,
    ValidationError,
)
from hcs_sim.hcs_scheduler import HcsScheduler
from hcs_sim.metrics import (
    CostLedgerEntry,
    JobOutcome,
    RunReport,
    UtilizationSample,
    _write_csv,
    cost_vs_baseline,
    emit_report,
    round9,
    time_weighted_utilization,
)
from hcs_sim.placement import PlacementPlan
from hcs_sim.sim_engine import ExplicitArrivals, Scenario, run

from oracles import write_csv_per_cell, writer_mismatches


def sample(t: float, alloc: int, cap: int = 1000) -> UtilizationSample:
    return UtilizationSample(t, alloc, cap, alloc, cap)


def report(entries=(), outcomes=(), samples=(), end_time=100.0) -> RunReport:
    return RunReport("test", "cheapest_first", "ff", [], list(samples),
                     list(entries), list(outcomes), end_time)


def cloud_entry(job: str, step: str, rate: float, t0: float, t1: float) -> CostLedgerEntry:
    return CostLedgerEntry(job, step, "cloud", rate, t0, t1)


class TestTimeWeightedUtilization:
    def test_zero_allocation_throughout(self):
        trace = [sample(0.0, 0)]
        assert time_weighted_utilization(trace, 0.0, 50.0) == 0.0

    def test_half_full_half_idle(self):
        trace = [sample(0.0, 1000), sample(5.0, 0)]
        assert time_weighted_utilization(trace, 0.0, 10.0) == pytest.approx(0.5)

    def test_constant_ninety_percent(self):
        trace = [sample(0.0, 900)]
        assert time_weighted_utilization(trace, 0.0, 77.0) == pytest.approx(0.9)

    def test_piecewise_hand_computed(self):
        # ratios: 0.25 on [1,2), 0.75 on [2,6), 0.5 on [6,9) over [1,9]
        trace = [sample(0.0, 250), sample(2.0, 750), sample(6.0, 500)]
        expected = (0.25 * 1 + 0.75 * 4 + 0.5 * 3) / 8
        assert expected == 0.59375
        assert time_weighted_utilization(trace, 1.0, 9.0) == pytest.approx(0.59375)

    def test_samples_past_window_ignored(self):
        trace = [sample(0.0, 1000), sample(10.0, 0), sample(20.0, 1000)]
        assert time_weighted_utilization(trace, 0.0, 10.0) == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            time_weighted_utilization([], 0.0, 1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValidationError):
            time_weighted_utilization([sample(0.0, 0)], 5.0, 5.0)

    def test_uncovered_start_rejected(self):
        with pytest.raises(ValidationError):
            time_weighted_utilization([sample(10.0, 0)], 0.0, 20.0)

    def test_random_traces_stay_in_unit_interval(self):
        import random
        rng = random.Random(7)
        for _ in range(50):
            trace = []
            t = 0.0
            for _ in range(rng.randint(1, 20)):
                trace.append(sample(t, rng.randint(0, 1000)))
                t += rng.uniform(0.1, 5.0)
            u = time_weighted_utilization(trace, 0.0, t + 1.0)
            assert 0.0 <= u <= 1.0


class TestCostLedger:
    def test_cloud_cost_is_rate_times_interval(self):
        e = cloud_entry("j", "s", 1025.6, 30.0, 130.0)
        assert e.cost == pytest.approx(1025.6 * 100.0, rel=1e-9)

    def test_edge_entries_are_free(self):
        e = CostLedgerEntry("j", "s", "edge", 1025.6, 30.0, 130.0)
        assert e.cost == 0.0

    def test_open_entry_has_no_cost(self):
        e = CostLedgerEntry("j", "s", "cloud", 1.0, 0.0)
        with pytest.raises(InternalConsistencyError):
            _ = e.cost


class TestCostVsBaseline:
    """It takes the two runs' totals, as RunReport.total_cost gives them."""

    def test_identical_reports_are_100_percent(self):
        r = report(entries=[cloud_entry("j", "s", 10.0, 0.0, 10.0)])
        assert cost_vs_baseline(r.total_cost, r.total_cost) == pytest.approx(100.0)

    def test_thirteen_percent(self):
        hybrid = report(entries=[cloud_entry("j", "s", 1.0, 0.0, 13.0)])
        base = report(entries=[cloud_entry("j", "s", 1.0, 0.0, 100.0)])
        assert cost_vs_baseline(hybrid.total_cost, base.total_cost) == pytest.approx(13.0)

    def test_all_edge_is_zero_percent(self):
        hybrid = report(entries=[CostLedgerEntry("j", "s", "edge", 5.0, 0.0, 10.0)])
        base = report(entries=[cloud_entry("j", "s", 5.0, 0.0, 10.0)])
        assert cost_vs_baseline(hybrid.total_cost, base.total_cost) == 0.0

    def test_zero_baseline_zero_hybrid(self):
        assert cost_vs_baseline(report().total_cost, report().total_cost) == 100.0

    def test_zero_baseline_nonzero_hybrid_rejected(self):
        hybrid = report(entries=[cloud_entry("j", "s", 1.0, 0.0, 1.0)])
        with pytest.raises(ValidationError):
            cost_vs_baseline(hybrid.total_cost, report().total_cost)


class TestJobOutcome:
    def test_met_iff_duration_within_deadline(self):
        on_time = JobOutcome("j", "t", 10.0, 40.0, deadline=30.0)
        assert on_time.met and on_time.miss_by == 0.0
        late = JobOutcome("j", "t", 10.0, 70.5, deadline=30.0)
        assert not late.met
        assert late.miss_by == pytest.approx(30.5)

    def test_incomplete_job_never_met(self):
        o = JobOutcome("j", "t", 10.0, 20.0, deadline=300.0, completed=False)
        assert not o.met
        assert o.miss_by == 0.0  # it had not yet exceeded the deadline

    def test_bookkeeping_sums_to_job_count(self):
        outs = [JobOutcome(f"j{i}", "t", 0.0, 10.0 * i, deadline=25.0) for i in range(5)]
        r = report(outcomes=outs)
        met = sum(1 for o in outs if o.met)
        missed = sum(1 for o in outs if not o.met)
        assert met + missed == 5
        assert r.deadline_met_fraction == pytest.approx(met / 5)


class TestRunReport:
    def test_total_cost_is_ledger_sum(self):
        entries = [cloud_entry("a", "s", 2.0, 0.0, 5.0),
                   CostLedgerEntry("b", "s", "edge", 9.0, 0.0, 100.0),
                   cloud_entry("c", "s", 1.5, 10.0, 14.0)]
        assert report(entries=entries).total_cost == pytest.approx(2.0 * 5 + 1.5 * 4)

    def test_mean_counts_time_before_first_sample_as_idle(self):
        # fully allocated from t=10 to end 20, nothing before: mean 0.5
        r = report(samples=[sample(10.0, 1000)], end_time=20.0)
        assert r.mean_utilization == pytest.approx(0.5)
        assert r.peak_utilization == pytest.approx(1.0)

    def test_empty_report(self):
        r = report(end_time=0.0)
        assert r.total_cost == 0.0
        assert r.mean_utilization == 0.0
        assert r.peak_utilization == 0.0
        assert r.deadline_met_fraction == 1.0


class TestEmitReport:
    def full_report(self) -> RunReport:
        entries = [cloud_entry("b-job", "s1", 3.0, 40.0, 90.0),
                   cloud_entry("a-job", "s2", 1.0 / 3.0, 60.0, 61.0),
                   CostLedgerEntry("a-job", "s1", "edge", 2.0, 30.0, 60.0)]
        outs = [JobOutcome("b-job", "beta", 12.0, 90.0, deadline=100.0),
                JobOutcome("a-job", "alpha", 5.0, 61.0, deadline=50.0)]
        samples = [sample(30.0, 500), sample(60.0, 0)]
        arrivals = [(5.0, "a-job", "alpha"), (12.0, "b-job", "beta")]
        return RunReport("demo", "cheapest_first", "bf", arrivals, samples,
                         entries, outs, 90.0)

    def test_empty_run_emits_headers_only(self, tmp_path):
        summary, total_cost = emit_report(report(end_time=0.0), tmp_path)
        assert summary == json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert total_cost == 0.0
        assert {p.name for p in tmp_path.iterdir()} == {
            "arrivals.csv", "utilization.csv", "cost_ledger.csv", "job_outcomes.csv",
            "summary.json"}
        for name in ("arrivals.csv", "utilization.csv", "cost_ledger.csv",
                     "job_outcomes.csv"):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            assert len(lines) == 1  # header only
        summary = (tmp_path / "summary.json").read_text(encoding="utf-8")
        assert '"total_cost": 0' in summary

    @pytest.mark.parametrize("plot", [False, True])
    def test_returns_the_unrounded_total_it_rounds(self, tmp_path, plot):
        r = self.full_report()
        summary, total_cost = emit_report(r, tmp_path, emit_plot_data=plot)
        assert total_cost == r.total_cost == 3.0 * 50 + 1.0 / 3.0
        assert summary["total_cost"] == round9(total_cost) != total_cost

    def test_emitted_twice_is_byte_identical(self, tmp_path):
        r = self.full_report()
        emit_report(r, tmp_path / "one")
        emit_report(r, tmp_path / "two")
        for name in ("arrivals.csv", "utilization.csv", "cost_ledger.csv",
                     "job_outcomes.csv", "summary.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b
            assert b"\r" not in a  # LF only

    def test_ledger_rows_sorted_by_job_step_start(self, tmp_path):
        emit_report(self.full_report(), tmp_path)
        lines = (tmp_path / "cost_ledger.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        firsts = [ln.split(",")[:2] for ln in lines[1:]]
        assert firsts == [["a-job", "s1"], ["a-job", "s2"], ["b-job", "s1"]]

    def test_floats_printed_with_nine_significant_digits(self, tmp_path):
        emit_report(self.full_report(), tmp_path)
        text = (tmp_path / "cost_ledger.csv").read_text(encoding="utf-8")
        assert "0.333333333" in text  # 1/3 rcost

    def test_plot_data_flag_adds_series(self, tmp_path):
        emit_report(self.full_report(), tmp_path, emit_plot_data=True)
        names = {p.name for p in tmp_path.iterdir()}
        assert {"plot_utilization.csv", "plot_cost.csv", "plot_durations.csv"} <= names
        cost_lines = (tmp_path / "plot_cost.csv").read_text(encoding="utf-8").splitlines()
        # cumulative: 1/3 at t=61, then +150 at t=90
        assert cost_lines[-1].split(",")[1] == format(1.0 / 3.0 + 150.0, ".9g")

    @pytest.mark.parametrize("rows", [
        [(True, 3, -0.0, 'a, "b"', 1, None),
         (False, -7, 1e-10, "plain", 2.5, 0.1),
         (True, 0, 123456789.5, "", 4, "x")],
        [],
    ])
    def test_column_writer_matches_the_per_cell_writer(self, tmp_path, rows):
        header = ["flag", "count", "value", "label", "mixed", "other"]
        _write_csv(tmp_path / "columns.csv", header, rows)
        write_csv_per_cell(tmp_path / "cells.csv", header, rows)
        assert ((tmp_path / "columns.csv").read_bytes()
                == (tmp_path / "cells.csv").read_bytes())

    def test_column_writer_matches_the_per_cell_writer_on_random_tables(self):
        assert writer_mismatches(range(300)) == []

    def test_integer_deadline_stays_an_integer(self, tmp_path):
        _write_csv(tmp_path / "t.csv", ["deadline", "value"], [(10 ** 10, 1e10), (7, 0.5)])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == (
            "deadline,value\n10000000000,1e+10\n7,0.5\n")

    def test_one_column_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(tmp_path / "t.csv", ["only"], [("",)])

    def test_emit_report_matches_the_per_cell_writer(self, tmp_path, monkeypatch):
        """Template and step ids with a comma, quotes and a newline, through
        every report file, edge and cloud entries, met and missed deadlines."""
        odd = 'w,"x"\ny'
        steps = [StepSpec(f"{odd}{i}", ResourceVector(1000, 256), 2, 1.0) for i in range(2)]
        dag = PipelineDag(steps, [(steps[0].step_id, steps[1].step_id)])
        r = run(Scenario(odd, (ResourceVector(2000, 2048),), {odd: BatchJob(odd, dag, 6, 5)},
                         ExplicitArrivals((0.0, 0.5, 1.0, 7.5)),
                         round_length=1.0, eviction_deadline=1.0))
        assert {e.region for e in r.cost_ledger} == {"edge", "cloud"}
        assert {o.met for o in r.job_outcomes} == {True, False}
        emit_report(r, tmp_path / "columns", emit_plot_data=True)
        monkeypatch.setattr(metrics, "_write_csv", write_csv_per_cell)
        emit_report(r, tmp_path / "cells", emit_plot_data=True)
        written = sorted(p.name for p in (tmp_path / "columns").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "cells").iterdir())
        for name in written:
            assert (tmp_path / "columns" / name).read_bytes() == (
                tmp_path / "cells" / name).read_bytes()
        assert len(written) == 8
        assert '"w,""x""\ny-0000"' in (tmp_path / "columns" / "job_outcomes.csv").read_text(
            encoding="utf-8")

    def test_open_entry_fails_the_report(self, tmp_path):
        r = report(entries=[CostLedgerEntry("j", "s", "cloud", 1.0, 0.0)])
        with pytest.raises(InternalConsistencyError):
            emit_report(r, tmp_path)

    def test_outcomes_sorted_by_arrival(self, tmp_path):
        emit_report(self.full_report(), tmp_path)
        lines = (tmp_path / "job_outcomes.csv").read_text(encoding="utf-8").splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["a-job", "b-job"]


class TestUtilizationInvariant:
    def test_dead_nodes_leave_the_denominator(self):
        sched = HcsScheduler([ResourceVector(1000, 1000), ResourceVector(1000, 1000)])
        assert UtilizationSample(1.0, *sched.edge_usage()).capacity_cpu_millicores == 2000
        sched.handle_node_failure(1)
        assert UtilizationSample(2.0, *sched.edge_usage()).capacity_cpu_millicores == 1000

    def test_samples_never_exceed_capacity(self):
        sched = HcsScheduler([ResourceVector(1000, 2000)])
        sched._hold(("j", "s"), PlacementPlan(StepSpec("s", ResourceVector(1000, 2000), 1, 1.0),
                                              nodes={0: 1}))
        s = UtilizationSample(1.0, *sched.edge_usage())
        assert s.cpu_ratio <= 1.0
        assert s.allocated_memory_mb <= s.capacity_memory_mb
        assert math.isclose(s.cpu_ratio, 1.0)
