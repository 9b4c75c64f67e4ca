"""Checked runs at benchmark scale: each perfbench workload, built at its
default seed, run through tests/oracles.CheckedEngine in every mode its
command runs.

For each workload it checks that
- the loader and the per-object diagnostic path read the same faults;
- the scheduler's books hold after every instant, first-fit starts hold where
  they are used, served projections equal a walk, and each touched driver's
  completion count and service times hold (CheckedEngine raises otherwise);
- `wide` makes bounded first-fit calls and serves projections, and `faulty`
  checks driver states, so none of those checks runs empty;
- `wide`'s round memos skip at least one try; for each mode it prints the
  free-room tries, eviction tries and memo skips that CheckedEngine counts;
- on `reference`, the job-by-job cloud-only run of `run()` equals the event
  loop's, and computes some jobs alike in template and round once: it prints
  the drivers it built and the jobs served without one, and fails if none was.

Run from a checkout with

    PYTHONPATH=src:tests:perfbench python tests/checked_runs.py

It prints one line per workload and mode, and exits 1 with the reason at the
first check that fails. Its name keeps pytest from collecting it.
"""

import heapq
import json
import sys
import tempfile
import time
from pathlib import Path

from hcs_sim import SchedulerMode, generate_arrivals, run, sim_engine
from hcs_sim.cli import load_scenario
from hcs_sim.pipeline_driver import PipelineDriver
from hcs_sim.sim_engine import _Engine
from oracles import CheckedEngine, faults_per_object
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    real_pop, popped = heapq.heappop, [0]

    def counting_pop(heap):
        popped[0] += 1
        return real_pop(heap)

    heapq.heappop = counting_pop  # events a run handles, counted as popped
    built = [0]

    class CountedDriver(PipelineDriver):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    # the job-by-job path builds its drivers through this name; _Engine does not
    sim_engine.PipelineDriver = CountedDriver
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(workload.build(DEFAULT_SEED)), encoding="utf-8")
            scenario, _ = load_scenario(path)
            # every fault object read by _Check alone must give the same Scenario
            objects = json.loads(path.read_text(encoding="utf-8")).get("faults") or []
            faults, problems = faults_per_object(objects)
            if problems or repr(scenario.replace(faults=faults)) != repr(scenario):
                sys.exit(f"{name}: load_scenario and the per-object path read different faults")
            print(f"{name}: {len(faults)} faults, the same Scenario read both ways")
            arrivals = generate_arrivals(scenario.arrivals, scenario.catalog)
            # the modes the workload command runs: baseline runs both
            modes = (list(SchedulerMode) if workload.command == "baseline"
                     else [scenario.mode])
            for mode in modes:
                start = time.perf_counter()
                engine = CheckedEngine(scenario.replace(mode=mode), arrivals)
                engine.run()
                tries = engine.round_tries
                skips = tries["room_skips"] + tries["victim_skips"]
                print(f"{name} {mode.value}: books checked after every instant, "
                      f"{engine.bounded_first_fits} bounded first-fit calls checked, "
                      f"{engine.served_projections} served projections checked, "
                      f"{engine.completion_checks} driver states checked, "
                      f"{tries['room']} free-room tries, {tries['evict']} eviction tries, "
                      f"{skips} memo skips, "
                      f"in {time.perf_counter() - start:.2f} s")
                if name == "wide" and not engine.bounded_first_fits:
                    sys.exit("wide: no first-fit call started past node 0, so none was checked")
                if name == "wide" and not engine.served_projections:
                    sys.exit("wide: the projection memo served no plan, so none was checked")
                if name == "wide" and not skips:
                    sys.exit("wide: the round memos skipped no try")
                if name == "faulty" and not engine.completion_checks:
                    sys.exit("faulty: no driver state was checked")
            if name == "reference":
                # fault-free and without a horizon: run() computes it job by job
                cloud = scenario.replace(mode=SchedulerMode.CLOUD_ONLY)
                counts, built[0] = [], 0
                for compute in (lambda: run(cloud, arrivals),
                                lambda: _Engine(cloud, arrivals).run()):
                    popped[0] = 0
                    counts.append((compute(), popped[0]))
                (fast, fast_events), (loop, loop_events) = counts
                drivers = built[0]
                print(f"reference cloud_only: run() handled {fast_events} events, "
                      f"_Engine {loop_events}; run() built {drivers} drivers and served "
                      f"{len(arrivals) - drivers} of {len(arrivals)} jobs without one")
                if fast != loop:
                    sys.exit("reference cloud_only: run() and _Engine(...).run() differ")
                if drivers >= len(arrivals):
                    sys.exit("reference cloud_only: run() served no job without a driver")


if __name__ == "__main__":
    main()
