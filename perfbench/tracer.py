"""Outside-in layer tracing for one hcs-sim process.

Wraps the package's public entry points at the place each caller looks them
up (module globals imported by name, class attributes for methods), so the
package itself is never edited. Spans are aggregated per (name, parent) in
memory; a span's self time is its total minus the time of its child spans.
Counters are deterministic: they must repeat exactly between two runs.

An entry point that no longer exists is reported in `absent` instead of
failing, so a later change to the package does not break the benchmark.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from types import SimpleNamespace

# Spans are named "<layer>.<what>", the layer being the hcs_sim module.
INTERRUPTS = ("on_eviction_notice", "switch_at_expiry", "redeploy",
              "resume_from_journal")
LIFECYCLE = ("complete_step", "expire_eviction", "activate_reservation",
             "handle_node_failure")
DIRECTIVE_NAMES = {"DeployEdge": "deploy_edge", "DeployCloud": "deploy_cloud",
                   "Evict": "evict"}


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, child_s]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack = [["<root>", 0.0]]

    # -- wrapping ----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Return fn wrapped in a span; on_result(result) runs after it."""
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.span(name, fn, on_result))

    def count_calls(self, owner, attr: str, name: str, falsy_name: str | None = None) -> None:
        """Replace owner.attr by a counting-only wrapper (no timing)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        counts = self.counts

        if falsy_name is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if not result:
                    counts[falsy_name] += 1
                return result
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    # -- installation --------------------------------------------------------

    def install(self, cli, sim_engine, hcs_scheduler) -> None:
        """Wrap every traced entry point of the hcs_sim modules given."""
        counts = self.counts

        def count_directives(decision):
            for d in getattr(decision, "directives", ()):
                kind = DIRECTIVE_NAMES.get(type(d).__name__, type(d).__name__)
                counts[f"hcs_scheduler.directives.{kind}"] += 1

        def count_plan(result):
            plan = result[0] if isinstance(result, tuple) else result
            if plan is not None:
                counts["placement.try_place_free.fits"] += 1

        # cli: what main() looks up in its own module
        self.patch(cli, "load_scenario", "cli.load_scenario")
        self.patch(cli, "generate_arrivals", "sim_engine.generate_arrivals")
        self.patch(cli, "run", "sim_engine.run")
        self.patch(cli, "emit_report", "metrics.emit_report")
        self.patch(cli, "summary_dict", "metrics.summary_dict")
        self.patch(cli, "write_json", "metrics.write_json")
        self.patch(cli, "cost_vs_baseline", "metrics.cost_vs_baseline")

        # sim_engine: its own lookups, its heap and the classes it instantiates
        self.patch(sim_engine, "generate_arrivals", "sim_engine.generate_arrivals")
        real_pop = heapq.heappop

        def heappop(heap):
            item = real_pop(heap)
            counts[("event", item[1])] += 1
            return item

        if hasattr(sim_engine, "heapq"):
            shim = SimpleNamespace(**{k: v for k, v in vars(heapq).items()
                                      if not k.startswith("__")})
            shim.heappop = heappop
            sim_engine.heapq = shim
        else:
            self.absent.append("hcs_sim.sim_engine.heapq")

        driver = getattr(sim_engine, "PipelineDriver", None)
        if driver is None:
            self.absent.append("hcs_sim.sim_engine.PipelineDriver")
        else:
            self.patch(driver, "__init__", "pipeline_driver.init")
            self.patch(driver, "on_deploy", "pipeline_driver.on_deploy")
            self.patch(driver, "on_fragment_complete", "pipeline_driver.on_fragment_complete")
            self.count_calls(driver, "is_current_completion",
                             "pipeline_driver.is_current_completion",
                             "pipeline_driver.is_current_completion.stale")
            for method in INTERRUPTS:
                self.patch(driver, method, f"pipeline_driver.interrupts.{method}")

        sched = getattr(sim_engine, "HcsScheduler", None)
        if sched is None:
            self.absent.append("hcs_sim.sim_engine.HcsScheduler")
        else:
            self.patch(sched, "run_round", "hcs_scheduler.run_round", count_directives)
            self.patch(sched, "submit_request", "hcs_scheduler.submit_request")
            for method in LIFECYCLE:
                self.patch(sched, method, f"hcs_scheduler.lifecycle.{method}",
                           count_directives if method == "handle_node_failure" else None)

        collector = getattr(sim_engine, "MetricsCollector", None)
        if collector is None:
            self.absent.append("hcs_sim.sim_engine.MetricsCollector")
        else:
            self.patch(collector, "sample", "metrics.sample")
            self.patch(collector, "open_entry", "metrics.collector.open_entry")
            for method in ("close_entry", "record_outcome", "close_all"):
                self.patch(collector, method, f"metrics.collector.{method}")

        # hcs_scheduler: placement and the cost model, imported there by name
        self.patch(hcs_scheduler, "try_place_free", "placement.try_place_free", count_plan)
        self.patch(hcs_scheduler, "apply_plan", "placement.apply_release.apply_plan")
        self.patch(hcs_scheduler, "release", "placement.apply_release.release")
        self.count_calls(hcs_scheduler, "rcost", "core_model.rcost")

    # -- results ---------------------------------------------------------------

    def report(self, event_names: dict[int, str]) -> dict:
        """Spans, counters and the absent list as one JSON-ready dict."""
        counts = {}
        for key, value in self.counts.items():
            if isinstance(key, tuple):
                key = "sim_engine.events." + event_names.get(key[1], str(key[1]))
            counts[key] = value
        spans = [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": t - ch}
                 for (n, p), (c, t, ch) in sorted(self.spans.items())]
        return {"spans": spans, "counts": counts, "absent": sorted(self.absent)}
