"""One hcs-sim command in a fresh process, timed from the outside.

Usage: python3 perfbench/child.py RESULT_JSON SPAWN_MONOTONIC TRACE -- ARGV...

Imports hcs_sim from the checkout's src/, runs `hcs_sim.cli.main(ARGV)` and
writes its timings (and, with TRACE=1, the layer trace) to RESULT_JSON.
Times are reported raw (`*_raw_s`) and rescaled to the reference host speed
by the probe in hostspeed.py. Run by perfbench/run.py, one child at a time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    result_path, spawned, trace = argv[0], float(argv[1]), argv[2] == "1"
    command = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    import hcs_sim.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"hcs_sim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    loaded_at: list[float] = []
    tracer = None
    if trace:
        import hcs_sim.hcs_scheduler as hcs_scheduler
        import hcs_sim.sim_engine as sim_engine
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, sim_engine, hcs_scheduler)
    load = cli.load_scenario

    def timed_load(*args, **kwargs):
        res = load(*args, **kwargs)
        loaded_at.append(time.monotonic())
        return res

    cli.load_scenario = timed_load
    entry = cli.main if tracer is None else tracer.span("cli.main", cli.main)

    cpu0 = _cpu_s()
    t0 = time.monotonic()
    code = entry(command)
    t1 = time.monotonic()
    cpu = _cpu_s() - cpu0
    probe.stop()

    wall = probe.scaled(t0, t1)
    out = {
        "exit_code": code,
        "wall_s": wall,
        "wall_raw_s": t1 - t0,
        "cpu_s": cpu * wall / (t1 - t0),
        "cpu_raw_s": cpu,
        "setup_s": probe.scaled(spawned, loaded_at[0]) if loaded_at else None,
        "setup_raw_s": loaded_at[0] - spawned if loaded_at else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed_scale": wall / (t1 - t0),
    }
    if tracer is not None:
        kinds = getattr(sys.modules["hcs_sim.sim_engine"], "EventKind", None)
        names = {int(k): k.name for k in kinds} if kinds is not None else {}
        out["trace"] = tracer.report(names)
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0 if code == 0 else 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
