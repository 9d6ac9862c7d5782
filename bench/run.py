"""seclink benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload web-checked --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports seclink from its `src/`.  The
run sets seclink up, builds the workload's cycle of scenarios from the
seed, and plays the cycle again and again in this one thread, each
scenario starting when the last one ended: MIN_PLAYS times, then for as
many whole plays as end nearest to `--seconds`.  Every output is checked
against the benchmark's own oracle.  The last line printed is one JSON
object: with `--trace 0` it holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced replay (see traced.py and
README.md).

A scenario's time is the fastest of its plays (a scenario that takes well
under a millisecond is timed as a unit of `repeat` back-to-back runs and
counts the unit's time / `repeat`).  On a shared host, load from other
tenants slows the CPU for seconds or minutes at a time, at worst to half
its speed, and such interference only ever slows a play down; the
fastest of plays spread over the whole run is the steadiest estimate of
a scenario's cost (on a 2-vCPU virtual machine its spread over ten runs
was about half that of the median of plays).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PLAYS = 3
# A set-up runs between scenarios once this many seconds have passed since
# the last one, so that set-ups sample the whole run; any still short of
# MIN_SETUPS run at the end.
SETUP_EVERY_S = 1.0
MIN_SETUPS = 9
MODULES = (
    "contracts",
    "ctxdsl",
    "effects",
    "httputil",
    "interp",
    "linker",
    "traces",
    "validate",
    "worlds",
    "demos.harness",
    "demos.webserver",
    "demos.ziplib",
)


def import_seclink():
    """A fresh import of seclink from this checkout's src/."""
    for name in [m for m in sys.modules if m == "seclink" or m.startswith("seclink.")]:
        del sys.modules[name]
    package = importlib.import_module("seclink")
    if Path(package.__file__).resolve().parent != SRC / "seclink":
        raise ImportError(f"seclink imported from {package.__file__}, not from {SRC}")
    sl = types.SimpleNamespace()
    for name in MODULES:
        setattr(sl, name.rsplit(".", 1)[-1], importlib.import_module("seclink." + name))
    return sl


def timed_setup(workload, seed, tracer=None):
    """Import seclink, then build bundles and load and link the plugins;
    timed from a collected heap, like a scenario."""
    gc.collect()
    start = time.perf_counter()
    sl = import_seclink()
    if tracer is not None:
        tracer.install(sl)
    state = workload.setup(sl, tracer, seed)
    return time.perf_counter() - start, state


def build_cycle(workload, state, seed):
    return workload.cycle(state, random.Random(f"seclink-bench:{seed}"))


def new_records(cycle):
    return [
        {
            "label": s.label,
            "size": s.size,
            "on_ladder": s.on_ladder,
            "misbehaving": s.misbehaving,
            "scenario": i,
            "seconds": [],
            "failures": [],
            "events": None,
        }
        for i, s in enumerate(cycle)
    ]


def play(cycle, records, tracer=None, between=None):
    """Play every scenario of the cycle once; `between()` runs after each
    scenario, outside its timing."""
    for i, scenario in enumerate(cycle):
        record = records[i]
        gc.collect()
        if tracer is not None:
            tracer.scenario = i
        start = time.perf_counter()
        try:
            outs = [scenario.run() for _ in range(scenario.repeat)]
        except Exception as exc:  # a plugin fault that escaped seclink
            record["failures"].append(("raised", f"{type(exc).__name__}: {exc}"))
        else:
            elapsed = (time.perf_counter() - start) / scenario.repeat
            error = next(filter(None, map(scenario.check, outs)), None)
            if error is not None:
                record["failures"].append(("mismatch", error))
            else:
                record["seconds"].append(elapsed)
                record["events"] = scenario.events(outs[-1])
        if between is not None:
            between()


def run_plays(cycle, records, *, seconds, between=None):
    """Play the cycle MIN_PLAYS times, then on while another play, as long
    as the last, would end nearer to `seconds` after the start."""
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        begun = time.perf_counter()
        play(cycle, records, between=between)
        done += 1
        now = time.perf_counter()
        if done >= MIN_PLAYS and now + (now - begun) / 2 >= deadline:
            return done


def passed(records):
    """Scenarios that passed on every play, with their fastest time."""
    return [dict(r, time=min(r["seconds"])) for r in records if r["seconds"] and not r["failures"]]


def outcome(records):
    attempted = sum(len(r["seconds"]) + len(r["failures"]) for r in records)
    failures = [(r, f) for r in records for f in r["failures"]]
    # Misbehaving plugins that crash seclink are the known, counted defect;
    # any other failure is a wrong output.
    correct = all(kind == "raised" and r["misbehaving"] for r, (kind, _why) in failures)
    return attempted, failures, correct


def result(records, metrics):
    """The JSON object a run prints last."""
    attempted, failures, correct = outcome(records)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def nearest_rank(sorted_values, p):
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten scenarios beyond it."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def growth_exponent(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _t in points]
    ys = [math.log(t) for _size, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def end_to_end(records, setup_times):
    ok = passed(records)
    times = sorted(r["time"] for r in ok)
    attempted, failures, _correct = outcome(records)
    tail_p = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "events_per_s": (sum(r["events"] for r in ok) / sum(times), "events/s"),
        "scenario_ms_p50": (1000 * nearest_rank(times, 50), "ms"),
        "scenario_ms_tail": (1000 * nearest_rank(times, tail_p), "ms"),
        "cost_growth_exponent": (
            growth_exponent([(r["size"], r["time"]) for r in ok if r["on_ladder"]]),
            "slope",
        ),
        "failed_frac": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"plays: {attempted} attempted, {len(failures)} failed",
        f"scenario_ms_tail is p{tail_p} over {len(times)} scenarios that passed",
        f"setup_s is the median of {len(setup_times)} set-ups: " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, notes


def report(records):
    attempted, failures, _correct = outcome(records)
    kinds = {}
    for r, (kind, why) in failures:
        kinds.setdefault((kind, r["misbehaving"], why.split(":")[0]), []).append((r, why))
    for (kind, misbehaving, what), rs in sorted(kinds.items()):
        plugin = "misbehaving plugin" if misbehaving else "shipped or generated plugin"
        print(f"  {len(rs)} x {kind} ({plugin}): {what} -- e.g. {rs[0][0]['label']}: {rs[0][1]}")
    sizes = {}
    for r in passed(records):
        if r["on_ladder"]:
            sizes.setdefault(r["size"], []).append(r)
    for size, rs in sorted(sizes.items()):
        us = 1e6 * sum(r["time"] for r in rs) / sum(r["events"] for r in rs)
        print(f"  size {size:>5}: {len(rs):>4} scenarios, {us:8.1f} us/event")


def measure(workload, seed, seconds):
    setup_times = []
    last_setup = [time.perf_counter()]

    def setup_again(force=False):
        if force or time.perf_counter() - last_setup[0] >= SETUP_EVERY_S:
            setup_times.append(timed_setup(workload, seed)[0])
            last_setup[0] = time.perf_counter()

    setup_s, state = timed_setup(workload, seed)
    setup_times.append(setup_s)
    cycle = build_cycle(workload, state, seed)
    records = new_records(cycle)
    plays = run_plays(cycle, records, seconds=seconds, between=setup_again)
    while len(setup_times) < MIN_SETUPS:
        setup_again(force=True)
    print(f"workload {workload.name}, seed {seed}: {len(cycle)} scenarios, {plays} plays")
    report(records)
    if not passed(records):
        print("error: no scenario passed", file=sys.stderr)
        return None
    metrics, notes = end_to_end(records, setup_times)
    for line in notes:
        print("  " + line)
    return result(records, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seclink" / "__init__.py").is_file():
        print(f"error: no seclink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        import traced

        result = traced.run(workload, args.seed, args.seconds)
    else:
        result = measure(workload, args.seed, args.seconds)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
