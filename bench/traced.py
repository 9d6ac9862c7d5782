"""The traced run (`--trace 1`): per-layer metrics and the tracing overhead.

It sets seclink up twice, once plainly and once with every layer wrapped
(see tracing.py), builds the same cycle on each, and plays the two cycles
in turn until `--seconds` have passed and each has played MIN_PLAYS
times.  The per-layer metrics are per traced play, so they do not depend
on how many plays fit in the run; the `setup.` metrics come from the
traced set-up alone.  The ratio of the scenarios' fastest traced and
untraced times gives `bench.trace_overhead_frac`.
"""

from __future__ import annotations

import time
from collections import defaultdict

import run as bench
from tracing import NAME, NOTE, SCENARIO, Tracer

# layer spans that run inside interpret
INSIDE_INTERP = ("worlds.step", "monitor.abstracts", "monitor.upd", "monitor.policy", "contracts.check")


def run(workload, seed, seconds):
    _setup, state = bench.timed_setup(workload, seed)
    plain_cycle = bench.build_cycle(workload, state, seed)
    plain = bench.new_records(plain_cycle)

    tracer = Tracer()
    _setup, state = bench.timed_setup(workload, seed, tracer)
    cycle = bench.build_cycle(workload, state, seed)
    records = bench.new_records(cycle)
    deadline = time.perf_counter() + seconds
    plays = 0
    while plays < bench.MIN_PLAYS or time.perf_counter() < deadline:
        bench.play(plain_cycle, plain)
        bench.play(cycle, records, tracer)
        plays += 1
    untraced = {r["scenario"]: r["time"] for r in bench.passed(plain)}
    both = [r for r in bench.passed(records) if r["scenario"] in untraced]
    overhead = sum(r["time"] for r in both) / sum(untraced[r["scenario"]] for r in both) - 1

    bench.OUT_DIR.mkdir(exist_ok=True)
    spans_path = bench.OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_path)

    metrics = layer_metrics(tracer, records, plays, overhead)
    print(f"workload {workload.name}, seed {seed}: {len(cycle)} scenarios, {plays} plays traced")
    print(f"  spans in {spans_path}")
    print_layers(tracer, records)
    print_sizes(tracer, records, plays)
    return bench.result(records, metrics)


def _ratio(a, b):
    return a / b if b else 0.0


def ladder_runs(tracer, records):
    """size -> (interpret seconds, events) over the ladder scenarios that passed."""
    size_of = {r["scenario"]: r["size"] for r in bench.passed(records) if r["on_ladder"]}
    out = defaultdict(lambda: [0.0, 0])
    for scenario, seconds, events in tracer.scenario_runs():
        if scenario in size_of:
            acc = out[size_of[scenario]]
            acc[0] += seconds
            acc[1] += events
    return dict(sorted(out.items()))


def _setup_layers(t):
    """ctxdsl and linker figures of one set-up."""
    return {
        "ctxdsl.loads": (t["ctxdsl.load"]["calls"], "count"),
        "ctxdsl.source_bytes": (t["ctxdsl.load"]["note"], "bytes"),
        "ctxdsl.parse_s": (t["ctxdsl.parse"]["self_s"], "s"),
        "ctxdsl.typecheck_s": (t["ctxdsl.typecheck"]["self_s"], "s"),
        "ctxdsl.translate_s": (t["ctxdsl.translate"]["self_s"], "s"),
        "linker.links": (t["linker.link"]["calls"], "count"),
        "linker.link_s": (t["linker.link"]["self_s"] + t["linker.compile"]["self_s"], "s"),
    }


def layer_metrics(tracer, records, plays, overhead):
    """Per-layer metrics: counts and times per traced play (set-up spans
    left out), ratios over all traced plays, and `setup.` figures of the
    traced set-up."""
    t = tracer.totals(lambda rec: rec[SCENARIO] != "setup")
    def notes(name):
        return [rec[NOTE] for rec in tracer.spans if rec[NAME] == name and rec[NOTE] and rec[SCENARIO] != "setup"]

    interp_notes = notes("interp.run")
    events = sum(n[0] for n in interp_notes)
    ladder = ladder_runs(tracer, records)
    smallest = ladder[min(ladder)] if ladder else (0.0, 0)
    largest = ladder[max(ladder)] if ladder else (0.0, 0)
    interp = t["interp.run"]
    played = {
        "monitor.abstracts_calls": (t["monitor.abstracts"]["calls"], "count"),
        "monitor.abstracts_s": (t["monitor.abstracts"]["self_s"], "s"),
        "monitor.abstracts_events_scanned": (t["monitor.abstracts"]["note"], "count"),
        "monitor.decisions": (t["monitor.policy"]["calls"], "count"),
        "monitor.denied": (t["monitor.policy"]["note"], "count"),
        "monitor.decision_s": (t["monitor.policy"]["self_s"], "s"),
        "monitor.upd_calls": (t["monitor.upd"]["calls"], "count"),
        "monitor.upd_s": (t["monitor.upd"]["self_s"], "s"),
        "contracts.checks": (t["contracts.check"]["calls"], "count"),
        "contracts.check_failures": (t["contracts.check"]["note"], "count"),
        "contracts.check_s": (t["contracts.check"]["self_s"], "s"),
        "contracts.ctx_calls": (tracer.ctx_calls, "count"),
        "interp.runs": (interp["calls"], "count"),
        "interp.events": (events, "count"),
        "interp.ctx_events": (sum(n[1] for n in interp_notes), "count"),
        "interp.run_s": (interp["incl_s"], "s"),
        "interp.self_s": (interp["self_s"], "s"),
        "worlds.step_calls": (t["worlds.step"]["calls"], "count"),
        "worlds.step_s": (t["worlds.step"]["self_s"], "s"),
        **_setup_layers(t),
        "harness.attribute_s": (t["harness.attribute"]["incl_s"], "s"),
        "traces.verdict_calls": (t["traces.verdict"]["calls"], "count"),
        "traces.verdict_s": (t["traces.verdict"]["self_s"], "s"),
        "validate.samples": (t["validate.interface"]["note"], "count"),
        "validate.exercised": (sum(n[1] for n in notes("validate.interface")), "count"),
        "validate.arrow_s": (t["validate.arrow"]["self_s"], "s"),
    }
    metrics = {name: (value / plays, unit + "/play") for name, (value, unit) in played.items()}
    metrics.update(
        {
            "monitor.scanned_per_event": (_ratio(t["monitor.abstracts"]["note"], events), "events/event"),
            "monitor.deny_ratio": (_ratio(t["monitor.policy"]["note"], t["monitor.policy"]["calls"]), "ratio"),
            "interp.self_us_per_event": (1e6 * _ratio(interp["self_s"], events), "us/event"),
            "interp.us_per_event_smallest": (1e6 * _ratio(*smallest), "us/event"),
            "interp.us_per_event_largest": (1e6 * _ratio(*largest), "us/event"),
            "bench.trace_overhead_frac": (overhead, "ratio"),
        }
    )
    setup = tracer.totals(lambda rec: rec[SCENARIO] == "setup")
    metrics.update({"setup." + name: value for name, value in _setup_layers(setup).items()})
    return metrics


def print_layers(tracer, records):
    t = tracer.totals(lambda rec: rec[SCENARIO] != "setup")
    scenario_s = sum(sum(r["seconds"]) for r in records)
    interp_s = t["interp.run"]["incl_s"] if "interp.run" in t else 0.0
    print(f"  passing traced plays took {scenario_s:.3f} s, interpret {interp_s:.3f} s in all (set-up left out)")
    print(f"  {'span':<22}{'calls':>10}{'incl s':>10}{'self s':>10}{'% scen':>8}{'% interp':>9}{'note':>12}")
    for name, row in sorted(t.items(), key=lambda kv: -kv[1]["self_s"]):
        in_interp = f"{100 * _ratio(row['self_s'], interp_s):8.1f}%" if name in INSIDE_INTERP else " " * 9
        print(
            f"  {name:<22}{row['calls']:>10}{row['incl_s']:>10.3f}{row['self_s']:>10.3f}"
            f"{100 * _ratio(row['self_s'], scenario_s):7.1f}%{in_interp}{row['note']:>12}"
        )


def print_sizes(tracer, records, plays):
    """Per ladder step: interpret cost per event (comparable with the
    ROADMAP baseline), ghost-check scan length, and monitor+contract time."""
    ladder = ladder_runs(tracer, records)
    per_time, scanned = tracer.per_scenario(("monitor.policy", "contracts.check"))
    ok = [r for r in bench.passed(records) if r["on_ladder"]]
    print(f"  {'size':>6}{'scen':>6}{'events':>9}{'interp.us_per_event':>21}{'scanned/event':>15}{'policy+check ms/play':>22}")
    for size, (seconds, events) in ladder.items():
        rs = [r for r in ok if r["size"] == size]
        scan = sum(scanned[r["scenario"]] for r in rs)
        pc = sum(per_time[r["scenario"]] for r in rs)
        print(
            f"  {size:>6}{len(rs):>6}{events:>9}{1e6 * _ratio(seconds, events):>21.1f}"
            f"{_ratio(scan, events):>15.1f}{1000 * _ratio(pc, len(rs) * plays):>22.3f}"
        )
