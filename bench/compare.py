"""Collect sets of benchmark runs and compare two of them.

    # ten seeds per workload on two checkouts, alternating which runs first
    python3 bench/compare.py collect --out runs --side parent=../parent --side change=. --seeds 1-10
    # spread of one set against each metric's bound
    python3 bench/compare.py spread runs/parent
    # parent against change
    python3 bench/compare.py diff runs/parent runs/change

A set is a directory `<set>/<workload>/seed<N>.json`, each file the last
line a run printed.  `diff` pairs runs by workload and seed and rules on
each end-to-end metric:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
- unresolved: either set's interquartile range, as a share of its median,
  is wider than the bound, unless every change run beats every parent run
  (then the change cannot have regressed: same);
- same: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec():
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def collect(args):
    spec, _metrics = load_spec()
    sides = [s.split("=", 1) for s in args.side]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = sides if i % 2 == 0 else sides[::-1]
            for label, checkout in order:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ]
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{label} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    continue
                out = Path(args.out) / label / workload / f"seed{seed}.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(lines[-1] + "\n")
                print(f"{label} {workload} seed {seed}: {lines[-1][:160]}", flush=True)


def load_set(path):
    """workload -> seed -> metric -> value."""
    runs = {}
    for f in sorted(Path(path).glob("*/seed*.json")):
        result = json.loads(f.read_text())
        seed = int(f.stem[4:])
        runs.setdefault(f.parent.name, {})[seed] = {k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    _spec, metrics = load_spec()
    for workload, by_seed in load_set(args.set).items():
        print(f"{workload} ({len(by_seed)} runs)")
        names = sorted({k for run in by_seed.values() for k in run})
        for name in names:
            values = [run[name] for run in by_seed.values() if name in run]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = metrics.get(name, {}).get("bound")
            verdict = "" if bound is None else ("ok" if share < bound / 3 else "WIDE" if share > bound else "near")
            limit = "" if bound is None else f"bound {bound:.2f}"
            print(f"  {name:<34} median {med:>14.6g}  iqr/median {share:7.4f}  {limit:<11} {verdict}")


def rule(parent, change, better, bound):
    """Verdict on one metric of one workload from paired runs."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if wins >= 0.9 * len(seeds) and sign * (cm - pm) > (p3 - p1):
        verdict = "improved"
    elif bound is None:
        verdict = "-"
    elif all(sign * (b - a) > 0 for a in p for b in c):
        verdict = "same"
    elif max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0) > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    else:
        verdict = "same"
    return verdict, pm, cm, wins, len(seeds)


def diff(args):
    _spec, metrics = load_spec()
    parent, change = load_set(args.parent), load_set(args.change)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        cells = []
        details = []
        names = sorted({k for run in parent[workload].values() for k in run})
        for name in names:
            m = metrics.get(name, {"better": "lower"})
            pv = {s: r[name] for s, r in parent[workload].items() if name in r}
            cv = {s: r[name] for s, r in change[workload].items() if name in r}
            verdict, pm, cm, wins, pairs = rule(pv, cv, m["better"], m.get("bound"))
            regressed |= verdict == "REGRESSED"
            if m.get("bound") is not None:
                cells.append(f"{name}={verdict}")
            pct = 100 * (cm - pm) / abs(pm) if pm else 0.0
            details.append(f"    {name:<34} {pm:>14.6g} -> {cm:<14.6g} {pct:+7.2f}%  wins {wins}/{pairs}  {verdict}")
        print(f"{workload}: " + "  ".join(cells))
        if args.verbose:
            print("\n".join(details))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds on one or more checkouts")
    c.add_argument("--out", required=True)
    c.add_argument("--side", action="append", required=True, metavar="LABEL=CHECKOUT")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default=None, help="comma-separated; default all")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread", help="interquartile spread of one set against the bounds")
    s.add_argument("set")
    d = sub.add_parser("diff", help="rule on each metric, parent set against change set")
    d.add_argument("parent")
    d.add_argument("change")
    d.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    return {"collect": collect, "spread": spread, "diff": diff}[args.command](args) or 0


if __name__ == "__main__":
    raise SystemExit(main())
