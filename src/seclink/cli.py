"""Command-line front end.

`seclink run` links a named program with a named context, executes it on a
scenario world, prints the report, and can check a named trace property;
`seclink verify-bundle` runs the contract-constraint suite for a bundle.
"""

from __future__ import annotations

import argparse
import sys

from .demos import BUNDLES, WEBSERVER_POLICIES, run_scenario, webserver_bundle
from .traces import enforced_locally, every_request_gets_a_response
from .validate import validate_interface
from .worlds import load_scenario, render_trace

PROPERTIES = ("every_request_gets_a_response", "enforced_locally", "audit", "all")


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seclink")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="link a program with a context and execute a scenario")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--program", required=True, choices=sorted(BUNDLES))
    run.add_argument("--context", required=True, help="context name, or file:PATH for source text")
    run.add_argument("--mode", choices=("prog-first", "ctx-first"), default=None)
    run.add_argument("--policy", choices=WEBSERVER_POLICIES, default=None, help="webserver only")
    run.add_argument("--check", choices=PROPERTIES, default=None)
    run.add_argument("--dump-trace", default=None, metavar="PATH")
    run.add_argument("--json", action="store_true", help="emit the report as JSON")

    verify = sub.add_parser("verify-bundle", help="run the contract-constraint suite")
    verify.add_argument("--interface", required=True, choices=sorted(BUNDLES))
    verify.add_argument("--samples", type=_positive_int, default=10_000)
    verify.add_argument("--seed", type=int, default=20240901)
    return parser


def _check_property(name: str, report) -> tuple[bool, str]:
    run = report.run
    if name == "every_request_gets_a_response":
        return every_request_gets_a_response(run.local), name
    if name == "enforced_locally":
        return report.verdicts.get("policy-locally-enforced", True), name
    if name == "audit":
        return run.audit_ok, name
    return report.ok, "all"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "verify-bundle":
        bundle = BUNDLES[args.interface]()
        outcome = validate_interface(bundle.interface, samples=args.samples, seed=args.seed)
        print(f"bundle {args.interface}:")
        print(outcome.render_text())
        return 0 if outcome.ok else 1

    if args.policy and args.program != "webserver":
        print("--policy applies to the webserver bundle only", file=sys.stderr)
        return 2
    bundle = webserver_bundle(args.policy) if args.policy else BUNDLES[args.program]()
    if args.mode and args.mode != bundle.mode:
        print(f"bundle {bundle.name} runs {bundle.mode}; got --mode {args.mode}", file=sys.stderr)
        return 2

    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            world = load_scenario(handle.read())
    except (OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_scenario(bundle, args.context, world)
    except (KeyError, OSError, ValueError) as exc:
        print(f"context error: {exc}", file=sys.stderr)
        return 2

    print(report.to_json() if args.json else report.render_text())
    if args.dump_trace:
        try:
            with open(args.dump_trace, "w", encoding="utf-8") as handle:
                handle.write(render_trace(report.run.local) + "\n")
        except OSError as exc:
            print(f"dump error: {exc}", file=sys.stderr)
            return 2

    if args.check:
        holds, label = _check_property(args.check, report)
        if not holds:
            print(f"property {label} violated by:")
            print(render_trace(report.run.local))
            print(f"result: {report.result}")
            return 1
        print(f"property {label} holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
