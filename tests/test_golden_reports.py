"""Golden report digests: every shipped run, byte for byte.

`tests/golden_reports.json` holds one sha256 per bundle x context x world
report -- its text, its JSON, and the source route's trace, result and
audit counts -- for both web policies, and one per `verify-bundle` text.
A change that keeps behaviour keeps every digest; the test names each one
that moved.  After a deliberate change of behaviour, regenerate with

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from seclink.demos import WEBSERVER_POLICIES, link_whole, logging_bundle, run_scenario
from seclink.demos import webserver_bundle, zip_bundle
from seclink.interp import interpret
from seclink.validate import validate_interface

GOLDEN = Path(__file__).with_name("golden_reports.json")
VERIFY_SAMPLES, VERIFY_SEED = 10_000, 20240901  # the CLI defaults


def _bundles():
    for policy in WEBSERVER_POLICIES:
        yield policy, webserver_bundle(policy)
    yield "logging", logging_bundle()
    yield "zip", zip_bundle()
    yield "zip+probe_closed_fd", zip_bundle(probe_closed_fd=True)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _source_route(bundle, name, world) -> str:
    prog = bundle.prog_for_budget(world.max_iterations) if bundle.prog_for_budget else None
    whole = link_whole(bundle, bundle.context(name), route="source", prog=prog)
    run = interpret(whole, world, bundle.interface.mstate)
    lines = [e.render() for e in run.local]
    lines.append(f"result={run.result!r} ctx_events={run.ctx_events} monitored={run.monitored_calls}")
    return "\n".join(lines)


def digests() -> dict[str, str]:
    out = {}
    for key, bundle in _bundles():
        for name in bundle.context_names():
            for i, world in enumerate(bundle.worlds):
                report = run_scenario(bundle, name, world, i)
                out[f"{key}/{name}/{i}/text"] = _sha(report.render_text())
                out[f"{key}/{name}/{i}/json"] = _sha(report.to_json())
                out[f"{key}/{name}/{i}/source"] = _sha(_source_route(bundle, name, world))
        if not key.startswith("zip+"):  # the probe changes the program, not the interface
            outcome = validate_interface(bundle.interface, samples=VERIFY_SAMPLES, seed=VERIFY_SEED)
            out[f"{key}/verify-bundle"] = _sha(f"bundle {bundle.name}:\n{outcome.render_text()}")
    return out


def test_every_report_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = digests()
    moved = sorted(k for k in golden.keys() | now.keys() if golden.get(k) != now.get(k))
    assert not moved, f"{len(moved)} report digest(s) differ: {moved}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
