"""A short benchmark run: every scenario output passes the benchmark's oracle."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_report(workload: str, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_zip_fulltrace_bench_run_is_correct():
    assert _bench_report("zip-fulltrace")["correct"] is True


def test_web_unchecked_bench_run_is_correct():
    # runs every generated DSL handler of the workload's cycle
    assert _bench_report("web-unchecked")["correct"] is True


def test_web_checked_bench_run_is_correct():
    # the `seclink run` path: `run_scenario` with the ghost check on
    assert _bench_report("web-checked")["correct"] is True


@pytest.mark.parametrize("workload", ["web-checked", "zip-fulltrace"])
def test_traced_run_counts_checks_and_context_calls(workload):
    # the traced path wraps module-level hooks: each check tree's predicates
    # and `contracts._import_arrow`, looked up as a module global; zip imports
    # the closure its context returns through a sum codomain, below the top
    report = _bench_report(workload, trace=1)
    assert report["correct"] is True
    metrics = report["metrics"]
    assert metrics["contracts.checks"]["value"] > 0
    assert metrics["contracts.ctx_calls"]["value"] > 0
