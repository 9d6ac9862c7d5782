"""A short benchmark run: every scenario output passes the benchmark's oracle."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_zip_fulltrace_bench_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "zip-fulltrace", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
