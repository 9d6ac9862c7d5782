"""The constraint suite's sampler draws exactly what the reference sampler draws.

`validate.SampleSpace` walks precomputed draw trees; `oracles.ReferenceSampleSpace`
builds each sample from `rng.choice` calls.  Both must return equal samples and
leave the generator in the same state, so every seed gives the same report.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ReferenceSampleSpace
from test_validate import _weakened

from seclink import validate
from seclink.contracts import BytesT, EitherT, ErrT, FdT, IntT, PairT, UnitT
from seclink.demos import BUNDLES
from seclink.demos.harness import webserver_interface
from seclink.effects import Ok, contract_failure

ROOT = Path(__file__).resolve().parents[1]


INTERFACES = {
    "webserver": webserver_interface(),
    "allow_all_in_tmp": webserver_interface("allow_all_in_tmp"),
    "zip": BUNDLES["zip"]().interface,
    "logging": BUNDLES["logging"]().interface,
    "webserver-weak": _weakened(webserver_interface()),
}


def _mask(text: str) -> str:
    return re.sub(r"<function \S+ at 0x[0-9a-f]+>", "<sampled closure>", text)


@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(INTERFACES)))
@settings(max_examples=200, deadline=None)
def test_sampler_draws_like_reference(seed, name):
    iface = INTERFACES[name]
    new = validate.SampleSpace(random.Random(seed), iface.policy_spec, iface.mstate)
    ref = ReferenceSampleSpace(random.Random(seed), iface.policy_spec, iface.mstate)

    def same(method, *args, **kwargs):
        got = getattr(new, method)(*args, **kwargs)
        want = getattr(ref, method)(*args, **kwargs)
        if method == "args_for":  # a function argument is a fresh lambda in the reference
            assert _mask(repr(got)) == _mask(repr(want))
        else:
            assert got == want, method
        assert new.rng.getstate() == ref.rng.getstate(), method
        return got

    for _ in range(3):
        same("random_event")
    h_events = same("history_events")
    same("compliant_event", tuple(reversed(h_events)))
    lt = same("local_events", h_events, compliant=True)
    same("local_events", h_events, compliant=False)
    for arrow, _node in validate.collect_specced_arrows(iface.ctype, iface.cks):
        same("args_for", arrow.doms)
    same("result")
    same("states_for", h_events, lt)


def _report_key(report: validate.ValidationReport):
    cexs = [(c.arrow, c.constraint, _mask(c.detail)) for c in report.counterexamples]
    return report.samples, report.exercised, cexs


@pytest.mark.parametrize("name", sorted(INTERFACES))
def test_reports_match_reference_sampler(name, monkeypatch):
    iface = INTERFACES[name]
    for seed in range(20):
        got = validate.validate_interface(iface, samples=300, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(validate, "SampleSpace", ReferenceSampleSpace)
            want = validate.validate_interface(iface, samples=300, seed=seed)
        assert _report_key(got) == _report_key(want), seed


_REPORT_SCRIPT = """
from seclink.demos.harness import webserver_interface
from seclink.validate import validate_interface
from test_validate import _weakened

print(validate_interface(_weakened(webserver_interface()), samples=300, seed=0).render_text())
"""


def test_counterexample_text_is_the_same_in_every_process():
    # The caller's environment (`PYTHONDONTWRITEBYTECODE` among it), but a hash
    # seed of each process's own, which the text must not depend on.
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'tests'}", "PYTHONHASHSEED": "random"}
    outs = [
        subprocess.run(
            [sys.executable, "-c", _REPORT_SCRIPT], env=env, capture_output=True, check=True, timeout=120
        ).stdout
        for _ in range(2)
    ]
    assert b"COUNTEREXAMPLE" in outs[0] and b"<sampled closure>" in outs[0]
    assert outs[0] == outs[1]


# Argument domains no shipped interface reaches: an int, a unit, a pair and a sum.
_DOMS = (IntT(), UnitT(), PairT(FdT(), BytesT()), EitherT(IntT(), ErrT()))


def test_args_for_unshipped_domains():
    iface = INTERFACES["webserver"]
    space = lambda seed: validate.SampleSpace(random.Random(seed), iface.policy_spec, iface.mstate)
    sums = []
    for seed in range(40):
        args = space(seed).args_for(_DOMS)
        assert args == space(seed).args_for(_DOMS), seed
        assert args == ReferenceSampleSpace(random.Random(seed), iface.policy_spec, iface.mstate).args_for(_DOMS)
        n, unit, (fd, data), either = args
        assert type(n) is int and -2 <= n < 10
        assert unit == ()
        assert fd in validate._FDS and data in validate._BYTES
        assert either == contract_failure("sampled") or (type(either) is Ok and -2 <= either.value < 10)
        sums.append(type(either) is Ok)
    assert any(sums) and not all(sums)  # both sides of the sum are drawn
