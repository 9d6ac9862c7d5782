"""Traced runs: spans around the calls into each seclink layer.

The tracer wraps seclink's functions from the outside -- module attributes
and the callables an interface carries -- so nothing in `src/` knows it is
being traced.  A span records its name, start, end, parent span, scenario
id and one number the layer reports (events recorded, history length
scanned, a denial, a failed check, source bytes).  Spans stay in memory
and are written once, as JSON Lines, at the end of the run.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, SCENARIO, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.scenario = "setup"
        self.ctx_calls = 0

    def wrap(self, name, fn, note=None):
        """`fn` with a span around each call; `note(args, result)` gives the
        span's number."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return traced

    # -- what gets wrapped -------------------------------------------------

    def install(self, sl):
        """Wrap the module-level entry points of every layer."""
        w = self.wrap
        sl.worlds.step = w("worlds.step", sl.worlds.step)
        interpret = w("interp.run", sl.interp.interpret, lambda a, r: (len(r.local), r.ctx_events))
        sl.interp.interpret = sl.harness.interpret = interpret
        sl.harness.run_scenario = w("harness.run_scenario", sl.harness.run_scenario)
        sl.harness.attribute_mechanism = w("harness.attribute", sl.harness.attribute_mechanism)
        sl.harness.enforced_locally = w("traces.verdict", sl.harness.enforced_locally)
        sl.validate.validate_interface = w(
            "validate.interface",
            sl.validate.validate_interface,
            lambda a, r: (r.samples, sum(r.exercised.values())),
        )
        sl.validate.validate_arrow = w("validate.arrow", sl.validate.validate_arrow)
        sl.validate.enforced_locally = w("traces.verdict", sl.validate.enforced_locally)
        sl.ctxdsl.load = w("ctxdsl.load", sl.ctxdsl.load, lambda a, r: len(a[0]))
        sl.ctxdsl.parse = w("ctxdsl.parse", sl.ctxdsl.parse)
        sl.ctxdsl.typecheck = w("ctxdsl.typecheck", sl.ctxdsl.typecheck)
        sl.ctxdsl.translate = w("ctxdsl.translate", sl.ctxdsl.translate)
        for fn in ("compile_prog", "compile_prog_dual"):
            wrapped = w("linker.compile", getattr(sl.linker, fn))
            setattr(sl.linker, fn, wrapped)
            setattr(sl.harness, fn, wrapped)
        for fn in ("link_target", "link_target_dual"):
            wrapped = w("linker.link", getattr(sl.linker, fn))
            setattr(sl.linker, fn, wrapped)
            setattr(sl.harness, fn, wrapped)
        import_arrow = sl.contracts._import_arrow
        DClosure = sl.contracts.DClosure

        def counting_import_arrow(td, cks, dclo):
            inner = dclo.fn

            def call_ctx(*args):
                self.ctx_calls += 1
                return inner(*args)

            return import_arrow(td, cks, DClosure(call_ctx))

        sl.contracts._import_arrow = counting_import_arrow

    def interface(self, iface):
        """The same interface with its monitor state, policy, checks and
        whole-run post-condition wrapped."""
        w = self.wrap
        desc = iface.mstate
        changes = {
            "mstate": dataclasses.replace(
                desc,
                abstracts=w("monitor.abstracts", desc.abstracts, lambda a, r: len(a[1])),
                upd=w("monitor.upd", desc.upd),
            ),
            "policy": w("monitor.policy", iface.policy, lambda a, r: int(not r)),
            "cks": self._checks(iface.cks),
        }
        if hasattr(iface, "whole_run_post"):
            changes["whole_run_post"] = w("traces.verdict", iface.whole_run_post)
        return dataclasses.replace(iface, **changes)

    def _checks(self, tree):
        if hasattr(tree, "ck"):
            ck = self.wrap("contracts.check", tree.ck, lambda a, r: int(not r))
            return type(tree)(ck, self._checks(tree.left), self._checks(tree.right))
        if hasattr(tree, "left"):
            return type(tree)(self._checks(tree.left), self._checks(tree.right))
        return tree

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for i, rec in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": rec[NAME],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "scenario": rec[SCENARIO],
                            "note": rec[NOTE],
                        }
                    )
                    + "\n"
                )

    def self_times(self):
        """Each span's duration minus its children's."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def totals(self, keep=lambda rec: True):
        """Per span name, over the spans `keep` accepts: calls, inclusive
        seconds, self seconds, note sum."""
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "note": 0})
        for rec, own in zip(self.spans, self.self_times()):
            if not keep(rec):
                continue
            t = out[rec[NAME]]
            t["calls"] += 1
            t["incl_s"] += rec[END] - rec[START]
            t["self_s"] += own
            note = rec[NOTE]
            if isinstance(note, tuple):  # (events, context events) or (samples, exercised)
                note = note[0]
            if isinstance(note, int):
                t["note"] += note
        return out

    def scenario_runs(self):
        """(scenario id, seconds, events) of each scenario's own interpret
        call -- not the mechanism probe run inside run_scenario."""
        out = []
        for rec in self.spans:
            if rec[NAME] != "interp.run" or rec[NOTE] is None:
                continue
            parent = self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
            if parent != "harness.attribute":
                out.append((rec[SCENARIO], rec[END] - rec[START], rec[NOTE][0]))
        return out

    def per_scenario(self, names):
        """scenario id -> summed self time of the spans named in `names`, and
        scenario id -> history events the ghost check scanned."""
        time_of = defaultdict(float)
        scanned = defaultdict(int)
        for rec, own in zip(self.spans, self.self_times()):
            if rec[NAME] in names:
                time_of[rec[SCENARIO]] += own
            if rec[NAME] == "monitor.abstracts":
                scanned[rec[SCENARIO]] += rec[NOTE]
        return time_of, scanned
