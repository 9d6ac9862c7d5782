"""Command-line behaviour."""

from __future__ import annotations

import json

import pytest

from seclink.cli import main
from seclink.demos import BUNDLES
from seclink.worlds import dump_scenario, make_world

REQ = b"GET /index.html HTTP/1.1\r\n\r\n"


@pytest.fixture()
def scenario(tmp_path):
    world = make_world(
        files={"/temp/index.html": b"<h1>hi</h1>", "/temp/notes.txt": b"jot"},
        requests=[(1, REQ), (2, b"junk")],
    )
    path = tmp_path / "scenario.json"
    path.write_text(dump_scenario(world))
    return str(path)


def test_run_benign_with_check(scenario, capsys):
    code = main(
        [
            "run",
            "--scenario",
            scenario,
            "--program",
            "webserver",
            "--context",
            "benign",
            "--check",
            "every_request_gets_a_response",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "property every_request_gets_a_response holds" in out


def test_run_json_and_trace_dump(scenario, tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    code = main(
        [
            "run",
            "--scenario",
            scenario,
            "--program",
            "webserver",
            "--context",
            "dsl-benign",
            "--json",
            "--dump-trace",
            str(trace_path),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["context"] == "dsl-benign"
    assert trace_path.read_text().startswith("Prog Socket ()")


def test_run_ctx_first(scenario, capsys):
    code = main(
        [
            "run",
            "--scenario",
            scenario,
            "--program",
            "logging",
            "--context",
            "well-behaved",
            "--mode",
            "ctx-first",
            "--check",
            "enforced_locally",
        ]
    )
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_run_logging_source_text_context(scenario, logging_ctx_file, capsys):
    code = main(
        [
            "run",
            "--scenario",
            scenario,
            "--program",
            "logging",
            "--context",
            "file:" + logging_ctx_file,
            "--check",
            "enforced_locally",
        ]
    )
    assert code == 0
    assert "property enforced_locally holds" in capsys.readouterr().out


def test_mode_mismatch(scenario, capsys):
    code = main(
        ["run", "--scenario", scenario, "--program", "logging", "--context", "idle", "--mode", "prog-first"]
    )
    assert code == 2


def test_bad_scenario_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    code = main(["run", "--scenario", str(path), "--program", "webserver", "--context", "benign"])
    assert code == 2


def test_deeply_nested_scenario_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code = main(["run", "--scenario", str(path), "--program", "webserver", "--context", "benign"])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    ['"requests": [{"client_id": null, "raw_request_bytes": ""}]', '"max_iterations": true'],
)
def test_ill_typed_scenario_field(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text("{" + fields + "}")
    code = main(["run", "--scenario", str(path), "--program", "webserver", "--context", "benign"])
    assert code == 2
    assert capsys.readouterr().err.startswith("scenario error: ")


def test_context_source_file(scenario, tmp_path, capsys):
    source = tmp_path / "h.ctx"
    source.write_text('\\c:fd. \\r:bytes. \\s:(bytes -> either unit err). s "hello"')
    code = main(
        ["run", "--scenario", scenario, "--program", "webserver", "--context", f"file:{source}"]
    )
    assert code == 0
    assert "whole-run-post" in capsys.readouterr().out


def test_context_source_file_ill_typed(scenario, tmp_path, capsys):
    source = tmp_path / "h.ctx"
    source.write_text("\\c:int. c")
    code = main(
        ["run", "--scenario", scenario, "--program", "webserver", "--context", f"file:{source}"]
    )
    assert code == 2
    assert "context error" in capsys.readouterr().err


def test_deeply_nested_context_source(scenario, tmp_path, capsys):
    source = tmp_path / "h.ctx"
    source.write_text("(" * 3000 + "()" + ")" * 3000)
    code = main(
        ["run", "--scenario", scenario, "--program", "webserver", "--context", f"file:{source}"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("context error: ") and "nested too deeply" in err


def test_context_source_file_missing(scenario, tmp_path, capsys):
    missing = tmp_path / "no-such.ctx"
    code = main(
        ["run", "--scenario", scenario, "--program", "webserver", "--context", f"file:{missing}"]
    )
    assert code == 2
    assert "context error" in capsys.readouterr().err


def test_dump_trace_unwritable_path(scenario, tmp_path, capsys):
    unwritable = tmp_path / "no-such-dir" / "trace.txt"
    argv = ["run", "--scenario", scenario, "--program", "webserver", "--context", "benign"]
    code = main(argv + ["--dump-trace", str(unwritable), "--check", "all"])
    assert code == 2
    assert capsys.readouterr().err.startswith("dump error: ")


def test_unknown_policy_is_a_usage_error(scenario, capsys):
    argv = ["run", "--scenario", scenario, "--program", "webserver", "--context", "benign"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--policy", "nope"])
    assert exc.value.code == 2
    assert "--policy" in capsys.readouterr().err
    assert main(argv + ["--policy", "allow_all_in_tmp"]) == 0


@pytest.mark.parametrize("check", ["audit", "all"])
def test_run_with_audit_and_all_checks(scenario, check, capsys):
    argv = ["run", "--scenario", scenario, "--program", "webserver", "--context", "benign"]
    assert main(argv + ["--check", check]) == 0
    assert f"property {check} holds" in capsys.readouterr().out


def test_policy_on_a_non_webserver_program_is_a_usage_error(scenario, capsys):
    argv = ["run", "--scenario", scenario, "--program", "zip", "--context", "benign"]
    assert main(argv + ["--policy", "allow_all_in_tmp"]) == 2
    assert "--policy applies to the webserver bundle only" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_bundle_rejects_samples_below_one(samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-bundle", "--interface", "zip", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_bundle(capsys):
    code = main(["verify-bundle", "--interface", "logging", "--samples", "400"])
    assert code == 0
    assert "no counterexamples" in capsys.readouterr().out


def test_check_failure_prints_violation(scenario, capsys, monkeypatch):
    # force a violating report to exercise the nonzero-exit path
    import seclink.cli as cli

    real = cli.run_scenario

    def sabotaged(bundle, name, world, index=0):
        from seclink.effects import IoOp

        report = real(bundle, name, world, index)
        cut = next(i for i, e in enumerate(report.run.local) if e.op is IoOp.READ)
        report.run.local = report.run.local[: cut + 1]  # a request, no response
        return report

    monkeypatch.setattr(cli, "run_scenario", sabotaged)
    code = main(
        [
            "run",
            "--scenario",
            scenario,
            "--program",
            "webserver",
            "--context",
            "benign",
            "--check",
            "every_request_gets_a_response",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "violated by" in out and "result:" in out


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_verify_bundle_on_every_bundle(name, capsys):
    assert main(["verify-bundle", "--interface", name, "--samples", "200"]) == 0
    assert "no counterexamples" in capsys.readouterr().out
