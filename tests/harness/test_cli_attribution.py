"""CLI tests: attribute, trace-diff, and the ``--progress-jsonl -`` sentinel."""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.obs.validate import validate_file


def test_attribute_command_deterministic_across_jobs(tmp_path, capsys):
    """attribute prints the cause report on stdout, annotates the trace,
    and the stdout report is byte-identical across ``--jobs`` values."""
    trace_1 = tmp_path / "annotated_1.json"
    assert main(["attribute", "03", "--config", "conservative",
                 "-o", str(trace_1), "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    out_jobs_1 = captured.out
    assert "# attribution 03 [conservative]:" in out_jobs_1
    assert "dominant cause:" in out_jobs_1
    assert "cause" in out_jobs_1  # the taxonomy table header
    # The annotated trace validates, including its cause spans.
    assert "annotated trace" in captured.err
    assert validate_file(trace_1) == []
    document = json.loads(trace_1.read_text(encoding="utf-8"))
    assert any(
        event.get("name", "").startswith("cause:")
        for event in document["traceEvents"]
    )

    trace_2 = tmp_path / "annotated_2.json"
    assert main(["attribute", "03", "--config", "conservative",
                 "-o", str(trace_2), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == out_jobs_1
    assert trace_2.read_text() == trace_1.read_text()


@pytest.mark.parametrize("command", ["attribute", "trace"])
@pytest.mark.parametrize(
    "config", ["qoe_aware:boost=2265601", "interactive:hispeed=999"]
)
def test_replay_commands_reject_non_opp_frequency_tunables(
    command, config, tmp_path, capsys
):
    """A frequency tunable off the device's OPP table would silently
    clamp at runtime; trace and attribute reject it the way sweep does,
    with the CLI's one-line error, before recording anything."""
    argv = [command, "03", "--config", config]
    if command == "trace":
        argv += ["-o", str(tmp_path / "trace.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-qoe: error: config ")
    assert "is not an operating point of the table" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "trace.json").exists()


def test_attribute_parser_defaults():
    args = build_parser().parse_args(["attribute", "03"])
    assert args.config == "interactive"
    assert args.output is None
    assert args.jobs == 1


def _document(lag_duration):
    return {
        "traceEvents": [
            {"name": "lag:tap:0", "ph": "X", "ts": 100,
             "dur": lag_duration, "pid": 1, "tid": 5},
            {"name": "cause:at_speed", "ph": "X", "ts": 100,
             "dur": lag_duration, "pid": 1, "tid": 6,
             "args": {"lag": "tap:0"}},
        ]
    }


def test_trace_diff_command_exit_codes(tmp_path, capsys):
    same_a = tmp_path / "a.json"
    same_b = tmp_path / "b.json"
    other = tmp_path / "c.json"
    same_a.write_text(json.dumps(_document(300)), encoding="utf-8")
    same_b.write_text(json.dumps(_document(300)), encoding="utf-8")
    other.write_text(json.dumps(_document(500)), encoding="utf-8")

    assert main(["trace-diff", str(same_a), str(same_b)]) == 0
    assert "no causally-diverging windows" in capsys.readouterr().out

    assert main(["trace-diff", str(same_a), str(other)]) == 1
    out = capsys.readouterr().out
    assert "1 causally-diverging window(s)" in out
    assert "first divergence: 'tap:0'" in out

    # Unreadable input surfaces as the CLI's one-line ReproError.
    assert main(["trace-diff", str(same_a), str(tmp_path / "nope.json")]) == 2
    assert "repro-qoe: error:" in capsys.readouterr().err


def test_progress_jsonl_dash_streams_to_stderr(capsys):
    argv = ["sweep", "--dataset", "03", "--reps", "1", "--no-cache",
            "--progress-jsonl", "-"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    events = [
        json.loads(line)
        for line in captured.err.splitlines()
        if line.startswith("{")
    ]
    assert any(event["event"] == "grid_bound" for event in events)
    assert any(event["event"] == "fleet_summary" for event in events)
    # stdout carries only the deterministic study output.
    assert "grid_bound" not in captured.out
    assert "Fig. 12" in captured.out
