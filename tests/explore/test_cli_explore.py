"""End-to-end CLI: explore command and parameterized sweep --config."""

import pytest

from repro.harness.cli import main

EXPLORE_ARGS = [
    "explore",
    "--dataset", "03",
    "--governor", "qoe_aware",
    "--strategy", "random",
    "--budget", "3",
    "--reps", "1",
]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_explore_reports_a_frontier(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "2", "--cache-dir", str(tmp_path)
    )
    assert rc == 0
    assert "Pareto frontier vs oracle" in out
    assert "oracle" in out and "energy normalised to oracle" in out
    assert "on the Pareto frontier" in out
    # Stock baselines ride along for reference.
    assert "ondemand" in out and "conservative" in out
    # Telemetry stays on stderr, keeping stdout deterministic.
    assert "replay(s) executed" in err and "replay" not in out


def test_explore_stdout_identical_across_jobs_and_warm_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _rc, cold, cold_err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "2", "--cache-dir", cache
    )
    _rc, warm, warm_err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "4", "--cache-dir", cache
    )
    assert warm == cold
    # The warm re-run replayed nothing: every cell came from the cache.
    assert "# 0 replay(s) executed" in warm_err
    assert "# 0 replay(s) executed" not in cold_err

    _rc, serial, _err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "1", "--no-cache"
    )
    assert serial == cold


def test_explore_unknown_governor_fails_cleanly(capsys):
    rc, _out, err = run_cli(
        capsys, "explore", "--governor", "warp", "--no-cache"
    )
    assert rc == 2
    assert "no built-in search space" in err


def test_explore_unknown_strategy_fails_cleanly(capsys):
    rc, _out, err = run_cli(
        capsys, "explore", "--strategy", "anneal", "--no-cache"
    )
    assert rc == 2
    assert "unknown search strategy" in err


def test_sweep_accepts_parameterized_config(tmp_path, capsys):
    rc, out, _err = run_cli(
        capsys,
        "sweep", "--dataset", "03", "--reps", "1", "--jobs", "2",
        "--config", "qoe_aware:boost=1_036_800,settle=40_000",
        "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    # The canonical spelling appears in the figures in place of the
    # stock governors; the 14 fixed configs stay for the oracle.
    assert "qoe_aware:boost=1036800,settle=40000" in out
    assert "ondemand" not in out
    assert "0.96 GHz" in out


@pytest.mark.parametrize(
    "config, message",
    [
        ("qoe_aware:bogus=1", "no tunable 'bogus'"),
        ("qoe_aware:boost", "key=value"),
        ("fixed:999", "not an operating point"),
        ("fixed", "needs a frequency"),
        ("warp:speed=9", "unknown governor"),
    ],
)
def test_sweep_rejects_bad_configs_before_running(capsys, config, message):
    rc, _out, err = run_cli(
        capsys,
        "sweep", "--dataset", "03", "--reps", "1", "--no-cache",
        "--config", config,
    )
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1  # one clean line

def test_explore_on_an_opp_subset_profile_samples_only_its_opps(capsys):
    """Regression: the space came from the stock table whatever the
    scenario's profile, so most sampled boosts were not OPPs of it."""
    import re

    from repro.scenarios.profiles import device_profile

    rc, _out, err = run_cli(
        capsys,
        "explore",
        "--scenario", "persona=messenger,seed=3,duration=45s,profile=quad_ls",
        "--governor", "qoe_aware",
        "--strategy", "random",
        "--budget", "6",
        "--reps", "1",
        "--jobs", "1",
        "--no-cache",
        "--no-baselines",
        "--verbose",
    )
    assert rc == 0
    boosts = {int(khz) for khz in re.findall(r"boost=(\d+)", err)}
    opps = set(device_profile("quad_ls").frequency_table().frequencies_khz)
    assert boosts and boosts <= opps
