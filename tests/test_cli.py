"""CLI tests: exit codes, output schemas, precedence, determinism.

A module-scoped pipeline fixture runs fit -> noise -> simulate once on a
small synthetic season; targeted tests rerun individual commands with their
own inputs where the shared artifacts would get in the way.
"""

import argparse
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pennantsim.cli import RunConfig, build_parser, main

from cli_fixtures import (write_constant_log_file, write_game_log_file,
                          write_league_file, write_recovery_log_file)

FIT_FLAGS = ["--iterations", "3000", "--burn-in", "500", "--thin", "5",
             "--chains", "2"]


def read_csv_dicts(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    teams = write_league_file(base / "league.csv")
    write_game_log_file(base / "log.csv", teams, n_rounds=32, seed=3)
    out = base / "out"
    common = ["--game-log", str(base / "log.csv"),
              "--league", str(base / "league.csv"),
              "--out", str(out), "--seed", "11"]
    codes = {
        "fit": main(["fit", *common, *FIT_FLAGS]),
        "noise": main(["noise", *common, "--window-length", "30"]),
        "simulate": main(["simulate", *common, "--replications", "8",
                          "--histogram", "EN0"]),
    }
    return {"base": base, "out": out, "common": common, "codes": codes,
            "teams": teams}


# ---------------------------------------------------------------------------
# validate


def test_pipeline_commands_succeed(pipeline):
    assert pipeline["codes"] == {"fit": 0, "noise": 0, "simulate": 0}


def test_validate_clean_inputs(pipeline, capsys):
    assert main(["validate", *pipeline["common"]]) == 0
    assert "no issues found" in capsys.readouterr().out


def test_validate_schedule_with_unknown_team(pipeline, capsys, tmp_path):
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n2024-09-01,EN0,ZZZ\n")
    code = main(["validate", *pipeline["common"], "--schedule", str(sched)])
    out = capsys.readouterr().out
    assert code == 1
    assert "'ZZZ'" in out and "missing from league structure" in out


def test_validate_duplicate_team_in_league(tmp_path, capsys):
    league = tmp_path / "league.csv"
    league.write_text("league,division,team\nE,N,AAA\nE,S,AAA\n")
    assert main(["validate", "--league", str(league)]) == 1
    assert "appears in both" in capsys.readouterr().out


def test_validate_missing_file_reported_not_thrown(tmp_path, capsys):
    assert main(["validate", "--game-log", str(tmp_path / "nope.csv")]) == 1
    assert "does not exist" in capsys.readouterr().out


def test_validate_nothing_configured(capsys):
    assert main(["validate"]) == 1
    assert "nothing to validate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fit


def test_fit_output_schema(pipeline):
    out = pipeline["out"]
    draws = (out / "draws.csv").read_text().splitlines()
    assert draws[0] == "chain,r1,r2,r3"
    # two chains, each keeping (3000-500)/5 draws
    assert len(draws) == 1 + 2 * 500
    assert {line.split(",")[0] for line in draws[1:]} == {"0", "1"}

    diag = read_csv_dicts(out / "diagnostics.csv")
    params = [row["parameter"] for row in diag]
    assert params[:3] == ["r1", "r2", "r3"]
    assert "acceptance_chain_0" in params and "acceptance_chain_1" in params
    for row in diag[:3]:
        assert float(row["rhat"]) < 1.1
        assert float(row["ess"]) > 50

    for k in (0, 1):
        trace = (out / f"trace_chain{k}.csv").read_text().splitlines()
        assert trace[0] == "iteration,r1,r2,r3"
        assert trace[1].split(",")[0] == "500"
        assert trace[2].split(",")[0] == "505"

    meta = dict(line.split("=", 1)
                for line in (out / "fit_metadata.txt").read_text().splitlines())
    assert meta["master_seed"] == "11"
    assert meta["proposal_std_source"] == "tuned"
    assert "chain_seed_0" in meta and "chain_seed_1" in meta


def test_fit_byte_deterministic(pipeline, tmp_path):
    out2 = tmp_path / "out2"
    args = [a if a != str(pipeline["out"]) else str(out2)
            for a in pipeline["common"]]
    assert main(["fit", *args, *FIT_FLAGS]) == 0
    for name in ("draws.csv", "diagnostics.csv", "trace_chain0.csv",
                 "fit_metadata.txt"):
        assert (out2 / name).read_bytes() == \
            (pipeline["out"] / name).read_bytes()


def test_fit_flat_likelihood_returns_prior(tmp_path):
    # all ratios are 1, so the posterior must equal the Uniform(0, 5) prior
    log = tmp_path / "flat.csv"
    write_constant_log_file(log)
    out = tmp_path / "out"
    assert main(["fit", "--game-log", str(log), "--out", str(out),
                 "--seed", "5", "--iterations", "4000", "--burn-in", "500",
                 "--thin", "5", "--chains", "2"]) == 0
    diag = read_csv_dicts(out / "diagnostics.csv")[:3]
    for row in diag:
        ess = float(row["ess"])
        tol = 3.5 * (5.0 / np.sqrt(12.0)) / np.sqrt(ess)
        assert abs(float(row["mean"]) - 2.5) < tol, row


def test_fit_signal_lands_on_win_pct_exponent(tmp_path):
    # games generated with a heavy win-percentage exponent (2.5) and light
    # batting / ERA exponents (0.3): the fitted r1 must dominate r2 and r3
    # by a wide margin, so swapped covariate columns would flip the ordering
    log = tmp_path / "recovery.csv"
    write_recovery_log_file(log)
    out = tmp_path / "out"
    assert main(["fit", "--game-log", str(log), "--out", str(out),
                 "--seed", "5", "--iterations", "4000", "--burn-in", "500",
                 "--thin", "5", "--chains", "2"]) == 0
    diag = {row["parameter"]: float(row["mean"])
            for row in read_csv_dicts(out / "diagnostics.csv")[:3]}
    assert 1.5 < diag["r1"] < 4.5
    assert diag["r1"] > diag["r2"] + 1.0
    assert diag["r1"] > diag["r3"] + 1.0


def test_fit_requires_game_log(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fit", "--out", str(out)]) == 2
    assert "fit requires a game log" in capsys.readouterr().err
    assert not out.exists()  # nothing partial


def test_fit_rhat_gate_fails_on_stuck_chains(tmp_path, capsys):
    log = tmp_path / "flat.csv"
    write_constant_log_file(log)
    out = tmp_path / "out"
    # proposal far too small to travel between the overdispersed chain
    # starts within 300 iterations: R-hat must blow past the 1.1 gate
    code = main(["fit", "--game-log", str(log), "--out", str(out),
                 "--seed", "5", "--iterations", "300", "--burn-in", "100",
                 "--thin", "1", "--chains", "3",
                 "--proposal-std", "0.0005"])
    assert code == 1
    assert "convergence failure" in capsys.readouterr().err
    assert (out / "diagnostics.csv").exists()  # report still written


# ---------------------------------------------------------------------------
# noise


def test_noise_outputs(pipeline):
    out = pipeline["out"]
    terciles = read_csv_dicts(out / "terciles.csv")
    assert len(terciles) == 30
    by_label = {}
    for row in terciles:
        by_label.setdefault(row["tercile"], []).append(row["team"])
    assert {k: len(v) for k, v in by_label.items()} == \
        {"low": 10, "medium": 10, "high": 10}

    pool = read_csv_dicts(out / "noise_estimates.csv")
    assert all(row["converged"] == "1" for row in pool)
    meta = dict(line.split("=", 1) for line in
                (out / "noise_metadata.txt").read_text().splitlines())
    assert int(meta["converged_windows"]) == len(pool)
    # 32-game series, 30-game window -> 3 window starts per team at most
    assert {row["window_start"] for row in pool} <= {"0", "1", "2"}


def test_noise_pinned_windows_counted(pipeline):
    # pinned_windows counts the pool rows whose sigma_process sits at the
    # 1e-4 search-box floor; they stay in the pool, flagged converged
    pool = read_csv_dicts(pipeline["out"] / "noise_estimates.csv")
    expected = sum(float(row["sigma_process"]) <= 1e-4 * (1 + 1e-9)
                   for row in pool)
    meta = dict(line.split("=", 1) for line in
                (pipeline["out"] / "noise_metadata.txt").read_text()
                .splitlines())
    assert int(meta["pinned_windows"]) == expected


def test_noise_deterministic(pipeline, tmp_path, capsys):
    out2 = tmp_path / "out2"
    args = [a if a != str(pipeline["out"]) else str(out2)
            for a in pipeline["common"]]
    assert main(["noise", *args, "--window-length", "30"]) == 0
    for name in ("noise_estimates.csv", "terciles.csv",
                 "noise_metadata.txt"):
        assert (out2 / name).read_bytes() == \
            (pipeline["out"] / name).read_bytes()
    # the printed summary reports the same pinned count as the metadata
    pinned = [line for line in (out2 / "noise_metadata.txt").read_text()
              .splitlines() if line.startswith("pinned_windows=")]
    assert f"{pinned[0]} " in capsys.readouterr().out


def test_noise_all_series_too_short(pipeline, tmp_path, capsys):
    out2 = tmp_path / "out2"
    args = [a if a != str(pipeline["out"]) else str(out2)
            for a in pipeline["common"]]
    assert main(["noise", *args, "--window-length", "40"]) == 3
    assert "long enough" in capsys.readouterr().err
    assert not out2.exists()


def test_noise_short_series_warned_and_skipped(tmp_path, capsys):
    # A, B, E, F have 40 games; C and D only 12, below the 30-game window
    lines = ["date,home,away,home_runs,away_runs,home_avg_pre,away_avg_pre,"
             "home_era_pre,away_era_pre"]
    import datetime
    rng = np.random.default_rng(0)
    day = datetime.date(2024, 5, 1)
    for g in range(40):
        date = day + datetime.timedelta(days=g)
        era = 3.5 + 0.3 * rng.standard_normal(2)
        lines.append(f"{date},A,B,{2 + g % 3},{1 if g % 3 else 3},0.25,0.25,"
                     f"{era[0]:.3f},{era[1]:.3f}")
        era = 4.0 + 0.3 * rng.standard_normal(2)
        lines.append(f"{date},E,F,{2 + g % 3},{1 if g % 3 else 3},0.25,0.25,"
                     f"{era[0]:.3f},{era[1]:.3f}")
        if g < 12:
            era = 4.5 + 0.3 * rng.standard_normal(2)
            lines.append(f"{date},C,D,2,{3 + g % 2},0.25,0.25,"
                         f"{era[0]:.3f},{era[1]:.3f}")
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["noise", "--game-log", str(log), "--out", str(out),
                 "--window-length", "30"])
    err = capsys.readouterr().err
    assert code == 0
    assert "warning: C" in err and "warning: D" in err
    teams = {row["team"] for row in read_csv_dicts(out / "terciles.csv")}
    assert teams == {"A", "B", "E", "F"}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_summary_schema(pipeline):
    out = pipeline["out"]
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "Team,MeanWins,CI5,CI95,PlayoffPct"
    rows = read_csv_dicts(out / "summary.csv")
    assert len(rows) == 30
    means = [float(r["MeanWins"]) for r in rows]
    assert means == sorted(means, reverse=True)
    for r in rows:
        assert 0.0 <= float(r["PlayoffPct"]) <= 100.0
        assert int(r["CI5"]) <= int(r["CI95"])


def test_simulate_replication_results(pipeline):
    rows = read_csv_dicts(pipeline["out"] / "replication_results.csv")
    assert len(rows) == 8 * 30
    by_rep = {}
    for row in rows:
        by_rep.setdefault(row["replication"], []).append(row)
    assert len(by_rep) == 8
    for rep_rows in by_rep.values():
        assert sum(int(r["qualified"]) for r in rep_rows) == 12


def test_simulate_histogram(pipeline):
    lines = (pipeline["out"] / "histogram_EN0.csv").read_text().splitlines()
    assert lines[0] == "wins,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    wins = [int(line.split(",")[0]) for line in lines[1:]]
    assert sum(counts) == 8
    assert wins == list(range(wins[0], wins[0] + len(wins)))


def test_simulate_metadata_has_seeds(pipeline):
    meta = dict(line.split("=", 1) for line in
                (pipeline["out"] / "simulate_metadata.txt").read_text()
                .splitlines())
    assert meta["master_seed"] == "11"
    assert meta["replication_seed_scheme"] == "(11, replication_id)"
    assert meta["schedule_source"] == "synthetic"
    assert meta["noise_pools"] == "terciles"


def test_simulate_deterministic_across_jobs(pipeline, tmp_path):
    out = pipeline["out"]
    before = (out / "summary.csv").read_bytes()
    reps = (out / "replication_results.csv").read_bytes()
    assert main(["simulate", *pipeline["common"], "--replications", "8",
                 "--jobs", "2"]) == 0
    assert (out / "summary.csv").read_bytes() == before
    assert (out / "replication_results.csv").read_bytes() == reps


def test_simulate_schedule_file(pipeline, tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    teams = pipeline["teams"]
    lines = ["date,home,away"]
    for i in range(0, len(teams), 2):
        lines.append(f"2024-09-01,{teams[i]},{teams[i + 1]}")
    sched.write_text("\n".join(lines) + "\n")
    assert main(["simulate", *pipeline["common"], "--replications", "2",
                 "--schedule", str(sched)]) == 0
    meta = dict(line.split("=", 1) for line in
                (pipeline["out"] / "simulate_metadata.txt").read_text()
                .splitlines())
    assert meta["schedule_source"] == "file"
    assert meta["scheduled_games"] == "15"
    # restore the shared artifacts for any later test
    main(["simulate", *pipeline["common"], "--replications", "8",
          "--histogram", "EN0"])
    capsys.readouterr()


def test_simulate_missing_draws(pipeline, tmp_path, capsys):
    out = tmp_path / "empty"
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert "`fit`" in capsys.readouterr().err


def test_simulate_missing_noise_names_command(pipeline, tmp_path, capsys):
    out = tmp_path / "partial"
    out.mkdir()
    shutil.copy(pipeline["out"] / "draws.csv", out / "draws.csv")
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert "`noise`" in capsys.readouterr().err


def test_simulate_point_mode_without_noise(pipeline, tmp_path):
    out = tmp_path / "pointonly"
    out.mkdir()
    shutil.copy(pipeline["out"] / "draws.csv", out / "draws.csv")
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2",
                 "--draws", "point"]) == 0
    meta = dict(line.split("=", 1)
                for line in (out / "simulate_metadata.txt").read_text()
                .splitlines())
    assert meta["noise_pools"] == "none"
    assert meta["draws_mode"] == "point"


def test_simulate_path_mode_without_noise_names_command(pipeline, tmp_path,
                                                         capsys):
    # path mode reads each team's ERA noise on every game, so point draws do
    # not let it run on the zero-noise fallback
    out = tmp_path / "pathonly"
    out.mkdir()
    shutil.copy(pipeline["out"] / "draws.csv", out / "draws.csv")
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2",
                 "--draws", "point", "--era-mode", "path"]) == 3
    assert "`noise`" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_simulate_unknown_histogram_team(pipeline, capsys):
    assert main(["simulate", *pipeline["common"], "--replications", "2",
                 "--histogram", "NOPE"]) == 2
    assert "'NOPE'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_matches_simulate_table(pipeline, capsys):
    assert main(["simulate", *pipeline["common"], "--replications", "8",
                 "--histogram", "EN0"]) == 0
    sim_out = capsys.readouterr().out
    assert main(["report", *pipeline["common"]]) == 0
    rep_out = capsys.readouterr().out
    assert rep_out == sim_out


def test_report_missing_results(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 3
    assert "`simulate`" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration and usage


def test_config_file_and_flag_precedence(pipeline, tmp_path):
    # simulate reads fit/noise artifacts from the output directory, so seed
    # the config's out dir with the ones the pipeline fixture produced
    shutil.copytree(pipeline["out"], tmp_path / "out")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"game_log = {pipeline['base'] / 'log.csv'}\n"
        f"league = {pipeline['base'] / 'league.csv'}\n"
        f"out = {tmp_path / 'out'}\n"
        "seed = 11\n"
        "replications = 4\n"
        "mode = two-stage\n")
    assert main(["simulate", "--config", str(cfg),
                 "--replications", "6"]) == 0
    meta = dict(line.split("=", 1) for line in
                (tmp_path / "out" / "simulate_metadata.txt").read_text()
                .splitlines())
    assert meta["replications"] == "6"   # flag beats config
    assert meta["mode"] == "two-stage"   # config beats default


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_setting = 1\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_config_bad_value_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replications = lots\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "needs an integer" in capsys.readouterr().err


def test_bad_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_setting_value_is_usage_error(capsys):
    assert main(["simulate", "--replications", "0"]) == 2
    assert "replications" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["fit", "--iterations", "100", "--burn-in", "200"], "burn_in"),
    (["fit", "--r-max", "inf"], "r_max"),
    (["simulate", "--walk-std", "nan"], "step_std"),
    (["simulate", "--mode", "two-stage", "--concentration", "inf"],
     "concentration"),
])
def test_domain_config_value_is_usage_error(pipeline, tmp_path, capsys, argv,
                                            named):
    # settings the chain, prior, walk and simulation configs check are
    # refused as usage errors, with every input and artifact in place
    shutil.copytree(pipeline["out"], tmp_path / "out")
    base = pipeline["base"]
    assert main([*argv, "--game-log", str(base / "log.csv"),
                 "--league", str(base / "league.csv"),
                 "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# README against the parser


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def documented_flags(text):
    """{--flag: [choices] or None} from the backticked spans of text; a
    choice list is the a|b token right after a flag."""
    flags = {}
    for span in re.findall(r"`([^`]*)`", text):
        tokens = span.split()
        for i, token in enumerate(tokens):
            if token.startswith("--"):
                after = tokens[i + 1] if i + 1 < len(tokens) else ""
                flags[token] = after.split("|") if "|" in after \
                    else flags.get(token)
    return flags


def test_readme_subcommand_flags_match_parser():
    # every flag and a|b choice list documented per subcommand, plus the
    # common flags, is exactly what that subparser accepts
    section = readme_section("Subcommands")
    common_text, *bullets = section.split("\n- **")
    common = documented_flags(common_text)
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    documented = {}
    for bullet in bullets:
        name = bullet.split("**", 1)[0]
        documented[name] = {**common, **documented_flags(bullet)}
    assert sorted(documented) == sorted(subparsers.choices)
    for name, sub in subparsers.choices.items():
        actions = {opt: a for a in sub._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"}
        assert sorted(documented[name]) == sorted(actions), name
        for flag, action in actions.items():
            choices = list(action.choices) if action.choices else None
            assert documented[name][flag] == choices, f"{name} {flag}"


def test_readme_config_keys_match_run_config():
    section = readme_section("Config files")
    keys = section.split("Keys mirror the flags:", 1)[1] \
        .split("Precedence", 1)[0]
    assert re.findall(r"`([a-z_]+)`", keys) == \
        [f.name for f in fields(RunConfig)]
