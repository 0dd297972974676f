"""CLI tests: exit codes, output schemas, precedence, determinism.

A module-scoped pipeline fixture runs fit -> noise -> simulate once on a
small synthetic season; targeted tests rerun individual commands with their
own inputs where the shared artifacts would get in the way.
"""

import argparse
import datetime
import hashlib
import os
import re
import shutil
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pennantsim.cli import RunConfig, build_parser, main, resolve_config
from pennantsim.gamelog import latest_season, parse_game_log
from pennantsim.kalman import sliding_noise_estimates
from pennantsim.mcmc import ChainConfig, PriorConfig
from pennantsim.season import LeagueStructure, SimOptions, read_league_csv

from cli_fixtures import (write_constant_log_file, write_game_log_file,
                          write_league_file, write_recovery_log_file)
from oracles import pregame_records, win_pct

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
    # the schedule reader checks its teams against the league file, and
    # both commands name the row and the column
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n2024-09-01,EN0,EN1\n"
                     "2024-09-01,EN2,ZZZ\n")
    problem = f"{sched} row 3, column 'away': unknown team 'ZZZ'"
    args = [*pipeline["common"], "--schedule", str(sched)]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out == \
        f"issue: schedule: {problem}\n1 issue(s) found\n"
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_validate_duplicate_team_in_league(tmp_path, capsys):
    league = tmp_path / "league.csv"
    league.write_text("league,division,team\nE,N,AAA\nE,S,AAA\n")
    assert main(["validate", "--league", str(league)]) == 1
    assert "appears in both" in capsys.readouterr().out


def test_short_league_row_is_a_row_error(pipeline, tmp_path, capsys):
    # a row without a team fails validation naming the row, and simulate
    # stops with a runtime error instead of a traceback
    league = tmp_path / "league.csv"
    league.write_text("league,division,team\nE,N\n")
    assert main(["validate", "--league", str(league)]) == 1
    assert "row 2, column 'team': empty team code" in capsys.readouterr().out
    args = [str(league) if a == str(pipeline["base"] / "league.csv") else a
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert "row 2, column 'team': empty team code" in capsys.readouterr().err


def test_short_schedule_row_is_a_row_error(pipeline, tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n2024-09-01,EN0\n")
    assert main(["validate", *pipeline["common"], "--schedule",
                 str(sched)]) == 1
    out = capsys.readouterr().out
    assert "row 2, column 'away': empty team code" in out and "None" not in out
    assert main(["simulate", *pipeline["common"], "--replications", "2",
                 "--schedule", str(sched)]) == 3
    assert "row 2, column 'away': empty team code" in capsys.readouterr().err


def with_bad_field(pipeline, tmp_path, kind, field):
    """A league file whose team EN0 is renamed to field, or a one-game
    schedule whose away team is field; returns its path and the pipeline's
    arguments reading it."""
    path = tmp_path / f"{kind}.csv"
    if kind == "league":
        text = (pipeline["base"] / "league.csv").read_text(encoding="utf-8")
        path.write_text(text.replace(",EN0\n", f",{field}\n"),
                        encoding="utf-8")
        swap = {str(pipeline["base"] / "league.csv"): str(path)}
        return path, [swap.get(a, a) for a in pipeline["common"]]
    path.write_text(f"date,home,away\n2024-09-01,EN0,{field}\n",
                    encoding="utf-8")
    return path, [*pipeline["common"], "--schedule", str(path)]


@pytest.mark.parametrize("field", ["X" * 200_000, "EN\x000"],
                         ids=["long-field", "nul-byte"])
@pytest.mark.parametrize("kind", ["league", "schedule"])
def test_odd_fields_end_in_cli_exit_codes(pipeline, tmp_path, capsys, kind,
                                          field):
    # neither field is a team the game log or the league knows, so each
    # run reports it; none may end in a traceback
    path, args = with_bad_field(pipeline, tmp_path, kind, field)
    assert main(["validate", *args]) == 1
    assert "issue: " in capsys.readouterr().out
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert "error: " in capsys.readouterr().err


def test_undecodable_input_names_the_file(pipeline, tmp_path, capsys):
    league = tmp_path / "league.csv"
    league.write_bytes(b"league,division,team\nE,N,A\xffA\n")
    assert main(["validate", "--league", str(league)]) == 1
    assert f"issue: league: {league}: not UTF-8 text" \
        in capsys.readouterr().out
    log = tmp_path / "log.csv"
    log.write_bytes((pipeline["base"] / "log.csv").read_bytes()
                    .replace(b",EN0,", b",EN\xff0,", 1))
    assert main(["fit", "--game-log", str(log), "--out",
                 str(tmp_path / "out")]) == 3
    assert f"error: {log}: not UTF-8 text" in capsys.readouterr().err


def test_over_season_schedule_refused_by_validate_and_simulate(
        pipeline, tmp_path, capsys):
    # every team has played 32 games, so three more EN0-EN1 games overrun a
    # 34-game season: validate lists both teams, simulate stops at the first
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n" + "".join(
        f"2024-09-0{day},EN0,EN1\n" for day in (1, 2, 3)))
    shutil.copytree(pipeline["out"], tmp_path / "out")
    args = [a if a != str(pipeline["out"]) else str(tmp_path / "out")
            for a in pipeline["common"]]
    args += ["--schedule", str(sched), "--season-length", "34"]
    over = [f"{team} has 32 played + 3 scheduled = 35 games, over the "
            f"34-game season" for team in ("EN0", "EN1")]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"issue: schedule: {issue}" for issue in over), "2 issue(s) found"]
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert capsys.readouterr().err == f"error: {sched}: {over[0]}\n"


def test_validate_without_schedule_checks_the_season_length(pipeline,
                                                            capsys):
    # every team has played 32 games, past a 30-game season: with no
    # schedule, validate lists each team and simulate refuses the first
    args = [*pipeline["common"], "--season-length", "30"]
    over = [f"{team} has played 32 games, more than the 30-game season"
            for team in sorted(pipeline["teams"])]
    assert main(["validate", *args]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"issue: game log: {issue}" for issue in over), "30 issue(s) found"]
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert capsys.readouterr().err == f"error: {over[0]}\n"


def test_validate_schedule_without_a_log_checks_the_season_length(
        pipeline, tmp_path, capsys):
    # with no game log every team starts at 0 played, so two EN0-EN1
    # games overrun a one-game season
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n2024-09-01,EN0,EN1\n"
                     "2024-09-02,EN1,EN0\n")
    assert main(["validate", "--league", str(pipeline["base"] / "league.csv"),
                 "--schedule", str(sched), "--season-length", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"issue: schedule: {team} has 0 played + 2 scheduled = 2 games, "
          f"over the 1-game season" for team in ("EN0", "EN1")),
        "2 issue(s) found"]


def mid_season_args(pipeline, tmp_path, precomputed, rounds=10):
    """The pipeline's arguments on a copy of its artifacts and a log that
    starts mid-season: the last rounds rounds of its log, in the raw or
    precomputed shape, each side carrying its real W-L entering the game
    (its tally over the whole season) in `*_record_pre` columns. Returns
    them with each team's games played at the end of the log."""
    _, *rows = (pipeline["base"] / "log.csv").read_text().splitlines()
    games = [row.split(",") for row in rows]
    records = pregame_records([
        (datetime.date.fromisoformat(date), home, away, int(hr) > int(ar))
        for date, home, away, hr, ar, *_ in games])
    cut = sorted({game[0] for game in games})[-rounds]
    header = ("date,home,away,home_runs,away_runs," if not precomputed else
              "date,home,away,home_won,home_winpct_pre,away_winpct_pre,")
    lines = [header + "home_avg_pre,away_avg_pre,home_era_pre,away_era_pre,"
             "home_record_pre,away_record_pre"]
    for game, (hrec, arec) in zip(games, records):
        date, home, away, hr, ar, *stats = game
        if date < cut:
            continue
        outcome = [hr, ar] if not precomputed else \
            [str(int(int(hr) > int(ar))), repr(win_pct(hrec)),
             repr(win_pct(arec))]
        lines.append(",".join([date, home, away, *outcome, *stats,
                               "%d-%d" % hrec, "%d-%d" % arec]))
    log = tmp_path / "mid_season.csv"
    log.write_text("\n".join(lines) + "\n")
    shutil.copytree(pipeline["out"], tmp_path / "out")
    swap = {str(pipeline["base"] / "log.csv"): str(log),
            str(pipeline["out"]): str(tmp_path / "out")}
    played = {team: sum(team in game[1:3] for game in games)
              for team in pipeline["teams"]}
    return [swap.get(a, a) for a in pipeline["common"]], played


@pytest.mark.parametrize("precomputed", [False, True],
                         ids=["raw", "precomputed"])
def test_simulate_fills_a_mid_season_log_from_its_records(
        pipeline, tmp_path, precomputed):
    # 10 logged games per team, 32 on record: the synthetic schedule fills
    # each team from its record to the season length, and the 20-game
    # burn-in counts the record too
    args, played = mid_season_args(pipeline, tmp_path, precomputed)
    assert set(played.values()) == {32}
    assert main(["simulate", *args, "--replications", "2",
                 "--season-length", "40"]) == 0
    meta = dict(line.split("=", 1) for line in
                (tmp_path / "out" / "simulate_metadata.txt").read_text()
                .splitlines())
    assert int(meta["scheduled_games"]) == \
        sum(40 - games for games in played.values()) // 2


@pytest.mark.parametrize("precomputed", [False, True],
                         ids=["raw", "precomputed"])
def test_validate_counts_a_mid_season_log_from_its_records(
        pipeline, tmp_path, capsys, precomputed):
    # nine more EN0-EN1 games overrun a 40-game season from 32 games on
    # record, though only 10 of them are in the log
    args, _ = mid_season_args(pipeline, tmp_path, precomputed)
    sched = tmp_path / "sched.csv"
    sched.write_text("date,home,away\n" + "".join(
        f"2024-09-0{day},EN0,EN1\n" for day in range(1, 10)))
    assert main(["validate", *args, "--schedule", str(sched),
                 "--season-length", "40"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"issue: schedule: {team} has 32 played + 9 scheduled = 41 games, "
          f"over the 40-game season" for team in ("EN0", "EN1")),
        "2 issue(s) found"]


def test_validate_missing_file_reported_not_thrown(tmp_path, capsys):
    # the reader that opens a file reports it like any other input problem:
    # validate as an issue, the other stages as a runtime error
    nope = tmp_path / "nope.csv"
    for flag, what in (("--game-log", "game log"), ("--league", "league"),
                       ("--schedule", "schedule")):
        assert main(["validate", flag, str(nope)]) == 1
        assert capsys.readouterr().out == (
            f"issue: {what}: {nope}: cannot open: No such file or "
            f"directory\n1 issue(s) found\n")
    assert main(["fit", "--game-log", str(tmp_path)]) == 3
    assert capsys.readouterr().err == \
        f"error: {tmp_path}: cannot open: Is a directory\n"


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

    meta = dict(line.split("=", 1)
                for line in (out / "fit_metadata.txt").read_text().splitlines())
    assert meta["master_seed"] == "11"
    # row k of a chain's draws is its iteration burn_in + thin * k
    assert meta["burn_in"] == "500" and meta["thin"] == "5"
    assert meta["proposal_std_source"] == "tuned"
    assert meta["proposal_screen"] == "laplace"
    assert "chain_seed_0" in meta and "chain_seed_1" in meta


def test_fit_writes_exactly_its_three_files(pipeline, tmp_path):
    # draws.csv is the one copy of the draws: no per-chain trace repeats them
    out2 = tmp_path / "fit"
    args = [a if a != str(pipeline["out"]) else str(out2)
            for a in pipeline["common"]]
    assert main(["fit", *args, *FIT_FLAGS, "--jobs", "1"]) == 0
    assert sorted(os.listdir(out2)) == ["diagnostics.csv", "draws.csv",
                                        "fit_metadata.txt"]


def test_fit_byte_deterministic(pipeline, tmp_path, capsys):
    # reruns with no --jobs (the cores available, as the pipeline ran), one
    # job in process, and a pool of two workers for the two chains: the
    # pipeline's files, and the same stdout and stderr each time
    printed = []
    for k, jobs in enumerate(([], ["--jobs", "1"], ["--jobs", "2"])):
        out2 = tmp_path / f"out{k}"
        args = [a if a != str(pipeline["out"]) else str(out2)
                for a in pipeline["common"]]
        assert main(["fit", *args, *FIT_FLAGS, *jobs]) == 0
        printed.append(capsys.readouterr())
        for name in ("draws.csv", "diagnostics.csv", "fit_metadata.txt"):
            assert (out2 / name).read_bytes() == \
                (pipeline["out"] / name).read_bytes(), (name, jobs)
        assert "jobs" not in (out2 / "fit_metadata.txt").read_text()
    assert printed[1] == printed[0] and printed[2] == printed[0]


def test_fit_with_no_training_games_names_the_file(tmp_path, capsys):
    # every game falls in April, before the May 20 - Aug 20 window
    log = tmp_path / "april.csv"
    write_game_log_file(log, ["A", "B"], n_rounds=5,
                        start=datetime.date(2024, 4, 1))
    assert main(["fit", "--game-log", str(log),
                 "--out", str(tmp_path / "out")]) == 3
    assert f"error: {log}: no training records left after filtering" \
        in capsys.readouterr().err


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
    # a flat likelihood has no mode to screen proposals with
    assert "proposal_screen=none" in \
        (out / "fit_metadata.txt").read_text().splitlines()


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
    # a row's window_start is the position of the window it was fit on
    season = latest_season(parse_game_log(str(pipeline["base"] / "log.csv")))
    fits = {team: sliding_noise_estimates(season[team].eras, 30)
            for team in {row["team"] for row in pool}}
    for row in pool:
        est = fits[row["team"]][int(row["window_start"])]
        assert (row["sigma_obs"], row["sigma_process"]) == \
            (repr(est.sigma_obs), repr(est.sigma_process))


def test_noise_pinned_windows_counted(pipeline):
    # pinned_windows counts the pool rows whose MLE has zero process noise;
    # they stay in the pool, flagged converged
    pool = read_csv_dicts(pipeline["out"] / "noise_estimates.csv")
    expected = sum(float(row["sigma_process"]) == 0.0 for row in pool)
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


def test_simulate_names_the_team_noise_skipped(pipeline, tmp_path, capsys):
    # without the log's last game its two teams have 31 ERAs, below a
    # 32-game window: noise skips them, and simulate says so rather than
    # asking for a rerun that would skip them again
    *rows, last = (pipeline["base"] / "log.csv").read_text().splitlines()
    log = tmp_path / "log.csv"
    log.write_text("\n".join(rows) + "\n")
    first = min(last.split(",")[1:3])
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(pipeline["out"] / "draws.csv", out / "draws.csv")
    args = ["--game-log", str(log), "--out", str(out),
            "--league", str(pipeline["base"] / "league.csv")]
    assert main(["noise", *args, "--window-length", "32"]) == 0
    assert f"warning: {first}: series length 31" in capsys.readouterr().err
    assert main(["simulate", *args, "--replications", "2"]) == 3
    assert capsys.readouterr().err == (
        f"error: team {first!r} has no row in terciles.csv: `noise` skips a "
        f"team whose ERA series is shorter than --window-length\n")


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
    # every replication draws from the run's seven streams
    assert meta["replication_seed_scheme"] == (
        "SeedSequence(11) streams outcomes/draw_rows/walk/era_steps/"
        "era_errors/tie_keys/noise_rows, shared by all 8 replications")
    assert meta["schedule_source"] == "synthetic"


def test_simulate_deterministic_across_jobs(pipeline, tmp_path):
    out = pipeline["out"]
    before = (out / "summary.csv").read_bytes()
    reps = (out / "replication_results.csv").read_bytes()
    assert main(["simulate", *pipeline["common"], "--replications", "8",
                 "--jobs", "2"]) == 0
    assert (out / "summary.csv").read_bytes() == before
    assert (out / "replication_results.csv").read_bytes() == reps


def test_simulate_mode_has_no_effect(pipeline, tmp_path, capsys):
    # one outcome law: both modes play the same games on the same stream,
    # and the Beta concentration is refused like any unknown flag or key;
    # a mode outside the two is still a usage error
    written = {}
    for mode in ("two-stage", "marginal"):
        out = tmp_path / mode
        shutil.copytree(pipeline["out"], out)
        args = [a if a != str(pipeline["out"]) else str(out)
                for a in pipeline["common"]]
        assert main(["simulate", *args, "--replications", "4",
                     "--era-mode", "path", "--mode", mode]) == 0
        written[mode] = [(out / name).read_bytes() for name in
                         ("replication_results.csv", "summary.csv")]
    assert written["two-stage"] == written["marginal"]
    capsys.readouterr()
    assert main(["simulate", *pipeline["common"],
                 "--concentration", "2"]) == 2
    assert "--concentration" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("concentration = 1\n")
    assert main(["simulate", "--config", str(cfg),
                 *pipeline["common"]]) == 2
    assert "unknown key 'concentration'" in capsys.readouterr().err
    cfg.write_text("mode = exact\n")
    assert main(["simulate", "--config", str(cfg),
                 *pipeline["common"]]) == 2
    assert "mode must be marginal or two-stage" in capsys.readouterr().err


# sha256 of replication_results.csv, summary.csv and stdout of a 6-replication
# simulate on the pipeline's artifacts, per (--draws, --era-mode)
SIMULATE_DIGESTS = {
    ("posterior-predictive", "forecast"): (
        "ef287b21aeca66f993debd827dfc997c790444af9204e3a43662701f6aaedc7c",
        "51c91194cff08991ac60fba9fdc0ffde91c7c15d14dc3010bd481bf2a9102817",
        "36d2e88d56927d1b5439e21193b342a33e964dad129edaf77e23d68a15eb3bcb"),
    ("posterior-predictive", "path"): (
        "30f327342306cde4412ec7778784c40b0e50d7992fa05cfa0ffd14cb5a820240",
        "c56d4c6cfe7b4e0cc6c581e7149cabd654613f1fa13fe9e39d0bf2d7e9cd5735",
        "42498db152d388ce34897ed7e099ebfde100f4582f65a0dd320fd3d70804b8b6"),
    ("point", "forecast"): (
        "8c6c35f689d4d5069e677d721898a1fe1be48a3019a1bd9004563949506e4c2c",
        "b6d18b7dfb0429824d3272786772d8a6236eb82f04cdc0f0eceacdabe4aeb21a",
        "385ccae271debbd71629ef66c1444d20a15aa2f50133398a5154e54589632c88"),
    ("point", "path"): (
        "5fe3f9c69d6d44a591d9f0ad9be220b5d4679a51e939f010c05c0acbcfd85c04",
        "d4a49a9a338d762cdd1b96ece4bfcc791dbba80d615e91ac73d3828249467507",
        "f29f839724d7a8880ae9d70680d9d3860cc5f82aabeaa830eb76d66fd72eab0f"),
}


@pytest.mark.parametrize("draws, era_mode", SIMULATE_DIGESTS)
def test_simulate_bytes_are_pinned(pipeline, tmp_path, capsys, draws,
                                   era_mode):
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    capsys.readouterr()
    assert main(["simulate", *args, "--replications", "6",
                 "--draws", draws, "--era-mode", era_mode]) == 0
    written = [(out / name).read_bytes() for name in
               ("replication_results.csv", "summary.csv")]
    written.append(capsys.readouterr().out.encode())
    assert tuple(hashlib.sha256(data).hexdigest() for data in written) \
        == SIMULATE_DIGESTS[draws, era_mode]


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


@pytest.mark.parametrize("era_mode", ["forecast", "path"])
def test_simulate_path_mode_without_noise_names_command(pipeline, tmp_path,
                                                         capsys, era_mode):
    # both ERA modes start from the noise pools' filtered level, so point
    # draws do not let either run without them
    out = tmp_path / "pointonly"
    out.mkdir()
    shutil.copy(pipeline["out"] / "draws.csv", out / "draws.csv")
    args = [a if a != str(pipeline["out"]) else str(out)
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--replications", "2",
                 "--draws", "point", "--era-mode", era_mode]) == 3
    assert "`noise`" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_simulate_unknown_histogram_team(pipeline, capsys):
    assert main(["simulate", *pipeline["common"], "--replications", "2",
                 "--histogram", "NOPE"]) == 2
    assert "'NOPE'" in capsys.readouterr().err


def test_unknown_histogram_team_is_a_usage_error_without_artifacts(
        pipeline, tmp_path, capsys):
    # the usage check runs right after the league read, so an --out with
    # no fit or noise artifacts does not turn it into a runtime error
    empty = tmp_path / "empty"
    args = [str(empty) if a == str(pipeline["out"]) else a
            for a in pipeline["common"]]
    assert main(["simulate", *args, "--histogram", "ZZZ"]) == 2
    assert capsys.readouterr().err == \
        "error: histogram team 'ZZZ' is not in the league structure\n"


# ---------------------------------------------------------------------------
# report


def test_report_matches_simulate_table(pipeline, capsys):
    assert main(["simulate", *pipeline["common"], "--replications", "8",
                 "--histogram", "EN0"]) == 0
    sim_out = capsys.readouterr().out
    assert sim_out.splitlines()[-1] == "8 replications"
    assert main(["report", *pipeline["common"]]) == 0
    rep_out = capsys.readouterr().out
    assert rep_out == sim_out


def test_report_missing_results(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 3
    assert "`simulate`" in capsys.readouterr().err


def edited_artifacts(pipeline, tmp_path, name, edit):
    """A copy of the pipeline's outputs with edit(lines) applied to one
    file's lines; returns the file's path and the common arguments. The
    file may also be an input: a copy of league.csv, or schedule.csv, a
    two-game schedule that the arguments pass with --schedule."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    swap, extra, path = {str(pipeline["out"]): str(out)}, [], out / name
    if name == "league.csv":
        path = tmp_path / name
        shutil.copy(pipeline["base"] / name, path)
        swap[str(pipeline["base"] / name)] = str(path)
    elif name == "schedule.csv":
        path = tmp_path / name
        path.write_text("date,home,away\n2024-09-01,EN0,EN1\n"
                        "2024-09-02,EN1,EN0\n")
        extra = ["--schedule", str(path)]
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path, [swap.get(a, a) for a in pipeline["common"]] + extra


def test_report_missing_team_names_the_row(pipeline, tmp_path, capsys):
    # replication 3's rows are file rows 92-121; drop its sixth team
    def drop(lines):
        del lines[1 + 3 * 30 + 5]
    path, args = edited_artifacts(pipeline, tmp_path,
                                  "replication_results.csv", drop)
    assert main(["report", *args]) == 3
    assert f"{path} row 92: replication 3 has no row for team " \
        in capsys.readouterr().err


def test_report_duplicate_row_names_the_row(pipeline, tmp_path, capsys):
    # a second row for replication 0's first team, at a lower win total
    def duplicate(lines):
        rep, team, wins, _ = lines[1].split(",")
        lines.append(f"{rep},{team},{int(wins) - 10},1")
    path, args = edited_artifacts(pipeline, tmp_path,
                                  "replication_results.csv", duplicate)
    assert main(["report", *args]) == 3
    assert f"{path} row 242: a second row for team" \
        in capsys.readouterr().err


@pytest.mark.parametrize("value, problem", [
    ("2", "expected 0 or 1, got '2'"),
    ("yes", "expected 0 or 1, got 'yes'"),
])
def test_report_bad_qualified_names_the_row(pipeline, tmp_path, capsys,
                                            value, problem):
    def replace(lines):
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
    path, args = edited_artifacts(pipeline, tmp_path,
                                  "replication_results.csv", replace)
    assert main(["report", *args]) == 3
    assert capsys.readouterr().err == \
        f"error: {path} row 2, column 'qualified': {problem}\n"


def test_duplicate_tercile_row_names_the_row(pipeline, tmp_path, capsys):
    # a second terciles.csv row for the first team, under another label,
    # must not silently win
    def duplicate(lines):
        team, label, era = lines[1].split(",")
        lines.append(f"{team},{'high' if label != 'high' else 'low'},{era}")
    path, args = edited_artifacts(pipeline, tmp_path, "terciles.csv",
                                  duplicate)
    assert run_on_artifacts("simulate", args) == 3
    assert f"{path} row 32: a second row for team" \
        in capsys.readouterr().err


def test_missing_tercile_is_named_in_tercile_order(tmp_path):
    # with only the low tercile estimated, the error names the first label
    # missing in TERCILES order, whatever the interpreter's string hashing
    (tmp_path / "terciles.csv").write_text(
        "team,tercile,early_era\nA,low,3.1\nB,medium,4.0\nC,high,4.9\n")
    (tmp_path / "noise_estimates.csv").write_text(
        "team,window_start,sigma_obs,sigma_process,converged\n"
        "A,0,0.4,0.05,1\n")
    probe = ("import sys\n"
             "from pennantsim.cli import RunConfig, _load_noise_artifacts\n"
             "try:\n"
             "    _load_noise_artifacts(RunConfig(out=sys.argv[1]))\n"
             "except ValueError as exc:\n"
             "    print(exc)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    errors = set()
    for hash_seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(src), os.environ.get("PYTHONPATH")]))}
        errors.add(subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path)], env=env,
            capture_output=True, text=True, check=True).stdout.strip())
    assert errors == {"tercile 'medium' has no converged noise estimates; "
                      "rerun the `noise` command"}


def test_duplicate_noise_window_names_the_row(pipeline, tmp_path, capsys):
    # a repeated window would be drawn twice as often as the others
    path, args = edited_artifacts(pipeline, tmp_path, "noise_estimates.csv",
                                  lambda lines: lines.append(lines[1]))
    lines = path.read_text().splitlines()
    team, start = lines[1].split(",")[:2]
    assert run_on_artifacts("simulate", args) == 3
    assert f"{path} row {len(lines)}: a second row for team {team!r} " \
        f"window_start {start}" in capsys.readouterr().err


def run_on_artifacts(command, args):
    extra = ["--replications", "2"] if command == "simulate" else []
    return main([command, *args, *extra])


# (command, file, the column a short second row leaves empty, the problem
# that column's converter reports)
SHORT_ROWS = [
    ("simulate", "draws.csv", "r3", "unparseable value ''"),
    ("simulate", "noise_estimates.csv", "converged", "expected 1, got ''"),
    ("simulate", "terciles.csv", "early_era", "unparseable value ''"),
    ("report", "replication_results.csv", "qualified",
     "expected 0 or 1, got ''"),
    ("simulate", "league.csv", "team", "empty team code"),
    ("simulate", "schedule.csv", "away", "empty team code"),
]


@pytest.mark.parametrize("command, name, column, problem", SHORT_ROWS,
                         ids=["-".join(case[:3]) for case in SHORT_ROWS])
def test_short_artifact_row_names_the_row(pipeline, tmp_path, capsys,
                                          command, name, column, problem):
    def shorten(lines):
        lines[1] = lines[1].rsplit(",", 1)[0]
    path, args = edited_artifacts(pipeline, tmp_path, name, shorten)
    assert run_on_artifacts(command, args) == 3
    assert capsys.readouterr().err == \
        f"error: {path} row 2, column {column!r}: {problem}\n"


# (command, file, the field of its second row set to abc, that field's
# column, the problem its converter reports)
BAD_FIELDS = [
    ("simulate", "draws.csv", 1, "r1", "unparseable value 'abc'"),
    ("simulate", "noise_estimates.csv", 2, "sigma_obs",
     "unparseable value 'abc'"),
    ("report", "replication_results.csv", 2, "wins",
     "expected a nonnegative integer, got 'abc'"),
    ("simulate", "schedule.csv", 0, "date", "bad date 'abc'"),
]


@pytest.mark.parametrize("command, name, field, column, problem", BAD_FIELDS,
                         ids=["-".join(map(str, case[:4]))
                              for case in BAD_FIELDS])
def test_bad_artifact_number_names_the_row(pipeline, tmp_path, capsys,
                                           command, name, field, column,
                                           problem):
    def garble(lines):
        values = lines[1].split(",")
        values[field] = "abc"
        lines[1] = ",".join(values)
    path, args = edited_artifacts(pipeline, tmp_path, name, garble)
    assert run_on_artifacts(command, args) == 3
    assert capsys.readouterr().err == \
        f"error: {path} row 2, column {column!r}: {problem}\n"


@pytest.mark.parametrize("name, fields, value, column, problem", [
    ("draws.csv", (1, 2, 3), "nan", "r1", "non-finite value 'nan'"),
    ("draws.csv", (2,), "-inf", "r2", "non-finite value '-inf'"),
    ("noise_estimates.csv", (2,), "-0.5", "sigma_obs", "negative: -0.5"),
    ("noise_estimates.csv", (3,), "nan", "sigma_process",
     "non-finite value 'nan'"),
    # the pool holds converged windows only
    ("noise_estimates.csv", (4,), "0", "converged", "expected 1, got '0'"),
    ("noise_estimates.csv", (4,), "yes", "converged",
     "expected 1, got 'yes'"),
    # any other label would make a pool of its own
    ("terciles.csv", (1,), "lwo", "tercile",
     "expected low or medium or high, got 'lwo'"),
    ("league.csv", (1,), "", "division", "empty value"),
    ("schedule.csv", (2,), "ZZZ", "away", "unknown team 'ZZZ'"),
    # float() takes digit separators; a number field does not
    ("draws.csv", (3,), "1_000", "r3", "unparseable value '1_000'"),
])
def test_out_of_domain_artifact_value_names_the_row(pipeline, tmp_path, capsys,
                                                    name, fields, value,
                                                    column, problem):
    def garble(lines):
        values = lines[1].split(",")
        for field in fields:
            values[field] = value
        lines[1] = ",".join(values)
    path, args = edited_artifacts(pipeline, tmp_path, name, garble)
    assert run_on_artifacts("simulate", args) == 3
    assert capsys.readouterr().err == \
        f"error: {path} row 2, column {column!r}: {problem}\n"


# ---------------------------------------------------------------------------
# faulty game logs: the parser refuses them for every command


def faulty_log(pipeline, tmp_path, edit):
    """A copy of the pipeline's outputs, and of its game log with edit(rows)
    applied to the data rows; returns the log's path and the common
    arguments pointing at both copies."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out"], out)
    log = tmp_path / "log.csv"
    header, *rows = (pipeline["base"] / "log.csv").read_text().splitlines()
    edit(rows)
    log.write_text("\n".join([header, *rows]) + "\n")
    swap = {str(pipeline["out"]): str(out),
            str(pipeline["base"] / "log.csv"): str(log)}
    return log, [swap.get(a, a) for a in pipeline["common"]]


def set_home_avg(value):
    def edit(rows):   # file row 10
        fields = rows[8].split(",")
        fields[5] = value
        rows[8] = ",".join(fields)
    return edit


def move_rounds_to_top(rows):
    # rounds 13-17 (15 games a round) first: file row 77, the first game
    # of round 0, is the first out of date order
    rows[:] = rows[195:270] + rows[:195] + rows[270:]


COMMAND_FLAGS = {"validate": [], "fit": FIT_FLAGS, "noise": [],
                 "simulate": ["--replications", "2"]}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("edit, row, column, problem", [
    pytest.param(set_home_avg("0.000"), 10, "home_avg_pre",
                 "out of (0, 1): 0.0", id="zero-batting"),
    pytest.param(set_home_avg("1.5"), 10, "home_avg_pre",
                 "out of (0, 1): 1.5", id="batting-above-one"),
    pytest.param(move_rounds_to_top, 77, "date",
                 "2024-04-20 is before the previous row's 2024-05-07",
                 id="unsorted"),
])
def test_faulty_game_log_names_file_row_and_column(
        pipeline, tmp_path, capsys, command, edit, row, column, problem):
    log, args = faulty_log(pipeline, tmp_path, edit)
    code = main([command, *args, *COMMAND_FLAGS[command]])
    captured = capsys.readouterr()
    message = f"{log} row {row}, column {column!r}: {problem}"
    if command == "validate":
        assert code == 1
        assert f"issue: game log: {message}" in captured.out
    else:
        assert code == 3
        assert f"error: {message}" in captured.err


@pytest.mark.parametrize("command", ["fit", "noise", "simulate"])
def test_header_only_game_log_names_the_file(pipeline, tmp_path, capsys,
                                             command):
    log, args = faulty_log(pipeline, tmp_path, list.clear)
    assert main([command, *args, *COMMAND_FLAGS[command]]) == 3
    assert f"error: {log}: no games in the game log" in capsys.readouterr().err


def test_validate_header_only_game_log_is_an_issue(pipeline, tmp_path,
                                                   capsys):
    log, args = faulty_log(pipeline, tmp_path, list.clear)
    assert main(["validate", *args]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        f"issue: game log: {log}: no games in the game log",
        "1 issue(s) found"]


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


def test_config_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n# a comment\n\nseed = 2\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert f"{cfg} line 4: seed is already set on line 1" \
        in capsys.readouterr().err


def test_bad_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_setting_value_is_usage_error(capsys):
    assert main(["simulate", "--replications", "0"]) == 2
    assert "replications" in capsys.readouterr().err
    assert main(["fit", "--min-games", "-1"]) == 2
    assert "min_games" in capsys.readouterr().err
    assert main(["fit", "--jobs", "0"]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("draws = map", "draws must be posterior-predictive or point, got 'map'"),
    ("era_mode = walk", "era_mode must be forecast or path, got 'walk'")],
    ids=["draws", "era_mode"])
def test_choice_setting_outside_its_choices_is_usage_error(tmp_path, capsys,
                                                           line, message):
    # argparse checks a flag's choices; RunConfig checks a config file's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_library_records_own_the_defaults(tmp_path):
    # RunConfig's defaults are the library records' own, so a release gate
    # built on SimOptions() or PriorConfig() runs what simulate and fit run
    cfg = RunConfig()
    assert cfg.prior_config() == PriorConfig()
    assert cfg.chain_config() == ChainConfig()
    assert cfg.sim_options() == SimOptions()
    write_league_file(tmp_path / "league.csv")
    assert read_league_csv(tmp_path / "league.csv").season_length \
        == cfg.season_length
    assert LeagueStructure.from_rows([("E", "N", "A")]).season_length \
        == cfg.season_length


def test_jobs_default_without_affinity_call(monkeypatch):
    # macOS and Windows have no sched_getaffinity: every core counts
    monkeypatch.delattr(os, "sched_getaffinity")
    assert RunConfig().jobs == (os.cpu_count() or 1)


@pytest.mark.parametrize("setting", fields(RunConfig), ids=lambda f: f.name)
def test_each_setting_is_a_flag_and_a_config_key(setting, tmp_path):
    # every RunConfig field is a flag of some subcommand, and that flag and
    # the config key resolve to the same value of the field's type
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    flag = "--" + setting.name.replace("_", "-")
    command = next((name for name, sub in subparsers.items()
                    if flag in sub._option_string_actions), None)
    assert command, f"no subcommand takes {flag}"
    hint = typing.get_type_hints(RunConfig)[setting.name]
    kinds = typing.get_args(hint) or (hint,)
    default = getattr(RunConfig(), setting.name)
    choices = subparsers[command]._option_string_actions[flag].choices
    if choices:
        text = next(c for c in choices if c != default)
    elif int in kinds:
        text = str(default + 1)
    elif float in kinds:
        text = repr((default or 0.0) + 0.5)
    else:
        text = "elsewhere"
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting.name} = {text}\n")
    from_flag, from_key = (
        getattr(resolve_config(parser.parse_args([command, *argv])),
                setting.name)
        for argv in ([flag, text], ["--config", str(config)]))
    assert from_flag == from_key != default
    assert type(from_flag) is type(from_key) and type(from_flag) in kinds


@pytest.mark.parametrize("value", ["0", "5", "9"])
def test_window_below_noise_minimum_is_usage_error(tmp_path, capsys, value):
    # the noise MLE needs at least 10 observations a window: a shorter
    # window is refused before any work, from a flag or a config file
    out = tmp_path / "out"
    assert main(["noise", "--window-length", value, "--out", str(out)]) == 2
    assert "window_length must be >= 10" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"window_length = {value}\n")
    assert main(["noise", "--config", str(cfg), "--out", str(out)]) == 2
    assert "window_length must be >= 10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["fit", "--iterations", "100", "--burn-in", "200"], "burn_in"),
    (["fit", "--r-max", "inf"], "r_max"),
    (["simulate", "--walk-std", "nan"], "step_std"),
    (["fit", "--proposal-std", "0"], "proposal_std"),
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
