"""Workload definitions and the input files each one runs on.

Every workload is a 30-team league (2 leagues x 3 divisions x 5 teams) and
a raw-shape game log: one game per team per round, so each round is one
calendar day of 15 games. The writers follow the CLI test fixtures' layout
(league file, raw-shape log with run totals, latent ERA random walk plus
observation noise, batting-deviation walk) and extend it to multi-season
logs. Inside the training window the outcomes come from the forecast model
itself, at fixed true exponents, so the fit has a known answer to find.
Before the window they are fair coin flips, as in the fixtures: the model
makes a winless record absorbing (its win-percentage ratio is floored near
zero), so a season's first games must not follow it.

They are copies on purpose: the benchmark never imports the test suite, so
an edit to a test fixture cannot move a benchmark number.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

import numpy as np

LEAGUES = ("E", "W")
DIVISIONS = ("N", "C", "S")
TEAMS_PER_DIVISION = 5
SEASON_LENGTH = 162

# Win-percentage, batting and ERA exponents the outcomes are drawn with.
TRUE_EXPONENTS = (1.0, 1.0, 1.5)
# Standard deviations of the listed starter ERA around the latent level, and
# of the latent level's step per round.
ERA_OBS_SD = 0.4
ERA_PROCESS_SD = 0.05
# Floors the model applies before forming ratios (pennantsim.model).
STAT_FLOOR = 1e-3
ERA_FLOOR = 0.01

# A prior season runs every round from April 1; the current season starts
# May 1, so its later rounds fall in the CLI's default training window
# (May 20 - Aug 20). Outcomes follow the model from the window's start on.
PRIOR_SEASON_START = (4, 1)
CURRENT_SEASON_START = (5, 1)
MODEL_OUTCOMES_FROM = (5, 20)
CURRENT_YEAR = 2024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prior_seasons: int       # full 162-round seasons before the current one
    rounds_played: int       # rounds of the current season already in the log
    season_length: int       # games per team in the current season
    iterations: int
    chains: int
    replications: int
    mode: str                # simulate --mode
    era_mode: str            # simulate --era-mode
    jobs: int                # simulate --jobs

    def stage_args(self) -> dict[str, list[str]]:
        """CLI flags per stage, beyond the shared input/output flags."""
        common = ["--season-length", str(self.season_length)]
        return {
            "validate": common,
            "fit": common + ["--iterations", str(self.iterations),
                             "--chains", str(self.chains)],
            "noise": common,
            "simulate": common + ["--replications", str(self.replications),
                                  "--mode", self.mode,
                                  "--era-mode", self.era_mode,
                                  "--jobs", str(self.jobs)],
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="early-marginal",
        why="36 of 162 rounds played: simulate (945k games) is about half "
            "the pipeline, against under a fifth on history-path: the "
            "workload for season-kernel gains",
        prior_seasons=0, rounds_played=36, season_length=SEASON_LENGTH,
        iterations=10_000, chains=4, replications=500, mode="marginal",
        era_mode="forecast", jobs=1),
    Workload(
        name="history-path",
        why="three prior seasons: fit and ingest dominate, simulate is under "
            "a fifth; two-stage path mode reads the noise pools and draws Beta "
            "in the game loop",
        prior_seasons=3, rounds_played=40, season_length=SEASON_LENGTH,
        iterations=10_000, chains=4, replications=200, mode="two-stage",
        era_mode="path", jobs=2),
)}


def league_teams() -> list[str]:
    return [f"{lg}{div}{k}" for lg in LEAGUES for div in DIVISIONS
            for k in range(TEAMS_PER_DIVISION)]


def league_csv() -> str:
    lines = ["league,division,team"]
    for lg in LEAGUES:
        for div in DIVISIONS:
            for k in range(TEAMS_PER_DIVISION):
                lines.append(f"{lg},{div},{lg}{div}{k}")
    return "\n".join(lines) + "\n"


def _season_lines(rng, teams, start: datetime.date, n_rounds: int) -> list:
    """Raw-shape rows for one season. From MODEL_OUTCOMES_FROM on, outcomes
    follow the model at TRUE_EXPONENTS from each side's pregame win
    percentage, batting average and listed starter ERA; before it, the home
    side wins with probability 0.5."""
    model_from = datetime.date(start.year, *MODEL_OUTCOMES_FROM)
    n = len(teams)
    r1, r2, r3 = TRUE_EXPONENTS
    era_latent = rng.uniform(3.2, 5.0, n)
    bat_dev = np.zeros(n)
    wins = np.zeros(n, dtype=int)
    games = np.zeros(n, dtype=int)
    lines = []
    for rnd in range(n_rounds):
        date = start + datetime.timedelta(days=rnd)
        order = rng.permutation(n)
        era_latent = np.clip(era_latent + rng.normal(0, ERA_PROCESS_SD, n),
                             1.5, 7.0)
        bat_dev = np.clip(bat_dev + rng.normal(0, 0.0015, n), -0.05, 0.05)
        for i in range(0, n, 2):
            h, a = int(order[i]), int(order[i + 1])
            era_h = max(era_latent[h] + rng.normal(0, ERA_OBS_SD), 0.5)
            era_a = max(era_latent[a] + rng.normal(0, ERA_OBS_SD), 0.5)
            avg_h, avg_a = 0.25 + bat_dev[h], 0.25 + bat_dev[a]
            wp_h = wins[h] / games[h] if games[h] else 0.5
            wp_a = wins[a] / games[a] if games[a] else 0.5
            strength = ((max(wp_h, STAT_FLOOR) / max(wp_a, STAT_FLOOR)) ** r1
                        * (avg_h / avg_a) ** r2
                        * (max(era_a, ERA_FLOOR) / max(era_h, ERA_FLOOR))
                        ** r3)
            p = strength / (1.0 + strength) if date >= model_from else 0.5
            home_won = bool(rng.random() < p)
            winner_runs = int(rng.integers(3, 10))
            loser_runs = int(rng.integers(0, winner_runs))
            hr, ar = (winner_runs, loser_runs) if home_won \
                else (loser_runs, winner_runs)
            wins[h if home_won else a] += 1
            games[h] += 1
            games[a] += 1
            lines.append(f"{date},{teams[h]},{teams[a]},{hr},{ar},"
                         f"{avg_h:.4f},{avg_a:.4f},{era_h:.3f},{era_a:.3f}")
    return lines


def game_log_csv(workload: Workload, seed: int) -> str:
    """The workload's log: its prior full seasons, then the current season
    up to rounds_played. Each season has its own stream from (seed, year)."""
    teams = league_teams()
    lines = ["date,home,away,home_runs,away_runs,home_avg_pre,away_avg_pre,"
             "home_era_pre,away_era_pre"]
    first = CURRENT_YEAR - workload.prior_seasons
    for year in range(first, CURRENT_YEAR + 1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, year)))
        if year == CURRENT_YEAR:
            start, rounds = CURRENT_SEASON_START, workload.rounds_played
        else:
            start, rounds = PRIOR_SEASON_START, SEASON_LENGTH
        lines += _season_lines(rng, teams, datetime.date(year, *start), rounds)
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory) -> dict:
    """Write league.csv and games.csv into directory; returns
    {filename: sha256 hex digest} so a result proves which inputs it used."""
    files = {"league.csv": league_csv(),
             "games.csv": game_log_csv(workload, seed)}
    digests = {}
    for name, text in files.items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def scheduled_games(workload: Workload) -> int:
    """Games in the synthetic remainder: every team plays out the season."""
    teams = len(LEAGUES) * len(DIVISIONS) * TEAMS_PER_DIVISION
    return teams * (workload.season_length - workload.rounds_played) // 2
