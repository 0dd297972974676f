"""Replicated full-season Monte Carlo simulation.

Plays a remaining-season schedule from the fitted posterior while team
state (record, batting deviation, latent ERA) evolves, then aggregates win
totals and playoff qualification over many replications. Each game plays
in the wave of its level, one past its two teams' previous games, on every
replication at once; each wave's variates are drawn just before it plays,
so memory is the (team, replication) state plus one wave of variates.
Results stay (replication, team) arrays from the kernel to every writer,
and depend on (seed, replications) alone.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .kalman import sample_noise
from .model import ERA_FLOOR, log_ratios
from .stats import nearest_rank_quantile

DRAW_MODES = ("posterior-predictive", "point")
ERA_MODES = ("forecast", "path")


# Batting random walk: team averages are deviations from the league mean,
# and each game a team plays adds one Normal(0, step_std^2) increment to its
# deviation. The implied average (mean + deviation) is clamped to
# [BATTING_LOW, BATTING_HIGH]; the raw deviation is not.
LEAGUE_BATTING_MEAN = 0.250
BATTING_LOW, BATTING_HIGH = 0.150, 0.400


@dataclass(frozen=True)
class TeamSimState:
    """Evolving per-team state during a simulated season. era is the latent
    ERA level the season starts from (the filtered mean); tercile names the
    noise pool path mode draws the team's ERA noise from."""

    team: str
    wins: int
    losses: int
    batting_deviation: float
    era: float
    tercile: str = ""

    def __post_init__(self):
        if self.wins < 0 or self.losses < 0:
            raise ValueError(f"{self.team}: negative win/loss count")

    @property
    def games_played(self) -> int:
        return self.wins + self.losses


@dataclass(frozen=True)
class ScheduledGame:
    date: datetime.date
    home: str
    away: str

    def __post_init__(self):
        if self.home == self.away:
            raise ValueError(f"{self.date}: team {self.home!r} scheduled "
                             f"against itself")


@dataclass(frozen=True)
class Schedule:
    """Remaining unplayed games, ordered by date."""

    games: tuple[ScheduledGame, ...]
    synthetic: bool = False

    def __post_init__(self):
        for prev, cur in zip(self.games, self.games[1:]):
            if cur.date < prev.date:
                raise ValueError(f"schedule out of date order at {cur.date} "
                                 f"(after {prev.date})")

    def __len__(self):
        return len(self.games)

    @property
    def teams(self) -> set[str]:
        return {g.home for g in self.games} | {g.away for g in self.games}

    def games_per_team(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in self.games:
            counts[g.home] = counts.get(g.home, 0) + 1
            counts[g.away] = counts.get(g.away, 0) + 1
        return counts


def _listed_twice(team: str, first: tuple[str, str],
                  second: tuple[str, str]) -> str:
    """Why a team placed in division first cannot also be in second."""
    if first == second:
        return f"team {team!r} appears twice in {'/'.join(first)}"
    return (f"team {team!r} appears in both {'/'.join(first)} and "
            f"{'/'.join(second)}")


@dataclass(frozen=True)
class LeagueStructure:
    """Leagues partitioned into equal-size divisions, plus the season length."""

    divisions: dict[str, dict[str, tuple[str, ...]]]
    season_length: int = 162

    def __post_init__(self):
        if self.season_length <= 0:
            raise ValueError(f"season_length must be positive, "
                             f"got {self.season_length}")
        if not self.divisions:
            raise ValueError("league structure has no leagues")
        by_team: dict[str, tuple[str, str]] = {}
        for lg, divs in self.divisions.items():
            if not divs:
                raise ValueError(f"league {lg!r} has no divisions")
            sizes = {len(teams) for teams in divs.values()}
            if len(sizes) != 1:
                raise ValueError(f"league {lg!r} has unequal division sizes")
            for div, teams in divs.items():
                if not teams:
                    raise ValueError(f"division {lg}/{div} is empty")
                for t in teams:
                    if t in by_team:
                        raise ValueError(_listed_twice(t, by_team[t],
                                                       (lg, div)))
                    by_team[t] = (lg, div)
        object.__setattr__(self, "_by_team", by_team)

    @classmethod
    def from_rows(cls, rows, season_length: int = 162) -> "LeagueStructure":
        """Build from (league, division, team) triples."""
        divisions: dict[str, dict[str, list[str]]] = {}
        for lg, div, team in rows:
            divisions.setdefault(lg, {}).setdefault(div, []).append(team)
        frozen = {lg: {div: tuple(teams) for div, teams in divs.items()}
                  for lg, divs in divisions.items()}
        return cls(divisions=frozen, season_length=season_length)

    @property
    def teams(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_team))

    def membership(self, team: str) -> tuple[str, str]:
        """(league, division) of a team."""
        try:
            return self._by_team[team]
        except KeyError:
            raise ValueError(f"team {team!r} not in league structure") from None


_RESULT_ARRAYS = ("replication_ids", "wins", "qualified")


@dataclass(frozen=True, eq=False)
class SeasonResults:
    """Final standings of replications: row i is replication
    replication_ids[i] and column j is teams[j], with teams sorted."""

    teams: tuple[str, ...]
    replication_ids: np.ndarray    # (R,) int
    wins: np.ndarray               # (R, T) int
    qualified: np.ndarray          # (R, T) bool

    def __len__(self):
        return len(self.replication_ids)

    def __eq__(self, other):
        if not isinstance(other, SeasonResults):
            return NotImplemented
        return self.teams == other.teams and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _RESULT_ARRAYS)


@dataclass(frozen=True)
class TeamForecast:
    team: str
    mean_wins: float
    ci5: float
    ci95: float
    playoff_prob: float

    def __post_init__(self):
        if not 0.0 <= self.playoff_prob <= 1.0:
            raise ValueError(f"{self.team}: playoff probability out of [0, 1]")
        if not self.ci5 <= self.ci95:
            raise ValueError(f"{self.team}: quantiles out of order")


@dataclass(frozen=True)
class ForecastSummary:
    """Per-team aggregates over replications, ordered by descending mean wins."""

    teams: tuple[TeamForecast, ...]
    n_replications: int


@dataclass(frozen=True)
class SimOptions:
    """How outcomes are generated. The home team wins a game with
    probability s/(1+s), s its strength ratio.

    draw_mode: one posterior draw per game ('posterior-predictive') or the
    posterior mean ('point'). era_mode: 'forecast' feeds each game the
    current ERA forecast mean; 'path' random-walks the latent ERA and feeds
    a noisy observation. step_std: the batting walk's per-game step.
    """

    draw_mode: str = "posterior-predictive"
    era_mode: str = "forecast"
    step_std: float = 0.0015
    burn_in_games: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.step_std) and self.step_std > 0):
            raise ValueError(f"step_std must be positive, got {self.step_std}")
        if self.draw_mode not in DRAW_MODES:
            raise ValueError(f"draw_mode must be one of {DRAW_MODES}, "
                             f"got {self.draw_mode!r}")
        if self.era_mode not in ERA_MODES:
            raise ValueError(f"era_mode must be one of {ERA_MODES}, "
                             f"got {self.era_mode!r}")
        if self.burn_in_games < 0:
            raise ValueError(f"burn_in_games must be nonnegative, "
                             f"got {self.burn_in_games}")


# ---------------------------------------------------------------------------
# replications

# The kinds of variate the kernel draws, each from its own stream; the
# streams are SeedSequence(seed).spawn(len(STREAMS)) in this order, in every
# mode, so no kind's numbers depend on which others a mode reads.
STREAMS = ("outcomes", "draw_rows", "walk", "era_steps", "era_errors",
           "tie_keys", "noise_rows")


def _waves(pairs):
    """The games in stable level order and one slice of it per level, a
    game's level being one past the larger of its two teams' previous levels.
    A level's games share no team, and no valid grouping has fewer waves."""
    level, last = np.empty(len(pairs), dtype=np.intp), {}
    for g, (home, away) in enumerate(pairs):
        level[g] = last[home] = last[away] = 1 + max(last.get(home, -1),
                                                     last.get(away, -1))
    ends = [0, *np.cumsum(np.bincount(level)).tolist()]
    return np.argsort(level, kind="stable"), list(map(slice, ends, ends[1:]))


def _team_pools(states, noise_pools):
    """Each team's noise pool, in the order of states: its tercile's (k, 2)
    array of (sigma_obs, sigma_process) rows."""
    if noise_pools is None:
        raise ValueError("path mode needs noise pools")
    pools = []
    for state in states:
        if not state.tercile:
            raise ValueError(f"{state.team} has no tercile")
        try:
            pools.append(noise_pools[state.tercile])
        except KeyError:
            raise ValueError(f"no noise pool for tercile "
                             f"{state.tercile!r}") from None
    return pools


def run_replication(initial, schedule: Schedule, draws, league: LeagueStructure,
                    seed: int, replications: int, *,
                    opts: SimOptions | None = None,
                    noise_pools=None) -> SeasonResults:
    """The season kernel: every replication played side by side, one wave
    of games at a time. perfbench/tracing.py times the kernel by this name.

    The seed spawns one stream per kind of variate (see STREAMS): outcome
    uniforms, draw rows, walk normals, ERA steps, ERA errors, tie keys and
    noise rows. Each level (see _waves) plays at once, and each kind is
    drawn for it just before it plays, game-major in level order: (games,
    R), or (games, 2, R) for the home and away sides. So splitting a wave
    gives every game the same numbers, and results depend on (seed,
    replications) alone. Path mode draws each team's R noise pairs from
    noise_pools, {tercile: (k, 2) array of (sigma_obs, sigma_process)},
    before the first game; forecast mode reads no noise.
    """
    opts = opts or SimOptions()
    states = sorted(initial, key=lambda s: s.team)   # results' column order
    teams = [s.team for s in states]
    if len(set(teams)) != len(teams):
        raise ValueError("duplicate team in initial states")
    index = {t: i for i, t in enumerate(teams)}
    for t in league.teams:
        if t not in index:
            raise ValueError(f"no final record for team {t!r}: it has no "
                             f"initial state")
    for g in schedule.games:
        if g.home not in index or g.away not in index:
            raise ValueError(f"scheduled team {g.home if g.home not in index else g.away!r} "
                             f"has no initial state")
    scheduled_teams = schedule.teams
    for s in states:
        if s.team in scheduled_teams and s.games_played < opts.burn_in_games:
            raise ValueError(f"{s.team} has {s.games_played} games played, "
                             f"below the {opts.burn_in_games}-game burn-in")
        if s.team in scheduled_teams and s.games_played == 0:
            raise ValueError(f"{s.team} has no games on record; win "
                             f"percentage undefined")
    matrix = np.asarray(draws, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != 3 or matrix.shape[0] == 0:
        raise ValueError(f"posterior draws must be a nonempty (n, 3) array, "
                         f"got shape {matrix.shape}")

    predictive = opts.draw_mode == "posterior-predictive"
    path = opts.era_mode == "path"
    pairs = [(index[g.home], index[g.away]) for g in schedule.games]
    n_games = len(pairs)
    order, waves = _waves(pairs)
    # (2, games) home and away team rows, in level order
    sides = np.array(pairs, dtype=np.intp).reshape(n_games, 2)[order].T
    (outcome_rng, row_rng, walk_rng, step_rng, error_rng, tie_rng,
     noise_rng) = map(np.random.default_rng,
                      np.random.SeedSequence(seed).spawn(len(STREAMS)))

    def normals(rng, k, scale):   # (2, k, R), drawn as (k, 2, R)
        return scale * rng.standard_normal((k, 2, replications)).swapaxes(0, 1)

    # team state is a (team, replication) array, so a wave's rows are
    # gathered by one index; axis 0 of ix and of the normals is home/away
    wins, losses, dev, era = (
        np.repeat(np.array(column)[:, None], replications, axis=1)
        for column in zip(*[(s.wins, s.losses, s.batting_deviation, s.era)
                            for s in states]))
    tie_keys = tie_rng.random((replications, len(teams)))
    if path:   # (team, replication) sigmas, one intact pool row each
        sigma_obs, sigma_process = np.array(
            [sample_noise(pool, noise_rng, replications)
             for pool in _team_pools(states, noise_pools)]).transpose(2, 0, 1)
    mean_row = matrix.mean(axis=0)
    for w in waves:
        ix = sides[:, w]
        k = ix.shape[1]
        won, lost = wins[ix], losses[ix]
        win_pct = won / (won + lost)
        avg = np.clip(LEAGUE_BATTING_MEAN + dev[ix], BATTING_LOW,
                      BATTING_HIGH)
        era_now = era[ix] + normals(error_rng, k, sigma_obs[ix]) if path \
            else era[ix]
        ratios = log_ratios(win_pct[0], win_pct[1], avg[0], avg[1],
                            era_now[0], era_now[1])
        r = matrix[row_rng.integers(0, len(matrix), (k, replications))] \
            if predictive else mean_row
        # exp overflows above 709; a strength of e^700 already gives p = 1
        strength = np.exp(np.minimum((ratios * r).sum(axis=-1), 700.0))
        home_won = outcome_rng.random((k, replications)) \
            < strength / (1.0 + strength)
        wins[ix] = won + (home_won, ~home_won)
        losses[ix] = lost + (~home_won, home_won)
        dev[ix] += normals(walk_rng, k, opts.step_std)
        if path:
            era[ix] = np.maximum(
                era[ix] + normals(step_rng, k, sigma_process[ix]), ERA_FLOOR)

    # every simulated game hands out exactly one win and one loss
    if np.any(wins.sum(axis=0) != sum(s.wins for s in states) + n_games):
        raise RuntimeError("game accounting error: wins do not add up")
    if np.any(losses.sum(axis=0) != sum(s.losses for s in states) + n_games):
        raise RuntimeError("game accounting error: losses do not add up")

    final = wins.T
    return SeasonResults(
        teams=tuple(teams), replication_ids=np.arange(replications),
        wins=final, qualified=playoff_qualifiers(final, tie_keys, league,
                                                 teams))


def run_replications(n: int, initial, schedule: Schedule, draws,
                     league: LeagueStructure, base_seed: int, *,
                     opts: SimOptions | None = None, noise_pools=None,
                     n_jobs: int = 1) -> SeasonResults:
    """n replications from base_seed, all played in this process by one
    run_replication call. The results depend on (base_seed, n): a run of n
    is not a prefix of a longer run. n_jobs is accepted and has no effect."""
    if n < 1:
        raise ValueError(f"need at least 1 replication, got {n}")
    return run_replication(initial, schedule, draws, league, base_seed, n,
                           opts=opts, noise_pools=noise_pools)


# ---------------------------------------------------------------------------
# playoffs and aggregation


def playoff_qualifiers(wins, tie_keys, league: LeagueStructure, teams, *,
                       wild_cards: int = 3) -> np.ndarray:
    """(R, T) bool: the division winners plus the best remaining records
    per league, in each of R replications.

    wins and tie_keys are (R, T) arrays whose columns are the named teams,
    which must include every team of the league. Equal wins are broken by
    the higher tie key.
    """
    column = {t: j for j, t in enumerate(teams)}
    rows = np.arange(len(wins))[:, None]
    qualified = np.zeros(wins.shape, dtype=bool)
    for divs in league.divisions.values():
        cols = np.array([[column[t] for t in members]
                         for members in divs.values()])   # (divisions, size)
        # lexsort orders by its last key first, ascending
        best = np.lexsort((tie_keys[:, cols], wins[:, cols]))[..., -1]
        qualified[rows, cols[np.arange(len(cols)), best]] = True
        flat = cols.ravel()
        order = np.lexsort((tie_keys[:, flat], wins[:, flat],
                            ~qualified[:, flat]))
        qualified[rows, flat[order[:, max(len(flat) - wild_cards, 0):]]] = True
    return qualified


def summarize(results: SeasonResults) -> ForecastSummary:
    """Mean wins, nearest-rank 5/95 quantiles, and playoff rate per team,
    ordered by descending mean wins (team id breaks exact ties)."""
    if not len(results):
        raise ValueError("no replications to summarize")
    wins = results.wins.astype(float)
    forecasts = [
        TeamForecast(team=team, mean_wins=float(mean),
                     ci5=nearest_rank_quantile(column, 0.05),
                     ci95=nearest_rank_quantile(column, 0.95),
                     playoff_prob=float(rate))
        for team, column, mean, rate in zip(
            results.teams, wins.T, wins.mean(axis=0),
            results.qualified.mean(axis=0))]
    forecasts.sort(key=lambda f: (-f.mean_wins, f.team))
    return ForecastSummary(teams=tuple(forecasts), n_replications=len(results))


def export_win_histogram(results: SeasonResults,
                         team: str) -> list[tuple[int, int]]:
    """(win_total, count) rows covering the observed min..max range."""
    if not len(results):
        raise ValueError("no replications to bin")
    if team not in results.teams:
        raise ValueError(f"unknown team {team!r}")
    wins = results.wins[:, results.teams.index(team)]
    low, high = int(wins.min()), int(wins.max())
    counts = np.bincount(wins - low, minlength=high - low + 1)
    return [(low + k, int(c)) for k, c in enumerate(counts)]


# ---------------------------------------------------------------------------
# schedules and league files

SCHEDULE_START = datetime.date(2024, 8, 1)   # a synthetic schedule's first day
DIVISION_WEIGHT = 0.6


def generate_schedule(league: LeagueStructure, games_played: dict[str, int],
                      seed: int) -> Schedule:
    """Synthetic remaining-season schedule when no real one is available.

    Repeatedly matches the team with the most games left against an opponent
    that still needs games — same-division with probability DIVISION_WEIGHT
    — until every team reaches the season length. Marked synthetic so
    reports can flag it.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CED)))
    need = {}
    for team in league.teams:
        played = games_played.get(team, 0)
        remaining = league.season_length - played
        if remaining < 0:
            raise ValueError(f"{team} has played {played} games, more than "
                             f"the {league.season_length}-game season")
        need[team] = remaining
    if sum(need.values()) % 2:
        raise ValueError("total remaining games is odd; cannot pair teams")

    per_day = max(len(league.teams) // 2, 1)
    division = {t: league.membership(t) for t in need}
    games = []
    while pending := [t for t in need if need[t] > 0]:   # in team order
        team = max(pending, key=lambda t: (need[t], t))
        others = [t for t in pending if t != team]
        if not others:
            raise ValueError(f"{team} still needs {need[team]} games but no "
                             f"opponent has games left")
        same = [t for t in others if division[t] == division[team]]
        other = [t for t in others if division[t] != division[team]]
        pool = same if same and (not other or rng.random() < DIVISION_WEIGHT) \
            else other
        opponent = pool[int(rng.integers(len(pool)))]
        home, away = (team, opponent) if rng.random() < 0.5 else (opponent, team)
        day = SCHEDULE_START + datetime.timedelta(days=len(games) // per_day)
        games.append(ScheduledGame(date=day, home=home, away=away))
        need[team] -= 1
        need[opponent] -= 1
    return Schedule(games=tuple(games), synthetic=True)


def csv_rows(path, columns: dict, what: str):
    """(line number, field values) for each data row of a CSV file whose
    header names the given columns; columns maps each name to the type its
    values are converted by. A missing, empty or unconvertible field, or a
    field past the header's last column, is an error naming the row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None \
                or not set(columns) <= set(reader.fieldnames):
            raise ValueError(f"{path}: {what} header must contain "
                             f"{sorted(columns)}")
        for row in reader:
            line = f"{path} row {reader.line_num}"
            if None in row:
                raise ValueError(f"{line}: more fields than the header's "
                                 f"{len(reader.fieldnames)}")
            values = []
            for column, kind in columns.items():
                if not row[column]:
                    raise ValueError(f"{line}: missing {column}")
                try:
                    values.append(kind(row[column]))
                except ValueError:
                    raise ValueError(f"{line}: bad {column} "
                                     f"{row[column]!r}") from None
            yield reader.line_num, values


def read_schedule_csv(path) -> Schedule:
    games = []
    for lineno, (day, home, away) in csv_rows(
            path, {"date": datetime.date.fromisoformat, "home": str,
                   "away": str}, "schedule"):
        if games and day < games[-1].date:
            raise ValueError(f"{path} row {lineno}: date {day} is before "
                             f"the previous row's {games[-1].date}")
        try:
            games.append(ScheduledGame(date=day, home=home, away=away))
        except ValueError as exc:
            raise ValueError(f"{path} row {lineno}: {exc}") from None
    return Schedule(games=tuple(games), synthetic=False)


def read_league_csv(path, season_length: int = 162) -> LeagueStructure:
    rows, first = [], {}    # team -> (its row, (league, division))
    for lineno, (lg, div, team) in csv_rows(
            path, dict.fromkeys(("league", "division", "team"), str),
            "league"):
        if team in first:
            row, place = first[team]
            raise ValueError(f"{path} row {lineno}: "
                             f"{_listed_twice(team, place, (lg, div))} "
                             f"(first listed on row {row})")
        first[team] = (lineno, (lg, div))
        rows.append((lg, div, team))
    if not rows:
        raise ValueError(f"{path}: no teams in league file")
    try:
        return LeagueStructure.from_rows(rows, season_length=season_length)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
