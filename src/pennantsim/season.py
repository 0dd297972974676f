"""Replicated full-season Monte Carlo simulation.

Walks a remaining-season schedule in date order, simulating each game from
the fitted posterior while team state (record, batting deviation, latent ERA)
evolves, then aggregates win totals and playoff qualification over many
replications. Replication streams derive from (base_seed, replication_id) so
results never depend on execution order or parallelism.
"""

from __future__ import annotations

import csv
import datetime
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kalman import NoiseParams, sample_noise
from .mcmc import PosteriorDraws
from .model import ERA_FLOOR, STAT_FLOOR
from .stats import nearest_rank_quantile

PROBABILITY_MODES = ("marginal", "two-stage")
DRAW_MODES = ("posterior-predictive", "point")
ERA_MODES = ("forecast", "path")


@dataclass(frozen=True)
class WalkConfig:
    """Batting random walk: team averages are deviations from a league mean,
    and each game a team plays adds one Normal(0, step_std^2) increment to
    its deviation. The implied average (mean + deviation) is clamped to
    [clamp_low, clamp_high]; the raw deviation is not."""

    step_std: float = 0.0015
    league_mean: float = 0.250
    clamp_low: float = 0.150
    clamp_high: float = 0.400

    def __post_init__(self):
        if not (math.isfinite(self.step_std) and self.step_std > 0):
            raise ValueError(f"step_std must be positive, got {self.step_std}")
        if not 0.0 < self.clamp_low < self.league_mean < self.clamp_high < 1.0:
            raise ValueError(
                f"need 0 < clamp_low < league_mean < clamp_high < 1, got "
                f"({self.clamp_low}, {self.league_mean}, {self.clamp_high})")


@dataclass(frozen=True)
class TeamSimState:
    """Evolving per-team state during a simulated season. era is the latent
    ERA level the season starts from (the filtered mean)."""

    team: str
    wins: int
    losses: int
    batting_deviation: float
    era: float
    noise: NoiseParams
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
                        raise ValueError(f"team {t!r} appears in both "
                                         f"{by_team[t]} and ({lg}, {div})")
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


@dataclass(frozen=True)
class SeasonResult:
    """Final standings of one replication."""

    replication_id: int
    wins: dict[str, int]
    qualifiers: frozenset[str]


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
    """How outcomes are generated.

    probability_mode: 'marginal' uses the analytic win probability
    s/(1+s); 'two-stage' draws the latent probability from
    Beta(concentration*s, concentration) first. draw_mode: one posterior
    draw per game ('posterior-predictive') or the posterior mean ('point').
    era_mode: 'forecast' feeds each game the current ERA forecast mean;
    'path' random-walks the latent ERA and feeds a noisy observation.

    The concentration is a configuration constant (default 1.0), never
    estimated: the marginal win probability does not depend on it, so single
    game outcomes carry no information about it.
    """

    probability_mode: str = "marginal"
    draw_mode: str = "posterior-predictive"
    era_mode: str = "forecast"
    concentration: float = 1.0
    walk: WalkConfig = field(default_factory=WalkConfig)
    burn_in_games: int = 20

    def __post_init__(self):
        if self.probability_mode not in PROBABILITY_MODES:
            raise ValueError(f"probability_mode must be one of "
                             f"{PROBABILITY_MODES}, got {self.probability_mode!r}")
        if self.draw_mode not in DRAW_MODES:
            raise ValueError(f"draw_mode must be one of {DRAW_MODES}, "
                             f"got {self.draw_mode!r}")
        if self.era_mode not in ERA_MODES:
            raise ValueError(f"era_mode must be one of {ERA_MODES}, "
                             f"got {self.era_mode!r}")
        if not (math.isfinite(self.concentration) and self.concentration > 0):
            raise ValueError(f"concentration must be positive, "
                             f"got {self.concentration}")
        if self.burn_in_games < 0:
            raise ValueError(f"burn_in_games must be nonnegative, "
                             f"got {self.burn_in_games}")


def _draw_matrix(draws) -> np.ndarray:
    if isinstance(draws, PosteriorDraws):
        return draws.draws
    arr = np.asarray(draws, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError(f"posterior draws must be a nonempty (n, 3) array, "
                         f"got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# replications


def _resolved_noise(initial, noise_pools, noise_rng):
    """Per-team noise for one replication: freshly sampled from the pool of
    each team's tercile when pools are given, otherwise each team's stored
    parameters."""
    if noise_pools is None:
        return {s.team: s.noise for s in initial}
    resolved = {}
    for state in sorted(initial, key=lambda s: s.team):
        if not state.tercile:
            raise ValueError(f"noise_pools given but {state.team} has no "
                             f"tercile")
        try:
            pool = noise_pools[state.tercile]
        except KeyError:
            raise ValueError(f"no noise pool for tercile "
                             f"{state.tercile!r}") from None
        resolved[state.team] = sample_noise(state.tercile, pool, noise_rng)
    return resolved


def run_replication(initial, schedule: Schedule, draws, league: LeagueStructure,
                    seed, *, replication_id: int = 0,
                    opts: SimOptions | None = None,
                    noise_pools=None) -> SeasonResult:
    """One full pass over the schedule; deterministic given the seed.

    The seed (an integer or a SeedSequence) is split into independent streams
    for game outcomes, playoff tie-breaks, and per-team noise sampling. State
    moves through plain scalars in the game loop — dataclass churn per game
    would dominate the runtime at full-season scale.
    """
    opts = opts or SimOptions()
    states = list(initial)
    teams = [s.team for s in states]
    if len(set(teams)) != len(teams):
        raise ValueError("duplicate team in initial states")
    index = {t: i for i, t in enumerate(teams)}
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

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    game_ss, tie_ss, noise_ss = ss.spawn(3)
    path = opts.era_mode == "path"
    if path:   # forecast mode never reads the noise, so it samples none
        noise = _resolved_noise(states, noise_pools,
                                np.random.default_rng(noise_ss))
        sig_proc = [noise[s.team].sigma_process for s in states]
        sig_obs = [noise[s.team].sigma_obs for s in states]

    # unpack state into parallel lists for the loop
    wins = [s.wins for s in states]
    losses = [s.losses for s in states]
    dev = [s.batting_deviation for s in states]
    era = [s.era for s in states]

    matrix = _draw_matrix(draws)
    draw_rows = [tuple(row) for row in matrix.tolist()]
    mean_row = tuple(matrix.mean(axis=0))

    n_games = len(schedule.games)
    pairs = [(index[g.home], index[g.away]) for g in schedule.games]
    game_rng = np.random.default_rng(game_ss)
    u_out = game_rng.random(n_games).tolist()
    if opts.draw_mode == "posterior-predictive":
        row_idx = game_rng.integers(0, len(draw_rows), n_games).tolist()
    else:
        row_idx = None
    eps = game_rng.normal(0.0, opts.walk.step_std, (n_games, 2)).tolist()
    if path:
        era_steps = game_rng.standard_normal((n_games, 2)).tolist()
        era_obs = game_rng.standard_normal((n_games, 2)).tolist()
    two_stage = opts.probability_mode == "two-stage"
    m = opts.concentration

    lm = opts.walk.league_mean
    lo, hi = opts.walk.clamp_low, opts.walk.clamp_high
    floor = STAT_FLOOR
    era_floor = ERA_FLOOR
    for g in range(n_games):
        h, a = pairs[g]
        r1, r2, r3 = draw_rows[row_idx[g]] if row_idx is not None else mean_row

        wp_h = wins[h] / (wins[h] + losses[h])
        wp_a = wins[a] / (wins[a] + losses[a])
        if wp_h < floor:
            wp_h = floor
        if wp_a < floor:
            wp_a = floor
        avg_h = lm + dev[h]
        avg_h = lo if avg_h < lo else hi if avg_h > hi else avg_h
        avg_a = lm + dev[a]
        avg_a = lo if avg_a < lo else hi if avg_a > hi else avg_a
        era_h, era_a = era[h], era[a]
        if path:
            era_h += sig_obs[h] * era_obs[g][0]
            era_a += sig_obs[a] * era_obs[g][1]
        if era_h < era_floor:
            era_h = era_floor
        if era_a < era_floor:
            era_a = era_floor

        # the simulation's copy of the strength formula; the fit's copy is
        # mcmc.log_ratio_design, and a test ties the two together
        strength = ((wp_h / wp_a) ** r1 * (avg_h / avg_a) ** r2
                    * (era_a / era_h) ** r3)
        if two_stage:
            p = float(game_rng.beta(m * strength, m))
        else:
            p = strength / (1.0 + strength)
        if u_out[g] < p:
            wins[h] += 1
            losses[a] += 1
        else:
            wins[a] += 1
            losses[h] += 1
        dev[h] += eps[g][0]
        dev[a] += eps[g][1]
        if path:
            nh = era[h] + sig_proc[h] * era_steps[g][0]
            na = era[a] + sig_proc[a] * era_steps[g][1]
            era[h] = nh if nh > era_floor else era_floor
            era[a] = na if na > era_floor else era_floor

    final_wins = {t: wins[i] for t, i in index.items()}
    # every simulated game hands out exactly one win and one loss
    if sum(final_wins.values()) != sum(s.wins for s in states) + n_games:
        raise RuntimeError("game accounting error: wins do not add up")
    if sum(losses) != sum(s.losses for s in states) + n_games:
        raise RuntimeError("game accounting error: losses do not add up")

    qualifiers = playoff_qualifiers(final_wins, league,
                                    np.random.default_rng(tie_ss))
    return SeasonResult(replication_id=replication_id, wins=final_wins,
                        qualifiers=qualifiers)


def _replication_batch(payload):
    (rep_ids, initial, schedule, draws, league, base_seed, opts,
     noise_pools) = payload
    out = []
    for rep in rep_ids:
        ss = np.random.SeedSequence((base_seed, rep))
        out.append(run_replication(initial, schedule, draws, league, ss,
                                   replication_id=rep, opts=opts,
                                   noise_pools=noise_pools))
    return out


def run_replications(n: int, initial, schedule: Schedule, draws,
                     league: LeagueStructure, base_seed: int, *,
                     opts: SimOptions | None = None, noise_pools=None,
                     n_jobs: int = 1) -> list[SeasonResult]:
    """n independent replications; replication k's stream comes from
    (base_seed, k), so the result list is identical no matter how the work is
    split across processes."""
    if n < 1:
        raise ValueError(f"need at least 1 replication, got {n}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    draws = _draw_matrix(draws)
    if n_jobs == 1 or n == 1:
        batches = [_replication_batch((range(n), initial, schedule, draws,
                                       league, base_seed, opts,
                                       noise_pools))]
    else:
        chunks = np.array_split(np.arange(n), min(n_jobs, n))
        payloads = [(chunk.tolist(), initial, schedule, draws, league,
                     base_seed, opts, noise_pools)
                    for chunk in chunks if chunk.size]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            batches = list(pool.map(_replication_batch, payloads))
    results = [r for batch in batches for r in batch]
    results.sort(key=lambda r: r.replication_id)
    return results


# ---------------------------------------------------------------------------
# playoffs and aggregation


def playoff_qualifiers(final_wins: dict[str, int], league: LeagueStructure,
                       rng: np.random.Generator, *,
                       wild_cards: int = 3) -> frozenset[str]:
    """Division winners plus the best remaining records per league.

    Ties are broken by a seeded uniform key drawn once per team (in sorted
    team order, so the stream consumption is standings-independent).
    """
    for t in league.teams:
        if t not in final_wins:
            raise ValueError(f"no final record for team {t!r}")
    tie_key = {t: float(rng.random()) for t in sorted(final_wins)}
    qualifiers: set[str] = set()
    for lg in sorted(league.divisions):
        winners = []
        for div in sorted(league.divisions[lg]):
            members = league.divisions[lg][div]
            winners.append(max(members,
                               key=lambda t: (final_wins[t], tie_key[t])))
        qualifiers.update(winners)
        rest = [t for div in league.divisions[lg].values() for t in div
                if t not in winners]
        rest.sort(key=lambda t: (final_wins[t], tie_key[t]), reverse=True)
        qualifiers.update(rest[:wild_cards])
    return frozenset(qualifiers)


def summarize(results: list[SeasonResult]) -> ForecastSummary:
    """Mean wins, nearest-rank 5/95 quantiles, and playoff rate per team,
    ordered by descending mean wins (team id breaks exact ties)."""
    if not results:
        raise ValueError("no replications to summarize")
    teams = sorted(results[0].wins)
    forecasts = []
    for team in teams:
        wins = np.array([r.wins[team] for r in results], dtype=float)
        made = sum(team in r.qualifiers for r in results)
        forecasts.append(TeamForecast(
            team=team,
            mean_wins=float(wins.mean()),
            ci5=nearest_rank_quantile(wins, 0.05),
            ci95=nearest_rank_quantile(wins, 0.95),
            playoff_prob=made / len(results),
        ))
    forecasts.sort(key=lambda f: (-f.mean_wins, f.team))
    return ForecastSummary(teams=tuple(forecasts), n_replications=len(results))


def export_win_histogram(results: list[SeasonResult],
                         team: str) -> list[tuple[int, int]]:
    """(win_total, count) rows covering the observed min..max range."""
    if not results:
        raise ValueError("no replications to bin")
    if team not in results[0].wins:
        raise ValueError(f"unknown team {team!r}")
    wins = np.array([r.wins[team] for r in results])
    low, high = int(wins.min()), int(wins.max())
    counts = np.bincount(wins - low, minlength=high - low + 1)
    return [(low + k, int(c)) for k, c in enumerate(counts)]


# ---------------------------------------------------------------------------
# schedules and league files


def generate_schedule(league: LeagueStructure, games_played: dict[str, int],
                      seed: int, *, start_date: datetime.date | None = None,
                      division_weight: float = 0.6) -> Schedule:
    """Synthetic remaining-season schedule when no real one is available.

    Repeatedly matches the team with the most games left against an opponent
    that still needs games — same-division with the configured probability —
    until every team reaches the season length. Marked synthetic so reports
    can flag it.
    """
    if start_date is None:
        start_date = datetime.date(2024, 8, 1)
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
    games = []
    while True:
        pending = sorted(t for t in need if need[t] > 0)
        if not pending:
            break
        team = max(pending, key=lambda t: (need[t], t))
        others = [t for t in pending if t != team]
        if not others:
            raise ValueError(f"{team} still needs {need[team]} games but no "
                             f"opponent has games left")
        lg, div = league.membership(team)
        same = [t for t in others if league.membership(t) == (lg, div)]
        other = [t for t in others if league.membership(t) != (lg, div)]
        pool = same if same and (not other or rng.random() < division_weight) \
            else other
        opponent = pool[int(rng.integers(len(pool)))]
        home, away = (team, opponent) if rng.random() < 0.5 else (opponent, team)
        day = start_date + datetime.timedelta(days=len(games) // per_day)
        games.append(ScheduledGame(date=day, home=home, away=away))
        need[team] -= 1
        need[opponent] -= 1
    return Schedule(games=tuple(games), synthetic=True)


def read_schedule_csv(path) -> Schedule:
    games = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"date", "home", "away"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: schedule header must contain "
                             f"{sorted(required)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                day = datetime.date.fromisoformat(row["date"])
            except ValueError:
                raise ValueError(f"{path} row {lineno}: bad date "
                                 f"{row['date']!r}") from None
            games.append(ScheduledGame(date=day, home=row["home"],
                                       away=row["away"]))
    return Schedule(games=tuple(games), synthetic=False)


def read_league_csv(path, season_length: int = 162) -> LeagueStructure:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"league", "division", "team"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"{path}: league header must contain "
                             f"{sorted(required)}")
        for row in reader:
            rows.append((row["league"], row["division"], row["team"]))
    if not rows:
        raise ValueError(f"{path}: no teams in league file")
    return LeagueStructure.from_rows(rows, season_length=season_length)
