"""Replicated full-season Monte Carlo simulation.

Walks a remaining-season schedule in date order, simulating each game from
the fitted posterior while team state (record, batting deviation, latent ERA)
evolves, then aggregates win totals and playoff qualification over many
replications. Replications run in blocks that share each array operation.
Replication streams derive from (base_seed, replication_id) so results never
depend on blocking, execution order or parallelism.
"""

from __future__ import annotations

import csv
import datetime
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .kalman import NoiseParams, sample_noise
from .model import ERA_FLOOR, log_ratios
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
    Beta(concentration*s, concentration) first, by inverse CDF. draw_mode: one posterior
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


# ---------------------------------------------------------------------------
# replications

# Memory for the variates a block of replications draws before its games;
# it sets how many replications share a block.
BLOCK_BYTES = 2 << 20


def _waves(pairs) -> list[slice]:
    """Maximal runs of consecutive games in which no team appears twice; a
    run's games all see the state it started from, so they play at once."""
    starts, busy = [0], set()
    for g, pair in enumerate(pairs):
        if busy.intersection(pair):
            starts.append(g)
            busy = set()
        busy.update(pair)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(pairs)])]


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
                    seeds, *, replication_ids, opts: SimOptions | None = None,
                    noise_pools=None) -> list[SeasonResult]:
    """Replications played side by side, one per seed (an integer or a
    SeedSequence) and replication id. Each depends on its own seed alone, so
    no result depends on how replications are grouped. The name is the unit
    of the results: a block of one is one replication, and
    perfbench/tracing.py times the kernel by this name.

    Each seed splits into streams for game outcomes, playoff tie-breaks and
    noise sampling. A replication's game variates are drawn up front; the
    schedule is then played a wave (see _waves) at a time.
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
    matrix = np.asarray(draws, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != 3 or matrix.shape[0] == 0:
        raise ValueError(f"posterior draws must be a nonempty (n, 3) array, "
                         f"got shape {matrix.shape}")

    predictive = opts.draw_mode == "posterior-predictive"
    path = opts.era_mode == "path"
    two_stage = opts.probability_mode == "two-stage"
    pairs = [(index[g.home], index[g.away]) for g in schedule.games]
    n_reps, n_games = len(seeds), len(pairs)

    # variates and team state are (game or team, replication) arrays, so a
    # wave's rows are contiguous; axis 0 of the (2, ...) arrays is home/away
    u_out = np.empty((n_games, n_reps))
    row_idx = np.empty((n_games, n_reps), dtype=np.intp)
    eps = np.empty((2, n_games, n_reps))
    if path:   # ERA steps and observation errors, scaled by each team's sigma
        era_steps = np.empty((2, n_games, n_reps))
        era_errors = np.empty((2, n_games, n_reps))
    if two_stage:
        u_beta = np.empty((n_games, n_reps))
    sides = np.array(pairs, dtype=np.intp).reshape(n_games, 2).T
    tie_rngs = []
    for b, seed in enumerate(seeds):
        ss = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        game_ss, tie_ss, noise_ss = ss.spawn(3)
        tie_rngs.append(np.random.default_rng(tie_ss))
        game_rng = np.random.default_rng(game_ss)
        u_out[:, b] = game_rng.random(n_games)
        if predictive:
            row_idx[:, b] = game_rng.integers(0, len(matrix), n_games)
        eps[:, :, b] = game_rng.normal(0.0, opts.walk.step_std,
                                       (n_games, 2)).T
        if path:   # forecast mode never reads the noise, so it samples none
            noise = _resolved_noise(states, noise_pools,
                                    np.random.default_rng(noise_ss))
            sigmas = np.array([(noise[t].sigma_process, noise[t].sigma_obs)
                               for t in teams])
            for scaled, sigma in zip((era_steps, era_errors), sigmas.T):
                scaled[:, :, b] = (sigma[sides]
                                   * game_rng.standard_normal((n_games, 2)).T)
        if two_stage:
            u_beta[:, b] = game_rng.random(n_games)

    wins, losses, dev, era = (
        np.repeat(np.array(column)[:, None], n_reps, axis=1) for column in
        zip(*[(s.wins, s.losses, s.batting_deviation, s.era) for s in states]))
    walk, m = opts.walk, opts.concentration
    mean_row = matrix.mean(axis=0)
    for w in _waves(pairs):
        ix = sides[:, w]
        won, lost = wins[ix], losses[ix]
        win_pct = won / (won + lost)
        avg = np.clip(walk.league_mean + dev[ix], walk.clamp_low,
                      walk.clamp_high)
        era_now = era[ix] + era_errors[:, w] if path else era[ix]
        ratios = log_ratios(win_pct[0], win_pct[1], avg[0], avg[1],
                            era_now[0], era_now[1])
        r = matrix[row_idx[w]] if predictive else mean_row
        # exp overflows above 709; a strength of e^700 already gives p = 1
        strength = np.exp(np.minimum((ratios * r).sum(axis=-1), 700.0))
        if two_stage:   # inverse-CDF draw from Beta(m*s, m)
            p = betaincinv(m * strength, m, u_beta[w])
        else:
            p = strength / (1.0 + strength)
        home_won = u_out[w] < p
        wins[ix] = won + (home_won, ~home_won)
        losses[ix] = lost + (~home_won, home_won)
        dev[ix] += eps[:, w]
        if path:
            era[ix] = np.maximum(era[ix] + era_steps[:, w], ERA_FLOOR)

    # every simulated game hands out exactly one win and one loss
    if np.any(wins.sum(axis=0) != sum(s.wins for s in states) + n_games):
        raise RuntimeError("game accounting error: wins do not add up")
    if np.any(losses.sum(axis=0) != sum(s.losses for s in states) + n_games):
        raise RuntimeError("game accounting error: losses do not add up")

    finals = [dict(zip(teams, row)) for row in wins.T.tolist()]
    return [SeasonResult(replication_id=rep, wins=final,
                         qualifiers=playoff_qualifiers(final, league, rng))
            for rep, final, rng in zip(replication_ids, finals, tie_rngs,
                                       strict=True)]


def _replication_block(payload):
    (rep_ids, initial, schedule, draws, league, base_seed, opts,
     noise_pools) = payload
    seeds = [np.random.SeedSequence((base_seed, rep)) for rep in rep_ids]
    return run_replication(initial, schedule, draws, league, seeds,
                           replication_ids=rep_ids, opts=opts,
                           noise_pools=noise_pools)


def run_replications(n: int, initial, schedule: Schedule, draws,
                     league: LeagueStructure, base_seed: int, *,
                     opts: SimOptions | None = None, noise_pools=None,
                     n_jobs: int = 1) -> list[SeasonResult]:
    """n independent replications; replication k's stream comes from
    (base_seed, k), so the result list is identical no matter how the work is
    split into blocks and across processes."""
    if n < 1:
        raise ValueError(f"need at least 1 replication, got {n}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    opts = opts or SimOptions()
    # 8-byte variates per game and replication: an outcome uniform and two
    # walk increments, plus a draw-row index, four ERA normals and a Beta
    # uniform in posterior-predictive, path and two-stage mode
    per_game = (3 + (opts.draw_mode == "posterior-predictive")
                + 4 * (opts.era_mode == "path")
                + (opts.probability_mode == "two-stage"))
    size = max(1, BLOCK_BYTES // (8 * per_game * max(len(schedule), 1)))
    payloads = [(range(k, min(k + size, n)), initial, schedule, draws, league,
                 base_seed, opts, noise_pools) for k in range(0, n, size)]
    if n_jobs == 1 or len(payloads) == 1:
        blocks = [_replication_block(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(
                max_workers=min(n_jobs, len(payloads))) as pool:
            blocks = list(pool.map(_replication_block, payloads))
    return [r for block in blocks for r in block]


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
