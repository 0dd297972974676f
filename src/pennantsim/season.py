"""Replicated full-season Monte Carlo simulation.

Plays a remaining-season schedule from the fitted posterior while team
state (wins, batting average, latent ERA) evolves, then aggregates win
totals and playoff qualification over many replications. The kernel has
no modes: each game plays a row drawn from the posterior it is given (one
row for a point estimate), and ERA follows a noisy path exactly when it is
given noise pools. Each game plays in the wave of its level, one past its
two teams' previous games, on every replication at once; each wave's
variates are drawn just before it plays, so memory is the (team,
replication) state plus one wave of variates. A side's games played is the
same in every replication, so it comes from the schedule, not from the
state. Results stay (replication, team) arrays from the kernel to every
writer, and depend on (seed, replications) alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .gamelog import check_game, csv_rows, nonempty, parse_date, team_code
from .kalman import sample_noise
from .model import ERA_FLOOR, log_ratios
from .stats import nearest_rank_quantile


# Batting random walk: each game a team plays adds one Normal(0, step_std^2)
# increment to its batting average, which starts at the team's own average
# and has no pull toward any centre. A game sees the average clamped to
# [BATTING_LOW, BATTING_HIGH]; the walk itself is not.
BATTING_LOW, BATTING_HIGH = 0.150, 0.400


@dataclass(frozen=True)
class TeamSimState:
    """A team's state when the simulated season starts: its record, its
    batting average, and era, the latent ERA level (the filtered mean)."""

    team: str
    wins: int
    losses: int
    batting: float
    era: float

    def __post_init__(self):
        if self.wins < 0 or self.losses < 0:
            raise ValueError(f"{self.team}: negative win/loss count")

    @property
    def games_played(self) -> int:
        return self.wins + self.losses


@dataclass(frozen=True)
class Schedule:
    """Remaining unplayed games in the order they are played, each a
    (home, away) pair of team codes."""

    games: tuple[tuple[str, str], ...]

    def __len__(self):
        return len(self.games)

    @property
    def teams(self) -> set[str]:
        return {team for game in self.games for team in game}

    def games_per_team(self) -> dict[str, int]:
        return Counter(team for game in self.games for team in game)


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
    def from_rows(cls, rows, **fields) -> "LeagueStructure":
        """Build from (league, division, team) triples; fields sets the
        other fields (season_length)."""
        divisions: dict[str, dict[str, list[str]]] = {}
        for lg, div, team in rows:
            divisions.setdefault(lg, {}).setdefault(div, []).append(team)
        frozen = {lg: {div: tuple(teams) for div, teams in divs.items()}
                  for lg, divs in divisions.items()}
        return cls(divisions=frozen, **fields)

    @property
    def teams(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_team))

    def membership(self, team: str) -> tuple[str, str]:
        """(league, division) of a team."""
        try:
            return self._by_team[team]
        except KeyError:
            raise ValueError(f"team {team!r} not in league structure") from None


@dataclass(frozen=True, eq=False)
class SeasonResults:
    """Final standings of replications: row i is replication i and column j
    is teams[j], with teams sorted."""

    teams: tuple[str, ...]
    wins: np.ndarray               # (R, T) int
    qualified: np.ndarray          # (R, T) bool

    def __len__(self):
        return len(self.wins)

    def __eq__(self, other):
        if not isinstance(other, SeasonResults):
            return NotImplemented
        return self.teams == other.teams \
            and np.array_equal(self.wins, other.wins) \
            and np.array_equal(self.qualified, other.qualified)


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
class SimOptions:
    """The kernel's two settings: step_std, the batting walk's per-game
    step, and burn_in_games, the games a scheduled team must have played.
    Which posterior rows and which ERA law a season plays follow from the
    data run_replication is given, not from an option."""

    step_std: float = 0.0015
    burn_in_games: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.step_std) and self.step_std > 0):
            raise ValueError(f"step_std must be positive, got {self.step_std}")
        if self.burn_in_games < 0:
            raise ValueError(f"burn_in_games must be nonnegative, "
                             f"got {self.burn_in_games}")


# ---------------------------------------------------------------------------
# replications

# The kinds of variate the kernel draws, each from its own stream; the
# streams are SeedSequence(seed).spawn(len(STREAMS)) in this order, in every
# run, so no kind's numbers depend on which others a run reads.
STREAMS = ("outcomes", "draw_rows", "walk", "era_steps", "era_errors",
           "tie_keys", "noise_rows")


def _waves(pairs, played):
    """The games in stable level order, one slice of it per level, and each
    game's (home, away) games played before it as a (2, games) array in
    level order; played[t] is team t's games before the schedule. A game's
    level is one past the larger of its two teams' previous levels. A
    level's games share no team, and no valid grouping has fewer waves."""
    level, last = np.empty(len(pairs), dtype=np.intp), {}
    games, before = list(played), []   # games: each team's games so far
    for g, (home, away) in enumerate(pairs):
        level[g] = last[home] = last[away] = 1 + max(last.get(home, -1),
                                                     last.get(away, -1))
        before.append((games[home], games[away]))
        games[home] += 1
        games[away] += 1
    ends = [0, *np.cumsum(np.bincount(level)).tolist()]
    order = np.argsort(level, kind="stable")
    return (order, list(map(slice, ends, ends[1:])),
            np.array(before, dtype=np.int64).reshape(-1, 2)[order].T)


def _team_pools(teams, noise_pools):
    """Each team's noise pool, in the order of teams: a (k, 2) array of
    (sigma_obs, sigma_process) rows."""
    for team in teams:
        if team not in noise_pools:
            raise ValueError(f"no noise pool for team {team!r}")
    return [noise_pools[team] for team in teams]


def run_replication(initial, schedule: Schedule, draws, league: LeagueStructure,
                    seed: int, replications: int, *,
                    opts: SimOptions | None = None,
                    noise_pools=None) -> SeasonResults:
    """The season kernel: every replication played side by side, one wave
    of games at a time. perfbench/tracing.py times the kernel by this name.

    Every game of every replication plays a row of draws, an (n, 3)
    posterior, drawn uniformly; a point estimate is a posterior of one row.
    With noise_pools, {team: (k, 2) array of (sigma_obs, sigma_process)
    rows}, ERA follows a path: each team's R noise pairs are drawn from its
    pool before the first game, the latent level random-walks and each game
    sees a noisy observation of it. Without them each game sees the
    starting level, the forecast mean.

    The seed spawns one stream per kind of variate (see STREAMS): outcome
    uniforms, draw rows, walk normals, ERA steps, ERA errors, tie keys and
    noise rows. Each level (see _waves) plays at once, and each kind is
    drawn for it just before it plays, game-major in level order: (games,
    R), or (games, 2, R) for the home and away sides. So splitting a wave
    gives every game the same numbers, and results depend on (seed,
    replications) alone.
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
    unknown = [t for game in schedule.games for t in game if t not in index]
    if unknown:
        raise ValueError(f"scheduled team {unknown[0]!r} has no initial state")
    for home, away in schedule.games:
        if home == away:
            raise ValueError(f"team {home!r} scheduled against itself")
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

    path = noise_pools is not None
    pairs = [(index[home], index[away]) for home, away in schedule.games]
    n_games = len(pairs)
    order, waves, games_played = _waves(pairs,
                                        [s.games_played for s in states])
    # (2, games) home and away team rows, in level order
    sides = np.array(pairs, dtype=np.intp).reshape(n_games, 2)[order].T
    (outcome_rng, row_rng, walk_rng, step_rng, error_rng, tie_rng,
     noise_rng) = map(np.random.default_rng,
                      np.random.SeedSequence(seed).spawn(len(STREAMS)))

    def normals(rng, k, scale):   # (2, k, R), drawn as (k, 2, R)
        return scale * rng.standard_normal((k, 2, replications)).swapaxes(0, 1)

    # the state that differs between replications is a (team, replication)
    # array, so a wave's rows are gathered by one index; axis 0 of ix and of
    # the normals is home/away. Without a path ERA never moves, so it stays
    # a (team, 1) column that broadcasts over the replications
    wins, batting, era = (np.array(column)[:, None] for column in zip(
        *[(s.wins, s.batting, s.era) for s in states]))
    wins, batting = (np.repeat(column, replications, axis=1)
                     for column in (wins, batting))
    tie_keys = tie_rng.random((replications, len(teams)))
    if path:   # (team, replication) sigmas, one intact pool row each
        era = np.repeat(era, replications, axis=1)
        sigma_obs, sigma_process = np.array(
            [sample_noise(pool, noise_rng, replications)
             for pool in _team_pools(teams, noise_pools)]).transpose(2, 0, 1)
    # each exponent's draws as one contiguous array, gathered per wave
    columns = matrix.T.copy()
    for w in waves:
        ix = sides[:, w]
        k = ix.shape[1]
        won = wins[ix]
        win_pct = won / games_played[:, w, None]
        avg = np.clip(batting[ix], BATTING_LOW, BATTING_HIGH)
        era_now = era[ix] + normals(error_rng, k, sigma_obs[ix]) if path \
            else era[ix]
        u, l1, l2 = log_ratios(win_pct[0], win_pct[1], avg[0], avg[1],
                               era_now[0], era_now[1])
        rows = row_rng.integers(0, len(matrix), (k, replications))
        r0, r1, r2 = (column[rows] for column in columns)
        # u = L.r with its terms added left to right, the order of numpy's
        # sum over a stacked last axis, so it keeps that sum's bits; l2 is
        # (games, 1) without a path
        u *= r0
        l1 *= r1
        u += l1
        u += l2 * r2
        # exp overflows above 709; a strength of e^700 already gives p = 1
        strength = np.exp(np.minimum(u, 700.0, out=u), out=u)
        home_won = outcome_rng.random((k, replications)) \
            < strength / (1.0 + strength)
        wins[ix] = won + (home_won, ~home_won)
        batting[ix] += normals(walk_rng, k, opts.step_std)
        if path:
            era[ix] = np.maximum(
                era[ix] + normals(step_rng, k, sigma_process[ix]), ERA_FLOOR)

    # every simulated game hands out exactly one win
    if np.any(wins.sum(axis=0) != sum(s.wins for s in states) + n_games):
        raise RuntimeError("game accounting error: wins do not add up")

    final = wins.T
    return SeasonResults(
        teams=tuple(teams), wins=final,
        qualified=playoff_qualifiers(final, tie_keys, league, teams))


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

WILD_CARDS = 3   # qualifiers per league beyond the division winners


def playoff_qualifiers(wins, tie_keys, league: LeagueStructure,
                       teams) -> np.ndarray:
    """(R, T) bool: the division winners plus the WILD_CARDS best remaining
    records per league, in each of R replications.

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
        qualified[rows, flat[order[:, max(len(flat) - WILD_CARDS, 0):]]] = True
    return qualified


def summarize(results: SeasonResults) -> tuple[TeamForecast, ...]:
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
    return tuple(forecasts)


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

DIVISION_WEIGHT = 0.6


def season_overruns(league: LeagueStructure, played: dict[str, int],
                    scheduled: dict[str, int] | None = None) -> list[str]:
    """A message for each team, in sorted order, whose games played (0
    when absent from played) plus its games in scheduled exceed the
    league's season length; every league team is checked, and every team
    in scheduled."""
    scheduled, length, issues = scheduled or {}, league.season_length, []
    for team in sorted(set(league.teams) | scheduled.keys()):
        n, more = played.get(team, 0), scheduled.get(team, 0)
        if team in scheduled and n + more > length:
            issues.append(f"{team} has {n} played + {more} scheduled = "
                          f"{n + more} games, over the {length}-game season")
        elif n > length:
            issues.append(f"{team} has played {n} games, more than the "
                          f"{length}-game season")
    return issues


def generate_schedule(league: LeagueStructure, games_played: dict[str, int],
                      seed: int) -> Schedule:
    """Synthetic remaining-season schedule when no real one is available.

    Repeatedly matches the team with the most games left, the last in team
    order among equals, against an opponent that still needs games: from
    its own division with probability DIVISION_WEIGHT when both kinds are
    left, drawn uniformly in team order, with a coin for the home side,
    until every team reaches the season length. Each team's division mates
    and rivals are listed once, and each game keeps those with games left.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CED)))
    if overruns := season_overruns(league, games_played):
        raise ValueError(overruns[0])
    teams = league.teams
    need = {team: league.season_length - games_played.get(team, 0)
            for team in teams}
    if sum(need.values()) % 2:
        raise ValueError("total remaining games is odd; cannot pair teams")

    division = {t: league.membership(t) for t in teams}
    mates = {t: [u for u in teams if u != t and division[u] == division[t]]
             for t in teams}
    rivals = {t: [u for u in teams if division[u] != division[t]]
              for t in teams}
    backwards, games = teams[::-1], []
    # max keeps the first of equals, so the last in team order
    while need[team := max(backwards, key=need.__getitem__)] > 0:
        same = [t for t in mates[team] if need[t] > 0]
        other = [t for t in rivals[team] if need[t] > 0]
        if not same and not other:
            raise ValueError(f"{team} still needs {need[team]} games but no "
                             f"opponent has games left")
        pool = same if same and (not other or rng.random() < DIVISION_WEIGHT) \
            else other
        opponent = pool[int(rng.integers(len(pool)))]
        home, away = (team, opponent) if rng.random() < 0.5 else (opponent, team)
        games.append((home, away))
        need[team] -= 1
        need[opponent] -= 1
    return Schedule(games=tuple(games))


def read_schedule_csv(path, *, known_teams=None) -> Schedule:
    """The schedule file's games in file order, which is date order; with
    known_teams given, team codes outside the set are rejected."""
    games, previous = [], None
    team = team_code(known_teams)
    for lineno, (day, home, away) in csv_rows(
            path, {"date": parse_date, "home": team, "away": team},
            "schedule"):
        check_game(path, lineno, previous, day, home, away)
        games.append((home, away))
        previous = day
    return Schedule(games=tuple(games))


def read_league_csv(path, **fields) -> LeagueStructure:
    """The league file's structure; fields sets the structure's other
    fields (season_length)."""
    rows, first = [], {}    # team -> (its row, (league, division))
    for lineno, (lg, div, team) in csv_rows(
            path, {"league": nonempty, "division": nonempty,
                   "team": team_code()}, "league"):
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
        return LeagueStructure.from_rows(rows, **fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
