"""Season simulation tests.

Outcome-level checks use regimes where the result is forced (overwhelming
strength ratios) or analytically known (all-equal teams, or rates over many
one-off matchups from tests/matchups.py), so none of them re-derive the
simulator's internal stream layout.
"""

import dataclasses
import datetime
import math

import numpy as np
import pytest

from matchups import Matchups
from pennantsim import season
from pennantsim.kalman import NoiseEstimate, NoiseParams
from pennantsim.mcmc import design_log_likelihood, log_ratio_design
from pennantsim.model import GameRecord
from pennantsim.season import (
    PROBABILITY_MODES,
    ForecastSummary,
    LeagueStructure,
    Schedule,
    ScheduledGame,
    SeasonResult,
    SimOptions,
    TeamForecast,
    TeamSimState,
    WalkConfig,
    export_win_histogram,
    generate_schedule,
    playoff_qualifiers,
    read_league_csv,
    read_schedule_csv,
    run_replication,
    run_replications,
    summarize,
)


def make_state(team, wins=10, losses=10, deviation=0.0, era=4.0,
               sigma_obs=0.5, sigma_process=0.05, tercile=""):
    return TeamSimState(team=team, wins=wins, losses=losses,
                        batting_deviation=deviation, era=era,
                        noise=NoiseParams(sigma_obs=sigma_obs,
                                          sigma_process=sigma_process),
                        tercile=tercile)


def one_replication(initial, schedule, draws, league, seed, **kwargs):
    """The engine on a block of one replication."""
    [result] = run_replication(initial, schedule, draws, league, [seed],
                               replication_ids=[0], **kwargs)
    return result


def standard_league(n_per_div=5):
    rows = [(lg, div, f"{lg}{div}{k}")
            for lg in ("E", "W") for div in ("N", "C", "S")
            for k in range(n_per_div)]
    return LeagueStructure.from_rows(rows)


def tiny_league():
    # two leagues of one 3-team division each, 10-game season
    rows = [(lg, "D", f"{lg}{k}") for lg in ("E", "W") for k in range(3)]
    return LeagueStructure.from_rows(rows, season_length=10)


# ---------------------------------------------------------------------------
# construction and validation


def test_league_rejects_duplicate_team():
    with pytest.raises(ValueError, match="appears in both"):
        LeagueStructure.from_rows([("E", "N", "A"), ("E", "S", "A")])


def test_league_rejects_unequal_divisions():
    rows = [("E", "N", "A"), ("E", "N", "B"), ("E", "S", "C")]
    with pytest.raises(ValueError, match="unequal division sizes"):
        LeagueStructure.from_rows(rows)


def test_league_membership_lookup():
    league = standard_league()
    assert league.membership("EN0") == ("E", "N")
    assert league.membership("WS4") == ("W", "S")
    with pytest.raises(ValueError, match="not in league structure"):
        league.membership("nope")


def test_league_team_count():
    league = standard_league()
    assert len(league.teams) == 30
    assert league.season_length == 162


def test_schedule_rejects_out_of_order_dates():
    games = (ScheduledGame(datetime.date(2024, 8, 2), "A", "B"),
             ScheduledGame(datetime.date(2024, 8, 1), "B", "A"))
    with pytest.raises(ValueError, match="out of date order"):
        Schedule(games=games)


def test_scheduled_game_rejects_self_play():
    with pytest.raises(ValueError, match="against itself"):
        ScheduledGame(datetime.date(2024, 8, 1), "A", "A")


def test_sim_options_validation():
    with pytest.raises(ValueError, match="probability_mode"):
        SimOptions(probability_mode="exact")
    with pytest.raises(ValueError, match="draw_mode"):
        SimOptions(draw_mode="map")
    with pytest.raises(ValueError, match="concentration"):
        SimOptions(concentration=0.0)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(step_std=0.0)
    with pytest.raises(ValueError):
        WalkConfig(clamp_low=0.3, clamp_high=0.2)
    with pytest.raises(ValueError):
        WalkConfig(league_mean=0.5, clamp_high=0.45)


def test_team_forecast_probability_bounds():
    with pytest.raises(ValueError, match="playoff probability"):
        TeamForecast(team="A", mean_wins=80.0, ci5=70.0, ci95=90.0,
                     playoff_prob=1.2)


def test_state_win_pct_requires_games():
    # with no burn-in required, a 0-0 team reaches the game loop unless the
    # engine refuses it: its win percentage would divide by zero
    league = tiny_league()
    states = [make_state(t) for t in league.teams]
    states[0] = make_state("E0", wins=0, losses=0)
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    with pytest.raises(ValueError, match="win percentage undefined"):
        one_replication(states, sched, np.ones((1, 3)), league, seed=0,
                        opts=SimOptions(burn_in_games=0))


# ---------------------------------------------------------------------------
# single-game behavior: rates over one-off matchups run through the engine


def test_engine_matches_analytic_probability():
    # equal teams, unit exponents -> strength 1 -> home win prob one half
    n = 40_000
    wins = sum(Matchups(n).home_wins(make_state("H"), make_state("A"),
                                           np.ones((1, 3)), seed=2))
    se = 0.5 / np.sqrt(n)
    assert abs(wins / n - 0.5) < 4 * se


def test_engine_tracks_strength_ratio():
    # skewed matchup: empirical rate should match s/(1+s), with s worked
    # out by hand from the states
    home = make_state("H", wins=13, losses=7, deviation=0.02, era=3.5)
    away = make_state("A", wins=8, losses=12, deviation=-0.01, era=4.4)
    s = (((13 / 20) / (8 / 20)) ** 1.4 * (0.27 / 0.24) ** 0.7
         * (4.4 / 3.5) ** 0.5)
    p = s / (1 + s)
    draws = np.array([[1.4, 0.7, 0.5]])
    n = 40_000
    wins = sum(Matchups(n).home_wins(home, away, draws, seed=3))
    se = np.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) < 4 * se


def test_engine_two_stage_same_marginal():
    # Beta(m*s, m) has mean s/(1+s), so the marginal win rate is unchanged
    opts = SimOptions(probability_mode="two-stage", concentration=2.0)
    n = 40_000
    wins = sum(Matchups(n).home_wins(make_state("H"), make_state("A"),
                                           np.ones((1, 3)), seed=4,
                                           opts=opts))
    se = 0.5 / np.sqrt(n)
    assert abs(wins / n - 0.5) < 4 * se


def test_engine_point_mode_uses_posterior_mean():
    # an outlier draw dominates the uniform picks but not the mean
    home = make_state("H", wins=19, losses=1)
    away = make_state("A", wins=1, losses=19)
    draws = np.array([[8.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 7)
    opts = SimOptions(draw_mode="point")
    # mean exponents (1, 0, 0) -> s = 19 -> p = 0.95
    n = 20_000
    wins = sum(Matchups(n).home_wins(home, away, draws, seed=5,
                                           opts=opts))
    se = np.sqrt(0.95 * 0.05 / n)
    assert abs(wins / n - 0.95) < 4 * se


def test_engine_strength_matches_fit_design_with_floors_binding():
    # The engine's game loop and mcmc.log_ratio_design are the two shipped
    # copies of the strength formula. A winless home side and a 0.00 home
    # ERA make both floors bind, and the batting deviations and unequal
    # exponents make every ratio count, so a floor dropped or changed on
    # either side moves the engine's rate off the design's probability.
    home = make_state("H", wins=0, losses=20, deviation=0.02, era=0.0)
    away = make_state("A", wins=3, losses=17, deviation=-0.015, era=4.0)
    r = np.array([0.3, 1.1, 0.2])
    league_mean = SimOptions().walk.league_mean
    record = GameRecord(
        date=datetime.date(2024, 8, 1), home_team="H", away_team="A",
        home_win_pct=home.wins / home.games_played,
        away_win_pct=away.wins / away.games_played,
        home_batting_avg=league_mean + home.batting_deviation,
        away_batting_avg=league_mean + away.batting_deviation,
        home_era=home.era, away_era=away.era,
        home_won=True)
    p = math.exp(design_log_likelihood(*log_ratio_design([record]), r))
    n = 40_000
    wins = sum(Matchups(n).home_wins(home, away, r[None, :], seed=13))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) < 4 * se


def test_walk_averages_clamped():
    # implied averages 0.55 and 0.05 are clamped to 0.40 and 0.15 before the
    # batting ratio is formed: s = 0.40 / 0.15 at unit exponent, where the
    # raw averages would give s = 11
    home = make_state("H", deviation=0.30)
    away = make_state("A", deviation=-0.20)
    s = 0.40 / 0.15
    p = s / (1 + s)
    n = 20_000
    wins = sum(Matchups(n).home_wins(home, away, np.array([[0.0, 1.0, 0.0]]),
                                     seed=14))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(wins / n - p) < 4 * se


# ---------------------------------------------------------------------------
# replications


def balanced_states(league, games=20):
    # records paired so league-wide wins and losses both sum to half the
    # team-games, keeping the full-season totals exact
    states = []
    edge = max(games // 4, 1)
    for i, team in enumerate(league.teams):
        wins = games // 2 + (edge if i % 2 == 0 else -edge)
        states.append(make_state(team, wins=wins, losses=games - wins))
    return states


def test_one_game_schedule_moves_one_win():
    league = tiny_league()
    states = [make_state(t, wins=2, losses=2) for t in league.teams]
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    opts = SimOptions(burn_in_games=4)
    res = one_replication(states, sched, np.ones((1, 3)), league, seed=3,
                          opts=opts)
    assert sum(res.wins.values()) == sum(s.wins for s in states) + 1
    gained = {t for t in res.wins if res.wins[t] == 3}
    assert gained in ({"E0"}, {"W0"})
    untouched = [t for t in league.teams if t not in ("E0", "W0")]
    assert all(res.wins[t] == 2 for t in untouched)


def test_forced_outcome_strong_team_sweeps():
    # strength ratio 19^8 makes the favorite's loss probability ~1e-10;
    # 19^300 overflows a double and must still mean a sure home win
    league = tiny_league()
    states = [make_state(t, wins=10, losses=10) for t in league.teams]
    states[0] = make_state("E0", wins=19, losses=1)
    states[3] = make_state("W0", wins=1, losses=19)
    games = tuple(ScheduledGame(datetime.date(2024, 8, 1 + d), "E0", "W0")
                  for d in range(6))
    for exponent in (8.0, 300.0):
        for mode in PROBABILITY_MODES:
            opts = SimOptions(probability_mode=mode, burn_in_games=0)
            res = one_replication(states, Schedule(games=games),
                                  np.array([[exponent, 0.0, 0.0]]), league,
                                  seed=10, opts=opts)
            assert res.wins["E0"] == 25
            assert res.wins["W0"] == 1


def test_forced_outcome_era_dominates():
    # away/home ERA ratio 4 at exponent 8 -> home win prob ~ 1
    league = tiny_league()
    states = [make_state(t) for t in league.teams]
    states[0] = make_state("E0", era=2.0)
    states[3] = make_state("W0", era=8.0)
    games = tuple(ScheduledGame(datetime.date(2024, 8, 1 + d), "E0", "W0")
                  for d in range(6))
    draws = np.array([[0.0, 0.0, 8.0]])
    res = one_replication(states, Schedule(games=games), draws, league,
                          seed=11, opts=SimOptions(burn_in_games=0))
    assert res.wins["E0"] == 16


def test_burn_in_enforced_for_scheduled_teams_only():
    league = tiny_league()
    states = [make_state(t, wins=2, losses=2) for t in league.teams]
    states[5] = make_state("W2", wins=1, losses=1)  # idle team, under burn-in
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    opts = SimOptions(burn_in_games=4)
    res = one_replication(states, sched, np.ones((1, 3)), league, seed=3,
                          opts=opts)
    assert res.wins["W2"] == 1

    short_sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "W2", "E0"),))
    with pytest.raises(ValueError, match="below the 4-game burn-in"):
        one_replication(states, short_sched, np.ones((1, 3)), league, seed=3,
                        opts=opts)


def test_unknown_scheduled_team_errors():
    league = tiny_league()
    states = [make_state(t, wins=2, losses=2) for t in league.teams]
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "XX"),))
    with pytest.raises(ValueError, match="no initial state"):
        one_replication(states, sched, np.ones((1, 3)), league, seed=3,
                        opts=SimOptions(burn_in_games=0))


def test_replication_deterministic_and_seed_sensitive():
    league = tiny_league()
    states = [make_state(t, wins=2, losses=2) for t in league.teams]
    sched = generate_schedule(league, {t: 4 for t in league.teams}, seed=1)
    draws = np.random.default_rng(0).uniform(0.5, 2.0, (50, 3))
    opts = SimOptions(burn_in_games=4)
    a = one_replication(states, sched, draws, league, seed=5, opts=opts)
    b = one_replication(states, sched, draws, league, seed=5, opts=opts)
    c = one_replication(states, sched, draws, league, seed=6, opts=opts)
    assert a.wins == b.wins and a.qualifiers == b.qualifiers
    assert a.wins != c.wins


def test_wins_conserved_every_replication():
    league = tiny_league()
    states = balanced_states(league, games=4)
    sched = generate_schedule(league, {t: 4 for t in league.teams}, seed=2)
    draws = np.random.default_rng(1).uniform(0.5, 2.0, (50, 3))
    opts = SimOptions(burn_in_games=4)
    results = run_replications(40, states, sched, draws, league, base_seed=9,
                               opts=opts)
    initial_total = sum(s.wins for s in states)
    for res in results:
        assert sum(res.wins.values()) == initial_total + len(sched)
        # balanced records + complete schedule: exact league mean
        assert sum(res.wins.values()) / 6 == 5.0


BLOCKED_MODES = [SimOptions(),
                 SimOptions(probability_mode="two-stage", era_mode="path")]


def blocked_setup(monkeypatch):
    # 30 teams with unequal records, ERAs and noise, 15 games left each; a
    # budget of 40 kB gives blocks of 5 (marginal/forecast) or 2
    # (two-stage/path) of the 225-game replications
    monkeypatch.setattr(season, "BLOCK_BYTES", 40_000)
    league = standard_league()
    states = [make_state(t, wins=8 + i % 7, losses=12 - i % 7,
                         deviation=0.002 * (i % 5 - 2), era=3.0 + 0.07 * i,
                         sigma_obs=0.2 + 0.01 * i,
                         sigma_process=0.02 + 0.002 * i)
              for i, t in enumerate(league.teams)]
    sched = generate_schedule(league, {t: 147 for t in league.teams}, seed=6)
    draws = np.random.default_rng(3).uniform(0.5, 2.0, (40, 3))
    return league, states, sched, draws


def blocks_played(monkeypatch):
    """Replication counts of the blocks run_replications plays in-process."""
    sizes = []
    engine = season.run_replication

    def counted(*args, **kwargs):
        sizes.append(len(kwargs["replication_ids"]))
        return engine(*args, **kwargs)
    monkeypatch.setattr(season, "run_replication", counted)
    return sizes


@pytest.mark.parametrize("opts", BLOCKED_MODES,
                         ids=["marginal-forecast", "two-stage-path"])
def test_blocks_match_single_replications(monkeypatch, opts):
    league, states, sched, draws = blocked_setup(monkeypatch)
    games = sched.games
    # waves end where a team plays consecutive games
    assert any({g.home, g.away} & {h.home, h.away}
               for g, h in zip(games, games[1:]))
    sizes = blocks_played(monkeypatch)
    blocked = run_replications(7, states, sched, draws, league, base_seed=9,
                               opts=opts)
    assert len(sizes) > 1 and max(sizes) > 1 and sum(sizes) == 7
    for k, result in enumerate(blocked):
        [single] = run_replication(states, sched, draws, league,
                                   [np.random.SeedSequence((9, k))],
                                   replication_ids=[k], opts=opts)
        assert result == single


def test_parallel_matches_serial(monkeypatch):
    league, states, sched, draws = blocked_setup(monkeypatch)
    for opts in BLOCKED_MODES:
        serial = run_replications(7, states, sched, draws, league,
                                  base_seed=9, opts=opts)
        parallel = run_replications(7, states, sched, draws, league,
                                    base_seed=9, opts=opts, n_jobs=2)
        assert [r.replication_id for r in parallel] == list(range(7))
        assert serial == parallel


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(season, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(season, "BLOCK_BYTES", 1)   # one replication a block
    league = tiny_league()
    states = balanced_states(league, games=4)
    sched = generate_schedule(league, {t: 4 for t in league.teams}, seed=2)
    results = run_replications(3, states, sched, np.ones((1, 3)), league,
                               base_seed=9, opts=SimOptions(burn_in_games=4),
                               n_jobs=500)
    assert started == [3]
    assert [r.replication_id for r in results] == [0, 1, 2]


def tercile_setup():
    # 30 teams labelled low/medium/high by tens, and one pool estimate per
    # tercile, each unlike the teams' stored noise (0.5, 0.05)
    league = standard_league()
    labels = ("low", "medium", "high")
    states = [make_state(t, tercile=labels[i // 10])
              for i, t in enumerate(league.teams)]
    pairs = {label: NoiseParams(0.2 + i * 0.2, 0.03 + i * 0.03)
             for i, label in enumerate(labels)}
    pools = {label: [NoiseEstimate(team="src", window_start=0, params=pair,
                                   converged=True)]
             for label, pair in pairs.items()}
    sched = generate_schedule(league, {t: 150 for t in league.teams}, seed=4)
    draws = np.random.default_rng(2).uniform(0.5, 2.0, (100, 3))
    return league, states, pairs, pools, sched, draws


def test_noise_pools_do_not_disturb_game_stream():
    # forecast-mode outcomes cannot depend on noise, so passing the pools
    # must leave every win total unchanged
    league, states, _, pools, sched, draws = tercile_setup()
    bare = run_replications(3, states, sched, draws, league, base_seed=12)
    pooled = run_replications(3, states, sched, draws, league, base_seed=12,
                              noise_pools=pools)
    for a, b in zip(bare, pooled):
        assert a.wins == b.wins


def test_path_mode_draws_noise_from_each_teams_tercile_pool():
    # with one estimate per pool, path mode must play exactly as if each
    # team carried its tercile's pair itself; the stored noise must not
    # leak in, and the pools must matter
    league, states, pairs, pools, sched, draws = tercile_setup()
    opts = SimOptions(era_mode="path")
    pooled = run_replications(3, states, sched, draws, league, base_seed=12,
                              opts=opts, noise_pools=pools)
    carried = [dataclasses.replace(s, noise=pairs[s.tercile]) for s in states]
    direct = run_replications(3, carried, sched, draws, league, base_seed=12,
                              opts=opts)
    stored = run_replications(3, states, sched, draws, league, base_seed=12,
                              opts=opts)
    for a, b in zip(pooled, direct):
        assert a.wins == b.wins and a.qualifiers == b.qualifiers
    assert any(a.wins != c.wins for a, c in zip(pooled, stored))


def test_noise_pools_require_grouping():
    # pools are keyed by tercile, so a team without one cannot draw noise
    league = tiny_league()
    states = [make_state(t, tercile="low") for t in league.teams]
    states[2] = make_state("E2")
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    pools = {"low": [NoiseEstimate(team="s", window_start=0,
                                   params=NoiseParams(0.3, 0.02),
                                   converged=True)]}
    with pytest.raises(ValueError, match="E2 has no tercile"):
        one_replication(states, sched, np.ones((1, 3)), league, seed=1,
                        opts=SimOptions(era_mode="path"), noise_pools=pools)


def test_replications_rejects_bad_counts():
    league = tiny_league()
    states = [make_state(t) for t in league.teams]
    sched = Schedule(games=())
    with pytest.raises(ValueError, match="at least 1 replication"):
        run_replications(0, states, sched, np.ones((1, 3)), league,
                         base_seed=0)


# ---------------------------------------------------------------------------
# playoffs


def test_playoff_qualifiers_no_ties_exact():
    league = standard_league()
    # wins descend with the team index inside each division: the k=0 team
    # wins each division, and k=1 teams hold the three best remaining records
    wins = {}
    for lg_i, lg in enumerate(("E", "W")):
        for div_i, div in enumerate(("N", "C", "S")):
            for k in range(5):
                wins[f"{lg}{div}{k}"] = 90 - div_i - 4 * k + lg_i
    got = playoff_qualifiers(wins, league, np.random.default_rng(0))
    expected = {f"{lg}{div}{k}" for lg in "EW" for div in "NCS"
                for k in (0, 1)}
    assert got == expected
    assert len(got) == 12


def test_playoff_qualifiers_six_per_league():
    league = standard_league()
    rng = np.random.default_rng(1)
    wins = {t: int(rng.integers(60, 100)) for t in league.teams}
    got = playoff_qualifiers(wins, league, np.random.default_rng(2))
    for lg in ("E", "W"):
        assert sum(t.startswith(lg) for t in got) == 6


def test_playoff_tie_break_is_seeded_and_fair():
    league = tiny_league()
    # E1 and E2 tie; E0 wins the division, leaving no wild cards (3-team
    # leagues have nothing left after the winner plus two wild cards)
    wins = {"E0": 9, "E1": 7, "E2": 7, "W0": 8, "W1": 6, "W2": 5}
    first = playoff_qualifiers(wins, league, np.random.default_rng(3))
    again = playoff_qualifiers(wins, league, np.random.default_rng(3))
    assert first == again  # same seed, same answer
    # all teams qualify here (1 winner + up to 3 wild cards from 2 remaining)
    assert first == frozenset(wins)


def test_playoff_division_tie_frequency():
    rows = [(lg, "D", f"{lg}{k}") for lg in ("E", "W") for k in range(4)]
    league = LeagueStructure.from_rows(rows, season_length=10)
    wins = {"E0": 9, "E1": 9, "E2": 2, "E3": 1,
            "W0": 9, "W1": 2, "W2": 1, "W3": 0}
    picks = []
    for seed in range(400):
        got = playoff_qualifiers(wins, league, np.random.default_rng(seed),
                                 wild_cards=0)
        assert len(got) == 2 and "W0" in got
        picks.append("E0" in got)
    rate = np.mean(picks)
    assert 0.4 < rate < 0.6  # fair coin across seeds


def test_playoff_missing_record_errors():
    league = tiny_league()
    with pytest.raises(ValueError, match="no final record"):
        playoff_qualifiers({"E0": 5}, league, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# aggregation


def hand_results():
    mk = lambda i, w, q: SeasonResult(replication_id=i, wins=w,
                                      qualifiers=frozenset(q))
    return [
        mk(0, {"A": 90, "B": 80, "C": 70}, {"A"}),
        mk(1, {"A": 88, "B": 84, "C": 70}, {"A", "B"}),
        mk(2, {"A": 92, "B": 76, "C": 70}, {"A"}),
        mk(3, {"A": 90, "B": 80, "C": 70}, {"B"}),
    ]


def test_summarize_hand_computed():
    summary = summarize(hand_results())
    assert [f.team for f in summary.teams] == ["A", "B", "C"]
    a, b, c = summary.teams
    assert a.mean_wins == pytest.approx(90.0)
    assert b.mean_wins == pytest.approx(80.0)
    # nearest-rank on 4 values: rank ceil(0.05*4)=1 and ceil(0.95*4)=4
    assert (a.ci5, a.ci95) == (88.0, 92.0)
    assert (b.ci5, b.ci95) == (76.0, 84.0)
    assert (c.ci5, c.ci95) == (70.0, 70.0)
    assert a.playoff_prob == pytest.approx(0.75)
    assert b.playoff_prob == pytest.approx(0.5)
    assert c.playoff_prob == 0.0
    assert summary.n_replications == 4


def test_summarize_tie_falls_back_to_team_id():
    results = [SeasonResult(replication_id=0, wins={"B": 81, "A": 81},
                            qualifiers=frozenset())]
    summary = summarize(results)
    assert [f.team for f in summary.teams] == ["A", "B"]


def test_summarize_rejects_empty():
    with pytest.raises(ValueError, match="no replications"):
        summarize([])


def test_histogram_contiguous_and_complete():
    rows = export_win_histogram(hand_results(), "A")
    assert rows == [(88, 1), (89, 0), (90, 2), (91, 0), (92, 1)]
    assert sum(c for _, c in rows) == 4
    assert export_win_histogram(hand_results(), "C") == [(70, 4)]


def test_histogram_unknown_team():
    with pytest.raises(ValueError, match="unknown team"):
        export_win_histogram(hand_results(), "Z")


# ---------------------------------------------------------------------------
# synthetic schedules and files


def test_generate_schedule_fills_every_team():
    league = standard_league()
    played = {t: 20 for t in league.teams}
    sched = generate_schedule(league, played, seed=3)
    assert sched.synthetic
    counts = sched.games_per_team()
    assert set(counts.values()) == {142}
    assert len(sched) == 30 * 142 // 2


def test_generate_schedule_deterministic():
    league = standard_league()
    played = {t: 100 for t in league.teams}
    a = generate_schedule(league, played, seed=8)
    b = generate_schedule(league, played, seed=8)
    assert a.games == b.games
    c = generate_schedule(league, played, seed=9)
    assert a.games != c.games


def test_generate_schedule_division_weighting():
    league = standard_league()
    sched = generate_schedule(league, {t: 20 for t in league.teams}, seed=3)
    same = sum(league.membership(g.home) == league.membership(g.away)
               for g in sched.games)
    assert 0.55 < same / len(sched) < 0.67


def test_generate_schedule_rejects_overplayed_team():
    league = tiny_league()
    played = {t: 4 for t in league.teams}
    played["E0"] = 11
    with pytest.raises(ValueError, match="more than"):
        generate_schedule(league, played, seed=0)


def test_schedule_csv_round_trip(tmp_path):
    # each row becomes one game, in file order
    path = tmp_path / "sched.csv"
    path.write_text("date,home,away\n2024-08-01,E0,W0\n"
                    "2024-08-01,W1,E2\n2024-08-03,E1,W2\n")
    sched = read_schedule_csv(path)
    day = datetime.date
    assert sched.games == (ScheduledGame(day(2024, 8, 1), "E0", "W0"),
                           ScheduledGame(day(2024, 8, 1), "W1", "E2"),
                           ScheduledGame(day(2024, 8, 3), "E1", "W2"))
    assert not sched.synthetic  # a file schedule is not synthetic


def test_schedule_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("when,home,away\n2024-08-01,A,B\n")
    with pytest.raises(ValueError, match="header"):
        read_schedule_csv(path)


def test_schedule_csv_rejects_bad_date(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,home,away\n08/01/2024,A,B\n")
    with pytest.raises(ValueError, match="row 2"):
        read_schedule_csv(path)


def test_league_csv_reader(tmp_path):
    path = tmp_path / "league.csv"
    lines = ["league,division,team"]
    for lg in ("E", "W"):
        for div in ("N", "S"):
            for k in range(2):
                lines.append(f"{lg},{div},{lg}{div}{k}")
    path.write_text("\n".join(lines) + "\n")
    league = read_league_csv(path, season_length=20)
    assert len(league.teams) == 8
    assert league.membership("EN0") == ("E", "N")
    assert league.season_length == 20


def test_league_csv_rejects_empty(tmp_path):
    path = tmp_path / "league.csv"
    path.write_text("league,division,team\n")
    with pytest.raises(ValueError, match="no teams"):
        read_league_csv(path)
