"""Season simulation tests.

Outcome-level checks use regimes where the result is forced (overwhelming
strength ratios) or analytically known (all-equal teams, or rates over many
one-off matchups from tests/matchups.py), so none of them re-derive the
simulator's internal stream layout.
"""

import dataclasses
import datetime
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from games import game_table
from matchups import Matchups
from oracles import playoff_qualifiers as scalar_playoff_qualifiers
from pennantsim import season
from pennantsim.mcmc import design_log_likelihood, log_ratio_design
from pennantsim.season import (
    LEAGUE_BATTING_MEAN,
    ForecastSummary,
    LeagueStructure,
    Schedule,
    ScheduledGame,
    SeasonResults,
    SimOptions,
    TeamForecast,
    TeamSimState,
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
               tercile=""):
    return TeamSimState(team=team, wins=wins, losses=losses,
                        batting_deviation=deviation, era=era,
                        tercile=tercile)


def one_replication(initial, schedule, draws, league, seed, **kwargs):
    """The engine on one replication."""
    return run_replication(initial, schedule, draws, league, seed, 1,
                           **kwargs)


def final_wins(results, row=0):
    """{team: wins} of one replication."""
    return dict(zip(results.teams, results.wins[row].tolist()))


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
    # each division is named once, as league/division
    with pytest.raises(ValueError, match="'A' appears in both E/N and E/S$"):
        LeagueStructure.from_rows([("E", "N", "A"), ("E", "S", "A")])
    with pytest.raises(ValueError, match="'A' appears twice in E/N$"):
        LeagueStructure.from_rows([("E", "N", "A"), ("E", "N", "A")])


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
    with pytest.raises(ValueError, match="draw_mode"):
        SimOptions(draw_mode="map")


def test_walk_config_validation():
    # The batting walk's step lives on SimOptions; its clamp band is fixed
    # and must contain the league mean the deviations are measured from.
    for bad in (0.0, -0.001, math.nan, math.inf):
        with pytest.raises(ValueError, match="step_std"):
            SimOptions(step_std=bad)
    assert season.BATTING_LOW < LEAGUE_BATTING_MEAN < season.BATTING_HIGH


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
    game = game_table([dict(
        home="H", away="A",
        home_win_pct=home.wins / home.games_played,
        away_win_pct=away.wins / away.games_played,
        home_batting_avg=LEAGUE_BATTING_MEAN + home.batting_deviation,
        away_batting_avg=LEAGUE_BATTING_MEAN + away.batting_deviation,
        home_era=home.era, away_era=away.era,
        home_won=True)])
    p = math.exp(design_log_likelihood(*log_ratio_design(game), r))
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
    wins = final_wins(one_replication(states, sched, np.ones((1, 3)), league,
                                      seed=3, opts=opts))
    assert sum(wins.values()) == sum(s.wins for s in states) + 1
    gained = {t for t in wins if wins[t] == 3}
    assert gained in ({"E0"}, {"W0"})
    untouched = [t for t in league.teams if t not in ("E0", "W0")]
    assert all(wins[t] == 2 for t in untouched)


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
        wins = final_wins(one_replication(
            states, Schedule(games=games), np.array([[exponent, 0.0, 0.0]]),
            league, seed=10, opts=SimOptions(burn_in_games=0)))
        assert wins["E0"] == 25
        assert wins["W0"] == 1


def test_forced_outcome_era_dominates():
    # away/home ERA ratio 4 at exponent 8 -> home win prob ~ 1
    league = tiny_league()
    states = [make_state(t) for t in league.teams]
    states[0] = make_state("E0", era=2.0)
    states[3] = make_state("W0", era=8.0)
    games = tuple(ScheduledGame(datetime.date(2024, 8, 1 + d), "E0", "W0")
                  for d in range(6))
    draws = np.array([[0.0, 0.0, 8.0]])
    wins = final_wins(one_replication(states, Schedule(games=games), draws,
                                      league, seed=11,
                                      opts=SimOptions(burn_in_games=0)))
    assert wins["E0"] == 16


def test_burn_in_enforced_for_scheduled_teams_only():
    league = tiny_league()
    states = [make_state(t, wins=2, losses=2) for t in league.teams]
    states[5] = make_state("W2", wins=1, losses=1)  # idle team, under burn-in
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    opts = SimOptions(burn_in_games=4)
    wins = final_wins(one_replication(states, sched, np.ones((1, 3)), league,
                                      seed=3, opts=opts))
    assert wins["W2"] == 1

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
    assert a == b
    assert final_wins(a) != final_wins(c)


def test_wins_conserved_every_replication():
    league = tiny_league()
    states = balanced_states(league, games=4)
    sched = generate_schedule(league, {t: 4 for t in league.teams}, seed=2)
    draws = np.random.default_rng(1).uniform(0.5, 2.0, (50, 3))
    opts = SimOptions(burn_in_games=4)
    results = run_replications(40, states, sched, draws, league, base_seed=9,
                               opts=opts)
    initial_total = sum(s.wins for s in states)
    for wins in results.wins:
        assert sum(wins.tolist()) == initial_total + len(sched)
        # balanced records + complete schedule: exact league mean
        assert sum(wins.tolist()) / 6 == 5.0


ERA_MODE_OPTIONS = [SimOptions(), SimOptions(era_mode="path")]


def unequal_setup():
    # 30 teams with unequal records, ERAs and noise (a one-row pool under
    # each team's own label), 15 games left each: 225 games
    league = standard_league()
    states = [make_state(t, wins=8 + i % 7, losses=12 - i % 7,
                         deviation=0.002 * (i % 5 - 2), era=3.0 + 0.07 * i,
                         tercile=t)
              for i, t in enumerate(league.teams)]
    pools = {t: np.array([(0.2 + 0.01 * i, 0.02 + 0.002 * i)])
             for i, t in enumerate(league.teams)}
    sched = generate_schedule(league, {t: 147 for t in league.teams}, seed=6)
    draws = np.random.default_rng(3).uniform(0.5, 2.0, (40, 3))
    return league, states, pools, sched, draws


@pytest.mark.parametrize("opts", ERA_MODE_OPTIONS,
                         ids=["marginal-forecast", "marginal-path"])
def test_replications_repeat_and_follow_the_seed(opts):
    # results are a function of (base_seed, n): a repeat gives the same
    # bytes, and another seed other results
    league, states, pools, sched, draws = unequal_setup()

    def play(base_seed):
        return run_replications(7, states, sched, draws, league, base_seed,
                                opts=opts, noise_pools=pools)
    first = play(9)
    assert first == play(9)
    assert first.replication_ids.tolist() == list(range(7))
    assert np.any(first.wins != play(10).wins)


@pytest.mark.parametrize("opts", ERA_MODE_OPTIONS,
                         ids=["marginal-forecast", "marginal-path"])
def test_level_waves_match_one_game_at_a_time(monkeypatch, opts):
    # a game reads only its own teams' state, and each kind of variate is
    # drawn game-major in level order, so playing each level at once must
    # give exactly the results of playing the levels' games one at a time
    league, states, pools, sched, draws = unequal_setup()
    games = sched.games
    # some consecutive games share a team, so they play at different levels
    assert any({g.home, g.away} & {h.home, h.away}
               for g, h in zip(games, games[1:]))
    index = {t: i for i, t in enumerate(league.teams)}
    order, _ = season._waves([(index[g.home], index[g.away])
                              for g in sched.games])
    assert np.any(order != np.arange(len(sched)))   # levels reorder games

    def play():
        return run_replications(7, states, sched, draws, league, base_seed=9,
                                opts=opts, noise_pools=pools)
    levels = play()
    waves = season._waves
    monkeypatch.setattr(season, "_waves", lambda pairs: (
        waves(pairs)[0], [slice(g, g + 1) for g in range(len(pairs))]))
    assert levels == play()


def season_setup():
    # 30 teams with 36 games played, a two-row pool, and the 1,890 games
    # left of a 162-game season: the early-marginal benchmark's size
    league = standard_league()
    states = [make_state(t, tercile="low") for t in league.teams]
    pools = {"low": np.array([(0.3, 0.02), (0.5, 0.04)])}
    sched = generate_schedule(league, {t: 36 for t in league.teams}, seed=5)
    assert len(sched) == 1890
    draws = np.random.default_rng(4).uniform(0.5, 2.0, (8000, 3))
    return league, states, pools, sched, draws


def test_schedule_work_is_done_once_per_run(monkeypatch):
    # the levels, like the checks, are worked out once however many
    # replications the run plays
    league, states, pools, sched, draws = season_setup()
    calls = []
    waves = season._waves

    def counted(pairs):
        calls.append(len(pairs))
        return waves(pairs)
    monkeypatch.setattr(season, "_waves", counted)
    run_replications(500, states, sched, draws, league, base_seed=9)
    assert calls == [len(sched)]


@pytest.mark.parametrize("opts", ERA_MODE_OPTIONS,
                         ids=["marginal-forecast", "marginal-path"])
def test_memory_is_team_state_plus_one_wave(opts):
    # drawing every variate of 500 replications before the first game
    # would take 500 * 1,890 * 8 bytes (7.6 MB) per kind; the kernel holds
    # the (team, replication) state and one wave's variates
    league, states, pools, sched, draws = season_setup()
    tracemalloc.start()
    try:
        run_replications(500, states, sched, draws, league, base_seed=3,
                         opts=opts, noise_pools=pools)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                .filter(lambda pair: pair[0] != pair[1]), max_size=40))
def test_waves_are_the_schedules_level_sets(pairs):
    order, waves = season._waves(pairs)
    # the slices cover the ordered games once each, in order
    assert sorted(order.tolist()) == list(range(len(pairs)))
    bounds = [0] + [w.stop for w in waves]
    assert [w.start for w in waves] == bounds[:-1]
    assert bounds[-1] == len(pairs) and all(w.stop > w.start for w in waves)
    wave_of = {}
    for k, w in enumerate(waves):
        teams = [t for g in order[w] for t in pairs[g]]
        assert len(teams) == len(set(teams))   # no team twice in a wave
        wave_of.update(dict.fromkeys(order[w].tolist(), k))
    for team in {t for pair in pairs for t in pair}:
        mine = [g for g, pair in enumerate(pairs) if team in pair]
        assert all(wave_of[a] < wave_of[b] for a, b in zip(mine, mine[1:]))
    # longest chain of games each sharing a team with the one before it
    chain = []
    for g, pair in enumerate(pairs):
        chain.append(1 + max((chain[h] for h in range(g)
                              if set(pair) & set(pairs[h])), default=0))
    assert len(waves) == max(chain, default=0)


def tercile_setup():
    # 30 teams labelled low/medium/high by tens, and a one-row pool per
    # tercile, each pair unlike the others
    league = standard_league()
    labels = ("low", "medium", "high")
    states = [make_state(t, tercile=labels[i // 10])
              for i, t in enumerate(league.teams)]
    pools = {label: np.array([(0.2 + i * 0.2, 0.03 + i * 0.03)])
             for i, label in enumerate(labels)}
    sched = generate_schedule(league, {t: 150 for t in league.teams}, seed=4)
    draws = np.random.default_rng(2).uniform(0.5, 2.0, (100, 3))
    return league, states, pools, sched, draws


def test_noise_pools_do_not_disturb_game_stream():
    # forecast-mode outcomes cannot depend on noise, so passing the pools
    # must leave every win total unchanged
    league, states, pools, sched, draws = tercile_setup()
    bare = run_replications(3, states, sched, draws, league, base_seed=12)
    pooled = run_replications(3, states, sched, draws, league, base_seed=12,
                              noise_pools=pools)
    assert np.array_equal(bare.wins, pooled.wins)


def test_path_mode_draws_noise_from_each_teams_tercile_pool():
    # with one row per pool, path mode must play exactly as if each team
    # had its own one-row pool holding its tercile's pair; and the pools
    # must matter: rotating them across the terciles changes the play
    league, states, pools, sched, draws = tercile_setup()
    opts = SimOptions(era_mode="path")
    pooled = run_replications(3, states, sched, draws, league, base_seed=12,
                              opts=opts, noise_pools=pools)
    own = [dataclasses.replace(s, tercile=s.team) for s in states]
    per_team = {s.team: pools[s.tercile] for s in states}
    direct = run_replications(3, own, sched, draws, league, base_seed=12,
                              opts=opts, noise_pools=per_team)
    rotated = dict(zip(pools, np.roll(list(pools.values()), 1, axis=0)))
    moved = run_replications(3, states, sched, draws, league, base_seed=12,
                             opts=opts, noise_pools=rotated)
    assert pooled == direct
    assert np.any(pooled.wins != moved.wins)


def test_noise_pools_require_grouping():
    # pools are keyed by tercile, so path mode cannot draw noise without
    # them, for a team without a tercile, or for a tercile without a pool
    league = tiny_league()
    states = [make_state(t, tercile="low") for t in league.teams]
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    pools = {"low": np.array([(0.3, 0.02)])}
    path = SimOptions(era_mode="path")

    def play(states, noise_pools):
        return one_replication(states, sched, np.ones((1, 3)), league,
                               seed=1, opts=path, noise_pools=noise_pools)

    play(states, pools)
    with pytest.raises(ValueError, match="path mode needs noise pools"):
        play(states, None)
    with pytest.raises(ValueError, match="no noise pool for tercile 'low'"):
        play(states, {"high": pools["low"]})
    states[2] = make_state("E2")
    with pytest.raises(ValueError, match="E2 has no tercile"):
        play(states, pools)


def test_replications_rejects_bad_counts():
    league = tiny_league()
    states = [make_state(t) for t in league.teams]
    sched = Schedule(games=())
    with pytest.raises(ValueError, match="at least 1 replication"):
        run_replications(0, states, sched, np.ones((1, 3)), league,
                         base_seed=0)


# ---------------------------------------------------------------------------
# playoffs


def qualifiers(final_wins, league, rng, **kwargs):
    """playoff_qualifiers on one replication's {team: wins}, with tie keys
    drawn from rng in sorted team order, as a set of team names."""
    teams = sorted(final_wins)
    wins = np.array([[final_wins[t] for t in teams]])
    [row] = playoff_qualifiers(wins, rng.random((1, len(teams))), league,
                               teams, **kwargs)
    return frozenset(t for t, made in zip(teams, row) if made)


def test_playoff_qualifiers_no_ties_exact():
    league = standard_league()
    # wins descend with the team index inside each division: the k=0 team
    # wins each division, and k=1 teams hold the three best remaining records
    wins = {}
    for lg_i, lg in enumerate(("E", "W")):
        for div_i, div in enumerate(("N", "C", "S")):
            for k in range(5):
                wins[f"{lg}{div}{k}"] = 90 - div_i - 4 * k + lg_i
    got = qualifiers(wins, league, np.random.default_rng(0))
    expected = {f"{lg}{div}{k}" for lg in "EW" for div in "NCS"
                for k in (0, 1)}
    assert got == expected
    assert len(got) == 12


def test_playoff_qualifiers_six_per_league():
    league = standard_league()
    rng = np.random.default_rng(1)
    wins = {t: int(rng.integers(60, 100)) for t in league.teams}
    got = qualifiers(wins, league, np.random.default_rng(2))
    for lg in ("E", "W"):
        assert sum(t.startswith(lg) for t in got) == 6


def test_playoff_tie_break_is_seeded_and_fair():
    league = tiny_league()
    # E1 and E2 tie; E0 wins the division, leaving no wild cards (3-team
    # leagues have nothing left after the winner plus two wild cards)
    wins = {"E0": 9, "E1": 7, "E2": 7, "W0": 8, "W1": 6, "W2": 5}
    first = qualifiers(wins, league, np.random.default_rng(3))
    again = qualifiers(wins, league, np.random.default_rng(3))
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
        got = qualifiers(wins, league, np.random.default_rng(seed),
                         wild_cards=0)
        assert len(got) == 2 and "W0" in got
        picks.append("E0" in got)
    rate = np.mean(picks)
    assert 0.4 < rate < 0.6  # fair coin across seeds


@pytest.mark.parametrize("wild_cards", [3, 0, 13])
def test_playoff_arrays_match_scalar_oracle_on_tied_standings(wild_cards):
    # wins from a six-value range tie often, both for division titles and
    # in the wild-card race; both sides see the same tie-key streams
    league = standard_league()
    teams = league.teams
    n = 1000
    wins = np.random.default_rng(21).integers(80, 86, (n, len(teams)))
    seeds = np.random.SeedSequence(22).spawn(n)
    tie_keys = np.array([np.random.default_rng(seed).random(len(teams))
                         for seed in seeds])
    got = playoff_qualifiers(wins, tie_keys, league, teams,
                             wild_cards=wild_cards)
    for row, seed, picked in zip(wins.tolist(), seeds, got):
        expected = scalar_playoff_qualifiers(
            dict(zip(teams, row)), league, np.random.default_rng(seed),
            wild_cards=wild_cards)
        assert {t for t, made in zip(teams, picked) if made} == expected


def test_playoff_missing_record_errors():
    # a league team without an initial state is refused before any game
    league = tiny_league()
    states = [make_state(t) for t in league.teams if t != "E1"]
    sched = Schedule(games=(
        ScheduledGame(datetime.date(2024, 8, 1), "E0", "W0"),))
    with pytest.raises(ValueError, match="no final record"):
        one_replication(states, sched, np.ones((1, 3)), league, seed=0,
                        opts=SimOptions(burn_in_games=0))


# ---------------------------------------------------------------------------
# aggregation


def hand_results():
    return SeasonResults(
        teams=("A", "B", "C"), replication_ids=np.arange(4),
        wins=np.array([[90, 80, 70], [88, 84, 70], [92, 76, 70],
                       [90, 80, 70]]),
        qualified=np.array([[True, False, False], [True, True, False],
                            [True, False, False], [False, True, False]]))


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
    results = SeasonResults(teams=("A", "B"), replication_ids=np.zeros(1),
                            wins=np.array([[81, 81]]),
                            qualified=np.zeros((1, 2), dtype=bool))
    summary = summarize(results)
    assert [f.team for f in summary.teams] == ["A", "B"]


def test_summarize_rejects_empty():
    empty = SeasonResults(teams=("A",), replication_ids=np.zeros(0),
                          wins=np.zeros((0, 1), dtype=int),
                          qualified=np.zeros((0, 1), dtype=bool))
    with pytest.raises(ValueError, match="no replications"):
        summarize(empty)


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


def test_generate_schedule_is_pinned():
    # digests of the schedules the generator makes for these inputs; a
    # changed schedule would change every simulate result downstream
    league = standard_league()
    played = {t: 20 + 2 * (i % 3) for i, t in enumerate(league.teams)}
    digests = {
        3: "0194d1e325033be0be498236682ec6e4bd3bef214a17e39d6879997a2a0b1302",
        11: "9e20874b251d9300a8cae6424b99de53848528be2e3e39e97679f4bd4469c996"}
    for seed, digest in digests.items():
        games = generate_schedule(league, played, seed=seed).games
        text = "\n".join(f"{g.date},{g.home},{g.away}" for g in games)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
