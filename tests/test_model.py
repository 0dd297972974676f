"""Tests for the game-outcome model as the fit evaluates it: floored and
oriented strength ratios, the strength/probability link, and the marginalized
likelihood, all through `mcmc.log_ratio_design` and
`mcmc.design_log_likelihood`. The simulator's copy of the strength formula
is tied to this one in tests/test_season.py."""

import math

import numpy as np
import pytest

from games import game_table
from oracles import game_log_likelihood
from pennantsim.mcmc import PriorConfig, design_log_likelihood, log_ratio_design


def make_record(home_win_pct=0.5, away_win_pct=0.5, home_avg=0.25,
                away_avg=0.25, home_era=4.0, away_era=4.0, home_won=True):
    """One game's covariates and outcome, for `games.game_table`."""
    return dict(home="AAA", away="BBB",
                home_win_pct=home_win_pct, away_win_pct=away_win_pct,
                home_batting_avg=home_avg, away_batting_avg=away_avg,
                home_era=home_era, away_era=away_era, home_won=home_won)


def design_row(record):
    """The record's (win pct, batting, ERA) log-ratios."""
    L, _ = log_ratio_design(game_table([record]))
    return L[0]


def p_home(record, exponents):
    """The model's home-win probability: exp of a home win's likelihood."""
    L, won = log_ratio_design(game_table([{**record, "home_won": True}]))
    return math.exp(design_log_likelihood(L, won, np.asarray(exponents, float)))


def strength(record, exponents):
    p = p_home(record, exponents)
    return p / (1.0 - p)


# ---------------------------------------------------------------------------
# relative strength


def test_strength_all_even_ratios_is_one():
    assert strength(make_record(), (0.7, 1.3, 2.9)) == pytest.approx(
        1.0, abs=1e-15)


def test_strength_single_active_exponent():
    record = make_record(home_win_pct=0.625, home_avg=0.175, away_era=8.0)
    assert strength(record, (1.0, 0.0, 0.0)) == pytest.approx(1.25, abs=1e-12)


def test_strength_weighted_product():
    # oracle: high-precision evaluation of 1.2**0.5 * 0.9**1.0 * 1.1**2.0
    record = make_record(home_win_pct=0.6, home_avg=0.225, away_era=4.4)
    assert strength(record, (0.5, 1.0, 2.0)) == pytest.approx(
        1.1929397302462517, abs=1e-12)


def test_strength_monotone_in_each_ratio():
    r = (0.8, 0.8, 0.8)
    base = strength(make_record(home_win_pct=0.55), r)
    assert strength(make_record(home_win_pct=0.6), r) > base
    assert strength(make_record(home_win_pct=0.55, home_avg=0.275), r) > base
    assert strength(make_record(home_win_pct=0.55, away_era=4.4), r) > base


def test_ratio_validation_rejects_nonpositive():
    # no ratio can come out nonpositive or infinite: the parser refuses
    # non-finite, negative or zero-batting stats, naming the row and the
    # column, and zero win percentages and ERAs are floored
    for bad, column in ((dict(home_win_pct=math.nan), "home_winpct_pre"),
                        (dict(away_era=math.inf), "away_era_pre"),
                        (dict(home_avg=0.0), "home_avg_pre"),
                        (dict(away_era=-2.0), "away_era_pre")):
        with pytest.raises(ValueError, match=rf"<stream> row 2, "
                                             rf"column '{column}': "):
            game_table([make_record(**bad)])
    row = design_row(make_record(home_win_pct=0.0, away_win_pct=0.0,
                                 home_era=0.0, away_era=0.0))
    assert row.tolist() == [0.0, 0.0, 0.0]


def test_params_validation():
    # the exponents live in the prior box, which refuses a bound the model
    # cannot use
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PriorConfig(r_max=bad)


# ---------------------------------------------------------------------------
# marginal win probability


def test_marginal_prob_even_matchup():
    # strength 1: a home win and a home loss are equally likely
    for won in (True, False):
        L, w = log_ratio_design(game_table([make_record(home_won=won)]))
        assert design_log_likelihood(L, w, np.ones(3)) == pytest.approx(
            math.log(0.5), abs=1e-15)


def test_marginal_prob_matches_beta_sampling_oracle():
    # oracle: empirical mean of Beta(m*lam, m) draws equals lam/(1+lam)
    # regardless of m; the likelihood's win probability is that mean
    rng = np.random.default_rng(314)
    n = 10**6
    for home_pct, away_pct, lam, expected in ((0.75, 0.25, 3.0, 0.75),
                                              (0.2, 0.8, 0.25, 0.2)):
        for m in (0.5, 1.0, 10.0):
            draws = rng.beta(m * lam, m, size=n)
            se = draws.std(ddof=1) / math.sqrt(n)
            assert abs(draws.mean() - expected) < 4 * se
        record = make_record(home_win_pct=home_pct, away_win_pct=away_pct)
        assert p_home(record, (1.0, 0.0, 0.0)) == pytest.approx(expected,
                                                                abs=1e-12)


def test_marginal_prob_strictly_increasing():
    # win-pct ratios 0.1, 0.5, 1, 2, 10
    pairs = ((0.05, 0.5), (0.25, 0.5), (0.5, 0.5), (0.5, 0.25), (0.5, 0.05))
    probs = [p_home(make_record(home_win_pct=h, away_win_pct=a),
                    (1.0, 0.0, 0.0))
             for h, a in pairs]
    assert all(a < b for a, b in zip(probs, probs[1:]))


# ---------------------------------------------------------------------------
# ratios from records


def test_ratios_identical_stats_are_even():
    record = make_record(home_avg=0.26, away_avg=0.26, home_era=3.8,
                         away_era=3.8)
    assert design_row(record).tolist() == [0.0, 0.0, 0.0]


def test_ratios_win_pct_direct():
    row = design_row(make_record(home_win_pct=0.6, away_win_pct=0.4))
    assert row[0] == pytest.approx(math.log(1.5))


def test_ratios_era_inverted():
    # lower home ERA must favor home: ratio is away/home
    row = design_row(make_record(home_era=3.0, away_era=4.5))
    assert row[2] == pytest.approx(math.log(1.5))


def test_ratios_floor_zero_stats():
    row = design_row(make_record(home_win_pct=0.0, home_era=0.0))
    assert row[0] == pytest.approx(math.log(1e-3 / 0.5))
    assert row[2] == pytest.approx(math.log(4.0 / 0.01))


def test_symmetry_swap_inverts_ratios():
    fwd = make_record(home_win_pct=0.55, away_win_pct=0.45, home_avg=0.27,
                      away_avg=0.24, home_era=3.5, away_era=4.2)
    rev = make_record(home_win_pct=0.45, away_win_pct=0.55, home_avg=0.24,
                      away_avg=0.27, home_era=4.2, away_era=3.5)
    assert design_row(rev) == pytest.approx(-design_row(fwd))
    # swapping sides sends p to 1-p
    r = (0.9, 0.9, 0.9)
    assert p_home(fwd, r) + p_home(rev, r) == pytest.approx(1.0, abs=1e-12)


def test_game_record_rejects_same_team():
    with pytest.raises(ValueError, match=r"row 2, column 'away': home and "
                                         r"away are both 'AAA'"):
        game_table([{**make_record(), "away": "AAA"}])


def test_game_record_rejects_out_of_range_stats():
    with pytest.raises(ValueError, match=r"row 2, column 'home_winpct_pre': "
                                         r"out of \[0, 1\]: 1.5"):
        game_table([make_record(home_win_pct=1.5)])
    with pytest.raises(ValueError, match=r"row 2, column 'home_era_pre': "
                                         r"negative: -1.0"):
        game_table([make_record(home_era=-1.0)])


# ---------------------------------------------------------------------------
# likelihood


def test_loglik_single_even_game():
    L, won = log_ratio_design(game_table([make_record(home_won=True)]))
    assert design_log_likelihood(L, won, np.ones(3)) == pytest.approx(
        math.log(0.5), abs=1e-12)


def test_loglik_two_favored_wins():
    # lam=3 via the win-pct ratio alone; oracle: 2*ln(0.75)
    games = game_table([make_record(home_win_pct=0.75, away_win_pct=0.25,
                                    home_won=True) for _ in range(2)])
    L, won = log_ratio_design(games)
    assert design_log_likelihood(L, won, np.array([1.0, 0.0, 0.0])) == \
        pytest.approx(-0.5753641449035618, abs=1e-12)


def test_loglik_empty_is_zero():
    assert design_log_likelihood(np.empty((0, 3)), np.empty(0),
                                 np.ones(3)) == 0.0


def test_loglik_additive_over_disjoint_sets():
    rng = np.random.default_rng(3)
    games = game_table([make_record(home_win_pct=float(rng.uniform(0.3, 0.7)),
                                    away_win_pct=float(rng.uniform(0.3, 0.7)),
                                    home_avg=float(rng.uniform(0.22, 0.28)),
                                    away_avg=float(rng.uniform(0.22, 0.28)),
                                    home_era=float(rng.uniform(3.0, 5.0)),
                                    away_era=float(rng.uniform(3.0, 5.0)),
                                    home_won=bool(rng.random() < 0.5))
                        for _ in range(20)])
    r = np.array([1.4, 0.6, 0.8])
    L, won = log_ratio_design(games)
    whole = design_log_likelihood(L, won, r)
    parts = (design_log_likelihood(L[:7], won[:7], r)
             + design_log_likelihood(L[7:], won[7:], r))
    assert whole == pytest.approx(parts, abs=1e-10)
    assert whole == pytest.approx(game_log_likelihood(games, r), abs=1e-10)
