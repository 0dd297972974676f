"""Tests for the Metropolis sampler, diagnostics, and posterior summaries."""

import logging
import math
import os

import numpy as np
import pytest

from games import game_table
from oracles import game_log_likelihood
from pennantsim.mcmc import (
    ChainConfig,
    PriorConfig,
    design_log_likelihood,
    derived_seed,
    effective_sample_size,
    log_ratio_design,
    posterior_summaries,
    run_chain,
    run_chains,
    split_rhat,
    tune_proposal_std,
)


def even_games(n):
    """Games with all strength ratios exactly 1 (constant likelihood)."""
    return game_table([{"home_won": i % 2 == 0} for i in range(n)])


def skewed_games(n, seed):
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n):
        games.append(dict(
            home_win_pct=float(rng.uniform(0.35, 0.65)),
            away_win_pct=float(rng.uniform(0.35, 0.65)),
            home_batting_avg=float(rng.uniform(0.23, 0.27)),
            away_batting_avg=float(rng.uniform(0.23, 0.27)),
            home_era=float(rng.uniform(3.2, 4.8)),
            away_era=float(rng.uniform(3.2, 4.8)),
            home_won=bool(rng.random() < 0.5)))
    return game_table(games)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ChainConfig(n_iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(n_iterations=0)
    with pytest.raises(ValueError):
        ChainConfig(thin=0)
    with pytest.raises(ValueError):
        ChainConfig(proposal_std=0.0)
    with pytest.raises(ValueError):
        PriorConfig(r_max=0.0)


def test_run_chain_rejects_empty_dataset():
    with pytest.raises(ValueError):
        run_chain(log_ratio_design(game_table([])), PriorConfig(),
                  ChainConfig(n_iterations=100, burn_in=10))


# ---------------------------------------------------------------------------
# likelihood design


def test_design_likelihood_matches_record_route():
    # dual route: vectorized design evaluation vs the independent per-record
    # oracle likelihood
    games = skewed_games(60, seed=4)
    L, won = log_ratio_design(games)
    for r in ((1.0, 1.0, 1.0), (1.5, 0.8, 0.6), (0.0, 0.0, 0.0), (2.5, 0.1, 1.9)):
        direct = game_log_likelihood(games, r)
        via_design = design_log_likelihood(L, won, np.asarray(r))
        assert via_design == pytest.approx(direct, abs=1e-8)


def logaddexp_log_likelihood(L, won, r):
    u = L @ r
    return float(won @ u - np.logaddexp(0.0, u).sum())


def test_design_likelihood_matches_logaddexp_reference():
    # the stable softplus is log(1 + e^u) rewritten, not approximated
    L, won = log_ratio_design(skewed_games(500, seed=5))
    rng = np.random.default_rng(6)
    for r in rng.uniform(0.0, PriorConfig().r_max, (200, 3)):
        assert design_log_likelihood(L, won, r) == pytest.approx(
            logaddexp_log_likelihood(L, won, r), rel=1e-12)


def test_design_likelihood_stays_finite_at_extreme_strengths():
    # u = +-800: e^800 overflows, so a bare log1p(exp(u)) gives -inf here
    L = np.array([[800.0, 0.0, 0.0], [-800.0, 0.0, 0.0], [0.0, 400.0, 400.0],
                  [0.0, -400.0, -400.0]])
    won = np.array([1.0, 1.0, 0.0, 0.0])
    r = np.ones(3)
    value = design_log_likelihood(L, won, r)
    assert math.isfinite(value)
    assert value == pytest.approx(logaddexp_log_likelihood(L, won, r),
                                  rel=1e-12)
    assert value == pytest.approx(-1600.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling behavior


def test_constant_likelihood_recovers_prior():
    # ratios all 1 make the likelihood flat, so the posterior is the prior;
    # the draw mean must sit near r_max/2 within Monte Carlo error
    design = log_ratio_design(even_games(50))
    prior = PriorConfig(r_max=5.0)
    cfg = ChainConfig(n_iterations=30_000, burn_in=2_000, thin=5,
                      proposal_std=1.5, seed=101)
    out = run_chain(design, prior, cfg)
    for j in range(3):
        ess = effective_sample_size([out.draws[:, j]])
        tol = 3.0 * prior.r_max / math.sqrt(12.0 * ess)
        assert abs(out.draws[:, j].mean() - prior.r_max / 2.0) < tol


def test_draws_stay_inside_prior_box():
    design = log_ratio_design(even_games(20))
    prior = PriorConfig(r_max=2.0)
    cfg = ChainConfig(n_iterations=20_000, burn_in=1_000, thin=2,
                      proposal_std=1.0, seed=3)
    out = run_chain(design, prior, cfg)
    assert out.draws.min() >= 0.0
    assert out.draws.max() <= prior.r_max


def test_chain_is_deterministic():
    design = log_ratio_design(skewed_games(40, seed=8))
    cfg = ChainConfig(n_iterations=3_000, burn_in=500, thin=3, seed=55)
    a = run_chain(design, PriorConfig(), cfg)
    b = run_chain(design, PriorConfig(), cfg)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate


def test_retained_count_matches_thinning_arithmetic():
    design = log_ratio_design(skewed_games(30, seed=9))
    cfg = ChainConfig(n_iterations=2_000, burn_in=500, thin=7, seed=1)
    out = run_chain(design, PriorConfig(), cfg)
    assert len(out) == len(range(500, 2000, 7))


def test_run_chains_single_equals_run_chain():
    design = log_ratio_design(skewed_games(30, seed=10))
    base = ChainConfig(n_iterations=2_000, burn_in=200, thin=5, seed=77)
    multi = run_chains(design, PriorConfig(), base, n_chains=1)
    assert len(multi) == 1
    solo_cfg = ChainConfig(n_iterations=2_000, burn_in=200, thin=5,
                           seed=derived_seed(77, 0))
    solo = run_chain(design, PriorConfig(), solo_cfg)
    np.testing.assert_array_equal(multi[0].draws, solo.draws)


def test_run_chains_reproducible_and_distinct():
    design = log_ratio_design(skewed_games(30, seed=11))
    base = ChainConfig(n_iterations=2_000, burn_in=200, thin=5, seed=13)
    first = run_chains(design, PriorConfig(), base, n_chains=3)
    second = run_chains(design, PriorConfig(), base, n_chains=3)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.draws, b.draws)
    # different chains must not share a stream
    assert not np.array_equal(first[0].draws, first[1].draws)


def test_run_chains_pool_matches_in_process():
    # three chains on two workers: one worker plays two chains, the other one
    design = log_ratio_design(skewed_games(30, seed=14))
    base = ChainConfig(n_iterations=2_000, burn_in=200, thin=5, seed=31)
    solo = run_chains(design, PriorConfig(), base, n_chains=3, n_jobs=1)
    pooled = run_chains(design, PriorConfig(), base, n_chains=3, n_jobs=2)
    assert [c.chain_id for c in pooled] == [c.chain_id for c in solo] \
        == [0, 1, 2]
    for a, b in zip(solo, pooled):
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate


def test_run_chains_rejects_zero_jobs():
    design = log_ratio_design(skewed_games(10, seed=15))
    with pytest.raises(ValueError, match="n_jobs"):
        run_chains(design, PriorConfig(), ChainConfig(n_iterations=10,
                                                      burn_in=0),
                   n_chains=2, n_jobs=0)


def test_near_edge_warnings_come_from_the_parent_in_chain_order(caplog):
    # a proposal scale of 1e3 leaves the unit box on every step, so each
    # chain stays at its start: chain 0 at the neutral (1, 1, 1), clipped
    # to r_max = 1; with base seed 831, chain 1 starts with r3 > 0.98 and
    # chain 2 with r1 > 0.98, so the three warnings differ and their order
    # shows
    design = log_ratio_design(even_games(10))
    prior = PriorConfig(r_max=1.0)
    base = ChainConfig(n_iterations=50, burn_in=0, proposal_std=1e3,
                       seed=831)
    with caplog.at_level(logging.WARNING, logger="pennantsim.mcmc"):
        chains = run_chains(design, prior, base, n_chains=3, n_jobs=2)
    assert [c.acceptance_rate for c in chains] == [0.0, 0.0, 0.0]
    assert [r.process for r in caplog.records] == [os.getpid()] * 3
    assert [r.getMessage() for r in caplog.records] == [
        f"posterior mean within 2% of r_max=1 for {names}; consider "
        f"widening the prior box"
        for names in (["r1", "r2", "r3"], ["r3"], ["r1"])]


def test_tuning_pilots_do_not_warn(caplog):
    # the first pilot starts at (1, 1, 1) = r_max and its huge proposals
    # never move it; the posterior check runs on real chains only
    design = log_ratio_design(even_games(10))
    cfg = ChainConfig(n_iterations=100, burn_in=0, proposal_std=1e3)
    with caplog.at_level(logging.WARNING, logger="pennantsim.mcmc"):
        tune_proposal_std(design, PriorConfig(r_max=1.0), cfg)
    assert caplog.records == []


def test_recovery_means_match_grid_oracle(recovery_fit, grid_oracle):
    chains = recovery_fit["chains"]
    pooled_means = np.mean([c.draws.mean(axis=0) for c in chains], axis=0)
    np.testing.assert_allclose(pooled_means, grid_oracle, atol=0.05)
    for c in chains:
        assert 0.1 <= c.acceptance_rate <= 0.6
    for j in range(3):
        assert split_rhat([c.draws[:, j] for c in chains]) < 1.05


def test_tuning_is_deterministic():
    design = log_ratio_design(skewed_games(100, seed=12))
    cfg = ChainConfig(n_iterations=1_000, burn_in=100, seed=21)
    assert tune_proposal_std(design, PriorConfig(), cfg) == \
        tune_proposal_std(design, PriorConfig(), cfg)


# ---------------------------------------------------------------------------
# diagnostics


def test_rhat_identical_chains_is_one():
    rng = np.random.default_rng(14)
    seq = rng.normal(size=200)
    assert split_rhat([seq, seq.copy()]) == pytest.approx(1.0, abs=1e-12)


def test_rhat_disjoint_constant_chains_blows_up():
    assert split_rhat([np.zeros(100), np.ones(100)]) > 1.5


def test_rhat_single_chain_splits_in_half():
    # a strong drift within one chain must be detected
    drifting = np.linspace(0.0, 1.0, 400)
    assert split_rhat([drifting]) > 1.5
    rng = np.random.default_rng(15)
    stationary = rng.normal(size=400)
    assert split_rhat([stationary]) < 1.1


def test_rhat_all_identical_values_returns_one():
    assert split_rhat([np.full(50, 2.0), np.full(50, 2.0)]) == 1.0


def test_ess_iid_sequence_near_n():
    rng = np.random.default_rng(16)
    seq = rng.uniform(size=4_000)
    ess = effective_sample_size([seq])
    assert 0.5 * 4_000 < ess <= 1.5 * 4_000


def test_ess_correlated_sequence_is_small():
    # AR(1) with strong persistence: ESS should collapse well below n
    rng = np.random.default_rng(17)
    n = 4_000
    x = np.empty(n)
    x[0] = 0.0
    for i in range(1, n):
        x[i] = 0.95 * x[i - 1] + rng.normal()
    ess = effective_sample_size([x])
    # theoretical ESS factor (1-rho)/(1+rho) ~ 0.0256
    assert ess < 0.15 * n


# ---------------------------------------------------------------------------
# posterior summaries (the CLI's trace files are tested in test_cli.py)


def test_trace_shape_and_summary():
    rng = np.random.default_rng(18)
    draws = rng.uniform(0, 5, size=(100, 3))
    summaries = posterior_summaries(draws)
    assert len(summaries) == 3
    for j, summary in enumerate(summaries):
        col = draws[:, j]
        assert summary.mean == pytest.approx(col.mean(), abs=1e-12)
        # independent sort-based quantile oracle
        ordered = np.sort(col)
        assert summary.q5 == ordered[max(1, math.ceil(0.05 * 100)) - 1]
        assert summary.q95 == ordered[math.ceil(0.95 * 100) - 1]
