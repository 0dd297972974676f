"""Tests for the Metropolis sampler, diagnostics, and posterior summaries."""

import logging
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from games import game_table
from oracles import (central_differences, game_log_likelihood,
                     grid_posterior_moments, in_box_proposals,
                     plain_metropolis, proposal_stream)
from pennantsim import mcmc
from pennantsim.mcmc import (
    ChainConfig,
    Design,
    PriorConfig,
    design_log_likelihood,
    derived_seed,
    effective_sample_size,
    laplace_surrogate,
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
    design = log_ratio_design(games)
    L, won = design.L, design.won
    for r in ((1.0, 1.0, 1.0), (1.5, 0.8, 0.6), (0.0, 0.0, 0.0), (2.5, 0.1, 1.9)):
        direct = game_log_likelihood(games, r)
        via_design = design_log_likelihood(L, won, np.asarray(r))
        assert via_design == pytest.approx(direct, abs=1e-8)


def logaddexp_log_likelihood(L, won, r):
    u = L @ r
    return float(won @ u - np.logaddexp(0.0, u).sum())


def test_design_likelihood_matches_logaddexp_reference():
    # the stable softplus is log(1 + e^u) rewritten, not approximated
    design = log_ratio_design(skewed_games(500, seed=5))
    L, won = design.L, design.won
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
    assert len(pooled) == len(solo) == 3
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


def test_a_fit_solves_for_its_surrogate_once(monkeypatch):
    # the design carries the surrogate, so tuning's pilots and the chains,
    # in process or in forked workers, never solve for it again
    design = log_ratio_design(skewed_games(100, seed=12))
    assert design.screened

    def solved_again(L, won):
        raise AssertionError("the surrogate was solved for again")

    monkeypatch.setattr(mcmc, "laplace_surrogate", solved_again)
    cfg = ChainConfig(n_iterations=400, burn_in=100, seed=21)
    std = tune_proposal_std(design, PriorConfig(), cfg)
    for n_jobs in (1, 2):
        run_chains(design, PriorConfig(), replace(cfg, proposal_std=std),
                   n_chains=3, n_jobs=n_jobs)


def test_screened_tuning_starts_at_the_shaped_scale(monkeypatch):
    # a screened fit's scale multiplies the surrogate's sd, so its first
    # pilot runs at 2.38 / sqrt(3) whatever cfg says; a flat fit's scale is
    # absolute and starts at cfg's
    real_run_chain = mcmc.run_chain
    pilots = []

    def recorded(design, prior, cfg, **kwargs):
        pilots.append(cfg.proposal_std)
        return real_run_chain(design, prior, cfg, **kwargs)

    monkeypatch.setattr(mcmc, "run_chain", recorded)
    cfg = ChainConfig(proposal_std=0.07, seed=21)
    firsts = []
    for games in (skewed_games(100, seed=12), even_games(50)):
        pilots.clear()
        tune_proposal_std(log_ratio_design(games), PriorConfig(), cfg)
        firsts.append(pilots[0])
    assert firsts == [2.38 / math.sqrt(3), 0.07]


# ---------------------------------------------------------------------------
# proposal screen


FLAT = ([[0.0] * 3 for _ in range(3)], [0.0] * 3)


def separated_games(n, seed):
    """The home side wins exactly when its win percentage is the higher:
    the likelihood rises without bound along r1, so it has no mode."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(n):
        home, away = rng.uniform(0.35, 0.65, 2).tolist()
        games.append(dict(home_win_pct=home, away_win_pct=away,
                          home_won=home > away))
    return game_table(games)


def assert_plain_metropolis(design, prior, cfg):
    # every state of a chain from the neutral init (burn_in 0, thin 1)
    L, won = design.L, design.won
    out = run_chain(design, prior, cfg)
    states, rate = plain_metropolis(
        lambda r: design_log_likelihood(L, won, r), prior.r_max,
        cfg.n_iterations, cfg.proposal_std, cfg.seed, np.ones(3),
        mcmc.VARIATE_BLOCK)
    assert np.array_equal(out.draws, states)
    assert out.acceptance_rate == rate
    return out


def test_flat_surrogate_chain_is_plain_metropolis():
    design = log_ratio_design(skewed_games(40, seed=8))
    cfg = ChainConfig(n_iterations=3_000, burn_in=0, thin=1,
                      proposal_std=0.5, seed=55)
    screened = run_chain(design, PriorConfig(), cfg)
    plain = assert_plain_metropolis(replace(design, surrogate=FLAT),
                                    PriorConfig(), cfg)
    assert not np.array_equal(plain.draws, screened.draws)


def test_likelihoods_without_a_mode_get_the_flat_screen():
    # a flat likelihood (every ratio 1) and a separated one (the mode is at
    # r1 = infinity) both fall back to plain Metropolis, draw for draw
    prior = PriorConfig(r_max=5.0)
    cfg = ChainConfig(n_iterations=3_000, burn_in=0, thin=1,
                      proposal_std=0.8, seed=9)
    for games in (even_games(50), separated_games(200, seed=3)):
        design = log_ratio_design(games)
        assert laplace_surrogate(design.L, design.won) == FLAT
        assert not design.screened
        out = assert_plain_metropolis(design, prior, cfg)
        assert 0.0 <= out.draws.min() and out.draws.max() <= prior.r_max


def test_surrogate_is_the_expansion_at_the_mode(recovery_dataset):
    # zero gradient at the mode, and C^T C the negative Hessian, both by
    # central differences of the exact likelihood
    design = log_ratio_design(recovery_dataset[0])
    L, won = design.L, design.won
    chol, mode = laplace_surrogate(L, won)
    grad, hess = central_differences(
        lambda r: design_log_likelihood(L, won, r), mode, 1e-3)
    assert np.abs(grad).max() < 1e-6
    C = np.array(chol)
    assert np.array_equal(C, np.triu(C))
    np.testing.assert_allclose(C.T @ C, -hess, rtol=0.0,
                               atol=1e-4 * np.abs(hess).max())


def correlated_design(n, seed):
    """Games whose three log ratios are correlated, so the surrogate's
    Cholesky factor is far from diagonal."""
    rng = np.random.default_rng(seed)
    mixing = np.array([[1.0, 0.7, 0.3], [0.0, 1.0, 0.6], [0.0, 0.0, 1.0]])
    L = rng.uniform(math.log(0.8), math.log(1.25), (n, 3)) @ mixing
    lam = np.exp(L @ np.array([1.5, 0.8, 0.6]))
    won = (rng.random(n) < lam / (1.0 + lam)).astype(float)
    return Design(L, won, laplace_surrogate(L, won))


def assert_moves_are_shaped(draws, first, chol, cfg):
    # draws[j] is the state after iteration first + j (thin 1); every move
    # between two of them is c C^-1 z for that iteration's stream normals
    # z, solved for here rather than through an inverse
    z, _ = proposal_stream(cfg.seed, cfg.n_iterations, 1.0,
                           mcmc.VARIATE_BLOCK)
    expected = cfg.proposal_std * np.linalg.solve(
        np.array(chol), z[first + 1:first + len(draws)].T).T
    moves = np.diff(draws, axis=0)
    moved = np.any(moves != 0.0, axis=1)
    assert moved.mean() > 0.1
    np.testing.assert_allclose(moves[moved], expected[moved], rtol=0.0,
                               atol=1e-12)


def test_screened_steps_are_shaped_by_the_surrogate():
    # with C far from diagonal, a lower factor (C^-T z) or the factor
    # itself (C z) moves the chain elsewhere
    design = correlated_design(400, seed=6)
    chol, _ = design.surrogate
    C = np.array(chol)
    assert np.abs(C[0, 1:]).max() > 0.3 * C[0, 0]
    cfg = ChainConfig(n_iterations=3_000, burn_in=0, thin=1,
                      proposal_std=1.2, seed=17)
    assert design.screened
    out = run_chain(design, PriorConfig(), cfg)
    assert_moves_are_shaped(out.draws, 0, chol, cfg)


def test_misplaced_screen_still_targets_the_exact_posterior():
    # a surrogate centred half a unit off the mode and 1.5x too narrow
    # shapes the proposals and screens them badly, but the second stage
    # corrects for it: the posterior mean and sd match the lattice oracle
    # within 4 Monte Carlo errors
    rng = np.random.default_rng(5)
    L = rng.uniform(math.log(0.8), math.log(1.25), (400, 3))
    lam = np.exp(L @ np.array([1.5, 0.8, 0.6]))
    won = (rng.random(400) < lam / (1.0 + lam)).astype(float)
    chol, mode = laplace_surrogate(L, won)
    misplaced = ((1.5 * np.array(chol)).tolist(),
                 (np.array(mode) + 0.5).tolist())
    cfg = ChainConfig(n_iterations=20_000, burn_in=2_000, thin=1,
                      proposal_std=1.0, seed=0)
    out = run_chain(Design(L, won, misplaced), PriorConfig(r_max=5.0), cfg)
    assert_moves_are_shaped(out.draws, cfg.burn_in, misplaced[0], cfg)
    means, sds = grid_posterior_moments(L, won, r_max=5.0)
    for j in range(3):
        draws = out.draws[:, j]
        ess = effective_sample_size([draws])
        assert abs(draws.mean() - means[j]) < 4.0 * sds[j] / math.sqrt(ess)
        assert abs(draws.std() - sds[j]) < 4.0 * sds[j] / math.sqrt(2.0 * ess)


def test_screen_spares_most_exact_evaluations(recovery_dataset, recovery_fit,
                                              monkeypatch):
    design = log_ratio_design(recovery_dataset[0])
    prior = recovery_fit["prior"]
    std = recovery_fit["tuned_std"]
    factor = std * np.linalg.inv(design.surrogate[0]).T
    calls = []

    def counted(L, won, r):
        calls.append(1)
        return design_log_likelihood(L, won, r)

    monkeypatch.setattr(mcmc, "design_log_likelihood", counted)
    for k in range(2):
        calls.clear()
        cfg = ChainConfig(n_iterations=4_000, burn_in=0, thin=1,
                          proposal_std=std, seed=derived_seed(2024, k))
        out = run_chain(design, prior, cfg)
        in_box = in_box_proposals(out.draws, np.ones(3), prior.r_max, factor,
                                  cfg.seed, mcmc.VARIATE_BLOCK)
        # one evaluation at the start, then one per proposal passing the screen
        assert len(calls) - 1 <= 0.6 * in_box


def test_variate_blocks_keep_a_long_chain_small():
    # the per-iteration sampler's peak was the chain's two arrays, every
    # state (n, 3) and the retained draws; the blocks of variates, drawn
    # and converted one at a time, may add at most 10 % to that. A wide
    # proposal, screened out at once, keeps the traced run short
    design = log_ratio_design(skewed_games(40, seed=8))
    cfg = ChainConfig(n_iterations=100_000, proposal_std=1.3, seed=3)
    tracemalloc.start()
    try:
        out = run_chain(design, PriorConfig(), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (cfg.n_iterations * 3 * 8 + out.draws.nbytes)


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
