"""Session-scoped fixtures shared across test modules.

The exponent-recovery dataset (5,000 synthetic games with known exponents)
and its grid-posterior oracle are expensive enough to build once and reuse;
the fitted chains ride along with their wall-clock time so the acceptance
checks can assert on runtime without refitting.
"""

import os
import time

import numpy as np
import pytest

from games import game_table
from oracles import grid_posterior_moments
from pennantsim.mcmc import (
    ChainConfig,
    PriorConfig,
    log_ratio_design,
    run_chains,
    tune_proposal_std,
)

RECOVERY_SEED = 20260822
TRUE_EXPONENTS = (1.5, 0.8, 0.6)
N_RECOVERY_GAMES = 5000


def _ratio_record(alpha, beta, gamma, home_won):
    """A game whose strength ratios come out exactly (alpha, beta, gamma)."""
    return dict(home_win_pct=0.4 * alpha, away_win_pct=0.4,
                home_batting_avg=0.25 * beta, away_batting_avg=0.25,
                home_era=4.0, away_era=4.0 * gamma, home_won=home_won)


@pytest.fixture(scope="session")
def recovery_dataset():
    """(games, log_ratios, home_won) simulated at the known exponents.

    Ratios are log-uniform in [0.8, 1.25], well inside the flooring region,
    so the game table's derived ratios match the sampled ones exactly.
    """
    rng = np.random.default_rng(RECOVERY_SEED)
    log_ratios = rng.uniform(np.log(0.8), np.log(1.25),
                             size=(N_RECOVERY_GAMES, 3))
    lam = np.exp(log_ratios @ np.asarray(TRUE_EXPONENTS))
    home_won = rng.random(N_RECOVERY_GAMES) < lam / (1.0 + lam)
    ratios = np.exp(log_ratios)
    games = game_table([_ratio_record(ratios[i, 0], ratios[i, 1], ratios[i, 2],
                                      bool(home_won[i]))
                        for i in range(N_RECOVERY_GAMES)])
    return games, log_ratios, home_won


@pytest.fixture(scope="session")
def grid_oracle(recovery_dataset):
    """Posterior means from the 40^3 midpoint-lattice oracle."""
    _, log_ratios, home_won = recovery_dataset
    return grid_posterior_moments(log_ratios, home_won, r_max=5.0,
                                  n_cells=40)[0]


@pytest.fixture(scope="session")
def recovery_fit(recovery_dataset):
    """Four tuned chains on the recovery dataset, with wall-clock timing.
    The chains run on as many workers as there are cores, up to four; the
    pool's draws equal the in-process ones
    (test_mcmc.py::test_run_chains_pool_matches_in_process)."""
    games, _, _ = recovery_dataset
    prior = PriorConfig(r_max=5.0)
    base = ChainConfig(n_iterations=20_000, burn_in=2_000, thin=5, seed=2024)
    start = time.perf_counter()
    design = log_ratio_design(games)
    tuned_std = tune_proposal_std(design, prior, base)
    chains = run_chains(design, prior,
                        ChainConfig(n_iterations=base.n_iterations,
                                    burn_in=base.burn_in, thin=base.thin,
                                    proposal_std=tuned_std, seed=base.seed),
                        n_chains=4, n_jobs=len(os.sched_getaffinity(0)))
    elapsed = time.perf_counter() - start
    return {"chains": chains, "elapsed": elapsed, "tuned_std": tuned_std,
            "prior": prior}
