"""Independent reference implementations used as test oracles.

Nothing in here calls into the package's own numerics: the point is a second
route to the same answers (batch linear-Gaussian conditioning instead of the
sequential filter; lattice integration instead of MCMC; per-game Bernoulli
probabilities from the raw record fields instead of the log-ratio design).
"""

import math

import numpy as np

# The model's covariate floors, restated here so the oracle shares no code
# with the package: win percentage and batting average, then ERA.
STAT_FLOOR = 1e-3
ERA_FLOOR = 0.01


def game_log_likelihood(records, exponents):
    """Log-likelihood of recorded outcomes, one game at a time.

    Each record needs the fields home_win_pct, away_win_pct,
    home_batting_avg, away_batting_avg, home_era, away_era and home_won.
    The home side's strength is the product of the floored home/away win
    percentage and batting ratios and the floored away/home ERA ratio, each
    raised to its exponent; the game contributes log(s/(1+s)) on a home win
    and log(1/(1+s)) otherwise.
    """
    r1, r2, r3 = exponents
    total = 0.0
    for g in records:
        s = ((max(g.home_win_pct, STAT_FLOOR)
              / max(g.away_win_pct, STAT_FLOOR)) ** r1
             * (max(g.home_batting_avg, STAT_FLOOR)
                / max(g.away_batting_avg, STAT_FLOOR)) ** r2
             * (max(g.away_era, ERA_FLOOR) / max(g.home_era, ERA_FLOOR)) ** r3)
        total += math.log((s if g.home_won else 1.0) / (1.0 + s))
    return total


def batch_filtered_moments(init_mean, init_var, observations,
                           sigma_obs, sigma_process):
    """Filtered means/variances via brute-force multivariate-normal conditioning.

    The latent levels (x_1..x_n) after one process step per observation have
    Cov(x_i, x_j) = init_var + min(i, j) * sigma_process^2 (1-indexed) and
    mean init_mean. Observations add independent sigma_obs^2 on the diagonal.
    E[x_t | y_1..y_t] then follows from the usual Gaussian conditioning
    formula applied per prefix.
    """
    y = np.asarray(observations, dtype=float)
    n = y.size
    q = sigma_process ** 2
    r = sigma_obs ** 2
    idx = np.arange(1, n + 1)
    cov_x = init_var + q * np.minimum.outer(idx, idx)
    cov_y = cov_x + r * np.eye(n)
    means = np.empty(n)
    variances = np.empty(n)
    for t in range(n):
        k = t + 1
        sol = np.linalg.solve(cov_y[:k, :k], y[:k] - init_mean)
        means[t] = init_mean + cov_x[t, :k] @ sol
        gain_row = np.linalg.solve(cov_y[:k, :k], cov_x[:k, t])
        variances[t] = cov_x[t, t] - cov_x[t, :k] @ gain_row
    return means, variances


def batch_window_loglik(windows, init_means, init_vars,
                        sigma_obs, sigma_process):
    """Gaussian log-likelihood of each window, as one multivariate normal.

    Same model as batch_filtered_moments: window w (length n) has mean
    init_means[w] and covariance
    init_vars[w] + q * min(i, j) + r * [i == j], with q = sigma_process^2 and
    r = sigma_obs^2. windows is (W, n); init_means, init_vars and the two
    sigmas are scalars or length-W arrays. The density is evaluated directly
    with a batched log-determinant and solve, not through a prediction-error
    recursion. Returns a length-W array.
    """
    y = np.atleast_2d(np.asarray(windows, dtype=float))
    n_win, n = y.shape

    def per_window(value):
        return np.broadcast_to(np.asarray(value, dtype=float),
                               (n_win,))[:, None, None]

    idx = np.arange(1, n + 1)
    steps = np.minimum.outer(idx, idx)[None]
    cov = (per_window(init_vars) + per_window(sigma_process) ** 2 * steps
           + per_window(sigma_obs) ** 2 * np.eye(n)[None])
    resid = y - per_window(init_means)[:, 0]
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise ValueError("window covariance is not positive definite")
    quad = np.einsum("wi,wi->w", resid,
                     np.linalg.solve(cov, resid[:, :, None])[:, :, 0])
    return -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)


def grid_posterior_means(log_ratios, home_won, r_max, n_cells=40,
                         chunk=2000):
    """Posterior means of the exponents on a midpoint lattice over [0, r_max]^3.

    The prior is uniform on the box, so the posterior is the normalized
    marginal likelihood evaluated at each lattice midpoint. Works in chunks
    of lattice points to bound memory.
    """
    L = np.asarray(log_ratios, dtype=float)          # (n_games, 3)
    x = np.asarray(home_won, dtype=float)            # (n_games,)
    edges = np.linspace(0.0, r_max, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    g1, g2, g3 = np.meshgrid(mids, mids, mids, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])  # (n_cells^3, 3)

    loglik = np.empty(points.shape[0])
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        u = L @ block.T                               # (n_games, block)
        loglik[start:start + chunk] = x @ u - np.logaddexp(0.0, u).sum(axis=0)

    w = np.exp(loglik - loglik.max())
    w /= w.sum()
    return points.T @ w                               # (3,)
