"""Independent reference implementations used as test oracles.

Nothing in here calls into the package's own numerics: the point is a second
route to the same answers (batch linear-Gaussian conditioning instead of the
sequential filter; lattice integration instead of MCMC; per-game Bernoulli
probabilities from the game table's columns instead of the log-ratio design;
Gauss-Hermite quadrature over the trajectory laws, and dynamic programming
over the records, instead of the season engine's simulated paths; one
replication's playoff field picked team by team instead of ranked as
arrays; plain Metropolis with no screen instead of the delayed-acceptance
sampler; central differences instead of the closed-form Hessian; a
per-game tally of W-L records instead of the game log's array tally). It
also holds the synthetic ERA generator the noise tests draw their windows
from.
"""

import math

import numpy as np

# The model's covariate floors, restated here so the oracle shares no code
# with the package: win percentage and batting average, then ERA.
STAT_FLOOR = 1e-3
ERA_FLOOR = 0.01


def game_log_likelihood(games, exponents):
    """Log-likelihood of recorded outcomes, one game at a time.

    games is a game table with the columns home_win_pct, away_win_pct,
    home_batting_avg, away_batting_avg, home_era, away_era and home_won.
    The home side's strength is the product of the floored home/away win
    percentage and batting ratios and the floored away/home ERA ratio, each
    raised to its exponent; the game contributes log(s/(1+s)) on a home win
    and log(1/(1+s)) otherwise.
    """
    r1, r2, r3 = exponents
    total = 0.0
    for hw, aw, hb, ab, he, ae, won in zip(
            games.home_win_pct.tolist(), games.away_win_pct.tolist(),
            games.home_batting_avg.tolist(), games.away_batting_avg.tolist(),
            games.home_era.tolist(), games.away_era.tolist(),
            games.home_won.tolist()):
        s = ((max(hw, STAT_FLOOR) / max(aw, STAT_FLOOR)) ** r1
             * (max(hb, STAT_FLOOR) / max(ab, STAT_FLOOR)) ** r2
             * (max(ae, ERA_FLOOR) / max(he, ERA_FLOOR)) ** r3)
        total += math.log((s if won else 1.0) / (1.0 + s))
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


def grid_posterior_moments(log_ratios, home_won, r_max, n_cells=40,
                           chunk=2000):
    """Posterior means and standard deviations of the exponents on a
    midpoint lattice over [0, r_max]^3.

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
        # log(1 + e^u) in the form that neither overflows nor loses the
        # small-u tail, and is cheaper than np.logaddexp(0, u)
        softplus = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
        loglik[start:start + chunk] = x @ u - softplus.sum(axis=0)

    w = np.exp(loglik - loglik.max())
    w /= w.sum()
    means = points.T @ w                              # (3,)
    return means, np.sqrt((points ** 2).T @ w - means ** 2)


def plain_metropolis(loglik, r_max, n_iterations, proposal_std, seed, init):
    """Random-walk Metropolis on the box [0, r_max]^3 with no screen.

    Each iteration draws a N(0, proposal_std^2) step in the three
    coordinates and then one uniform u from default_rng(SeedSequence(seed));
    a proposal inside the box is accepted when log u is below its
    log-likelihood difference. Returns every iteration's post-move state,
    (n_iterations, 3), and the acceptance rate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = np.asarray(init, dtype=float)
    ll = loglik(r)
    states = np.empty((n_iterations, 3))
    accepted = 0
    for i in range(n_iterations):
        step = rng.normal(0.0, proposal_std, 3)
        u = rng.random()
        prop = r + step
        if np.all((prop >= 0.0) & (prop <= r_max)):
            ll_prop = loglik(prop)
            if math.log(u) < ll_prop - ll:
                r, ll = prop, ll_prop
                accepted += 1
        states[i] = r
    return states, accepted / n_iterations


def in_box_proposals(states, init, r_max, proposal_std, seed):
    """How many of a chain's proposals fell inside [0, r_max]^3, replayed
    from its stream (plain_metropolis's) and its post-move states."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = np.asarray(init, dtype=float)
    count = 0
    for state in states:
        prop = r + rng.normal(0.0, proposal_std, 3)
        rng.random()
        count += bool(np.all((prop >= 0.0) & (prop <= r_max)))
        r = state
    return count


def central_differences(f, x, h):
    """Gradient and Hessian of a scalar function f at x by central
    differences with step h."""
    x = np.asarray(x, dtype=float)
    e = h * np.eye(x.size)
    grad = np.array([(f(x + e[i]) - f(x - e[i])) / (2.0 * h)
                     for i in range(x.size)])
    hess = np.array([[(f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                       - f(x - e[i] + e[j]) + f(x - e[i] - e[j]))
                      / (4.0 * h * h) for j in range(x.size)]
                     for i in range(x.size)])
    return grad, hess


def simulate_era_path(init_mean, noise, n_steps, rng, *,
                      return_latent=False):
    """Simulate an observed ERA series from the local-level model.

    Each step advances the latent level by one process-noise increment and
    emits that level plus observation noise. Emitted values are floored at
    ERA_FLOOR (an ERA cannot be negative). With return_latent the un-floored
    latent path comes back too. noise needs sigma_obs and sigma_process.
    """
    if init_mean < 0:
        raise ValueError(f"init_mean must be nonnegative, got {init_mean}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    latent = init_mean + np.cumsum(rng.normal(0.0, noise.sigma_process, n_steps))
    observed = np.maximum(latent + rng.normal(0.0, noise.sigma_obs, n_steps),
                          ERA_FLOOR)
    if return_latent:
        return observed, latent
    return observed


def _expected_home_wins(n_games, exponent, home, away, sd_at, low, high,
                        nodes):
    """Sum over games j of E[logistic(exponent * log(X_home / X_away))],
    where X = clip(mean + sd_at(j) * Z, low, high) with independent standard
    normal Z per side, by 2-D Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    total = 0.0
    for j in range(n_games):
        sd = sd_at(j)
        x_home = np.clip(home + sd * z, low, high)
        x_away = np.clip(away + sd * z, low, high)
        log_ratio = np.log(x_home)[:, None] - np.log(x_away)[None, :]
        total += w @ (1.0 / (1.0 + np.exp(-exponent * log_ratio))) @ w
    return float(total)


def walk_home_wins(n_games, exponent, home_avg, away_avg, step_std,
                   clamp=(0.15, 0.40), nodes=60):
    """Expected home wins of one pair that meets n_games times while both
    batting averages random-walk and nothing else differs.

    Game j (0-based) sees each side after j Normal(0, step_std^2) steps, so
    its average is avg + step_std * sqrt(j) * Z, clamped; the home side's
    strength is the batting ratio raised to the exponent.
    """
    return _expected_home_wins(n_games, exponent, home_avg, away_avg,
                               lambda j: step_std * math.sqrt(j),
                               clamp[0], clamp[1], nodes)


def path_home_wins(n_games, exponent, home_era, away_era, sigma_obs,
                   sigma_process, nodes=60):
    """Expected home wins of one pair that meets n_games times while both
    latent ERAs random-walk and each game sees a noisy observation of them.

    Game j (0-based) sees each side's ERA as
    Normal(era, j * sigma_process^2 + sigma_obs^2), floored at ERA_FLOOR;
    the home side's strength is the away/home ERA ratio raised to the
    exponent.
    """
    # the ERA ratio is away/home: a negated exponent on home/away
    return _expected_home_wins(
        n_games, -exponent, home_era, away_era,
        lambda j: math.sqrt(j * sigma_process ** 2 + sigma_obs ** 2),
        ERA_FLOOR, math.inf, nodes)


def record_home_wins(n_games, exponent, home_record, away_record):
    """Expected home wins of one pair that meets n_games times while only
    the records differ, exactly, by dynamic programming over how many of
    the pair's games so far the home side has won.

    Each record is (wins, losses) before the first meeting. Game g (0-based)
    sees each side's wins over its games played so far, floored at
    STAT_FLOOR; the home side's strength is the home/away ratio of the two
    raised to the exponent.
    """
    (home_wins, home_losses), (away_wins, away_losses) = home_record, \
        away_record
    chance = [1.0]   # chance[j]: the home side won j of the games so far
    for g in range(n_games):
        after = [0.0] * (g + 2)
        for j, q in enumerate(chance):
            home = max((home_wins + j) / (home_wins + home_losses + g),
                       STAT_FLOOR)
            away = max((away_wins + g - j) / (away_wins + away_losses + g),
                       STAT_FLOOR)
            s = (home / away) ** exponent
            after[j + 1] += q * s / (1.0 + s)
            after[j] += q / (1.0 + s)
        chance = after
    return sum(j * q for j, q in enumerate(chance))


def playoff_qualifiers(final_wins, league, rng, *, wild_cards=3):
    """Division winners plus the best remaining records per league.

    Ties are broken by a seeded uniform key drawn once per team (in sorted
    team order, so the stream consumption is standings-independent).
    """
    for t in league.teams:
        if t not in final_wins:
            raise ValueError(f"no final record for team {t!r}")
    tie_key = {t: float(rng.random()) for t in sorted(final_wins)}
    qualifiers = set()
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


def pregame_records(games, start=None):
    """Each game's home and away W-L records entering it, tallied one game at
    a time per (calendar year, team).

    games are (date, home, away, home_won) in date order; start maps
    (year, team) to the (wins, losses) the team enters the log's games of
    that year with, 0-0 when absent. Returns ((home wins, home losses),
    (away wins, away losses)) per game.
    """
    start = start or {}
    tally = {}
    records = []
    for date, home, away, home_won in games:
        sides = [tally.setdefault((date.year, team),
                                  list(start.get((date.year, team), (0, 0))))
                 for team in (home, away)]
        records.append(tuple(tuple(side) for side in sides))
        for side, won in zip(sides, (home_won, not home_won)):
            side[0 if won else 1] += 1
    return records


def win_pct(record):
    """Wins over games of a (wins, losses) record; 0.5 before any game."""
    wins, losses = record
    return wins / (wins + losses) if wins + losses else 0.5
