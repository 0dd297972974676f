"""Delayed-acceptance Metropolis sampling of the three contribution exponents.

The prior is independent Uniform(0, r_max) per exponent; the target is the
marginalized game-outcome likelihood, a stable softplus sum over one design
of per-game log strength ratios shared by every pilot and chain of a fit.
The quadratic (Laplace) expansion of the log-likelihood at its mode does two
jobs: it shapes each joint Gaussian proposal to its covariance, and it
screens proposals so that only those passing the screen pay for the exact
likelihood (Christen & Fox 2005); the chain still targets the exact
posterior. A likelihood with no usable mode gets a flat surrogate:
isotropic proposals and no screen, which is plain random-walk Metropolis.
Chains derive per-chain seeds from a base seed, run in a fork pool when
asked for more than one worker, and come with split R-hat / ESS
diagnostics and posterior summaries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .gamelog import GameLog
from .model import log_ratios
from .stats import nearest_rank_quantile

logger = logging.getLogger(__name__)

# Wire-format column names for the three exponents (win pct, batting, ERA).
PARAM_NAMES = ("r1", "r2", "r3")


@dataclass(frozen=True)
class PriorConfig:
    """Uniform(0, r_max) prior on each exponent."""

    r_max: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")


@dataclass(frozen=True)
class ChainConfig:
    n_iterations: int = 20_000
    burn_in: int = 2_000
    thin: int = 5
    proposal_std: float = 0.05   # the step scale c of run_chain
    seed: int = 0

    def __post_init__(self):
        if self.n_iterations <= 0:
            raise ValueError(f"n_iterations must be positive, got {self.n_iterations}")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ValueError(f"burn_in must lie in [0, n_iterations): "
                             f"{self.burn_in} vs {self.n_iterations}")
        if self.thin <= 0:
            raise ValueError(f"thin must be positive, got {self.thin}")
        if not (math.isfinite(self.proposal_std) and self.proposal_std > 0):
            raise ValueError(f"proposal_std must be positive, got {self.proposal_std}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained (post burn-in, thinned) samples of the three exponents, and
    whether the chain screened its proposals with a Laplace surrogate (False
    when the likelihood had no usable mode and the screen was flat)."""

    draws: np.ndarray          # (n_kept, 3)
    acceptance_rate: float
    chain_id: int = 0
    screened: bool = False

    def __post_init__(self):
        if self.draws.ndim != 2 or self.draws.shape[1] != 3:
            raise ValueError(f"draws must have shape (n, 3), got {self.draws.shape}")
        if self.draws.shape[0] == 0:
            raise ValueError("no draws retained")
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError(f"acceptance rate out of [0, 1]: {self.acceptance_rate}")

    def __len__(self):
        return self.draws.shape[0]


@dataclass(frozen=True)
class ParamSummary:
    mean: float
    sd: float
    q5: float
    q95: float


# ---------------------------------------------------------------------------
# likelihood plumbing


@dataclass(frozen=True, eq=False)
class Design:
    """The games a fit samples from: L[i] holds the log strength ratios of
    game i and won[i] its home-win flag; surrogate is their likelihood's
    `laplace_surrogate`, worked out once for every pilot and chain. It
    unpacks as (L, won)."""

    L: np.ndarray                  # (games, 3)
    won: np.ndarray                # (games,) 0.0 / 1.0
    surrogate: tuple[list[list[float]], list[float]]

    def __iter__(self):
        return iter((self.L, self.won))


def log_ratio_design(games: GameLog) -> Design:
    """Design arrays for fast likelihood evaluation.

    L[i] holds the log strength ratios of game i, won[i] the home-win flag,
    from `model.log_ratios` on the table's columns. With u = L @ r, the
    relative strength is e^u and the marginal log-likelihood is
    won.u - sum softplus(u), with softplus(u) = log(1 + e^u) taken in its
    stable form max(u, 0) + log1p(e^-|u|), finite for any finite u.
    """
    if not len(games):
        raise ValueError("no games to fit")
    L = np.stack(log_ratios(games.home_win_pct, games.away_win_pct,
                            games.home_batting_avg, games.away_batting_avg,
                            games.home_era, games.away_era), axis=-1)
    won = games.home_won.astype(float)
    return Design(L, won, laplace_surrogate((L, won)))


def design_log_likelihood(L: np.ndarray, won: np.ndarray, r: np.ndarray) -> float:
    """Marginal log-likelihood at exponents r, from precomputed design arrays."""
    u = L @ r
    return float(won @ u - (np.maximum(u, 0.0)
                            + np.log1p(np.exp(-np.abs(u)))).sum())


# laplace_surrogate's Newton step cap and convergence threshold
NEWTON_STEPS, NEWTON_TOL = 20, 1e-10


def laplace_surrogate(design) -> tuple[list[list[float]], list[float]]:
    """Quadratic expansion of the log-likelihood of design, an (L, won)
    pair, at its mode, as (C, mode).

    Newton steps from r = (1, 1, 1) use the closed-form gradient
    L.T @ (won - p) and negative Hessian L.T @ (p(1 - p) L), with the win
    probability p = sigma(L @ r) taken as 0.5 (1 + tanh(u / 2)), which
    cannot overflow. Once a step is below NEWTON_TOL in every coordinate,
    C is the upper Cholesky factor of that negative Hessian, so the
    surrogate log-likelihood is -|C (r - mode)|^2 / 2 up to a constant.
    A singular or indefinite Hessian, a non-finite step, or no convergence
    within NEWTON_STEPS (a separated design has its mode at infinity) gives
    the flat surrogate, whose C and mode are zero. Both come back as Python
    floats.
    """
    L, won = design
    r = np.ones(3)
    for _ in range(NEWTON_STEPS):
        p = 0.5 * (1.0 + np.tanh(0.5 * (L @ r)))
        neg_hessian = L.T @ ((p * (1.0 - p))[:, None] * L)
        try:
            step = np.linalg.solve(neg_hessian, L.T @ (won - p))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        r = r + step
        if np.abs(step).max() < NEWTON_TOL:
            try:
                lower = np.linalg.cholesky(neg_hessian)
            except np.linalg.LinAlgError:
                break
            return lower.T.tolist(), r.tolist()
    return [[0.0] * 3 for _ in range(3)], [0.0] * 3


# ---------------------------------------------------------------------------
# samplers


# run_chain draws its variates this many iterations at a time: Generator
# calls amortized over a block, memory bounded by it, not by the chain
VARIATE_BLOCK = 1024


def _chain_rng(cfg: ChainConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed))


def default_init(prior: PriorConfig) -> np.ndarray:
    """Neutral starting point: all exponents 1 (clipped into the prior box)."""
    return np.clip(np.ones(3), 0.0, prior.r_max)


def run_chain(design: Design, prior: PriorConfig, cfg: ChainConfig,
              *, chain_id: int = 0, init=None) -> PosteriorDraws:
    """One delayed-acceptance random-walk Metropolis chain over the exponents.

    The proposal is r + c C^-1 z, with z standard normal, c =
    cfg.proposal_std and C the upper Cholesky factor of design.surrogate, so
    its covariance is c^2 (C^T C)^-1, the surrogate's posterior covariance
    scaled by c^2; with the flat surrogate it is r + c z. A proposal
    leaving the prior box has zero prior density and is rejected outright.
    An in-box proposal is first screened by the surrogate's
    s(r) = -|C (r - mode)|^2 / 2: with d = s(prop) - s(r) and
    a1 = min(0, d), it is rejected when log u >= a1, without evaluating the
    exact likelihood; otherwise it is accepted when
    log u < a1 + min(0, delta - d), delta being the exact log-likelihood
    difference.
    One uniform thus accepts with probability alpha1 * alpha2, so the chain
    targets the exact posterior (Christen & Fox 2005). With the flat
    surrogate a1 = d = 0 and the rule is log u < delta: plain Metropolis.
    The variates come VARIATE_BLOCK iterations at a time: a block's normals
    z as one (k, 3) draw, then its uniforms as one (k,) draw, taken as
    log u = log1p(-u), which is finite. Every iteration's post-move state is
    recorded; burn-in is dropped and the remainder thinned. Fully
    deterministic given cfg.seed.
    """
    L, won = design
    r_max = prior.r_max
    rng = _chain_rng(cfg)
    chol, (m0, m1, m2) = design.surrogate
    (c00, c01, c02), (_, c11, c12), (_, _, c22) = chol
    screened = any(map(any, chol))
    # a block's steps are z @ shape: row k is c C^-1 z_k
    shape = cfg.proposal_std * (np.linalg.inv(chol).T if screened
                                else np.eye(3))

    def surrogate(x0, x1, x2):
        d0, d1, d2 = x0 - m0, x1 - m1, x2 - m2
        y0 = c00 * d0 + c01 * d1 + c02 * d2
        y1 = c11 * d1 + c12 * d2
        y2 = c22 * d2
        return -0.5 * (y0 * y0 + y1 * y1 + y2 * y2)

    r = default_init(prior) if init is None else np.clip(np.asarray(init, float),
                                                         0.0, r_max)
    ll = design_log_likelihood(L, won, r)
    state = x0, x1, x2 = tuple(r.tolist())
    s = surrogate(x0, x1, x2)
    out = np.empty((cfg.n_iterations, 3))
    n_accept = 0
    for start in range(0, cfg.n_iterations, VARIATE_BLOCK):
        k = min(VARIATE_BLOCK, cfg.n_iterations - start)
        steps = (rng.standard_normal((k, 3)) @ shape).tolist()
        log_us = np.log1p(-rng.random(k)).tolist()
        states = []
        for (d0, d1, d2), log_u in zip(steps, log_us):
            p0, p1, p2 = x0 + d0, x1 + d1, x2 + d2
            if min(p0, p1, p2) >= 0.0 and max(p0, p1, p2) <= r_max:
                s_prop = surrogate(p0, p1, p2)
                screen = s_prop - s
                a1 = min(0.0, screen)
                if log_u < a1:
                    prop = p0, p1, p2
                    ll_prop = design_log_likelihood(L, won, np.array(prop))
                    if log_u < a1 + min(0.0, ll_prop - ll - screen):
                        state = x0, x1, x2 = prop
                        ll = ll_prop
                        s = s_prop
                        n_accept += 1
            states.append(state)
        out[start:start + k] = states

    kept = out[cfg.burn_in::cfg.thin].copy()   # ChainConfig: nonempty
    return PosteriorDraws(draws=kept, acceptance_rate=n_accept / cfg.n_iterations,
                          chain_id=chain_id, screened=screened)


def derived_seed(base_seed: int, chain_id: int) -> int:
    """Deterministic per-chain seed from (base seed, chain index)."""
    return int(np.random.SeedSequence((base_seed, chain_id)).generate_state(1)[0])


def run_chains(design: Design, prior: PriorConfig, base_cfg: ChainConfig,
               n_chains: int, *, n_jobs: int = 1) -> list[PosteriorDraws]:
    """Independent chains with seeds derived from the base seed.

    Chain 0 starts at the neutral init; the rest start overdispersed (uniform
    over the prior box, drawn from each chain's own stream) so R-hat has
    something to detect. With n_jobs > 1 the chains run in a pool of
    min(n_chains, n_jobs) forked worker processes; a chain's draws depend
    only on its own seed and init, so the result does not depend on n_jobs.
    The chains come back in chain order, and each whose posterior mean of
    an exponent lies within 2 % of r_max logs a warning, in that order.
    """
    if n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {n_chains}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    tasks = []   # (cfg_k, chain_id, init)
    for k in range(n_chains):
        cfg_k = replace(base_cfg, seed=derived_seed(base_cfg.seed, k))
        init = None
        if k > 0:
            init_rng = np.random.default_rng(
                np.random.SeedSequence((base_cfg.seed, k, 0xD15)))
            init = init_rng.uniform(0.0, prior.r_max, 3)
        tasks.append((cfg_k, k, init))
    workers = min(n_chains, n_jobs)
    if workers == 1:
        results = [run_chain(design, prior, cfg_k, chain_id=k, init=init)
                   for cfg_k, k, init in tasks]
    else:
        # imported here: ~20 ms that validate, noise and simulate never use
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, named because Python 3.14 makes forkserver the Linux
        # default: the workers inherit the imported package instead of
        # importing it again (~0.3 s each), as spawn and forkserver would
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(run_chain, design, prior, cfg_k,
                                   chain_id=k, init=init)
                       for cfg_k, k, init in tasks]
            results = [future.result() for future in futures]
    for chain in results:
        near_edge = [name for name, mean
                     in zip(PARAM_NAMES, chain.draws.mean(axis=0))
                     if mean > 0.98 * prior.r_max]
        if near_edge:
            logger.warning("posterior mean within 2%% of r_max=%g for %s; "
                           "consider widening the prior box", prior.r_max,
                           near_edge)
    return results


# tune_proposal_std's target acceptance, pilot chain length and round cap
TUNE_TARGET, TUNE_PILOT, TUNE_ROUNDS = 0.3, 400, 8
# where tuning starts a screened fit's c: about the optimal random-walk
# scale for a d = 3 Gaussian target, 2.38 / sqrt(d) (Roberts, Gelman &
# Gilks 1997)
SHAPED_START = 2.38 / math.sqrt(3)


def tune_proposal_std(design: Design, prior: PriorConfig,
                      cfg: ChainConfig) -> float:
    """Fixed pre-run tuning sweep for the proposal scale.

    Runs short pilot chains, nudging the scale by
    exp(acceptance - TUNE_TARGET) until the pilot acceptance lands in a
    workable band. A screened fit's scale is c, the multiple of the
    surrogate's sd, and starts at SHAPED_START; a flat one's is absolute
    and starts at cfg.proposal_std. Deterministic given cfg.seed; the
    tuned value is then used for the real run.
    """
    chol, _ = design.surrogate
    std = SHAPED_START if any(map(any, chol)) else cfg.proposal_std
    for round_no in range(TUNE_ROUNDS):
        pilot_cfg = replace(cfg, n_iterations=TUNE_PILOT, burn_in=0, thin=1,
                            proposal_std=std,
                            seed=derived_seed(cfg.seed, 0x7E57 + round_no))
        accept = run_chain(design, prior, pilot_cfg).acceptance_rate
        if 0.2 <= accept <= 0.45:
            break
        std = min(std * math.exp(accept - TUNE_TARGET), prior.r_max)
    return std


# ---------------------------------------------------------------------------
# diagnostics


def _split_in_half(seq: np.ndarray) -> list[np.ndarray]:
    half = seq.size // 2
    return [seq[:half], seq[seq.size - half:]]


def split_rhat(sequences) -> float:
    """R-hat for one parameter: sqrt((W + B/n) / W).

    A single sequence is split in half and treated as two (the split
    convention); two or more sequences are compared as given. Identical
    sequences give exactly 1.0; sequences stuck at different constant levels
    give infinity (zero within-variance). Values are always >= 1.
    """
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    if not seqs:
        raise ValueError("no sequences")
    if len(seqs) == 1:
        seqs = _split_in_half(seqs[0])
    length = min(s.size for s in seqs)
    if length < 2:
        raise ValueError("sequences too short for R-hat")
    stacked = np.stack([s[:length] for s in seqs])  # (m, length)
    if np.all(stacked == stacked.ravel()[0]):
        return 1.0
    within = stacked.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return math.inf
    between_over_n = stacked.mean(axis=1).var(ddof=1)
    return math.sqrt(1.0 + between_over_n / within)


def effective_sample_size(sequences) -> float:
    """Multi-chain effective sample size via Geyer's initial positive sequence.

    Autocorrelations are estimated per chain (FFT), combined with the
    between-chain variance, and summed in pairs until a pair goes
    nonpositive.
    """
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    if not seqs:
        raise ValueError("no sequences")
    length = min(s.size for s in seqs)
    if length < 4:
        raise ValueError("sequences too short for ESS")
    stacked = np.stack([s[:length] for s in seqs])  # (m, length)
    m = stacked.shape[0]
    if np.all(stacked == stacked.ravel()[0]):
        return float(m * length)

    within = stacked.var(axis=1, ddof=1).mean()
    var_plus = (length - 1) / length * within
    if m > 1:
        var_plus += stacked.mean(axis=1).var(ddof=1)
    if var_plus == 0.0:
        return float(m * length)

    # biased autocovariances per chain, via FFT
    centered = stacked - stacked.mean(axis=1, keepdims=True)
    n_fft = 1 << (2 * length - 1).bit_length()
    f = np.fft.rfft(centered, n_fft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n_fft, axis=1)[:, :length] / length
    mean_acov = acov.mean(axis=0)

    rho = 1.0 - (within - mean_acov) / var_plus
    rho[0] = 1.0
    # Geyer pairs: accumulate while the paired sums stay positive
    tau = 1.0
    t = 1
    while t + 1 < length:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        t += 2
    return float(m * length / tau)


# ---------------------------------------------------------------------------
# summaries


def posterior_summaries(draws: np.ndarray) -> tuple[ParamSummary, ...]:
    """Mean, sd and nearest-rank 5 % / 95 % quantiles of each exponent in
    an (n, 3) draws matrix."""
    n = draws.shape[0]
    return tuple(
        ParamSummary(
            mean=float(draws[:, j].mean()),
            sd=float(draws[:, j].std(ddof=1)) if n > 1 else 0.0,
            q5=nearest_rank_quantile(draws[:, j], 0.05),
            q95=nearest_rank_quantile(draws[:, j], 0.95),
        )
        for j in range(3)
    )

