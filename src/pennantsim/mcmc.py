"""Random-walk Metropolis sampling of the three contribution exponents.

The prior is independent Uniform(0, r_max) per exponent; the target is the
marginalized game-outcome likelihood, evaluated on a design of per-game log
strength ratios built once from the training records. Chains use joint
Gaussian proposals, derive per-chain seeds from a base seed, and come with
split R-hat / effective-sample-size diagnostics and a plain-text trace export.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import GameRecord, log_ratios
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
    proposal_std: float = 0.05
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
    """Retained (post burn-in, thinned) samples of the three exponents."""

    draws: np.ndarray          # (n_kept, 3)
    acceptance_rate: float
    chain_id: int = 0

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
    name: str
    mean: float
    sd: float
    q5: float
    q95: float


@dataclass(frozen=True)
class TraceTable:
    """Row-per-retained-iteration trace plus per-parameter summaries."""

    iterations: np.ndarray     # original iteration index of each retained draw
    values: np.ndarray         # (n, 3)
    summaries: tuple[ParamSummary, ...]


# ---------------------------------------------------------------------------
# likelihood plumbing


def log_ratio_design(games: list[GameRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Design arrays for fast likelihood evaluation.

    Returns (L, won): L[i] holds the log strength ratios of game i, won[i]
    the home-win flag, from `model.log_ratios` on the record columns. With
    u = L @ r, the relative strength is e^u and the marginal log-likelihood
    is won.u - sum log(1 + e^u).
    """
    if not games:
        raise ValueError("no games to fit")
    columns = np.array([(g.home_win_pct, g.away_win_pct, g.home_batting_avg,
                         g.away_batting_avg, g.home_era, g.away_era)
                        for g in games])
    won = np.array([g.home_won for g in games], dtype=float)
    return log_ratios(*columns.T), won


def design_log_likelihood(L: np.ndarray, won: np.ndarray, r: np.ndarray) -> float:
    """Marginal log-likelihood at exponents r, from precomputed design arrays."""
    u = L @ r
    return float(won @ u - np.logaddexp(0.0, u).sum())


# ---------------------------------------------------------------------------
# samplers


def _chain_rng(cfg: ChainConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(cfg.seed))


def default_init(prior: PriorConfig) -> np.ndarray:
    """Neutral starting point: all exponents 1 (clipped into the prior box)."""
    return np.clip(np.ones(3), 0.0, prior.r_max)


def run_chain(games: list[GameRecord], prior: PriorConfig, cfg: ChainConfig,
              *, chain_id: int = 0, init=None) -> PosteriorDraws:
    """One random-walk Metropolis chain over the exponents.

    Joint Gaussian proposals; a proposal leaving the prior box has zero prior
    density and is rejected outright. Every iteration's post-move state is
    recorded; burn-in is dropped and the remainder thinned. Fully
    deterministic given cfg.seed.
    """
    L, won = log_ratio_design(games)
    r_max = prior.r_max
    rng = _chain_rng(cfg)

    r = default_init(prior) if init is None else np.clip(np.asarray(init, float),
                                                         0.0, r_max)
    ll = design_log_likelihood(L, won, r)
    out = np.empty((cfg.n_iterations, 3))
    n_accept = 0
    for i in range(cfg.n_iterations):
        step = rng.normal(0.0, cfg.proposal_std, 3)
        u = rng.random()
        prop = r + step
        if prop.min() >= 0.0 and prop.max() <= r_max:
            ll_prop = design_log_likelihood(L, won, prop)
            if math.log(u) < ll_prop - ll:
                r = prop
                ll = ll_prop
                n_accept += 1
        out[i] = r

    kept = out[cfg.burn_in::cfg.thin].copy()
    if kept.shape[0] == 0:
        raise ValueError("no draws retained after burn-in and thinning")
    means = kept.mean(axis=0)
    if np.any(means > 0.98 * r_max):
        logger.warning("posterior mean within 2%% of r_max=%g for %s; "
                       "consider widening the prior box",
                       r_max,
                       [PARAM_NAMES[j] for j in range(3)
                        if means[j] > 0.98 * r_max])
    return PosteriorDraws(draws=kept, acceptance_rate=n_accept / cfg.n_iterations,
                          chain_id=chain_id)


def derived_seed(base_seed: int, chain_id: int) -> int:
    """Deterministic per-chain seed from (base seed, chain index)."""
    return int(np.random.SeedSequence((base_seed, chain_id)).generate_state(1)[0])


def run_chains(games: list[GameRecord], prior: PriorConfig, base_cfg: ChainConfig,
               n_chains: int) -> list[PosteriorDraws]:
    """Independent chains with seeds derived from the base seed.

    Chain 0 starts at the neutral init; the rest start overdispersed (uniform
    over the prior box, drawn from each chain's own stream) so R-hat has
    something to detect.
    """
    if n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {n_chains}")
    results = []
    for k in range(n_chains):
        cfg_k = replace(base_cfg, seed=derived_seed(base_cfg.seed, k))
        init = None
        if k > 0:
            init_rng = np.random.default_rng(
                np.random.SeedSequence((base_cfg.seed, k, 0xD15)))
            init = init_rng.uniform(0.0, prior.r_max, 3)
        results.append(run_chain(games, prior, cfg_k, chain_id=k, init=init))
    return results


def tune_proposal_std(games: list[GameRecord], prior: PriorConfig,
                      cfg: ChainConfig, *, target: float = 0.3,
                      n_pilot: int = 400, max_rounds: int = 8) -> float:
    """Fixed pre-run tuning sweep for the proposal scale.

    Runs short pilot chains, nudging the scale by exp(acceptance - target)
    until the pilot acceptance lands in a workable band. Deterministic given
    cfg.seed; the tuned value is then used for the real run.
    """
    std = cfg.proposal_std
    for round_no in range(max_rounds):
        pilot_cfg = replace(cfg, n_iterations=n_pilot, burn_in=0, thin=1,
                            proposal_std=std,
                            seed=derived_seed(cfg.seed, 0x7E57 + round_no))
        accept = run_chain(games, prior, pilot_cfg).acceptance_rate
        if 0.2 <= accept <= 0.45:
            break
        std = min(std * math.exp(accept - target), prior.r_max)
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
# trace export


def export_trace(draws: PosteriorDraws, *, burn_in: int = 0,
                 thin: int = 1) -> TraceTable:
    """Trace table for plotting plus per-parameter summary statistics.

    The iteration column carries each retained draw's original chain
    iteration (burn_in + k*thin of the producing chain config).
    """
    n = len(draws)
    iterations = burn_in + thin * np.arange(n)
    summaries = tuple(
        ParamSummary(
            name=PARAM_NAMES[j],
            mean=float(draws.draws[:, j].mean()),
            sd=float(draws.draws[:, j].std(ddof=1)) if n > 1 else 0.0,
            q5=nearest_rank_quantile(draws.draws[:, j], 0.05),
            q95=nearest_rank_quantile(draws.draws[:, j], 0.95),
        )
        for j in range(3)
    )
    return TraceTable(iterations=iterations, values=draws.draws.copy(),
                      summaries=summaries)


def write_trace_csv(trace: TraceTable, path) -> None:
    """Comma-separated trace: header iteration,r1,r2,r3; full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration," + ",".join(PARAM_NAMES) + "\n")
        for it, row in zip(trace.iterations, trace.values):
            fh.write(f"{int(it)},{float(row[0])!r},{float(row[1])!r},"
                     f"{float(row[2])!r}\n")
