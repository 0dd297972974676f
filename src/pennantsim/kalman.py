"""Local-level Kalman filtering for starting-pitcher ERA series.

The latent ERA follows a random walk x[t+1] = x[t] + w[t] with process noise
variance q; observations are y[t] = x[t] + v[t] with observation noise
variance r. This module covers filtering, windowed maximum-likelihood noise
estimation (one filter recursion serves both), tercile grouping of teams by
early-season ERA, and noise resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

# Noise estimation is unreliable below this many observations.
MIN_WINDOW = 10

# Bounds of the log-sigma search box used by the noise MLE.
_SIGMA_MIN = 1e-4
_SIGMA_MAX = 10.0

# Diffuse initial variance = this multiple of the window's sample variance.
_DIFFUSE_SCALE = 10.0


@dataclass(frozen=True)
class GaussianState:
    """Latent-level belief: mean and variance of a Gaussian."""

    mean: float
    var: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"state mean is not finite: {self.mean}")
        if not (math.isfinite(self.var) and self.var >= 0):
            raise ValueError(f"state variance must be nonnegative, got {self.var}")


@dataclass(frozen=True)
class NoiseParams:
    """Observation / process noise standard deviations of the local-level model."""

    sigma_obs: float
    sigma_process: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_obs) and self.sigma_obs >= 0):
            raise ValueError(f"sigma_obs must be nonnegative, got {self.sigma_obs}")
        if not (math.isfinite(self.sigma_process) and self.sigma_process >= 0):
            raise ValueError(f"sigma_process must be nonnegative, got {self.sigma_process}")


@dataclass(frozen=True)
class NoiseEstimate:
    """One windowed noise fit: which team/window it came from, the parameters,
    and whether the optimizer actually converged (degenerate fits are kept but
    flagged so downstream sampling can exclude them)."""

    team: str
    window_start: int
    params: NoiseParams
    converged: bool

    @property
    def sigma_obs(self) -> float:
        return self.params.sigma_obs

    @property
    def sigma_process(self) -> float:
        return self.params.sigma_process

    @property
    def pinned(self) -> bool:
        """sigma_process sits at the lower edge of the search box, where the
        maximizer stops when the window's MLE is zero process noise."""
        return self.sigma_process <= _SIGMA_MIN * (1.0 + 1e-9)


@dataclass(frozen=True)
class TercileGrouping:
    """Teams split into thirds by early-season ERA, ascending."""

    low: tuple[str, ...]
    medium: tuple[str, ...]
    high: tuple[str, ...]

    def __post_init__(self):
        groups = (self.low, self.medium, self.high)
        all_teams = [t for g in groups for t in g]
        if len(set(all_teams)) != len(all_teams):
            raise ValueError("tercile groups overlap")
        sizes = sorted(len(g) for g in groups)
        if sizes[-1] - sizes[0] > 1:
            raise ValueError(f"tercile sizes differ by more than 1: "
                             f"{[len(g) for g in groups]}")

    @property
    def labels(self) -> dict[str, str]:
        return {t: label
                for label, group in (("low", self.low), ("medium", self.medium),
                                     ("high", self.high))
                for t in group}


# ---------------------------------------------------------------------------
# filtering and the prediction-error likelihood


def _local_level(obs, r: float, q: float, mean: float,
                 var: float) -> tuple[float, float, float]:
    """Run the local-level filter over obs from the state (mean, var).

    Each step adds the process variance q, then blends in the observation
    with gain K = P/(P + r), leaving the posterior variance at (1-K)P <= P.
    The one-step prediction errors give the Gaussian log-likelihood as a
    by-product (Durbin & Koopman 2012, ch. 2). Returns (log-likelihood,
    final filtered mean, final filtered variance).
    """
    ll = 0.0
    for y in obs:
        var_pred = var + q
        f = var_pred + r
        if f == 0.0:
            raise ValueError("Kalman gain undefined: zero observation noise "
                             "with zero predicted variance")
        e = y - mean
        ll -= 0.5 * (math.log(2.0 * math.pi * f) + e * e / f)
        gain = var_pred / f
        mean += gain * e
        var = (1.0 - gain) * var_pred
    return ll, mean, var


def filter_series(init: GaussianState, observations,
                  noise: NoiseParams) -> GaussianState:
    """Filter a whole series; returns the posterior after its last observation.

    The first observation is treated like any other: one process step from
    the initial state, then the measurement update.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 1 or obs.size == 0:
        raise ValueError("observations must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations contain non-finite values")
    _, mean, var = _local_level(obs.tolist(), noise.sigma_obs ** 2,
                                noise.sigma_process ** 2, init.mean, init.var)
    return GaussianState(mean=mean, var=var)


# ---------------------------------------------------------------------------
# noise estimation


def estimate_noise(window, *, team: str = "", window_start: int = 0) -> NoiseEstimate:
    """Maximum-likelihood (sigma_obs, sigma_process) for one window.

    Maximizes the one-step prediction-error likelihood over log-sigmas with
    bounded Nelder-Mead from three deterministic data-driven starts, under a
    diffuse initial state (mean = first observation, variance = 10x the
    window's sample variance). A window with no variation at all has its MLE
    pinned at zero noise, outside the search box; that case short-circuits to
    (0, 0) flagged as not converged. A window whose MLE has zero process
    noise stops at the box's sigma_process floor and is still flagged
    converged; NoiseEstimate.pinned marks it.
    """
    obs = np.asarray(window, dtype=float)
    if obs.ndim != 1:
        raise ValueError("window must be 1-d")
    if obs.size < MIN_WINDOW:
        raise ValueError(f"window too short for noise estimation: "
                         f"{obs.size} < {MIN_WINDOW}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("window contains non-finite values")

    if np.all(obs == obs[0]):
        # Constant window: the likelihood increases without bound as both
        # sigmas shrink, so report the degenerate limit rather than a box
        # corner.
        return NoiseEstimate(team, window_start, NoiseParams(0.0, 0.0),
                             converged=False)
    sample_var = float(np.var(obs, ddof=1))

    init = GaussianState(mean=float(obs[0]), var=_DIFFUSE_SCALE * sample_var)
    sample_sd = math.sqrt(sample_var)
    diff_sd = float(np.std(np.diff(obs), ddof=1))
    # Starts: noise split evenly; observation-dominated; scaled to the
    # first-difference spread.
    starts = [
        (sample_sd / math.sqrt(2.0), sample_sd / math.sqrt(2.0)),
        (sample_sd, 0.1 * sample_sd),
        (0.7 * diff_sd, 0.1 * diff_sd),
    ]
    lo, hi = math.log(_SIGMA_MIN), math.log(_SIGMA_MAX)
    values = obs.tolist()

    best_x = None
    best_ll = -math.inf
    converged = False
    for s_obs, s_proc in starts:
        x0 = np.clip([math.log(max(s_obs, _SIGMA_MIN)),
                      math.log(max(s_proc, _SIGMA_MIN))], lo, hi)
        res = optimize.minimize(
            lambda x: -_local_level(values, math.exp(2.0 * x[0]),
                                    math.exp(2.0 * x[1]), init.mean,
                                    init.var)[0], x0,
            method="Nelder-Mead",
            bounds=[(lo, hi), (lo, hi)],
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400},
        )
        if -res.fun > best_ll:
            best_ll = -res.fun
            best_x = res.x
            converged = bool(res.success)
    if best_x is None:  # pragma: no cover - starts list is never empty
        raise RuntimeError("noise estimation failed to evaluate any start")

    params = NoiseParams(sigma_obs=math.exp(best_x[0]),
                         sigma_process=math.exp(best_x[1]))
    return NoiseEstimate(team, window_start, params, converged)


def sliding_noise_estimates(series, window_len: int, *,
                            team: str = "") -> list[NoiseEstimate]:
    """Noise estimates for every stride-1 window of consecutive observations.

    Window k covers series[k : k+window_len]; a series of length n yields
    n - window_len + 1 estimates.
    """
    if window_len < MIN_WINDOW:
        raise ValueError(f"window_len must be >= {MIN_WINDOW}, got {window_len}")
    obs = np.asarray(series, dtype=float)
    if obs.ndim != 1:
        raise ValueError("series must be 1-d")
    if obs.size < window_len:
        raise ValueError(f"series of length {obs.size} shorter than "
                         f"window {window_len}")
    return [estimate_noise(obs[k:k + window_len], team=team, window_start=k)
            for k in range(obs.size - window_len + 1)]


# ---------------------------------------------------------------------------
# tercile grouping and noise resampling


def group_terciles(team_early_eras: dict[str, float]) -> TercileGrouping:
    """Split teams into low/medium/high thirds by early-season mean ERA.

    Sorted ascending by ERA with ties broken by team identifier; when the
    count is not divisible by 3, the extra teams go to the lower terciles
    (31 teams -> 11/10/10).
    """
    if len(team_early_eras) < 3:
        raise ValueError(f"need at least 3 teams to form terciles, "
                         f"got {len(team_early_eras)}")
    ordered = sorted(team_early_eras, key=lambda t: (team_early_eras[t], t))
    n = len(ordered)
    base, rem = divmod(n, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    low = tuple(ordered[:sizes[0]])
    medium = tuple(ordered[sizes[0]:sizes[0] + sizes[1]])
    high = tuple(ordered[sizes[0] + sizes[1]:])
    return TercileGrouping(low=low, medium=medium, high=high)


def sample_noise(group: str, pool: list[NoiseEstimate],
                 rng: np.random.Generator) -> NoiseParams:
    """Uniform draw of one (sigma_obs, sigma_process) pair from a tercile's pool.

    The pair is kept intact (never mixed across windows) so the dependence
    between the two noise scales survives resampling. Non-converged fits are
    ignored.
    """
    usable = [e for e in pool if e.converged]
    if not usable:
        raise ValueError(f"no converged noise estimates in pool for tercile "
                         f"{group!r}")
    return usable[int(rng.integers(len(usable)))].params
