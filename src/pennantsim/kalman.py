"""Local-level Kalman filtering for starting-pitcher ERA series.

The latent ERA follows a random walk x[t+1] = x[t] + w[t] with process noise
variance q; observations are y[t] = x[t] + v[t] with observation noise
variance r. This module covers filtering, windowed maximum-likelihood noise
estimation (one filter recursion serves both), tercile grouping of teams by
early-season ERA, and noise resampling. A tercile's noise pool is a (k, 2)
array of (sigma_obs, sigma_process) rows, one per converged window fit.

The noise likelihood conditions on the first observation: the level starts
at (y[0], r) and the recursion runs over the rest (the exact diffuse start;
Durbin & Koopman 2012, ch. 2). filter_series, the CLI's ERA filter, starts
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Noise estimation is unreliable below this many observations.
MIN_WINDOW = 10

# Tercile labels, lowest early-season ERA first.
TERCILES = ("low", "medium", "high")

# The noise MLE's search over psi = q / r: zero plus a log grid, then
# passes of a linear zoom between the best point's two neighbours.
_PSI_GRID = np.concatenate(([0.0], np.logspace(-8.0, 4.0, 240)))
_ZOOM_POINTS = 65
_ZOOM_PASSES = 2


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
class NoiseEstimate(NoiseParams):
    """One window's noise fit, and whether the likelihood maximum was found
    (degenerate fits are kept but flagged; the noise pools hold converged
    fits only)."""

    converged: bool

    @property
    def pinned(self) -> bool:
        """The window's MLE has zero process noise, the boundary where about
        half of all short windows put it (Shephard & Harvey 1990)."""
        return self.sigma_process == 0.0


# ---------------------------------------------------------------------------
# filtering and the prediction-error likelihood


def _local_level(obs, r: float, q, mean: float, var: float):
    """Run the local-level filter over obs from the state (mean, var).

    Each step adds the process variance q, then blends in the observation
    with gain K = P/(P + r), leaving the posterior variance at (1-K)P <= P.
    q may be an array of candidate variances; every result then has its
    shape. For k series at once, each y and the mean are (k, 1) columns and
    q is (k, m). Returns (sum of log F, sum of e^2/F, final filtered mean,
    final filtered variance), where e is each one-step prediction error and
    F its variance: the Gaussian log-likelihood is -(n log 2 pi + sum log F
    + sum e^2/F) / 2 (Durbin & Koopman 2012, ch. 2).
    """
    sum_log_f = sum_e2_f = 0.0
    for y in obs:
        var_pred = var + q
        f = var_pred + r
        # var and q are nonnegative, so f >= r: only r = 0 can make f zero
        if r == 0.0 and np.any(f == 0.0):
            raise ValueError("Kalman gain undefined: zero observation noise "
                             "with zero predicted variance")
        e = y - mean
        sum_log_f = sum_log_f + np.log(f)
        sum_e2_f = sum_e2_f + e * e / f
        gain = var_pred / f
        mean = mean + gain * e
        var = (1.0 - gain) * var_pred
    return sum_log_f, sum_e2_f, mean, var


def _finite_1d(values, what: str, min_size: int) -> np.ndarray:
    """values as a 1-d float array of at least min_size finite values."""
    obs = np.asarray(values, dtype=float)
    if obs.ndim != 1 or obs.size < min_size:
        raise ValueError(f"{what} must be 1-d with at least {min_size} "
                         f"values, got shape {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError(f"{what} contains non-finite values")
    return obs


def filter_series(observations, noise: NoiseParams) -> float:
    """The filtered level after the last observation of a series.

    Conditions on the first observation, as the noise likelihood does: the
    level starts at (y[0], sigma_obs^2) and the recursion runs over the rest.
    """
    obs = _finite_1d(observations, "observations", 1).tolist()
    r = noise.sigma_obs ** 2
    _, _, mean, _ = _local_level(obs[1:], r, noise.sigma_process ** 2,
                                 obs[0], r)
    return mean


# ---------------------------------------------------------------------------
# noise estimation


def estimate_noise(window) -> NoiseEstimate:
    """Maximum-likelihood (sigma_obs, sigma_process) for one window.

    Conditions on the first observation and starts the filter at (y[0], r).
    Every variance in the recursion then scales with r, so for a fixed
    psi = q / r the MLE of r is the mean of e^2/F over the other n - 1
    observations, and the profile likelihood leaves a 1-D search over psi:
    zero plus a fixed log grid, then two linear zooms around the best point.
    A zero psi is a legitimate maximum (about half of all 30-game windows
    have one) and is reported as sigma_process = 0, converged. At the top
    of the grid the search also weighs psi = infinity, a noiseless random
    walk whose process variance q is the mean squared step and whose
    profile log-likelihood is -(n - 1) log(q) / 2; where that beats the
    grid, the fit is (0, sqrt(q)), converged, and a maximum at the top it
    does not beat is flagged not converged. A window with no variation
    at all has its MLE at zero noise with an unbounded likelihood; it
    short-circuits to (0, 0), flagged not converged.
    """
    obs = _finite_1d(window, "window", MIN_WINDOW)
    if np.all(obs == obs[0]):
        return NoiseEstimate(0.0, 0.0, converged=False)
    return _fit_windows(obs[None, :])[0]


def _fit_windows(windows) -> list[NoiseEstimate]:
    """estimate_noise's psi search for every row of a (k, n) array of
    windows, each with variation, at once."""
    n = windows.shape[1] - 1
    rest = windows[:, 1:].T[:, :, None]      # step t: a (k, 1) column
    rows = np.arange(len(windows))

    def profile(psi):   # (profile log-likelihood + constant, MLE of r)
        sum_log_f, sum_e2_f, _, _ = _local_level(rest, 1.0, psi,
                                                 windows[:, :1], 1.0)
        r = sum_e2_f / n
        return -0.5 * (n * np.log(r) + sum_log_f), r

    psi = np.broadcast_to(_PSI_GRID, (len(windows), _PSI_GRID.size))
    loglik, r = profile(psi)
    for _ in range(_ZOOM_PASSES):
        best = np.argmax(loglik, axis=1)
        psi = np.linspace(psi[rows, np.maximum(best - 1, 0)],
                          psi[rows, np.minimum(best + 1, psi.shape[1] - 1)],
                          _ZOOM_POINTS, axis=1)
        loglik, r = profile(psi)
    best = np.argmax(loglik, axis=1)
    r, psi, top = r[rows, best], psi[rows, best], loglik[rows, best]
    # psi = infinity: a noiseless random walk with q the mean squared step
    q = (np.diff(windows, axis=1) ** 2).mean(axis=1)
    walk = (psi >= _PSI_GRID[-1]) & (-0.5 * n * np.log(q) > top)
    return [NoiseEstimate(0.0, math.sqrt(q_k), converged=True) if walk_k
            else NoiseEstimate(math.sqrt(r_k), math.sqrt(psi_k * r_k),
                               converged=bool(psi_k < _PSI_GRID[-1]))
            for r_k, psi_k, q_k, walk_k in zip(r, psi, q, walk)]


def sliding_noise_estimates(series, window_len: int) -> list[NoiseEstimate]:
    """Noise estimates for every stride-1 window of consecutive observations.

    Window k covers series[k : k+window_len]; a series of length n yields
    n - window_len + 1 estimates, each equal bit for bit to estimate_noise's
    on its window. The windows with variation share one array recursion.
    """
    if window_len < MIN_WINDOW:
        raise ValueError(f"window_len must be >= {MIN_WINDOW}, got {window_len}")
    obs = _finite_1d(series, "series", window_len)
    windows = np.lib.stride_tricks.sliding_window_view(obs, window_len)
    flat = np.all(windows == windows[:, :1], axis=1)
    fits = iter(_fit_windows(windows[~flat]))
    return [estimate_noise(window) if is_flat else next(fits)
            for window, is_flat in zip(windows, flat)]


# ---------------------------------------------------------------------------
# tercile grouping and noise resampling


def group_terciles(team_early_eras: dict[str, float]) -> dict[str, str]:
    """{team: 'low' | 'medium' | 'high'}: teams split into thirds by
    early-season mean ERA.

    Sorted ascending by ERA with ties broken by team identifier; when the
    count is not divisible by 3, the extra teams go to the lower terciles
    (31 teams -> 11/10/10).
    """
    if len(team_early_eras) < 3:
        raise ValueError(f"need at least 3 teams to form terciles, "
                         f"got {len(team_early_eras)}")
    ordered = sorted(team_early_eras, key=lambda t: (team_early_eras[t], t))
    base, rem = divmod(len(ordered), 3)
    low, medium = base + (rem > 0), base + (rem > 1)
    return {t: TERCILES[(k >= low) + (k >= low + medium)]
            for k, t in enumerate(ordered)}


def sample_noise(pool: np.ndarray, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """(n, 2) array of uniform draws, with replacement, of (sigma_obs,
    sigma_process) rows from a tercile's (k, 2) pool of converged window
    fits.

    Each pair is kept intact (never mixed across windows) so the dependence
    between the two noise scales survives resampling.
    """
    return pool[rng.integers(0, len(pool), n)]
