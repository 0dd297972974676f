"""Tests for the local-level ERA model: filtering, noise estimation,
terciles, noise resampling, and the synthetic ERA generator the noise tests
draw from."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import batch_filtered_moments, simulate_era_path
from pennantsim.kalman import (
    NoiseParams,
    _local_level,
    estimate_noise,
    filter_series,
    group_terciles,
    sample_noise,
    sliding_noise_estimates,
)


# ---------------------------------------------------------------------------
# the local-level recursion, from a given (mean, var) state


def run(mean, var, observations, noise):
    """(final filtered mean, final filtered variance) of _local_level."""
    _, _, mean, var = _local_level(observations, noise.sigma_obs ** 2,
                                   noise.sigma_process ** 2, mean, var)
    return mean, var


def test_step_perfect_observation():
    # zero observation noise: gain 1, state collapses onto the observation
    mean, var = run(4.0, 1.0, [3.2], NoiseParams(0.0, 0.1))
    assert mean == pytest.approx(3.2)
    assert var == pytest.approx(0.0, abs=1e-15)


def test_step_matches_joint_gaussian_conditioning():
    # oracle: condition the joint normal of (x1, y1) on y1 directly
    prior_mean, prior_var = 4.0, 1.0
    noise = NoiseParams(sigma_obs=0.5, sigma_process=0.1)
    y = 3.5
    var_x = prior_var + noise.sigma_process ** 2
    var_y = var_x + noise.sigma_obs ** 2
    oracle_mean = prior_mean + (var_x / var_y) * (y - prior_mean)
    oracle_var = var_x - var_x ** 2 / var_y
    mean, var = run(prior_mean, prior_var, [y], noise)
    assert mean == pytest.approx(oracle_mean, abs=1e-12)
    assert var == pytest.approx(oracle_var, abs=1e-12)
    # frozen values from the same oracle
    assert mean == pytest.approx(3.5992063492063493, abs=1e-10)
    assert var == pytest.approx(0.20039682539682538, abs=1e-10)


def test_step_uninformative_observation():
    mean, _ = run(4.0, 1.0, [100.0], NoiseParams(1e9, 0.1))
    assert mean == pytest.approx(4.0, abs=1e-6)


def test_step_variance_never_exceeds_prediction():
    rng = np.random.default_rng(8)
    for _ in range(50):
        prior_mean = float(rng.normal(4, 1))
        prior_var = float(rng.uniform(0.01, 2))
        noise = NoiseParams(float(rng.uniform(0.01, 2)), float(rng.uniform(0.0, 1)))
        predicted_var = prior_var + noise.sigma_process ** 2
        _, var = run(prior_mean, prior_var, [float(rng.normal(4, 2))], noise)
        assert var <= predicted_var + 1e-15


def test_step_zero_gain_denominator_is_error():
    with pytest.raises(ValueError, match="Kalman gain undefined"):
        run(4.0, 0.0, [3.5], NoiseParams(0.0, 0.0))


def test_series_single_observation_equals_one_step():
    # one predict/update cycle by hand: predicted variance 1 + 0.1^2, gain
    # 1.01 / (1.01 + 0.5^2)
    mean, var = run(4.0, 1.0, [3.5], NoiseParams(0.5, 0.1))
    gain = 1.01 / 1.26
    assert mean == pytest.approx(4.0 + gain * (3.5 - 4.0), abs=1e-15)
    assert var == pytest.approx((1.0 - gain) * 1.01, abs=1e-15)


def test_series_matches_batch_conditioning_oracle():
    rng = np.random.default_rng(21)
    init_mean, init_var = 4.0, 0.8
    noise = NoiseParams(0.5, 0.08)
    obs = rng.normal(4.0, 0.6, size=10).tolist()
    finals = [run(init_mean, init_var, obs[:t + 1], noise) for t in range(10)]
    oracle_means, oracle_vars = batch_filtered_moments(
        init_mean, init_var, obs, noise.sigma_obs, noise.sigma_process)
    np.testing.assert_allclose([m for m, _ in finals], oracle_means,
                               atol=1e-9)
    np.testing.assert_allclose([v for _, v in finals], oracle_vars,
                               atol=1e-9)


def test_series_constant_observations_shrink_variance():
    noise = NoiseParams(0.4, 0.0)
    finals = [run(5.0, 1.0, [3.0] * n, noise) for n in range(1, 21)]
    means = [m for m, _ in finals]
    # monotone approach toward the constant
    assert all(abs(m2 - 3.0) < abs(m1 - 3.0) for m1, m2 in zip(means, means[1:]))
    variances = [v for _, v in finals]
    assert all(v2 < v1 for v1, v2 in zip(variances, variances[1:]))


# ---------------------------------------------------------------------------
# filter_series: the recursion started on the first observation


def test_filter_series_hand_computed():
    # start at (4, 1); with no process noise the gain is 1 / (1 + 1), so
    # the level moves halfway to the second observation
    assert filter_series([4.0, 5.0], NoiseParams(1.0, 0.0)) == 4.5
    assert filter_series([3.7], NoiseParams(0.5, 0.1)) == 3.7
    # sigma_obs = 0, as a noiseless-walk fit has: the start variance is 0
    # and every gain 1, so the level is the last observation exactly
    assert filter_series([4.1, 3.2, 5.7, 4.4], NoiseParams(0.0, 0.3)) == 4.4


def test_series_rejects_empty_and_nonfinite():
    noise = NoiseParams(0.5, 0.1)
    with pytest.raises(ValueError):
        filter_series([], noise)
    with pytest.raises(ValueError):
        filter_series([4.0, math.nan], noise)


# ---------------------------------------------------------------------------
# noise estimation


def test_estimate_rejects_short_window():
    with pytest.raises(ValueError):
        estimate_noise([4.0] * 9)


def test_estimate_constant_window_degenerate():
    est = estimate_noise([4.2] * 30)
    assert est.sigma_obs < 1e-6
    assert est.sigma_process < 1e-6
    assert est.converged is False


def test_estimate_white_noise_window():
    # white noise is the q=0 corner: sigma_obs^2 should recover the variance
    # and sigma_process^2 should collapse
    rng = np.random.default_rng(17)
    v = 0.25
    obs = rng.normal(4.0, math.sqrt(v), size=1000)
    est = estimate_noise(obs)
    assert abs(est.sigma_obs ** 2 - v) < 0.15 * v
    assert est.sigma_process ** 2 < 0.05 * v


def test_estimate_zero_process_noise_is_exact():
    # this white-noise window's profile likelihood peaks at psi = 0, which
    # the grid holds exactly: sigma_process is 0.0, and the fit is kept
    rng = np.random.default_rng(5)
    est = estimate_noise(rng.normal(4.0, 0.5, size=30))
    assert est.sigma_process == 0.0
    assert est.pinned and est.converged
    assert 0.3 < est.sigma_obs < 0.6


def test_estimate_takes_a_straight_line_as_a_noiseless_walk():
    # a straight line is a noiseless random walk: the likelihood keeps
    # rising as sigma_obs -> 0, past the top of the psi grid, to its limit
    # at psi = infinity, where every step of 1/11 is process noise
    est = estimate_noise(np.linspace(3.0, 4.0, 12))
    assert est.converged is True
    assert est.sigma_obs == 0.0
    assert est.sigma_process == pytest.approx(1.0 / 11.0, rel=1e-12)


def test_estimate_noiseless_random_walk_is_its_step_rms():
    # where successive steps have a positive product sum, the likelihood
    # falls as observation noise enters the walk (its slope in r at r = 0
    # is -sum(dy[t] dy[t+1]) / q^2); this walk's MLE is that psi = infinity
    # endpoint, whose process sd is the root mean square step
    rng = np.random.default_rng(0)
    walk = 4.0 + np.cumsum(rng.normal(0.0, 0.3, size=30))
    steps = np.diff(walk)
    assert steps[1:] @ steps[:-1] > 0.0
    est = estimate_noise(walk)
    assert est.converged and est.sigma_obs == 0.0
    assert est.sigma_process == pytest.approx(
        math.sqrt(np.mean(steps ** 2)), rel=1e-12)


def test_sliding_window_counts():
    rng = np.random.default_rng(30)
    series30 = rng.normal(4.0, 0.5, size=30)
    assert len(sliding_noise_estimates(series30, 30)) == 1
    series40 = rng.normal(4.0, 0.5, size=40)
    ests = sliding_noise_estimates(series40, 30)
    assert len(ests) == 11


def test_sliding_rejects_short_series():
    with pytest.raises(ValueError):
        sliding_noise_estimates(np.zeros(20), 30)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sliding_rejects_nonfinite_series(bad):
    series = np.random.default_rng(3).normal(4.0, 0.5, size=40)
    series[35] = bad      # in the last window only
    with pytest.raises(ValueError, match="non-finite"):
        sliding_noise_estimates(series, 30)


def test_sliding_rejects_2d_series():
    with pytest.raises(ValueError, match="1-d"):
        sliding_noise_estimates(np.full((2, 40), 4.0), 30)


@st.composite
def series_and_window(draw):
    """An ERA series in hundredths and a window length of 10 to 40. A
    plateau as long as the window puts constant windows next to windows
    with variation in the same call; a ramp puts every window's maximum
    past the top of the psi grid."""
    window = draw(st.integers(10, 40))
    length = window + draw(st.integers(0, 15))
    kind = draw(st.sampled_from(["values", "plateau", "ramp"]))
    if kind == "ramp":
        return np.linspace(3.0, 4.0, length), window
    values = draw(st.lists(st.integers(0, 1000), min_size=length,
                           max_size=length))
    if kind == "plateau":
        start = draw(st.integers(0, length - window))
        values[start:start + window] = [values[start]] * window
    return np.array(values) / 100.0, window


@settings(deadline=None)
@given(case=series_and_window())
@example(case=(np.linspace(3.0, 4.0, 25), 12))
@example(case=(np.r_[np.full(15, 4.2), np.linspace(4.0, 5.0, 10)], 10))
def test_sliding_equals_window_by_window_fits(case):
    # the windows are fit together, one array recursion for all; each
    # estimate must equal the lone-window fit exactly, field by field
    series, window = case
    together = sliding_noise_estimates(series, window)
    alone = [estimate_noise(series[k:k + window])
             for k in range(len(series) - window + 1)]
    assert together == alone
    assert all(type(e.converged) is bool for e in together)


def test_sliding_mostly_converges_on_smooth_data():
    rng = np.random.default_rng(44)
    series = simulate_era_path(4.0, NoiseParams(0.5, 0.05), 60, rng)
    ests = sliding_noise_estimates(series, 30)
    assert len(ests) == 31
    assert np.mean([e.converged for e in ests]) > 0.9


# ---------------------------------------------------------------------------
# terciles


def groups_of(labels):
    """{label: sorted teams} of a group_terciles result."""
    groups = {"low": [], "medium": [], "high": []}
    for team, label in labels.items():
        groups[label].append(team)
    return {label: sorted(teams) for label, teams in groups.items()}


def group_sizes(labels):
    return tuple(len(teams) for teams in groups_of(labels).values())


def test_terciles_even_split():
    eras = {f"T{i:02d}": 3.0 + 0.05 * i for i in range(30)}
    labels = group_terciles(eras)
    assert group_sizes(labels) == (10, 10, 10)
    groups = groups_of(labels)
    # ordering consistent with ERA sort
    assert max(eras[t] for t in groups["low"]) \
        <= min(eras[t] for t in groups["medium"])
    assert max(eras[t] for t in groups["medium"]) \
        <= min(eras[t] for t in groups["high"])


def test_terciles_remainder_to_lower():
    eras = {f"T{i:02d}": 3.0 + 0.05 * i for i in range(31)}
    assert group_sizes(group_terciles(eras)) == (11, 10, 10)
    eras32 = {f"T{i:02d}": 3.0 + 0.05 * i for i in range(32)}
    assert group_sizes(group_terciles(eras32)) == (11, 11, 10)


def test_terciles_tie_broken_by_identifier():
    # B and C tie at the low/medium boundary; smaller identifier goes low
    groups = groups_of(group_terciles({"D": 5.0, "C": 4.0, "B": 4.0,
                                       "A": 3.0}))
    assert groups == {"low": ["A", "B"], "medium": ["C"], "high": ["D"]}


def test_terciles_reject_too_few_teams():
    with pytest.raises(ValueError):
        group_terciles({"A": 3.0, "B": 4.0})


def test_tercile_labels():
    assert group_terciles({"A": 3.0, "B": 4.0, "C": 5.0}) == \
        {"A": "low", "B": "medium", "C": "high"}


@settings(deadline=None)
@given(st.dictionaries(st.text("ABCDEFGH", min_size=1, max_size=3),
                       st.integers(200, 600).map(lambda x: x / 100.0),
                       min_size=3, max_size=40))
def test_terciles_partition_teams_into_near_equal_ascending_groups(eras):
    # every team lands in exactly one group, the group sizes differ by at
    # most one, and ERA never decreases from low to medium to high
    labels = group_terciles(eras)
    assert sorted(labels) == sorted(eras)
    assert set(labels.values()) <= {"low", "medium", "high"}
    sizes = group_sizes(labels)
    assert max(sizes) - min(sizes) <= 1
    groups = groups_of(labels)
    for lower, upper in (("low", "medium"), ("medium", "high")):
        assert max(eras[t] for t in groups[lower]) \
            <= min(eras[t] for t in groups[upper])


# ---------------------------------------------------------------------------
# noise resampling


def test_sample_noise_singleton_pool():
    pool = np.array([(0.5, 0.05)])
    rng = np.random.default_rng(0)
    assert sample_noise(pool, rng, 10).tolist() == [[0.5, 0.05]] * 10


def test_sample_noise_uniform_over_pool():
    pairs = [(0.4, 0.04), (0.5, 0.05), (0.6, 0.06), (0.7, 0.07)]
    pool = np.array(pairs)
    n = 10**5
    rows = sample_noise(pool, np.random.default_rng(123), n)
    assert rows.shape == (n, 2)
    se = math.sqrt(0.25 * 0.75 / n)
    for p in pairs:
        assert abs(np.all(rows == p, axis=1).mean() - 0.25) < 3 * se


def test_sample_noise_keeps_pairs_intact():
    pairs = [(0.4, 0.07), (0.9, 0.01)]
    pool = np.array(pairs)
    rows = sample_noise(pool, np.random.default_rng(5), 50)
    assert {tuple(row) for row in rows.tolist()} == set(pairs)


# ---------------------------------------------------------------------------
# synthetic ERA paths (tests/oracles.py): the noise tests' data must follow
# the local-level model


def test_path_zero_noise_is_constant():
    rng = np.random.default_rng(1)
    path = simulate_era_path(4.2, NoiseParams(0.0, 0.0), 25, rng)
    np.testing.assert_array_equal(path, np.full(25, 4.2))


def test_path_respects_floor():
    rng = np.random.default_rng(2)
    path = simulate_era_path(0.05, NoiseParams(0.5, 0.1), 500, rng)
    assert path.min() >= 0.01


def test_path_observation_noise_variance():
    # oracle: Var(y - x) must equal sigma_obs^2
    rng = np.random.default_rng(41)
    noise = NoiseParams(0.5, 0.05)
    gaps = []
    for _ in range(10**4):
        observed, latent = simulate_era_path(4.0, noise, 3, rng,
                                             return_latent=True)
        gaps.append(observed[1] - latent[1])
    var = float(np.var(gaps, ddof=1))
    assert abs(var - 0.25) < 0.05 * 0.25


def test_path_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simulate_era_path(-1.0, NoiseParams(0.5, 0.05), 5, rng)
    with pytest.raises(ValueError):
        simulate_era_path(4.0, NoiseParams(0.5, 0.05), -1, rng)
