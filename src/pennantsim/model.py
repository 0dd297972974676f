"""Game-outcome model: the strength ratios and their floors.

A game is summarized by three home-vs-away strength ratios (win percentage,
batting average, starting-pitcher ERA), each oriented so bigger favors home:
win percentage and batting are home/away, ERA is away/home. With L their
floored logs (`log_ratios`, the one copy: the fit and the simulator both
call it) and r the exponents, the home team's relative strength is
s = exp(r.L), and the home team wins with probability s/(1+s). A latent
per-game p ~ Beta(m*s, m) with a Bernoulli(p) outcome has this marginal
for every m, and nothing else reads p, so the fit and the simulator both
use s/(1+s) directly.
"""

from __future__ import annotations

import numpy as np

# Win percentage / batting average floor applied before forming ratios, so a
# 0.000 stat early in a season cannot divide by zero.
STAT_FLOOR = 1e-3
# ERA gets a higher floor (a 0.00 ERA is physical but breaks the ratio scale);
# simulated and generated ERA paths never go below it either.
ERA_FLOOR = 0.01
# the floors of the ratios log_ratios stacks, in its order
_FLOORS = np.array([STAT_FLOOR, STAT_FLOOR, ERA_FLOOR])


def log_ratios(home_win_pct, away_win_pct, home_batting_avg,
               away_batting_avg, home_era, away_era) -> np.ndarray:
    """The three floored, oriented log strength ratios of games given as
    same-shape arrays of covariates, stacked on a new last axis."""
    favors_home = np.stack([home_win_pct, home_batting_avg, away_era], axis=-1)
    favors_away = np.stack([away_win_pct, away_batting_avg, home_era], axis=-1)
    return np.log(np.maximum(favors_home, _FLOORS)
                  / np.maximum(favors_away, _FLOORS))
