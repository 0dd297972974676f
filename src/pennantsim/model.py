"""Game-outcome model: the strength ratios and their floors.

A game is summarized by three home-vs-away strength ratios (win percentage,
batting average, starting-pitcher ERA), each oriented so bigger favors home:
win percentage and batting are home/away, ERA is away/home. With L their
floored logs (`log_ratios`, the one copy: the fit stacks its three arrays
into a design, and the simulator adds them term by term in the same order)
and r the exponents, the home team's relative strength is s = exp(r.L),
and the home team wins with probability s/(1+s). A latent per-game
p ~ Beta(m*s, m) with a Bernoulli(p) outcome has this marginal for every
m, and nothing else reads p, so the fit and the simulator both use
s/(1+s) directly.
"""

from __future__ import annotations

import numpy as np

# Win percentage / batting average floor applied before forming ratios, so a
# 0.000 stat early in a season cannot divide by zero.
STAT_FLOOR = 1e-3
# ERA gets a higher floor (a 0.00 ERA is physical but breaks the ratio scale);
# simulated and generated ERA paths never go below it either.
ERA_FLOOR = 0.01


def log_ratios(home_win_pct, away_win_pct, home_batting_avg,
               away_batting_avg, home_era, away_era):
    """The three floored, oriented log strength ratios (win percentage,
    batting average, ERA) of games given as broadcastable arrays of
    covariates, as a tuple of three arrays."""
    return (np.log(np.maximum(home_win_pct, STAT_FLOOR)
                   / np.maximum(away_win_pct, STAT_FLOOR)),
            np.log(np.maximum(home_batting_avg, STAT_FLOOR)
                   / np.maximum(away_batting_avg, STAT_FLOOR)),
            np.log(np.maximum(away_era, ERA_FLOOR)
                   / np.maximum(home_era, ERA_FLOOR)))
