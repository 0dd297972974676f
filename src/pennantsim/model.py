"""Game-outcome model: the strength ratios, their floors, and the historical
game record.

A game is summarized by three home-vs-away strength ratios (win percentage,
batting average, starting-pitcher ERA), each oriented so bigger favors home:
win percentage and batting are home/away, ERA is away/home. With L their
floored logs (`log_ratios`, the one copy: the fit and the simulator both
call it) and r the exponents, the home team's relative strength is
s = exp(r.L). The win probability follows a two-stage Beta-Bernoulli
structure whose marginal is s/(1+s), independent of the Beta concentration.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

# Win percentage / batting average floor applied before forming ratios, so a
# 0.000 stat early in a season cannot divide by zero.
STAT_FLOOR = 1e-3
# ERA gets a higher floor (a 0.00 ERA is physical but breaks the ratio scale);
# simulated and generated ERA paths never go below it either.
ERA_FLOOR = 0.01


def log_ratios(home_win_pct, away_win_pct, home_batting_avg,
               away_batting_avg, home_era, away_era) -> np.ndarray:
    """The three floored, oriented log strength ratios of games given as
    same-shape arrays of covariates, stacked on a new last axis."""
    floors = np.array([STAT_FLOOR, STAT_FLOOR, ERA_FLOOR])
    favors_home = np.stack([home_win_pct, home_batting_avg, away_era], axis=-1)
    favors_away = np.stack([away_win_pct, away_batting_avg, home_era], axis=-1)
    return np.log(np.maximum(favors_home, floors)
                  / np.maximum(favors_away, floors))


@dataclass(frozen=True)
class GameRecord:
    """One historical game: pregame covariates for both teams plus the outcome.

    The prior-game counts are optional bookkeeping set by the ingest layer;
    they let training-window filters apply minimum-games rules without
    rescanning the season.
    """

    date: datetime.date
    home_team: str
    away_team: str
    home_win_pct: float
    away_win_pct: float
    home_batting_avg: float
    away_batting_avg: float
    home_era: float
    away_era: float
    home_won: bool
    home_prior_games: int | None = None
    away_prior_games: int | None = None

    def __post_init__(self):
        if self.home_team == self.away_team:
            raise ValueError(f"{self.date}: home and away team are both {self.home_team!r}")
        for name in ("home_win_pct", "away_win_pct", "home_batting_avg",
                     "away_batting_avg", "home_era", "away_era"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.date} {self.home_team}-{self.away_team}: "
                                 f"{name} is not finite")
        for name in ("home_win_pct", "away_win_pct"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {value}")
        for name in ("home_batting_avg", "away_batting_avg"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} out of (0, 1): {value}")
        for name in ("home_era", "away_era"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} is negative")
