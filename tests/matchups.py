"""Matchups between copies of two team states, run through the season engine.

K pairs of teams, home copies H0..H(K-1) against away copies A0..A(K-1), each
pair meeting n times in a row. With n = 1 every team plays
exactly once, so one replication is K independent draws of the same game;
with n > 1 each pair's states evolve over its n games (record, batting walk,
ERA path) exactly as on a real schedule, and the K pairs are independent
samples of that trajectory. All of it is produced by the code that simulates
real schedules.
"""

import dataclasses

from pennantsim.season import (LeagueStructure, Schedule, SimOptions,
                               TeamSimState, run_replications)


class Matchups:
    """League and schedule for K pairs meeting n times, built once and
    reused.

    Building 10^5 team states, the league and the schedule costs about as
    much as simulating them, so a grid of cells shares one instance; the
    team states are rebuilt only when a side's state changes.
    """

    def __init__(self, pairs, games=1):
        self.pairs = pairs
        self.league = LeagueStructure.from_rows(
            [("L", "H", f"H{k}") for k in range(pairs)]
            + [("L", "A", f"A{k}") for k in range(pairs)])
        self.schedule = Schedule(games=tuple(
            (f"H{k}", f"A{k}") for _ in range(games) for k in range(pairs)))
        self._copies = {}    # prefix -> (state, its renamed copies)
        # results columns are the sorted team names: H10 precedes H2
        column = {t: j for j, t in enumerate(self.league.teams)}
        self._home_columns = [column[f"H{k}"] for k in range(pairs)]

    def _copies_of(self, state, prefix):
        built = self._copies.get(prefix)
        if built is None or built[0] != state:
            fields = {f.name: getattr(state, f.name)
                      for f in dataclasses.fields(state)}
            built = (state, [TeamSimState(**{**fields, "team": f"{prefix}{k}"})
                             for k in range(self.pairs)])
            self._copies[prefix] = built
        return built[1]

    def home_wins(self, home, away, draws, seed, opts=None,
                  noise_pools=None):
        """Home wins of each pair over its games (0 or 1 when n = 1)."""
        homes = self._copies_of(home, "H")
        result = run_replications(1, homes + self._copies_of(away, "A"),
                                  self.schedule, draws, self.league, seed,
                                  opts=opts or SimOptions(),
                                  noise_pools=noise_pools)
        return result.wins[0, self._home_columns] - home.wins
