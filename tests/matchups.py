"""One-off matchups run through the season engine.

n copies of one game are scheduled between n distinct home teams and n
distinct away teams that carry the given states. Each team plays exactly
once, so one replication is n independent draws of the same game, produced
by the code that simulates real schedules.
"""

import dataclasses
import datetime

from pennantsim.season import (LeagueStructure, Schedule, ScheduledGame,
                               SimOptions, TeamSimState, run_replications)


class OneOffMatchups:
    """League and schedule for n one-off games, built once and reused.

    Building 10^5 team states, the league and the schedule costs about as
    much as simulating them, so a grid of cells shares one instance; the
    team states are rebuilt only when a side's state changes.
    """

    def __init__(self, n):
        self.n = n
        self.league = LeagueStructure.from_rows(
            [("L", "H", f"H{k}") for k in range(n)]
            + [("L", "A", f"A{k}") for k in range(n)])
        day = datetime.date(2024, 8, 1)
        self.schedule = Schedule(games=tuple(
            ScheduledGame(day, f"H{k}", f"A{k}") for k in range(n)))
        self._copies = {}    # prefix -> (state, its n renamed copies)

    def _copies_of(self, state, prefix):
        built = self._copies.get(prefix)
        if built is None or built[0] != state:
            fields = {f.name: getattr(state, f.name)
                      for f in dataclasses.fields(state)}
            built = (state, [TeamSimState(**{**fields, "team": f"{prefix}{k}"})
                             for k in range(self.n)])
            self._copies[prefix] = built
        return built[1]

    def home_wins(self, home, away, draws, seed, opts=None):
        """Home-win flags of the n copies of the home-vs-away game."""
        homes = self._copies_of(home, "H")
        (result,) = run_replications(1, homes + self._copies_of(away, "A"),
                                     self.schedule, draws, self.league, seed,
                                     opts=opts or SimOptions())
        return [result.wins[h.team] > h.wins for h in homes]
