"""Game tables for tests, built the way the program builds them: written as
a precomputed-shape game log and read back through `parse_game_log`, which
checks every game. Floats are written with repr, so they read back exactly.
"""

import datetime
import io

from pennantsim.gamelog import PRECOMPUTED_COLUMNS, parse_game_log

# An even matchup: every strength ratio is 1.
EVEN_GAME = dict(home="HME", away="AWY", home_won=True, home_win_pct=0.5,
                 away_win_pct=0.5, home_batting_avg=0.25,
                 away_batting_avg=0.25, home_era=4.0, away_era=4.0)
_STATS = ("home_win_pct", "away_win_pct", "home_batting_avg",
          "away_batting_avg", "home_era", "away_era")


def game_table(games, *, start=datetime.date(2024, 5, 1)):
    """The parsed `GameLog` of games given as dicts over EVEN_GAME's keys;
    a key left out keeps its EVEN_GAME value. Fifteen games a day from
    start, in the given order."""
    lines = [",".join(PRECOMPUTED_COLUMNS)]
    for i, game in enumerate(games):
        g = {**EVEN_GAME, **game}
        date = start + datetime.timedelta(days=i // 15)
        stats = ",".join(repr(float(g[name])) for name in _STATS)
        lines.append(f"{date},{g['home']},{g['away']},{int(g['home_won'])},"
                     f"{stats}")
    return parse_game_log(io.StringIO("\n".join(lines) + "\n"))
