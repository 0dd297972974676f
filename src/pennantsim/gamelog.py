"""Game-log ingestion: CSV parsing, pregame-record derivation, filtering.

Two input shapes are accepted. The precomputed shape carries pregame win
percentages directly; the raw shape carries final run totals instead, and
win percentages are reconstructed from each team's prior games in the same
season. Batting average and starter ERA must be supplied either way —
rebuilding them would need box scores, which are out of scope.
"""

from __future__ import annotations

import datetime
import io
import math
from dataclasses import dataclass

from .model import GameRecord

# column layouts; `*_record_pre` ("W-L") may be appended to either shape
PRECOMPUTED_COLUMNS = ("date", "home", "away", "home_won",
                       "home_winpct_pre", "away_winpct_pre",
                       "home_avg_pre", "away_avg_pre",
                       "home_era_pre", "away_era_pre")
RAW_COLUMNS = ("date", "home", "away", "home_runs", "away_runs",
               "home_avg_pre", "away_avg_pre", "home_era_pre", "away_era_pre")
RECORD_COLUMNS = ("home_record_pre", "away_record_pre")

DEFAULT_WIN_PCT = 0.5  # season openers: no prior games to take a rate from


@dataclass(frozen=True)
class RawGameRow:
    """One parsed game-log line; row_number is the 1-based file line."""

    row_number: int
    date: datetime.date
    home: str
    away: str
    home_won: bool
    home_avg_pre: float
    away_avg_pre: float
    home_era_pre: float
    away_era_pre: float
    home_runs: int | None = None
    away_runs: int | None = None
    home_winpct_pre: float | None = None
    away_winpct_pre: float | None = None
    home_record_pre: tuple[int, int] | None = None
    away_record_pre: tuple[int, int] | None = None

    def __post_init__(self):
        if self.home == self.away:
            raise ValueError(f"row {self.row_number}: home and away are both "
                             f"{self.home!r}")
        for name in ("home_avg_pre", "away_avg_pre", "home_era_pre",
                     "away_era_pre"):
            if getattr(self, name) < 0:
                raise ValueError(f"row {self.row_number}: {name} is negative")
        for name in ("home_winpct_pre", "away_winpct_pre"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"row {self.row_number}: {name} out of [0, 1]")
        for name in ("home_runs", "away_runs"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"row {self.row_number}: {name} is negative")
        for name in ("home_record_pre", "away_record_pre"):
            value = getattr(self, name)
            if value is not None and (value[0] < 0 or value[1] < 0):
                raise ValueError(f"row {self.row_number}: {name} has negative "
                                 f"counts")

    @property
    def season(self) -> int:
        """Season boundary is the calendar year of the game date."""
        return self.date.year


@dataclass(frozen=True)
class DatasetFilter:
    """Training-window filter applied per season.

    start_day/end_day are inclusive (month, day) bounds within each season's
    calendar year; min_games_played requires both teams to have that many
    prior games.
    """

    start_day: tuple[int, int] = (5, 20)
    end_day: tuple[int, int] = (8, 20)
    min_games_played: int = 0

    def __post_init__(self):
        for name in ("start_day", "end_day"):
            month, day = getattr(self, name)
            try:
                datetime.date(2000, month, day)  # leap year: permits Feb 29
            except ValueError:
                raise ValueError(f"{name} ({month}, {day}) is not a valid "
                                 f"month-day") from None
        if self.start_day > self.end_day:
            raise ValueError(f"start_day {self.start_day} is after end_day "
                             f"{self.end_day}")
        if self.min_games_played < 0:
            raise ValueError(f"min_games_played must be nonnegative, "
                             f"got {self.min_games_played}")


def date_window_filter() -> DatasetFilter:
    """Mid-season date window, no games-played requirement."""
    return DatasetFilter(start_day=(5, 20), end_day=(8, 20),
                         min_games_played=0)


def games_played_filter(min_games: int = 50) -> DatasetFilter:
    """Whole-year window keyed on games played instead of dates."""
    return DatasetFilter(start_day=(1, 1), end_day=(12, 31),
                         min_games_played=min_games)


# ---------------------------------------------------------------------------
# parsing


def _fail(source, lineno, column, problem):
    raise ValueError(f"{source} row {lineno}, column {column!r}: {problem}")


def _parse_float(raw, source, lineno, column):
    try:
        value = float(raw)
    except ValueError:
        _fail(source, lineno, column, f"unparseable value {raw!r}")
    if not math.isfinite(value):
        _fail(source, lineno, column, f"non-finite value {raw!r}")
    return value


def _parse_record(raw, source, lineno, column):
    parts = raw.split("-")
    if len(parts) == 2 and parts[0].strip().isdecimal() \
            and parts[1].strip().isdecimal():
        return int(parts[0]), int(parts[1])
    _fail(source, lineno, column, f"expected WINS-LOSSES, got {raw!r}")


def parse_game_log(source, *, known_teams=None) -> list[RawGameRow]:
    """Parse a game log from a path or a text/byte stream.

    The header picks the shape: outcome columns are either `home_won` plus
    pregame win percentages, or `home_runs,away_runs`. Every problem is
    reported with its row number and column name. With known_teams given,
    team codes outside the set are rejected.
    """
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        fh = io.StringIO(data)
        name = getattr(source, "name", "<stream>")
        return _parse_stream(fh, name, known_teams)
    with open(source, encoding="utf-8", newline="") as fh:
        return _parse_stream(fh, str(source), known_teams)


def _parse_stream(fh, name, known_teams) -> list[RawGameRow]:
    header_line = fh.readline().strip()
    header = tuple(h.strip() for h in header_line.split(","))
    if header[: len(RAW_COLUMNS)] == RAW_COLUMNS:
        raw_shape, base = True, RAW_COLUMNS
    elif header[: len(PRECOMPUTED_COLUMNS)] == PRECOMPUTED_COLUMNS:
        raw_shape, base = False, PRECOMPUTED_COLUMNS
    else:
        raise ValueError(f"{name}: unrecognized game-log header "
                         f"{header_line!r}")
    extra = header[len(base):]
    if extra not in ((), RECORD_COLUMNS):
        raise ValueError(f"{name}: unexpected trailing columns {extra}")
    has_records = extra == RECORD_COLUMNS

    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        values = [v.strip() for v in line.split(",")]
        if len(values) != len(header):
            raise ValueError(f"{name} row {lineno}: expected {len(header)} "
                             f"columns, got {len(values)}")
        cell = dict(zip(header, values))
        try:
            date = datetime.date.fromisoformat(cell["date"])
        except ValueError:
            _fail(name, lineno, "date", f"bad date {cell['date']!r}")
        home, away = cell["home"], cell["away"]
        for column, team in (("home", home), ("away", away)):
            if not team:
                _fail(name, lineno, column, "empty team code")
            if known_teams is not None and team not in known_teams:
                _fail(name, lineno, column, f"unknown team {team!r}")

        kwargs = dict(
            row_number=lineno, date=date, home=home, away=away,
            home_avg_pre=_parse_float(cell["home_avg_pre"], name, lineno,
                                      "home_avg_pre"),
            away_avg_pre=_parse_float(cell["away_avg_pre"], name, lineno,
                                      "away_avg_pre"),
            home_era_pre=_parse_float(cell["home_era_pre"], name, lineno,
                                      "home_era_pre"),
            away_era_pre=_parse_float(cell["away_era_pre"], name, lineno,
                                      "away_era_pre"),
        )
        if raw_shape:
            runs = {}
            for column in ("home_runs", "away_runs"):
                if not cell[column].isdecimal():
                    _fail(name, lineno, column,
                          f"expected a nonnegative integer, got {cell[column]!r}")
                runs[column] = int(cell[column])
            if runs["home_runs"] == runs["away_runs"]:
                _fail(name, lineno, "home_runs",
                      f"tied score {runs['home_runs']}-{runs['away_runs']} "
                      f"has no winner")
            kwargs.update(runs)
            kwargs["home_won"] = runs["home_runs"] > runs["away_runs"]
        else:
            flag = cell["home_won"]
            if flag not in ("0", "1"):
                _fail(name, lineno, "home_won",
                      f"expected 0 or 1, got {flag!r}")
            kwargs["home_won"] = flag == "1"
            kwargs["home_winpct_pre"] = _parse_float(
                cell["home_winpct_pre"], name, lineno, "home_winpct_pre")
            kwargs["away_winpct_pre"] = _parse_float(
                cell["away_winpct_pre"], name, lineno, "away_winpct_pre")
        if has_records:
            kwargs["home_record_pre"] = _parse_record(
                cell["home_record_pre"], name, lineno, "home_record_pre")
            kwargs["away_record_pre"] = _parse_record(
                cell["away_record_pre"], name, lineno, "away_record_pre")
        try:
            rows.append(RawGameRow(**kwargs))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# record derivation


def derive_pregame_records(rows: list[RawGameRow]) -> list[GameRecord]:
    """Turn parsed rows into model-layer game records.

    Rows must be date-sorted. Pregame win percentages are taken from the file
    when present; otherwise each team's prior wins and losses in the same
    season (calendar year) are accumulated, with 0.5 standing in before a
    team's first game — those rows are flagged by a prior-game count of zero.
    """
    for prev, cur in zip(rows, rows[1:]):
        if cur.date < prev.date:
            raise ValueError(f"rows not sorted by date: row {cur.row_number} "
                             f"({cur.date}) follows {prev.date}")
    # (season, team) -> [wins, losses]
    tallies: dict[tuple[int, str], list[int]] = {}
    records = []
    for row in rows:
        season = row.season
        sides = {}
        for team, given_pct, given_record in (
                (row.home, row.home_winpct_pre, row.home_record_pre),
                (row.away, row.away_winpct_pre, row.away_record_pre)):
            wins, losses = tallies.setdefault((season, team), [0, 0])
            if given_record is not None:
                wins, losses = given_record
            games = wins + losses
            if given_pct is not None:
                pct = given_pct
            elif games == 0:
                pct = DEFAULT_WIN_PCT
            else:
                pct = wins / games
            sides[team] = (pct, games)
        records.append(GameRecord(
            date=row.date, home_team=row.home, away_team=row.away,
            home_win_pct=sides[row.home][0], away_win_pct=sides[row.away][0],
            home_batting_avg=row.home_avg_pre,
            away_batting_avg=row.away_avg_pre,
            home_era=row.home_era_pre, away_era=row.away_era_pre,
            home_won=row.home_won,
            home_prior_games=sides[row.home][1],
            away_prior_games=sides[row.away][1]))
        tallies[(season, row.home)][0 if row.home_won else 1] += 1
        tallies[(season, row.away)][1 if row.home_won else 0] += 1
    return records


def filter_training_window(records: list[GameRecord],
                           flt: DatasetFilter) -> list[GameRecord]:
    """Keep records inside the filter's month-day window of their own season
    with both teams at or past the minimum prior-game count. Order-preserving
    and idempotent."""
    kept = []
    for record in records:
        year = record.date.year
        start = datetime.date(year, *flt.start_day)
        end = datetime.date(year, *flt.end_day)
        if not start <= record.date <= end:
            continue
        if flt.min_games_played > 0:
            if record.home_prior_games is None \
                    or record.away_prior_games is None:
                raise ValueError(
                    f"{record.date} {record.home_team}-{record.away_team}: "
                    f"prior-game counts unknown; a minimum-games filter needs "
                    f"records derived with pregame win-loss information")
            if min(record.home_prior_games,
                   record.away_prior_games) < flt.min_games_played:
                continue
        kept.append(record)
    return kept


def current_standings(rows: list[RawGameRow]) -> dict[str, tuple[int, int]]:
    """(wins, losses) per team in the latest season of the log, counting
    every outcome in that season."""
    if not rows:
        raise ValueError("empty game log")
    season = max(row.season for row in rows)
    tally: dict[str, list[int]] = {}
    for row in rows:
        if row.season != season:
            continue
        home = tally.setdefault(row.home, [0, 0])
        away = tally.setdefault(row.away, [0, 0])
        if row.home_won:
            home[0] += 1
            away[1] += 1
        else:
            home[1] += 1
            away[0] += 1
    return {team: (w, l) for team, (w, l) in tally.items()}


def era_series(rows: list[RawGameRow]) -> dict[str, list[float]]:
    """Chronological starter-ERA series per team (home and away games both
    contribute the team's own starter), from the latest season of the log."""
    if not rows:
        raise ValueError("empty game log")
    season = max(row.season for row in rows)
    series: dict[str, list[float]] = {}
    for row in rows:
        if row.season != season:
            continue
        series.setdefault(row.home, []).append(row.home_era_pre)
        series.setdefault(row.away, []).append(row.away_era_pre)
    return series


def batting_series(rows: list[RawGameRow]) -> dict[str, list[float]]:
    """Chronological pregame batting-average series per team from the latest
    season of the log."""
    if not rows:
        raise ValueError("empty game log")
    season = max(row.season for row in rows)
    series: dict[str, list[float]] = {}
    for row in rows:
        if row.season != season:
            continue
        series.setdefault(row.home, []).append(row.home_avg_pre)
        series.setdefault(row.away, []).append(row.away_avg_pre)
    return series
