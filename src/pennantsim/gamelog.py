"""Input files: the one CSV reader, and the game log from its file to the fit.

Two input shapes are accepted. The precomputed shape carries pregame win
percentages directly; the raw shape carries final run totals instead, and
win percentages are reconstructed from each team's W-L record entering the
game. Batting average and starter ERA must be supplied either way —
rebuilding them would need box scores, which are out of scope.

The parser is the one place a log is checked: every value's format, range
and finiteness, the team codes and the date order. Everything downstream
takes the `GameLog` it returns as valid.
"""

from __future__ import annotations

import datetime
import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

# column layouts; `*_record_pre` ("W-L") may be appended to either shape
PRECOMPUTED_COLUMNS = ("date", "home", "away", "home_won",
                       "home_winpct_pre", "away_winpct_pre",
                       "home_avg_pre", "away_avg_pre",
                       "home_era_pre", "away_era_pre")
RAW_COLUMNS = ("date", "home", "away", "home_runs", "away_runs",
               "home_avg_pre", "away_avg_pre", "home_era_pre", "away_era_pre")
RECORD_COLUMNS = ("home_record_pre", "away_record_pre")


# range checks: (test, what a value failing it is)
_WIN_PCT = (lambda value: 0.0 <= value <= 1.0, "out of [0, 1]")
_BATTING = (lambda value: 0.0 < value < 1.0, "out of (0, 1)")
_ERA = (lambda value: value >= 0.0, "negative")
# statistic column -> (GameLog field, test, problem)
STAT_COLUMNS = {
    "home_winpct_pre": ("home_win_pct", *_WIN_PCT),
    "away_winpct_pre": ("away_win_pct", *_WIN_PCT),
    "home_avg_pre": ("home_batting_avg", *_BATTING),
    "away_avg_pre": ("away_batting_avg", *_BATTING),
    "home_era_pre": ("home_era", *_ERA),
    "away_era_pre": ("away_era", *_ERA),
}

DEFAULT_WIN_PCT = 0.5  # season openers: no prior games to take a rate from
# The paper's training window in each season, inclusive: May 20 to Aug 20.
TRAINING_WINDOW = ((5, 20), (8, 20))


@dataclass(frozen=True)
class GameLog:
    """A game log as equal-length columns, one entry per game, in file order.

    `source` names the file. Each side's record is its (wins, losses)
    entering the game in its season, and its win percentage the file's own
    (precomputed shape) or that record's; see `derive_pregame_records`.
    """

    source: str
    date: np.ndarray               # datetime64[D], non-decreasing
    home: np.ndarray
    away: np.ndarray
    home_won: np.ndarray
    home_batting_avg: np.ndarray
    away_batting_avg: np.ndarray
    home_era: np.ndarray
    away_era: np.ndarray
    home_win_pct: np.ndarray
    away_win_pct: np.ndarray
    home_record: np.ndarray        # (n, 2) ints: wins, losses
    away_record: np.ndarray

    def __len__(self) -> int:
        return len(self.date)

    def take(self, keep: np.ndarray) -> GameLog:
        """The games where the boolean mask is set, in order."""
        return replace(self, **{f.name: getattr(self, f.name)[keep]
                                for f in fields(self) if f.name != "source"})


@dataclass(frozen=True)
class DatasetFilter:
    """Which games train the fit: with date_window, those inside
    TRAINING_WINDOW of their own season; and those where both teams have
    played at least min_games_played games before."""

    date_window: bool = True
    min_games_played: int = 0


@dataclass(frozen=True)
class TeamSeason:
    """One team's latest season in a game log: its record, its own starter
    ERA game by game in date order, and its latest pregame batting average."""

    wins: int
    losses: int
    eras: list[float]
    batting: float

    @property
    def games(self) -> int:
        return self.wins + self.losses


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


def _read_rows(source):
    """Split a CSV file at a path (read as UTF-8, skipping a leading
    byte-order mark) or in a text stream: yields its name, header line and
    header names, then (line number, fields) for each data row. Every comma
    splits (no quoting); names and fields are stripped, blank lines
    skipped, a short row gets empty fields, and a long row or an
    undecodable byte is an error naming the file."""
    if hasattr(source, "read"):
        name, opened = getattr(source, "name", "<stream>"), nullcontext(source)
    else:
        name = str(source)
        opened = open(source, encoding="utf-8-sig", newline="")
    with opened as fh:
        try:
            line = fh.readline().strip()
            names = tuple(n.strip() for n in line.split(","))
            yield name, line, names
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                values = [v.strip() for v in line.split(",")]
                if len(values) > len(names):
                    raise ValueError(f"{name} row {lineno}: more fields than "
                                     f"the header's {len(names)}")
                if len(values) < len(names):
                    values += [""] * (len(names) - len(values))
                yield lineno, values
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}: not UTF-8 text: {exc.reason} "
                             f"{exc.object[exc.start:exc.end]!r}") from None


def csv_rows(source, columns: dict, what: str):
    """(line number, values) for each data row of a CSV file whose header
    names the given columns, each converted by the type columns maps it to;
    an empty or unconvertible field is an error naming the row."""
    rows = _read_rows(source)
    name, _, header = next(rows)
    if not set(columns) <= set(header):
        raise ValueError(f"{name}: {what} header must contain "
                         f"{sorted(columns)}")
    at = {column: i for i, column in enumerate(header)}   # last one wins
    for lineno, fields in rows:
        values = []
        for column, kind in columns.items():
            field = fields[at[column]]
            if not field:
                raise ValueError(f"{name} row {lineno}: missing {column}")
            try:
                values.append(kind(field))
            except ValueError:
                raise ValueError(f"{name} row {lineno}: bad {column} "
                                 f"{field!r}") from None
        yield lineno, values


@lru_cache(maxsize=1024)   # a log repeats each date for every game that day
def parse_date(text: str) -> datetime.date:
    """A YYYY-MM-DD date, the one form taken on every Python version."""
    date = datetime.date.fromisoformat(text)
    if date.isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date


def parse_game_log(source, *, known_teams=None) -> GameLog:
    """Parse and check a game log from a path or a text stream.

    The header picks the shape: outcome columns are either `home_won` plus
    pregame win percentages, or `home_runs,away_runs`. The first problem in
    file order is reported with the file, its row number and column name.
    With known_teams given, team codes outside the set are rejected.
    """
    rows = _read_rows(source)
    name, header_line, header = next(rows)
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
    stats = {column: [] for column in STAT_COLUMNS if column in header}
    records = {column: [] for column in extra}
    dates, homes, aways, home_won = [], [], [], []

    for lineno, values in rows:
        cell = dict(zip(header, values))
        try:
            date = parse_date(cell["date"])
        except ValueError:
            _fail(name, lineno, "date", f"bad date {cell['date']!r}")
        if dates and date < dates[-1]:
            _fail(name, lineno, "date", f"{date} is before the previous "
                                        f"row's {dates[-1]}; rows must be "
                                        f"sorted by date")
        home, away = cell["home"], cell["away"]
        for column, team in (("home", home), ("away", away)):
            if not team:
                _fail(name, lineno, column, "empty team code")
            if known_teams is not None and team not in known_teams:
                _fail(name, lineno, column, f"unknown team {team!r}")
        if home == away:
            _fail(name, lineno, "away", f"home and away are both {home!r}")

        if raw_shape:
            runs = []
            for column in ("home_runs", "away_runs"):
                if not cell[column].isdecimal():
                    _fail(name, lineno, column,
                          f"expected a nonnegative integer, got {cell[column]!r}")
                runs.append(int(cell[column]))
            if runs[0] == runs[1]:
                _fail(name, lineno, "home_runs",
                      f"tied score {runs[0]}-{runs[1]} has no winner")
            won = runs[0] > runs[1]
        else:
            flag = cell["home_won"]
            if flag not in ("0", "1"):
                _fail(name, lineno, "home_won",
                      f"expected 0 or 1, got {flag!r}")
            won = flag == "1"
        for column, series in stats.items():
            value = _parse_float(cell[column], name, lineno, column)
            _, in_range, problem = STAT_COLUMNS[column]
            if not in_range(value):
                _fail(name, lineno, column, f"{problem}: {value!r}")
            series.append(value)
        for column, series in records.items():
            series.append(_parse_record(cell[column], name, lineno, column))
        dates.append(date)
        homes.append(home)
        aways.append(away)
        home_won.append(won)

    return derive_pregame_records(dict(
        source=name,
        date=np.array(dates, dtype="datetime64[D]"),
        home=np.array(homes, dtype=object), away=np.array(aways, dtype=object),
        home_won=np.array(home_won, dtype=bool),
        **{STAT_COLUMNS[column][0]: np.array(series, dtype=float)
           for column, series in stats.items()},
        **{column.removesuffix("_pre"): np.array(series,
                                                 dtype=int).reshape(-1, 2)
           for column, series in records.items()}))


# ---------------------------------------------------------------------------
# pregame records, training window, latest season


def _seasons(dates: np.ndarray) -> np.ndarray:
    """Season of each date: its calendar year, as datetime64[Y]."""
    return dates.astype("datetime64[Y]")


def derive_pregame_records(columns: dict) -> GameLog:
    """The complete `GameLog` of a parsed log's {`GameLog` field: column}.

    Each side's W-L record entering the game is the file's, when its header
    has the record columns, or else tallied from the log's own games in the
    same season (calendar year). Win percentages, unless the file gives
    them, are wins / games, or 0.5 before a team's first game."""
    if "home_record" in columns:
        record = np.stack([columns["home_record"], columns["away_record"]], 1)
    else:
        # one entry per side of each game, in file order; grouped by (season,
        # team) in that order, each entry counts its group's earlier games
        sides = np.column_stack([columns["home"], columns["away"]]).ravel()
        home_won = columns["home_won"]
        won = np.column_stack([home_won, ~home_won]).ravel()
        _, season = np.unique(_seasons(columns["date"]), return_inverse=True)
        number = {}   # team -> its number, in order of first appearance
        team = np.array([number.setdefault(t, len(number))
                         for t in sides.tolist()], dtype=int)
        key = np.repeat(season, 2) * len(number) + team
        order = np.argsort(key, kind="stable")
        start = np.searchsorted(key[order], key[order])   # group's first
        wins_before = np.cumsum(won[order]) - won[order]
        record = np.empty((len(order), 2), dtype=int)
        record[order, 0] = wins_before - wins_before[start]
        record[order, 1] = np.arange(len(order)) - start - record[order, 0]
        record = record.reshape(-1, 2, 2)   # game, side, (wins, losses)
    games = record.sum(axis=2)
    win_pct = np.divide(record[..., 0], games, where=games > 0,
                        out=np.full(games.shape, DEFAULT_WIN_PCT))
    return GameLog(**{"home_win_pct": win_pct[:, 0],
                      "away_win_pct": win_pct[:, 1], **columns,
                      "home_record": record[:, 0],
                      "away_record": record[:, 1]})


def filter_training_window(log: GameLog, flt: DatasetFilter) -> GameLog:
    """The games of a log that pass the filter. Order-preserving and
    idempotent."""
    keep = np.ones(len(log), dtype=bool)
    if flt.date_window:
        season = _seasons(log.date)
        start, end = ((season + np.timedelta64(month - 1, "M")).astype(
            "datetime64[D]") + (day - 1) for month, day in TRAINING_WINDOW)
        keep &= (start <= log.date) & (log.date <= end)
    if flt.min_games_played > 0:
        played = np.minimum(log.home_record.sum(1), log.away_record.sum(1))
        keep &= played >= flt.min_games_played
    return log.take(keep)


def require_games(log: GameLog) -> GameLog:
    """The log itself; a log with a header and no games is refused, with
    its file named."""
    if not len(log):
        raise ValueError(f"{log.source}: no games in the game log")
    return log


def latest_season(log: GameLog) -> dict[str, TeamSeason]:
    """Each team's `TeamSeason` in the latest season of the log: its record
    is the one entering its last game plus that game's result; a team's
    home and away games both contribute its own side's statistics."""
    season = _seasons(require_games(log).date)
    latest = log.take(season == season.max())
    teams = {}
    for team in np.unique(np.concatenate([latest.home, latest.away])):
        at_home = latest.home == team
        plays = at_home | (latest.away == team)
        last = np.flatnonzero(plays)[-1]
        side = "home" if at_home[last] else "away"
        won = int(latest.home_won[last] == at_home[last])
        wins, losses = getattr(latest, f"{side}_record")[last].tolist()
        teams[team] = TeamSeason(
            wins=wins + won, losses=losses + 1 - won,
            eras=np.where(at_home, latest.home_era,
                          latest.away_era)[plays].tolist(),
            batting=getattr(latest, f"{side}_batting_avg")[last].item())
    return teams
