"""Input files: the one CSV reader, its field converters, and the game log
from its file to the fit.

Two input shapes are accepted. The precomputed shape carries pregame win
percentages directly; the raw shape carries final run totals instead, and
win percentages are reconstructed from each team's W-L record entering the
game. Batting average and starter ERA must be supplied either way —
rebuilding them would need box scores, which are out of scope.

Every reader converts and checks each field in one loop, by its column's
converter, and reports a problem as `{file} row N, column 'C': {problem}`.
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


def _read_rows(source):
    """Split a CSV file at a path (read as UTF-8, skipping a leading
    byte-order mark) or in a text stream: yields its name, header line and
    header names, then (line number, fields) for each data row. Every comma
    splits (no quoting); names and fields are stripped, blank lines
    skipped, a short row gets empty fields, and a file that cannot be
    opened, a long row or an undecodable byte is an error naming the
    file."""
    if hasattr(source, "read"):
        name, opened = getattr(source, "name", "<stream>"), nullcontext(source)
    else:
        name = str(source)
        try:
            opened = open(source, encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise ValueError(f"{name}: cannot open: {exc.strerror}") from None
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
    names the given columns, each field converted by the function columns
    maps its column to (see `_converted`)."""
    rows = _read_rows(source)
    name, _, header = next(rows)
    if not set(columns) <= set(header):
        raise ValueError(f"{name}: {what} header must contain "
                         f"{sorted(columns)}")
    yield from _converted(name, header, rows, columns)


def _converted(name, header, rows, columns):
    """(line number, values) for each of rows, `_read_rows`' data rows under
    header: each of columns' fields converted by its function, in columns'
    order. The ValueError a function raises is the problem reported with
    the file, the row and the column."""
    at = {column: i for i, column in enumerate(header)}   # last one wins
    plan = [(column, at[column], convert)
            for column, convert in columns.items()]
    for lineno, fields in rows:
        values = []
        for column, i, convert in plan:
            try:
                values.append(convert(fields[i]))
            except ValueError as exc:
                raise ValueError(f"{name} row {lineno}, column {column!r}: "
                                 f"{exc}") from None
        yield lineno, values


# Converters: each takes a stripped field and returns its value, or raises
# ValueError with the problem.


@lru_cache(maxsize=1024)   # a log repeats each date for every game that day
def parse_date(field: str) -> datetime.date:
    """A YYYY-MM-DD date, the one form taken on every Python version."""
    try:
        date = datetime.date.fromisoformat(field)
        if date.isoformat() == field:
            return date
    except ValueError:
        pass
    raise ValueError(f"bad date {field!r}")


def team_code(known_teams=None):
    """The converter of a team code: any nonempty field, or with
    known_teams given, one in the set."""
    def convert(field):
        if not field:
            raise ValueError("empty team code")
        if known_teams is not None and field not in known_teams:
            raise ValueError(f"unknown team {field!r}")
        return field
    return convert


def nonempty(field: str) -> str:
    if not field:
        raise ValueError("empty value")
    return field


def one_of(*choices):
    """The converter of a field that must be one of choices."""
    def convert(field):
        if field not in choices:
            raise ValueError(f"expected {' or '.join(choices)}, "
                             f"got {field!r}")
        return field
    return convert


def _digits(text: str) -> bool:
    """Whether text is one or more ASCII digits; str.isdecimal alone also
    takes other scripts' digits, such as Arabic-Indic '٣'."""
    return text.isascii() and text.isdecimal()


def count(field: str) -> int:
    if not _digits(field):
        raise ValueError(f"expected a nonnegative integer, got {field!r}")
    return int(field)


def finite(field: str) -> float:
    """A finite number in float's syntax, in ASCII and without the `_`
    digit separators float also takes."""
    try:
        if not field.isascii() or "_" in field:
            raise ValueError
        value = float(field)
    except ValueError:
        raise ValueError(f"unparseable value {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def bounded(in_range, problem: str):
    """The converter of a finite number that in_range accepts; problem is
    what a number it refuses is."""
    def convert(field):
        value = finite(field)
        if not in_range(value):
            raise ValueError(f"{problem}: {value!r}")
        return value
    return convert


def record(field: str) -> tuple[int, int]:
    """A WINS-LOSSES record."""
    parts = field.split("-")
    if len(parts) == 2 and _digits(parts[0].strip()) \
            and _digits(parts[1].strip()):
        return int(parts[0]), int(parts[1])
    raise ValueError(f"expected WINS-LOSSES, got {field!r}")


nonnegative = bounded(lambda value: value >= 0.0, "negative")
_WIN_PCT = bounded(lambda value: 0.0 <= value <= 1.0, "out of [0, 1]")
_BATTING = bounded(lambda value: 0.0 < value < 1.0, "out of (0, 1)")
# statistic column -> (GameLog field, converter)
STAT_COLUMNS = {
    "home_winpct_pre": ("home_win_pct", _WIN_PCT),
    "away_winpct_pre": ("away_win_pct", _WIN_PCT),
    "home_avg_pre": ("home_batting_avg", _BATTING),
    "away_avg_pre": ("away_batting_avg", _BATTING),
    "home_era_pre": ("home_era", nonnegative),
    "away_era_pre": ("away_era", nonnegative),
}
# the converter of each game-log column after date, home and away
LOG_CONVERTERS = {"home_runs": count, "away_runs": count,
                  "home_won": one_of("0", "1"),
                  **{column: convert
                     for column, (_, convert) in STAT_COLUMNS.items()},
                  **dict.fromkeys(RECORD_COLUMNS, record)}


def check_game(name, lineno, previous, date, home, away):
    """The checks across the fields of a row of games, in a game log or a
    schedule: its date is not before previous, the last row's (None on
    the first row), and its two teams differ."""
    if previous is not None and date < previous:
        raise ValueError(f"{name} row {lineno}, column 'date': {date} is "
                         f"before the previous row's {previous}; rows must "
                         f"be sorted by date")
    if home == away:
        raise ValueError(f"{name} row {lineno}, column 'away': home and away "
                         f"are both {home!r}")


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
    team = team_code(known_teams)
    columns = {"date": parse_date, "home": team, "away": team,
               **{column: LOG_CONVERTERS[column] for column in header[3:]}}
    games, previous = [], None
    for lineno, game in _converted(name, header, rows, columns):
        check_game(name, lineno, previous, *game[:3])
        if raw_shape and game[3] == game[4]:
            raise ValueError(f"{name} row {lineno}, column 'home_runs': tied "
                             f"score {game[3]}-{game[4]} has no winner")
        games.append(game)
        previous = game[0]
    table = dict(zip(columns, zip(*games))) if games \
        else dict.fromkeys(columns, ())
    return derive_pregame_records(dict(
        source=name,
        date=np.array(table["date"], dtype="datetime64[D]"),
        home=np.array(table["home"], dtype=object),
        away=np.array(table["away"], dtype=object),
        home_won=np.greater(table["home_runs"], table["away_runs"])
        if raw_shape else np.array(table["home_won"], dtype="U1") == "1",
        **{field: np.array(table[column], dtype=float)
           for column, (field, _) in STAT_COLUMNS.items() if column in table},
        **{column.removesuffix("_pre"): np.array(table[column],
                                                 dtype=int).reshape(-1, 2)
           for column in extra}))


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


def filter_training_window(log: GameLog,
                           min_games_played: int | None = None) -> GameLog:
    """The games of a log that train the fit: with min_games_played None,
    those inside TRAINING_WINDOW of their own season; otherwise those where
    both teams have played at least min_games_played games before.
    Order-preserving and idempotent."""
    if min_games_played is not None:
        played = np.minimum(log.home_record.sum(1), log.away_record.sum(1))
        return log.take(played >= min_games_played)
    season = _seasons(log.date)
    start, end = ((season + np.timedelta64(month - 1, "M")).astype(
        "datetime64[D]") + (day - 1) for month, day in TRAINING_WINDOW)
    return log.take((start <= log.date) & (log.date <= end))


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
    for team in sorted({*latest.home.tolist(), *latest.away.tolist()}):
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
