"""Property tests for the input readers: any rows under a valid header either
parse or fail with a ValueError that names the file (and the row, when one
row is at fault), never with another exception type. A game log that parses
also goes through the fit's `filter_training_window` in both filter modes,
under the same rule. The minimal failing inputs the properties found are
pinned as explicit tests below.
"""

import io
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pennantsim.cli import RunConfig, parse_config_file
from pennantsim.gamelog import (PRECOMPUTED_COLUMNS, RAW_COLUMNS,
                                RECORD_COLUMNS, filter_training_window,
                                parse_game_log)
from pennantsim.season import read_league_csv, read_schedule_csv

LEAGUE_COLUMNS = ("league", "division", "team")
SCHEDULE_COLUMNS = ("date", "home", "away")
GAME_LOG_HEADERS = (RAW_COLUMNS, PRECOMPUTED_COLUMNS,
                    RAW_COLUMNS + RECORD_COLUMNS,
                    PRECOMPUTED_COLUMNS + RECORD_COLUMNS)

# Text that can be written to a UTF-8 file: any character but a surrogate.
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# Values a real file holds, and near misses of them.
PLAUSIBLE = st.sampled_from(["", "E", "W", "N", "AAA", "BBB", "2024-08-01",
                             "2024-07-31", "0", "1", "3", "0.25", "4.1", "-1",
                             "nan", "inf", "10-5", "²", "٣"])
FIELD = st.one_of(PLAUSIBLE, ANY_TEXT)
# A good value per column, so that rows can get past the early checks.
GOOD = {"league": "E", "division": "N", "team": "AAA", "date": "2024-08-01",
        "home": "AAA", "away": "BBB", "home_runs": "3", "away_runs": "1",
        "home_won": "1", "home_winpct_pre": "0.5", "away_winpct_pre": "0.5",
        "home_avg_pre": "0.25", "away_avg_pre": "0.25", "home_era_pre": "4.1",
        "away_era_pre": "3.9", "home_record_pre": "10-5",
        "away_record_pre": "5-10"}


def rows_under(header):
    """Up to four rows: each has any number of any fields, or is a good row
    with up to two of its fields swapped for any field."""
    good = [GOOD[c] for c in header]
    any_row = st.lists(FIELD, max_size=len(header) + 2)
    near_row = st.dictionaries(st.integers(0, len(header) - 1), FIELD,
                               max_size=2).map(
        lambda swaps: [swaps.get(i, v) for i, v in enumerate(good)])
    return st.lists(st.one_of(any_row, near_row), max_size=4)


def join(header, rows):
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def read_or_error(read, source, name):
    """read(source), or the ValueError it raised, which must name the file,
    and the row when one row is at fault."""
    try:
        return read(source)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(name))}(: | row \d+[:,])",
                        str(exc)), str(exc)
        return exc


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.csv"


@settings(deadline=None)
@given(rows=rows_under(LEAGUE_COLUMNS))
@example(rows=[["E", "N", "A\x00A"]])
def test_league_reader_parses_or_names_the_row(csv_path, rows):
    csv_path.write_text(join(LEAGUE_COLUMNS, rows), encoding="utf-8")
    read_or_error(read_league_csv, csv_path, csv_path)


@settings(deadline=None)
@given(rows=rows_under(SCHEDULE_COLUMNS))
@example(rows=[["2024-08-01", "A\x00A", "BBB"]])
def test_schedule_reader_parses_or_names_the_row(csv_path, rows):
    csv_path.write_text(join(SCHEDULE_COLUMNS, rows), encoding="utf-8")
    read_or_error(read_schedule_csv, csv_path, csv_path)


@settings(deadline=None)
@given(data=st.data(), header=st.sampled_from(GAME_LOG_HEADERS))
def test_game_log_parser_parses_or_names_the_row(data, header):
    rows = data.draw(rows_under(header))
    log = read_or_error(parse_game_log, io.StringIO(join(header, rows)),
                        "<stream>")
    if isinstance(log, ValueError):
        return
    for min_games_played in (None, RunConfig().min_games):
        read_or_error(lambda table: filter_training_window(
            table, min_games_played), log, "<stream>")


# ---------------------------------------------------------------------------
# pinned examples


def test_short_league_row_names_the_row(csv_path):
    csv_path.write_text("league,division,team\nE,N,AAA\nE,N\n")
    with pytest.raises(ValueError, match=r"row 3, column 'team': empty "
                                         r"team code$"):
        read_league_csv(csv_path)


def test_long_league_row_names_the_row(csv_path):
    # DictReader files surplus fields under None; the team must not vanish
    csv_path.write_text("league,division,team\nE,N,AAA,BBB\nE,N,CCC\n")
    with pytest.raises(ValueError, match=r"row 2: more fields"):
        read_league_csv(csv_path)


def test_short_schedule_row_names_the_row(csv_path):
    csv_path.write_text("date,home,away\n2024-08-01,A\n")
    with pytest.raises(ValueError, match=r"row 2, column 'away': empty "
                                         r"team code$"):
        read_schedule_csv(csv_path)


def test_superscript_run_total_names_the_row():
    # "²".isdigit() holds but int("²") fails
    text = join(RAW_COLUMNS, [["2024-08-01", "AAA", "BBB", "²", "1", "0.25",
                               "0.25", "4.1", "3.9"]])
    with pytest.raises(ValueError, match=r"row 2, column 'home_runs'"):
        parse_game_log(io.StringIO(text))


def test_superscript_record_names_the_row():
    text = join(PRECOMPUTED_COLUMNS + RECORD_COLUMNS,
                [["2024-08-01", "AAA", "BBB", "1", "0.5", "0.5", "0.25",
                  "0.25", "4.1", "3.9", "²-1", "5-10"]])
    with pytest.raises(ValueError, match=r"row 2, column 'home_record_pre'"):
        parse_game_log(io.StringIO(text))


def test_zero_batting_average_names_the_row():
    # a zero average is not a usable batting ratio; the parser refuses it
    text = join(RAW_COLUMNS, [["2024-08-01", "AAA", "BBB", "3", "1", "0",
                               "0.25", "4.1", "3.9"]])
    with pytest.raises(ValueError, match=r"^<stream> row 2, column "
                                         r"'home_avg_pre': out of \(0, 1\)"):
        parse_game_log(io.StringIO(text))


def test_unsorted_date_names_the_row():
    text = join(RAW_COLUMNS, [
        ["2024-08-01", "AAA", "BBB", "3", "1", "0.25", "0.25", "4.1", "3.9"],
        ["2024-07-31", "AAA", "BBB", "3", "1", "0.25", "0.25", "4.1", "3.9"]])
    with pytest.raises(ValueError, match=r"^<stream> row 3, column 'date': "
                                         r".*sorted by date"):
        parse_game_log(io.StringIO(text))


def test_non_finite_stat_names_the_row():
    text = join(RAW_COLUMNS, [["2024-08-01", "AAA", "BBB", "3", "1", "0.25",
                               "0.25", "nan", "3.9"]])
    with pytest.raises(ValueError,
                       match=r"row 2, column 'home_era_pre': non-finite"):
        parse_game_log(io.StringIO(text))


@pytest.mark.parametrize("read, text", [
    (read_league_csv, "league,division,team\nE,N,AAA\nE,N,BBB\n"),
    (parse_game_log, join(RAW_COLUMNS + RECORD_COLUMNS, [
        ["2024-08-01", "AAA", "BBB", "3", "1", "0.25", "0.25", "4.1", "3.9",
         "10-5", "5-10"]])),
    (parse_config_file, "seed = 3\nreplications = 40\n"),
], ids=["league", "game-log", "config"])
def test_byte_order_mark_is_skipped(tmp_path, read, text):
    # spreadsheet programs save UTF-8 text with a leading byte-order mark;
    # such a file reads the same as one without
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")

    def shown(path):   # every field read, with the file's name replaced
        value = read(path)
        return repr(getattr(value, "__dict__", value)).replace(str(path), "F")

    assert shown(marked) == shown(plain)


def test_unequal_divisions_name_the_file(csv_path):
    csv_path.write_text("league,division,team\nE,N,AAA\nE,N,BBB\nE,S,CCC\n")
    with pytest.raises(ValueError, match="unequal division sizes") as info:
        read_league_csv(csv_path)
    assert str(info.value).startswith(f"{csv_path}: ")


def test_duplicate_league_team_names_the_second_row(csv_path):
    csv_path.write_text("league,division,team\nE,N,AAA\nE,N,BBB\n"
                        "E,S,AAA\n")
    with pytest.raises(ValueError, match=r"row 4: team 'AAA' appears in "
                                         r"both E/N and E/S \(first listed "
                                         r"on row 2\)"):
        read_league_csv(csv_path)
