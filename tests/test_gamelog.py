"""Ingestion tests.

The derivation check builds one synthetic season twice — once with explicit
pregame win percentages, once with raw run totals — and requires the table
derived from the raw file to reproduce the explicit columns exactly. A
property test holds the parsed records and win percentages to a plain
per-game tally (`oracles.pregame_records`) on random multi-season logs.
"""

import datetime
import io
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import pregame_records, win_pct
from pennantsim.gamelog import (
    DEFAULT_WIN_PCT,
    filter_training_window,
    latest_season,
    parse_game_log,
)

PRECOMPUTED_HEADER = ("date,home,away,home_won,home_winpct_pre,"
                      "away_winpct_pre,home_avg_pre,away_avg_pre,"
                      "home_era_pre,away_era_pre")
RAW_HEADER = ("date,home,away,home_runs,away_runs,home_avg_pre,away_avg_pre,"
              "home_era_pre,away_era_pre")


def make_log(*games, records=None, win_pcts=None):
    """Parsed log of (date, home, away, home_won) games, each with the given
    statistics (home_avg_pre, away_avg_pre, home_era_pre, away_era_pre,
    defaulting to 0.25, 0.26, 3.8, 4.1) after the first four; records, when
    given, holds each game's (home, away) W-L entering it. The log has the
    raw shape, or with win_pcts (each game's (home, away) win percentage)
    the precomputed one."""
    header = PRECOMPUTED_HEADER if win_pcts is not None else RAW_HEADER
    lines = [header + (",home_record_pre,away_record_pre"
                       if records is not None else "")]
    for i, (date, home, away, home_won, *stats) in enumerate(games):
        stats = stats or [0.25, 0.26, 3.8, 4.1]
        outcome = ",".join(map(repr, [int(home_won), *win_pcts[i]])) \
            if win_pcts is not None else ("1,0" if home_won else "0,1")
        line = f"{date},{home},{away},{outcome}," + ",".join(map(repr, stats))
        if records is not None:
            (hw, hl), (aw, al) = records[i]
            line += f",{hw}-{hl},{aw}-{al}"
        lines.append(line)
    return parse_game_log(io.StringIO("\n".join(lines) + "\n"))


def columns(log):
    """Every column of a game table as plain lists, and its source."""
    return {f.name: getattr(log, f.name) if f.name == "source"
            else getattr(log, f.name).tolist() for f in fields(log)}


# ---------------------------------------------------------------------------
# parsing


def test_parse_precomputed_shape():
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,0,0.55,0.62,0.249,0.251,4.0,3.1\n")
    log = parse_game_log(io.StringIO(text))
    assert len(log) == 2
    assert log.date.tolist()[0] == datetime.date(2024, 6, 1)
    assert (log.home[0], log.away[0]) == ("NYA", "BOS")
    assert log.home_won.tolist()[0] is True
    assert log.home_win_pct[0] == 0.6
    assert log.away_era[0] == 4.2
    assert log.home_won.tolist()[1] is False
    # the file's win percentages stand; the records are tallied
    assert log.home_win_pct[1] == 0.55
    assert log.home_record.tolist() == [[0, 0], [0, 1]]


def test_parse_raw_shape_derives_outcome():
    text = (RAW_HEADER + "\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,2,7,0.249,0.251,4.0,3.1\n")
    log = parse_game_log(io.StringIO(text))
    assert log.home_won.tolist() == [True, False]
    # the win percentages come from the records tallied from the outcomes
    assert log.home_win_pct.tolist() == [DEFAULT_WIN_PCT, 0.0]
    assert log.away_win_pct.tolist() == [DEFAULT_WIN_PCT, 1.0]


def test_parse_record_columns():
    text = (RAW_HEADER + ",home_record_pre,away_record_pre\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2,25-15,18-22\n")
    log = parse_game_log(io.StringIO(text))
    assert log.home_record.tolist() == [[25, 15]]
    assert log.away_record.tolist() == [[18, 22]]


def test_parse_empty_file_with_header():
    assert len(parse_game_log(io.StringIO(PRECOMPUTED_HEADER + "\n"))) == 0


def test_parse_row_count_matches_lines(tmp_path):
    lines = [RAW_HEADER]
    day = datetime.date(2022, 4, 1)
    for i in range(60):
        date = day + datetime.timedelta(days=i)
        lines.append(f"{date},T{i % 4},U{i % 3},{3 + i % 4},{i % 3},"
                     f"0.25,0.25,4.0,4.0")
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n")
    assert len(parse_game_log(path)) == 60


def test_parse_bad_era_names_row_and_column():
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,abc,4.2\n")
    with pytest.raises(ValueError, match=r"row 2.*home_era_pre"):
        parse_game_log(io.StringIO(text))


def test_parse_bad_date_names_row():
    text = (PRECOMPUTED_HEADER + "\n"
            "06/01/2024,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n")
    with pytest.raises(ValueError, match=r"^<stream> row 2, column 'date': "
                                         r"bad date '06/01/2024'$"):
        parse_game_log(io.StringIO(text))


def test_parse_compact_date_rejected():
    # 20240601 passes date.fromisoformat from Python 3.11 on
    text = (PRECOMPUTED_HEADER + "\n"
            "20240601,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n")
    with pytest.raises(ValueError, match=r"^<stream> row 2, column 'date': "
                                         r"bad date '20240601'$"):
        parse_game_log(io.StringIO(text))


def test_parse_unknown_team_rejected():
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,XXX,1,0.6,0.55,0.251,0.249,3.5,4.2\n")
    with pytest.raises(ValueError, match=r"row 2.*away.*unknown team 'XXX'"):
        parse_game_log(io.StringIO(text), known_teams={"NYA", "BOS"})


def test_parse_tie_score_rejected():
    text = (RAW_HEADER + "\n"
            "2024-06-01,NYA,BOS,4,4,0.251,0.249,3.5,4.2\n")
    with pytest.raises(ValueError, match=r"row 2.*tied score"):
        parse_game_log(io.StringIO(text))


@pytest.mark.parametrize("row, column, problem", [
    ("2024-06-01,NYA,BOS,٣,1,0.251,0.249,3.5,4.2,25-15,18-22",
     "home_runs", "expected a nonnegative integer, got '٣'"),
    ("2024-06-01,NYA,BOS,3,1,0.251,0.249,3.5,4.2,٣-1,18-22",
     "home_record_pre", "expected WINS-LOSSES, got '٣-1'"),
], ids=["run-total", "record"])
def test_parse_non_ascii_digits_rejected(row, column, problem):
    # str.isdecimal and int() take the Arabic-Indic digit three as 3
    text = RAW_HEADER + ",home_record_pre,away_record_pre\n" + row + "\n"
    with pytest.raises(ValueError) as exc:
        parse_game_log(io.StringIO(text))
    assert str(exc.value) == f"<stream> row 2, column '{column}': {problem}"


def test_parse_bad_header_rejected():
    text = "date,teams,stuff\n2024-06-01,a,b\n"
    with pytest.raises(ValueError, match="unrecognized game-log header"):
        parse_game_log(io.StringIO(text))


def test_parse_short_row_rejected():
    # a short row reads empty fields, so it fails on its first missing one
    text = PRECOMPUTED_HEADER + "\n2024-06-01,NYA,BOS,1,0.6\n"
    with pytest.raises(ValueError, match=r"^<stream> row 2, column "
                                         r"'away_winpct_pre': unparseable "
                                         r"value ''$"):
        parse_game_log(io.StringIO(text))


def test_parse_long_row_rejected():
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2,9\n")
    with pytest.raises(ValueError, match=r"^<stream> row 2: more fields "
                                         r"than the header's 10$"):
        parse_game_log(io.StringIO(text))


def test_round_trip_precomputed():
    # every column of the precomputed shape lands in its field unchanged
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,0,0.55,0.62,0.249,0.251,4.0,3.1\n")
    log = parse_game_log(io.StringIO(text))
    assert columns(log) == dict(
        source="<stream>",
        date=[datetime.date(2024, 6, 1), datetime.date(2024, 6, 2)],
        home=["NYA", "BOS"], away=["BOS", "NYA"], home_won=[True, False],
        home_batting_avg=[0.251, 0.249], away_batting_avg=[0.249, 0.251],
        home_era=[3.5, 4.0], away_era=[4.2, 3.1],
        home_win_pct=[0.6, 0.55], away_win_pct=[0.55, 0.62],
        home_record=[[0, 0], [0, 1]], away_record=[[0, 0], [1, 0]])


def test_round_trip_raw_with_records():
    # every column of the raw shape, W-L records included, lands in its
    # field unchanged; the outcome comes from the score
    text = (RAW_HEADER + ",home_record_pre,away_record_pre\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2,25-15,18-22\n"
            "2024-06-03,BOS,NYA,9,1,0.249,0.251,4.0,3.1,18-23,26-15\n")
    log = parse_game_log(io.StringIO(text))
    assert columns(log) == dict(
        source="<stream>",
        date=[datetime.date(2024, 6, 1), datetime.date(2024, 6, 3)],
        home=["NYA", "BOS"], away=["BOS", "NYA"], home_won=[True, True],
        home_batting_avg=[0.251, 0.249], away_batting_avg=[0.249, 0.251],
        home_era=[3.5, 4.0], away_era=[4.2, 3.1],
        home_win_pct=[25 / 40, 18 / 41], away_win_pct=[18 / 40, 26 / 41],
        home_record=[[25, 15], [18, 23]], away_record=[[18, 22], [26, 15]])


# ---------------------------------------------------------------------------
# record derivation


def test_derive_cumulative_win_pct():
    log = make_log(
        (datetime.date(2024, 4, 1), "A", "B", True),
        (datetime.date(2024, 4, 2), "A", "B", True),
        (datetime.date(2024, 4, 3), "B", "A", True),
        (datetime.date(2024, 4, 4), "A", "B", False))
    # openers: defaulted and flagged by a 0-0 record
    assert log.home_win_pct[0] == DEFAULT_WIN_PCT
    assert log.home_record[0].tolist() == [0, 0]
    # A is 2-0 and B 0-2 entering game 3
    assert log.away_win_pct[2] == 1.0
    assert log.home_win_pct[2] == 0.0
    # entering game 4: A 2-1, B 1-2
    assert log.home_win_pct[3] == pytest.approx(2 / 3)
    assert log.away_win_pct[3] == pytest.approx(1 / 3)
    assert log.home_record[3].tolist() == [2, 1]


def test_derive_explicit_record_columns():
    # 25-15 entering the game: win pct 0.625 from the stored record
    log = make_log(
        (datetime.date(2024, 6, 1), "AAA", "BBB", True),
        records=[((25, 15), (15, 25))])
    assert log.home_win_pct[0] == 0.625
    assert log.away_win_pct[0] == 0.375
    assert log.home_record[0].tolist() == [25, 15]


def test_derive_season_boundary_resets_counts():
    log = make_log(
        (datetime.date(2023, 9, 30), "A", "B", True),
        (datetime.date(2024, 4, 1), "A", "B", True))
    assert log.home_win_pct[1] == DEFAULT_WIN_PCT
    assert log.home_record[1].tolist() == [0, 0]


def simulate_season_rows(seed=0, n_teams=6, n_games=120):
    """One synthetic season emitted in both shapes: raw rows with run totals,
    and the matching explicit pregame win percentages."""
    rng = np.random.default_rng(seed)
    teams = [f"T{i}" for i in range(n_teams)]
    tally = {t: [0, 0] for t in teams}
    raw_lines = [RAW_HEADER]
    explicit_lines = [PRECOMPUTED_HEADER]
    day = datetime.date(2024, 4, 1)
    for g in range(n_games):
        home, away = rng.choice(teams, size=2, replace=False)
        date = day + datetime.timedelta(days=g // 3)
        pcts = {}
        for t in (home, away):
            w, l = tally[t]
            pcts[t] = w / (w + l) if w + l else DEFAULT_WIN_PCT
        home_runs = int(rng.integers(0, 10))
        away_runs = int(rng.integers(0, 10))
        if home_runs == away_runs:
            home_runs += 1
        stats = (f"{0.2 + 0.01 * (g % 9):.3f},{0.2 + 0.01 * (g % 7):.3f},"
                 f"{3.0 + 0.1 * (g % 20):.1f},{3.0 + 0.1 * (g % 17):.1f}")
        raw_lines.append(f"{date},{home},{away},{home_runs},{away_runs},{stats}")
        explicit_lines.append(
            f"{date},{home},{away},{int(home_runs > away_runs)},"
            f"{pcts[home]!r},{pcts[away]!r},{stats}")
        winner, loser = (home, away) if home_runs > away_runs else (away, home)
        tally[winner][0] += 1
        tally[loser][1] += 1
    return "\n".join(raw_lines) + "\n", "\n".join(explicit_lines) + "\n"


def test_derived_records_match_explicit_fixture():
    raw_text, explicit_text = simulate_season_rows(seed=7)
    derived = parse_game_log(io.StringIO(raw_text))
    explicit = parse_game_log(io.StringIO(explicit_text))
    assert len(derived) == len(explicit) == 120
    for name in ("home_win_pct", "away_win_pct", "home_won", "date", "home",
                 "away", "home_record", "away_record"):
        assert getattr(derived, name).tolist() == \
            getattr(explicit, name).tolist(), name


# Random multi-season logs: up to 40 games among five teams over three
# seasons, so a team can miss a season; each game is (season, day of the
# season, two distinct teams first, home won).
SEASON_GAMES = st.lists(st.tuples(
    st.sampled_from((2021, 2022, 2023)), st.integers(0, 150),
    st.permutations("ABCDE"), st.booleans()), max_size=40)


@settings(deadline=None)
@given(data=st.data(), games=SEASON_GAMES, with_records=st.booleans(),
       precomputed=st.booleans())
@example(data=None, with_records=False, precomputed=False, games=[
    (2021, 0, "CABDE", True), (2022, 0, "ABCDE", False),
    (2023, 5, "BCADE", True), (2023, 6, "CBADE", False)])
def test_records_and_win_pcts_match_a_per_game_tally(
        data, games, with_records, precomputed):
    games = sorted(((datetime.date(year, 4, 1) + datetime.timedelta(days=day),
                     teams[0], teams[1], won)
                    for year, day, teams, won in games), key=lambda g: g[0])
    start = None
    if with_records:
        # a log that starts mid-season: each team enters each season's
        # first logged game with a record of its own
        start = data.draw(st.fixed_dictionaries({
            (date.year, team): st.tuples(st.integers(0, 90),
                                         st.integers(0, 90))
            for date, home, away, _ in games for team in (home, away)}))
    expected = pregame_records(games, start)
    pcts = None
    if precomputed:
        pct = st.floats(0.0, 1.0)
        pcts = data.draw(st.lists(st.tuples(pct, pct), min_size=len(games),
                                  max_size=len(games)))
    log = make_log(*games, records=expected if with_records else None,
                   win_pcts=pcts)
    assert list(zip(map(tuple, log.home_record.tolist()),
                    map(tuple, log.away_record.tolist()))) == expected
    if not precomputed:
        pcts = [(win_pct(home), win_pct(away)) for home, away in expected]
    assert list(zip(log.home_win_pct.tolist(),
                    log.away_win_pct.tolist())) == pcts


# ---------------------------------------------------------------------------
# filtering


def games_on(*dates, prior_games=None):
    """A log of A-B games on the given dates; prior_games holds each game's
    (home, away) count of games played before it, about half of them won."""
    prior_games = prior_games or [(10, 10)] * len(dates)
    return make_log(
        *[(date, "A", "B", True) for date in dates],
        records=[((home // 2, home - home // 2), (away // 2, away - away // 2))
                 for home, away in prior_games])


def test_filter_window_is_inclusive():
    log = games_on(datetime.date(2024, 5, 19), datetime.date(2024, 5, 20),
                   datetime.date(2024, 8, 20), datetime.date(2024, 8, 21))
    kept = filter_training_window(log).date.tolist()
    assert [d.day for d in kept] == [20, 20]
    assert [d.month for d in kept] == [5, 8]


def test_filter_applies_per_season_year():
    log = games_on(datetime.date(2023, 6, 1), datetime.date(2024, 6, 1),
                   datetime.date(2024, 11, 1))
    kept = filter_training_window(log).date.tolist()
    assert [d.year for d in kept] == [2023, 2024]


def test_filter_min_games_drops_early_rows():
    log = games_on(datetime.date(2024, 6, 1), datetime.date(2024, 6, 2),
                   datetime.date(2024, 6, 3),
                   prior_games=[(49, 55), (50, 55), (58, 12)])
    kept = filter_training_window(log, 50).date.tolist()
    assert [d.day for d in kept] == [2]


def test_filter_idempotent_and_order_preserving():
    log = games_on(*[datetime.date(2024, 6, d) for d in (1, 3, 9)])
    # (every game inside the window: all are kept, in file order)
    once = filter_training_window(log)
    twice = filter_training_window(once)
    assert columns(once) == columns(log)
    assert columns(twice) == columns(once)


def test_filter_empty_input():
    empty = make_log()
    for min_games_played in (None, 50):
        assert len(filter_training_window(empty, min_games_played)) == 0


# ---------------------------------------------------------------------------
# latest season


def test_current_standings_latest_season_only():
    season = latest_season(make_log(
        (datetime.date(2023, 6, 1), "A", "B", True),
        (datetime.date(2024, 6, 1), "A", "B", True),
        (datetime.date(2024, 6, 2), "B", "A", True),
        (datetime.date(2024, 6, 3), "A", "B", True)))
    assert {team: (s.wins, s.losses) for team, s in season.items()} == \
        {"A": (2, 1), "B": (1, 2)}


def test_era_series_collects_both_sides():
    season = latest_season(make_log(
        (datetime.date(2024, 6, 1), "A", "B", True, 0.25, 0.26, 3.0, 4.0),
        (datetime.date(2024, 6, 2), "B", "A", True, 0.25, 0.26, 4.5, 3.5)))
    assert season["A"].eras == [3.0, 3.5]
    assert season["B"].eras == [4.0, 4.5]


def test_batting_series_collects_both_sides():
    season = latest_season(make_log(
        (datetime.date(2024, 6, 1), "A", "B", True, 0.25, 0.24, 3.8, 4.1),
        (datetime.date(2024, 6, 2), "B", "A", True, 0.26, 0.27, 3.8, 4.1)))
    # each team's latest game is on the other side from its first
    assert season["A"].batting == 0.27
    assert season["B"].batting == 0.26


def test_latest_season_of_empty_log_names_the_file():
    with pytest.raises(ValueError, match=r"^<stream>: no games"):
        latest_season(make_log())


@pytest.mark.parametrize("precomputed", [False, True],
                         ids=["raw", "precomputed"])
def test_latest_season_of_a_mid_season_log(precomputed):
    # the latest season's games start in July: a team's current record is
    # its W-L entering its last game plus that game's result, not a count
    # of the logged games
    games = [(datetime.date(2023, 9, 1), "A", "C", True),
             (datetime.date(2024, 7, 1), "A", "B", True),
             (datetime.date(2024, 7, 2), "B", "C", True),
             (datetime.date(2024, 7, 3), "A", "C", False)]
    records = [((80, 70), (70, 80)), ((50, 40), (40, 50)),
               ((40, 51), (60, 30)), ((51, 40), (60, 31))]
    season = latest_season(make_log(
        *games, records=records,
        win_pcts=[(0.5, 0.5)] * len(games) if precomputed else None))
    assert {team: (s.wins, s.losses) for team, s in season.items()} == \
        {"A": (51, 41), "B": (41, 51), "C": (61, 31)}
