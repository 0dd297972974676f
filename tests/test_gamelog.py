"""Ingestion tests.

The derivation check builds one synthetic season twice — once with explicit
pregame win percentages, once with raw run totals — and requires the records
derived from the raw file to reproduce the explicit columns exactly.
"""

import datetime
import io

import numpy as np
import pytest

from pennantsim.gamelog import (
    DEFAULT_WIN_PCT,
    DatasetFilter,
    RawGameRow,
    batting_series,
    current_standings,
    date_window_filter,
    derive_pregame_records,
    era_series,
    filter_training_window,
    games_played_filter,
    parse_game_log,
)
from pennantsim.model import GameRecord

PRECOMPUTED_HEADER = ("date,home,away,home_won,home_winpct_pre,"
                      "away_winpct_pre,home_avg_pre,away_avg_pre,"
                      "home_era_pre,away_era_pre")
RAW_HEADER = ("date,home,away,home_runs,away_runs,home_avg_pre,away_avg_pre,"
              "home_era_pre,away_era_pre")


def make_row(lineno=2, date=datetime.date(2024, 6, 1), home="AAA", away="BBB",
             home_won=True, **kwargs):
    defaults = dict(home_avg_pre=0.25, away_avg_pre=0.26, home_era_pre=3.8,
                    away_era_pre=4.1)
    defaults.update(kwargs)
    return RawGameRow(row_number=lineno, date=date, home=home, away=away,
                      home_won=home_won, **defaults)


# ---------------------------------------------------------------------------
# parsing


def test_parse_precomputed_shape():
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,0,0.55,0.62,0.249,0.251,4.0,3.1\n")
    rows = parse_game_log(io.StringIO(text))
    assert len(rows) == 2
    first = rows[0]
    assert first.row_number == 2
    assert first.date == datetime.date(2024, 6, 1)
    assert (first.home, first.away) == ("NYA", "BOS")
    assert first.home_won is True
    assert first.home_winpct_pre == 0.6
    assert first.away_era_pre == 4.2
    assert first.home_runs is None
    assert rows[1].home_won is False


def test_parse_raw_shape_derives_outcome():
    text = (RAW_HEADER + "\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,2,7,0.249,0.251,4.0,3.1\n")
    rows = parse_game_log(io.StringIO(text))
    assert rows[0].home_won is True
    assert rows[1].home_won is False
    assert rows[0].home_runs == 5 and rows[0].away_runs == 3


def test_parse_record_columns():
    text = (RAW_HEADER + ",home_record_pre,away_record_pre\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2,25-15,18-22\n")
    rows = parse_game_log(io.StringIO(text))
    assert rows[0].home_record_pre == (25, 15)
    assert rows[0].away_record_pre == (18, 22)


def test_parse_empty_file_with_header():
    assert parse_game_log(io.StringIO(PRECOMPUTED_HEADER + "\n")) == []


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
    with pytest.raises(ValueError, match=r"row 2.*date"):
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


def test_parse_bad_header_rejected():
    text = "date,teams,stuff\n2024-06-01,a,b\n"
    with pytest.raises(ValueError, match="unrecognized game-log header"):
        parse_game_log(io.StringIO(text))


def test_parse_short_row_rejected():
    text = PRECOMPUTED_HEADER + "\n2024-06-01,NYA,BOS,1,0.6\n"
    with pytest.raises(ValueError, match="expected 10 columns, got 5"):
        parse_game_log(io.StringIO(text))


def test_round_trip_precomputed():
    # every column of the precomputed shape lands in its field unchanged
    text = (PRECOMPUTED_HEADER + "\n"
            "2024-06-01,NYA,BOS,1,0.6,0.55,0.251,0.249,3.5,4.2\n"
            "2024-06-02,BOS,NYA,0,0.55,0.62,0.249,0.251,4.0,3.1\n")
    rows = parse_game_log(io.StringIO(text))
    assert rows == [
        RawGameRow(row_number=2, date=datetime.date(2024, 6, 1), home="NYA",
                   away="BOS", home_won=True, home_avg_pre=0.251,
                   away_avg_pre=0.249, home_era_pre=3.5, away_era_pre=4.2,
                   home_winpct_pre=0.6, away_winpct_pre=0.55),
        RawGameRow(row_number=3, date=datetime.date(2024, 6, 2), home="BOS",
                   away="NYA", home_won=False, home_avg_pre=0.249,
                   away_avg_pre=0.251, home_era_pre=4.0, away_era_pre=3.1,
                   home_winpct_pre=0.55, away_winpct_pre=0.62),
    ]


def test_round_trip_raw_with_records():
    # every column of the raw shape, W-L records included, lands in its
    # field unchanged; the outcome comes from the score
    text = (RAW_HEADER + ",home_record_pre,away_record_pre\n"
            "2024-06-01,NYA,BOS,5,3,0.251,0.249,3.5,4.2,25-15,18-22\n"
            "2024-06-03,BOS,NYA,9,1,0.249,0.251,4.0,3.1,18-23,26-15\n")
    rows = parse_game_log(io.StringIO(text))
    assert rows == [
        RawGameRow(row_number=2, date=datetime.date(2024, 6, 1), home="NYA",
                   away="BOS", home_won=True, home_avg_pre=0.251,
                   away_avg_pre=0.249, home_era_pre=3.5, away_era_pre=4.2,
                   home_runs=5, away_runs=3, home_record_pre=(25, 15),
                   away_record_pre=(18, 22)),
        RawGameRow(row_number=3, date=datetime.date(2024, 6, 3), home="BOS",
                   away="NYA", home_won=True, home_avg_pre=0.249,
                   away_avg_pre=0.251, home_era_pre=4.0, away_era_pre=3.1,
                   home_runs=9, away_runs=1, home_record_pre=(18, 23),
                   away_record_pre=(26, 15)),
    ]


# ---------------------------------------------------------------------------
# record derivation


def test_derive_cumulative_win_pct():
    rows = [
        make_row(2, datetime.date(2024, 4, 1), "A", "B", home_won=True),
        make_row(3, datetime.date(2024, 4, 2), "A", "B", home_won=True),
        make_row(4, datetime.date(2024, 4, 3), "B", "A", home_won=True),
        make_row(5, datetime.date(2024, 4, 4), "A", "B", home_won=False),
    ]
    records = derive_pregame_records(rows)
    # openers: defaulted and flagged by a zero prior-game count
    assert records[0].home_win_pct == DEFAULT_WIN_PCT
    assert records[0].home_prior_games == 0
    # A is 2-0 and B 0-2 entering game 3
    assert records[2].away_win_pct == 1.0
    assert records[2].home_win_pct == 0.0
    # entering game 4: A 2-1, B 1-2
    assert records[3].home_win_pct == pytest.approx(2 / 3)
    assert records[3].away_win_pct == pytest.approx(1 / 3)
    assert records[3].home_prior_games == 3


def test_derive_explicit_record_columns():
    # 25-15 entering the game: win pct 0.625 from the stored record
    row = make_row(2, home_record_pre=(25, 15), away_record_pre=(15, 25))
    record = derive_pregame_records([row])[0]
    assert record.home_win_pct == 0.625
    assert record.away_win_pct == 0.375
    assert record.home_prior_games == 40


def test_derive_season_boundary_resets_counts():
    rows = [
        make_row(2, datetime.date(2023, 9, 30), "A", "B", home_won=True),
        make_row(3, datetime.date(2024, 4, 1), "A", "B", home_won=True),
    ]
    records = derive_pregame_records(rows)
    assert records[1].home_win_pct == DEFAULT_WIN_PCT
    assert records[1].home_prior_games == 0


def test_derive_rejects_unsorted():
    rows = [make_row(2, datetime.date(2024, 6, 2)),
            make_row(3, datetime.date(2024, 6, 1))]
    with pytest.raises(ValueError, match="not sorted by date"):
        derive_pregame_records(rows)


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
    derived = derive_pregame_records(parse_game_log(io.StringIO(raw_text)))
    explicit = derive_pregame_records(
        parse_game_log(io.StringIO(explicit_text)))
    assert len(derived) == len(explicit) == 120
    for d, e in zip(derived, explicit):
        assert d.home_win_pct == e.home_win_pct
        assert d.away_win_pct == e.away_win_pct
        assert d.home_won == e.home_won
        assert (d.date, d.home_team, d.away_team) == \
            (e.date, e.home_team, e.away_team)


# ---------------------------------------------------------------------------
# filtering


def record_on(date, home_games=10, away_games=10):
    return GameRecord(date=date, home_team="A", away_team="B",
                      home_win_pct=0.5, away_win_pct=0.5,
                      home_batting_avg=0.25, away_batting_avg=0.25,
                      home_era=4.0, away_era=4.0, home_won=True,
                      home_prior_games=home_games, away_prior_games=away_games)


def test_filter_window_is_inclusive():
    records = [record_on(datetime.date(2024, 5, 19)),
               record_on(datetime.date(2024, 5, 20)),
               record_on(datetime.date(2024, 8, 20)),
               record_on(datetime.date(2024, 8, 21))]
    kept = filter_training_window(records, date_window_filter())
    assert [r.date.day for r in kept] == [20, 20]
    assert [r.date.month for r in kept] == [5, 8]


def test_filter_applies_per_season_year():
    records = [record_on(datetime.date(2023, 6, 1)),
               record_on(datetime.date(2024, 6, 1)),
               record_on(datetime.date(2024, 11, 1))]
    kept = filter_training_window(records, date_window_filter())
    assert [r.date.year for r in kept] == [2023, 2024]


def test_filter_min_games_drops_early_rows():
    records = [record_on(datetime.date(2024, 6, 1), home_games=49,
                         away_games=55),
               record_on(datetime.date(2024, 6, 2), home_games=50,
                         away_games=55),
               record_on(datetime.date(2024, 6, 3), home_games=58,
                         away_games=12)]
    kept = filter_training_window(records, games_played_filter(50))
    assert [r.date.day for r in kept] == [2]


def test_filter_min_games_needs_counts():
    record = GameRecord(date=datetime.date(2024, 6, 1), home_team="A",
                        away_team="B", home_win_pct=0.5, away_win_pct=0.5,
                        home_batting_avg=0.25, away_batting_avg=0.25,
                        home_era=4.0, away_era=4.0, home_won=True)
    with pytest.raises(ValueError, match="prior-game counts unknown"):
        filter_training_window([record], games_played_filter(50))


def test_filter_idempotent_and_order_preserving():
    records = [record_on(datetime.date(2024, 6, d)) for d in (3, 1, 9)]
    # (dates inside the window in a scrambled order: order must be kept)
    once = filter_training_window(records, date_window_filter())
    twice = filter_training_window(once, date_window_filter())
    assert once == records
    assert twice == once


def test_filter_empty_input():
    assert filter_training_window([], date_window_filter()) == []


def test_filter_validation():
    with pytest.raises(ValueError, match="not a valid month-day"):
        DatasetFilter(start_day=(2, 30))
    with pytest.raises(ValueError, match="after end_day"):
        DatasetFilter(start_day=(9, 1), end_day=(5, 1))
    with pytest.raises(ValueError, match="min_games_played"):
        DatasetFilter(min_games_played=-1)


# ---------------------------------------------------------------------------
# series extraction


def test_current_standings_latest_season_only():
    rows = [
        make_row(2, datetime.date(2023, 6, 1), "A", "B", home_won=True),
        make_row(3, datetime.date(2024, 6, 1), "A", "B", home_won=True),
        make_row(4, datetime.date(2024, 6, 2), "B", "A", home_won=True),
        make_row(5, datetime.date(2024, 6, 3), "A", "B", home_won=True),
    ]
    assert current_standings(rows) == {"A": (2, 1), "B": (1, 2)}


def test_era_series_collects_both_sides():
    rows = [
        make_row(2, datetime.date(2024, 6, 1), "A", "B",
                 home_era_pre=3.0, away_era_pre=4.0),
        make_row(3, datetime.date(2024, 6, 2), "B", "A",
                 home_era_pre=4.5, away_era_pre=3.5),
    ]
    series = era_series(rows)
    assert series["A"] == [3.0, 3.5]
    assert series["B"] == [4.0, 4.5]


def test_batting_series_collects_both_sides():
    rows = [
        make_row(2, datetime.date(2024, 6, 1), "A", "B",
                 home_avg_pre=0.25, away_avg_pre=0.24),
        make_row(3, datetime.date(2024, 6, 2), "B", "A",
                 home_avg_pre=0.26, away_avg_pre=0.27),
    ]
    series = batting_series(rows)
    assert series["A"] == [0.25, 0.27]
    assert series["B"] == [0.24, 0.26]
