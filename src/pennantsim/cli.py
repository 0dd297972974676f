"""Command-line interface.

Subcommands: validate, fit, noise, simulate, report. Settings resolve with
command-line flags overriding config-file values overriding defaults. Every
output file is deterministic for a fixed master seed — no timestamps, no
machine-dependent content — so repeat runs are byte-identical.

Exit codes: 0 success, 1 validation/diagnostic failure, 2 usage error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .gamelog import (DatasetFilter, csv_rows, filter_training_window,
                      latest_season, parse_game_log, require_games)
from .kalman import (MIN_WINDOW, TERCILES, NoiseParams, filter_series,
                     group_terciles, sliding_noise_estimates)
from .mcmc import (PARAM_NAMES, ChainConfig, PriorConfig, derived_seed,
                   effective_sample_size, log_ratio_design,
                   posterior_summaries, run_chains, split_rhat,
                   tune_proposal_std)
from .season import (DRAW_MODES, ERA_MODES, STREAMS, SeasonResults,
                     SimOptions, TeamSimState, export_win_histogram,
                     generate_schedule, read_league_csv, read_schedule_csv,
                     run_replications, summarize)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

RHAT_LIMIT = 1.1  # fit exits nonzero when any parameter diverges past this


class UsageError(Exception):
    """Bad invocation: missing required setting, unknown key, bad value."""


class PipelineError(Exception):
    """Runtime failure: missing prerequisite artifact, bad data."""


# the choice settings; simulate plays one outcome law in either mode
CHOICES = {"mode": ("marginal", "two-stage"), "draws": DRAW_MODES,
           "era_mode": ERA_MODES,
           "filter_mode": ("date-window", "games-played")}


def _cores() -> int:
    """Cores this process may run on; all of them without an affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation. Each field is a
    setting: config key NAME and flag --NAME (- for _) of the subcommands
    SUBCOMMANDS gives it, both typed by its annotation."""

    game_log: str | None = None
    schedule: str | None = None
    league: str | None = None
    out: str = "out"
    seed: int = 0
    r_max: float = 5.0
    proposal_std: float | None = None
    iterations: int = 20_000
    burn_in: int = 2_000
    thin: int = 5
    chains: int = 4
    replications: int = 1000
    burn_in_games: int = 20
    mode: str = "marginal"
    draws: str = "posterior-predictive"
    era_mode: str = "forecast"
    walk_std: float = 0.0015
    window_length: int = 30
    filter_mode: str = "date-window"
    min_games: int = 50
    season_length: int = 162
    jobs: int = field(default_factory=_cores)

    def __post_init__(self):
        # resolve_config has the domain configs check the other settings
        if self.chains < 1:
            raise UsageError(f"chains must be >= 1, got {self.chains}")
        if self.replications < 1:
            raise UsageError(f"replications must be >= 1, "
                             f"got {self.replications}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        for name in ("mode", "filter_mode"):   # SimOptions checks the rest
            value = getattr(self, name)
            if value not in CHOICES[name]:
                raise UsageError(f"{name} must be {' or '.join(CHOICES[name])}"
                                 f", got {value!r}")
        if self.window_length < MIN_WINDOW:
            raise UsageError(f"window_length must be >= {MIN_WINDOW}")
        if self.season_length < 1:
            raise UsageError("season_length must be >= 1")
        if self.min_games < 0:
            raise UsageError("min_games must be >= 0")

    def training_filter(self) -> DatasetFilter:
        if self.filter_mode == "games-played":
            return DatasetFilter(date_window=False,
                                 min_games_played=self.min_games)
        return DatasetFilter()

    def prior_config(self) -> PriorConfig:
        return PriorConfig(r_max=self.r_max)

    def chain_config(self) -> ChainConfig:
        """Chain settings; an unset proposal_std starts tuning at 0.05."""
        return ChainConfig(n_iterations=self.iterations, burn_in=self.burn_in,
                           thin=self.thin, seed=self.seed,
                           proposal_std=0.05 if self.proposal_std is None
                           else self.proposal_std)

    def sim_options(self) -> SimOptions:
        return SimOptions(draw_mode=self.draws, era_mode=self.era_mode,
                          step_std=self.walk_std,
                          burn_in_games=self.burn_in_games)


# {setting: the type its values convert by}, X for an X | None annotation
SETTING_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,)
               if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()}
_TYPE_NOUNS = {int: "an integer", float: "a number"}


def parse_config_file(path) -> dict:
    """Flat key=value settings file; # starts a comment, blanks ignored,
    and a key set twice is an error."""
    values, first = {}, {}   # first: key -> the line that set it
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path} line {lineno}: expected key=value, "
                             f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        kind = SETTING_TYPES.get(key)
        if kind is None:
            raise UsageError(f"{path} line {lineno}: unknown key {key!r}")
        if key in first:
            raise UsageError(f"{path} line {lineno}: {key} is already set "
                             f"on line {first[key]}")
        first[key] = lineno
        try:
            values[key] = kind(raw)
        except ValueError:
            raise UsageError(f"{path} line {lineno}: {key} needs "
                             f"{_TYPE_NOUNS[kind]}, got {raw!r}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (in increasing precedence)."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    cfg = RunConfig(**values)
    try:   # the domain configs check the settings they take
        cfg.prior_config()
        cfg.chain_config()
        cfg.sim_options()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def _require(value, command: str, what: str, key: str):
    if not value:
        raise UsageError(f"{command} requires {what} ({_flag(key)} "
                         f"or config {key})")
    return value


def _open_input(path, what: str):
    if not os.path.exists(path):
        raise PipelineError(f"{what} {path} does not exist")
    return path


def _artifact(cfg: RunConfig, filename: str, producer: str) -> str:
    path = os.path.join(cfg.out, filename)
    if not os.path.exists(path):
        raise PipelineError(f"{path} not found; run the `{producer}` command "
                            f"first")
    return path


def _emit_outputs(cfg: RunConfig, outputs: dict) -> None:
    """Write every output file at once, after all computation succeeded."""
    os.makedirs(cfg.out, exist_ok=True)
    for filename, lines in outputs.items():
        with open(os.path.join(cfg.out, filename), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _metadata_lines(cfg: RunConfig, command: str, extra: dict) -> list:
    lines = [f"command={command}", f"master_seed={cfg.seed}"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    return lines


def _aligned_table(header, rows) -> list:
    """Left-align the first column, right-align the rest."""
    table = [tuple(str(c) for c in row) for row in [header] + rows]
    widths = [max(len(row[j]) for row in table) for j in range(len(header))]
    out = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
    return out


# ---------------------------------------------------------------------------
# validate


def cmd_validate(cfg: RunConfig, extras) -> int:
    issues = []
    league = None
    if cfg.league:
        try:
            league = read_league_csv(_open_input(cfg.league, "league file"),
                                     season_length=cfg.season_length)
        except (ValueError, PipelineError, OSError) as exc:
            issues.append(f"league: {exc}")
    log = None
    if cfg.game_log:
        try:
            known = set(league.teams) if league else None
            log = require_games(parse_game_log(
                _open_input(cfg.game_log, "game log"), known_teams=known))
        except (ValueError, PipelineError, OSError) as exc:
            issues.append(f"game log: {exc}")
    if cfg.schedule:
        try:
            schedule = read_schedule_csv(
                _open_input(cfg.schedule, "schedule file"))
            if league is not None:
                season = latest_season(log) if log is not None else None
                issues += [f"schedule: {issue}" for issue
                           in _schedule_issues(schedule, league, season)]
        except (ValueError, PipelineError, OSError) as exc:
            issues.append(f"schedule: {exc}")
    if not (cfg.league or cfg.game_log or cfg.schedule):
        issues.append("nothing to validate: no league, game log, or schedule "
                      "configured")

    for issue in issues:
        print(f"issue: {issue}")
    if issues:
        print(f"{len(issues)} issue(s) found")
        return EXIT_INVALID
    print("no issues found")
    return EXIT_OK


def _schedule_issues(schedule, league, season) -> list:
    """Each game's team missing from the league, then each team the
    schedule takes past the league's season length given the games it has
    played in season (`latest_season`'s table), unless season is None."""
    known = set(league.teams)
    issues = [f"team {team!r} on {game.date} missing from league structure"
              for game in schedule.games for team in (game.home, game.away)
              if team not in known]
    remaining = schedule.games_per_team() if season is not None else {}
    for team in sorted(remaining):
        played = season[team].games if team in season else 0
        total = played + remaining[team]
        if total > league.season_length:
            issues.append(f"{team} has {played} played + {remaining[team]} "
                          f"scheduled = {total} games, over the "
                          f"{league.season_length}-game season")
    return issues


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: RunConfig, extras) -> int:
    path = _require(cfg.game_log, "fit", "a game log", "game_log")
    log = require_games(parse_game_log(_open_input(path, "game log")))
    training = filter_training_window(log, cfg.training_filter())
    if not len(training):
        raise PipelineError(f"{path}: no training records left after "
                            f"filtering; widen the window or supply more "
                            f"data")
    design = log_ratio_design(training)
    prior = cfg.prior_config()
    base = cfg.chain_config()
    if cfg.proposal_std is None:
        std = tune_proposal_std(design, prior, base)
        std_source = "tuned"
    else:
        std = cfg.proposal_std
        std_source = "config"
    chains = run_chains(design, prior, replace(base, proposal_std=std),
                        cfg.chains, n_jobs=cfg.jobs)

    by_param = [[c.draws[:, j] for c in chains] for j in range(3)]
    rhats = [split_rhat(seqs) for seqs in by_param]
    esss = [effective_sample_size(seqs) for seqs in by_param]
    pooled_summary = posterior_summaries(np.vstack([c.draws for c in chains]))

    outputs = {}
    draw_lines = ["chain,r1,r2,r3"]
    for chain in chains:
        values = [",".join(map(repr, row)) for row in chain.draws.tolist()]
        draw_lines += [f"{chain.chain_id},{row}" for row in values]
        # a trace row carries its draw's iteration in the chain
        outputs[f"trace_chain{chain.chain_id}.csv"] = (
            ["iteration,r1,r2,r3"]
            + [f"{cfg.burn_in + cfg.thin * k},{row}"
               for k, row in enumerate(values)])
    outputs["draws.csv"] = draw_lines
    diag = ["parameter,mean,sd,q5,q95,rhat,ess"]
    for j, name in enumerate(PARAM_NAMES):
        s = pooled_summary[j]
        diag.append(f"{name},{s.mean:.6f},{s.sd:.6f},{s.q5:.6f},{s.q95:.6f},"
                    f"{rhats[j]:.6f},{esss[j]:.1f}")
    for chain in chains:
        diag.append(f"acceptance_chain_{chain.chain_id},"
                    f"{chain.acceptance_rate:.6f},,,,,")
    outputs["diagnostics.csv"] = diag
    meta = {"r_max": repr(cfg.r_max), "iterations": cfg.iterations,
            "burn_in": cfg.burn_in, "thin": cfg.thin, "chains": cfg.chains,
            "proposal_std": repr(float(std)),
            "proposal_std_source": std_source,
            "proposal_screen": "laplace" if chains[0].screened else "none",
            "filter_mode": cfg.filter_mode,
            "training_records": len(training)}
    for chain in chains:
        meta[f"chain_seed_{chain.chain_id}"] = derived_seed(
            cfg.seed, chain.chain_id)
    outputs["fit_metadata.txt"] = _metadata_lines(cfg, "fit", meta)

    _emit_outputs(cfg, outputs)

    rows = [(name, f"{pooled_summary[j].mean:.4f}",
             f"{pooled_summary[j].sd:.4f}", f"{pooled_summary[j].q5:.4f}",
             f"{pooled_summary[j].q95:.4f}", f"{rhats[j]:.4f}",
             f"{esss[j]:.0f}")
            for j, name in enumerate(PARAM_NAMES)]
    for line in _aligned_table(
            ("parameter", "mean", "sd", "q5", "q95", "rhat", "ess"), rows):
        print(line)
    accept = ", ".join(f"chain {c.chain_id}: {c.acceptance_rate:.3f}"
                       for c in chains)
    print(f"acceptance rates: {accept}")
    worst = max(rhats)
    if worst > RHAT_LIMIT:
        print(f"convergence failure: max R-hat {worst:.4f} > {RHAT_LIMIT}",
              file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


# ---------------------------------------------------------------------------
# noise


def cmd_noise(cfg: RunConfig, extras) -> int:
    path = _require(cfg.game_log, "noise", "a game log", "game_log")
    log = parse_game_log(_open_input(path, "game log"))
    series = {team: season.eras
              for team, season in latest_season(log).items()}
    window = cfg.window_length

    estimates = {}
    skipped = []
    for team in sorted(series):
        if len(series[team]) < window:
            skipped.append(f"{team}: series length {len(series[team])} "
                           f"is below the {window}-game window")
            continue
        estimates[team] = sliding_noise_estimates(series[team], window)
    if not estimates:
        raise PipelineError("no team has an ERA series long enough for the "
                            f"{window}-game window")
    for line in skipped:
        print(f"warning: {line}", file=sys.stderr)

    early = {team: float(np.mean(series[team][:window]))
             for team in estimates}
    labels = group_terciles(early)

    pool_lines = ["team,window_start,sigma_obs,sigma_process,converged"]
    n_converged = n_pinned = 0
    for team in sorted(estimates):
        for start, est in enumerate(estimates[team]):
            if not est.converged:
                continue
            n_converged += 1
            n_pinned += est.pinned
            pool_lines.append(f"{team},{start},"
                              f"{float(est.sigma_obs)!r},"
                              f"{float(est.sigma_process)!r},1")
    tercile_lines = ["team,tercile,early_era"]
    for team in sorted(labels):
        tercile_lines.append(f"{team},{labels[team]},{early[team]!r}")

    meta = {"window_length": window, "teams_fit": len(estimates),
            "teams_skipped": len(skipped), "converged_windows": n_converged,
            "pinned_windows": n_pinned}
    outputs = {"noise_estimates.csv": pool_lines,
               "terciles.csv": tercile_lines,
               "noise_metadata.txt": _metadata_lines(cfg, "noise", meta)}
    _emit_outputs(cfg, outputs)

    sizes = ", ".join(f"{label} {list(labels.values()).count(label)}"
                      for label in TERCILES)
    print(f"fit {n_converged} converged windows across {len(estimates)} "
          f"teams (skipped {len(skipped)})")
    print(f"pinned_windows={n_pinned} (converged windows with zero "
          f"process noise)")
    print(f"terciles: {sizes}")
    return EXIT_OK


def _load_noise_artifacts(cfg: RunConfig) -> dict[str, np.ndarray]:
    """{team: its tercile's noise pool} from the files cmd_noise writes.
    Each pool is a (k, 2) array of (sigma_obs, sigma_process) rows in file
    order."""
    terc_path = _artifact(cfg, "terciles.csv", "noise")
    pool_path = _artifact(cfg, "noise_estimates.csv", "noise")
    rows: dict[str, list[tuple[float, float]]] = {}
    labels: dict[str, str] = {}
    for lineno, (team, label, _) in csv_rows(
            terc_path, {"team": str, "tercile": str, "early_era": float},
            "terciles"):
        if team in labels:
            raise PipelineError(f"{terc_path} row {lineno}: a second row "
                                f"for team {team!r}")
        if label not in TERCILES:
            raise PipelineError(f"{terc_path} row {lineno}: tercile must be "
                                f"one of {', '.join(TERCILES)}, got {label!r}")
        labels[team] = label
    windows = set()   # (team, window_start)
    for lineno, (team, start, sobs, sproc, conv) in csv_rows(
            pool_path, {"team": str, "window_start": int, "sigma_obs": float,
                        "sigma_process": float, "converged": int},
            "noise estimates"):
        if conv != 1:
            raise PipelineError(f"{pool_path} row {lineno}: converged must "
                                f"be 1 (converged windows only), got {conv}")
        if team not in labels:
            raise PipelineError(f"{pool_path} row {lineno}: team {team!r} "
                                f"has no tercile assignment")
        if (team, start) in windows:
            raise PipelineError(f"{pool_path} row {lineno}: a second row "
                                f"for team {team!r} window_start {start}")
        windows.add((team, start))
        try:
            NoiseParams(sobs, sproc)   # each sigma finite and >= 0
        except ValueError as exc:
            raise PipelineError(f"{pool_path} row {lineno}: {exc}") from None
        rows.setdefault(labels[team], []).append((sobs, sproc))
    for label in TERCILES:
        if label in labels.values() and label not in rows:
            raise PipelineError(f"tercile {label!r} has no converged noise "
                                f"estimates; rerun the `noise` command")
    pools = {label: np.array(pool) for label, pool in rows.items()}
    return {team: pools[label] for team, label in labels.items()}


def _median_noise(pool) -> NoiseParams:
    sigma_obs, sigma_process = np.median(pool, axis=0).tolist()
    return NoiseParams(sigma_obs, sigma_process)


def _initial_states(season, league, pools):
    """Current record, batting average, and filtered ERA level per team,
    from `latest_season`; pools is {team: noise pool}."""
    states = []
    for team in league.teams:
        if team not in season:
            raise PipelineError(f"team {team!r} has no games in the log; "
                                f"cannot build an initial state")
        if team not in pools:
            raise PipelineError(f"team {team!r} has no tercile assignment; "
                                f"rerun the `noise` command")
        states.append(TeamSimState(
            team=team, wins=season[team].wins, losses=season[team].losses,
            batting=season[team].batting,
            era=filter_series(season[team].eras, _median_noise(pools[team]))))
    return states


def _read_draw_matrix(cfg: RunConfig) -> np.ndarray:
    path = _artifact(cfg, "draws.csv", "fit")
    rows = []
    for lineno, values in csv_rows(path, dict.fromkeys(PARAM_NAMES, float),
                                   "draws"):
        if not all(map(math.isfinite, values)):
            raise PipelineError(f"{path} row {lineno}: posterior draws must "
                                f"be finite, got {values}")
        rows.append(values)
    if not rows:
        raise PipelineError(f"{path}: no posterior draws; rerun `fit`")
    return np.array(rows)


def cmd_simulate(cfg: RunConfig, extras) -> int:
    league_path = _require(cfg.league, "simulate", "a league structure file",
                           "league")
    league = read_league_csv(_open_input(league_path, "league file"),
                             season_length=cfg.season_length)
    log_path = _require(cfg.game_log, "simulate", "a game log", "game_log")
    log = parse_game_log(_open_input(log_path, "game log"),
                         known_teams=set(league.teams))
    draws = _read_draw_matrix(cfg)
    pools = _load_noise_artifacts(cfg)
    season = latest_season(log)
    states = _initial_states(season, league, pools)

    hist_teams = list(dict.fromkeys(extras.histogram or []))
    known = set(league.teams)
    for team in hist_teams:
        if team not in known:
            raise UsageError(f"histogram team {team!r} is not in the league "
                             f"structure")

    if cfg.schedule:
        schedule = read_schedule_csv(
            _open_input(cfg.schedule, "schedule file"))
        issues = _schedule_issues(schedule, league, season)
        if issues:
            raise PipelineError(f"{cfg.schedule}: {issues[0]}")
    else:
        played = {t: season[t].games for t in league.teams}
        schedule = generate_schedule(league, played, seed=cfg.seed)

    results = run_replications(cfg.replications, states, schedule, draws,
                               league, cfg.seed, opts=cfg.sim_options(),
                               noise_pools=pools)
    forecasts = summarize(results)

    outputs = {}
    rep_lines = ["replication,team,wins,qualified"]
    for rep, (wins, made) in enumerate(zip(
            results.wins.tolist(), results.qualified.astype(int).tolist())):
        rep_lines += [f"{rep},{team},{w},{q}"
                      for team, w, q in zip(results.teams, wins, made)]
    outputs["replication_results.csv"] = rep_lines
    outputs["summary.csv"] = _summary_csv_lines(forecasts)
    for team in hist_teams:
        hist = export_win_histogram(results, team)
        outputs[f"histogram_{team}.csv"] = (
            ["wins,count"] + [f"{w},{c}" for w, c in hist])
    meta = {"replications": cfg.replications, "mode": cfg.mode,
            "draws_mode": cfg.draws, "era_mode": cfg.era_mode,
            "burn_in_games": cfg.burn_in_games,
            "walk_std": repr(cfg.walk_std),
            "schedule_source": "file" if cfg.schedule else "synthetic",
            "scheduled_games": len(schedule),
            "replication_seed_scheme":
                f"SeedSequence({cfg.seed}) streams {'/'.join(STREAMS)}, "
                f"shared by all {cfg.replications} replications"}
    outputs["simulate_metadata.txt"] = _metadata_lines(cfg, "simulate", meta)
    _emit_outputs(cfg, outputs)

    for line in _summary_stdout_lines(forecasts, len(results)):
        print(line)
    return EXIT_OK


def _summary_csv_lines(forecasts) -> list:
    lines = ["Team,MeanWins,CI5,CI95,PlayoffPct"]
    for f in forecasts:
        lines.append(f"{f.team},{f.mean_wins:.4f},{int(f.ci5)},{int(f.ci95)},"
                     f"{100.0 * f.playoff_prob:.4f}")
    return lines


def _summary_stdout_lines(forecasts, replications: int) -> list:
    rows = [(f.team, f"{f.mean_wins:.2f}", f"{int(f.ci5)}", f"{int(f.ci95)}",
             f"{100.0 * f.playoff_prob:.1f}")
            for f in forecasts]
    table = _aligned_table(("Team", "MeanWins", "CI5", "CI95", "PlayoffPct"),
                           rows)
    table.append(f"{replications} replications")
    return table


# ---------------------------------------------------------------------------
# report


def _read_replication_results(path) -> SeasonResults:
    """replication_results.csv as cmd_simulate writes it: one row per
    replication and team."""
    cells = {}        # (replication, team) -> (wins, qualified)
    first_row = {}    # replication -> its first row
    for lineno, (rep, team, wins, qualified) in csv_rows(
            path, {"replication": int, "team": str, "wins": int,
                   "qualified": int}, "replication results"):
        if qualified not in (0, 1):
            raise PipelineError(f"{path} row {lineno}: qualified must be 0 "
                                f"or 1, got {qualified}")
        if (rep, team) in cells:
            raise PipelineError(f"{path} row {lineno}: a second row for "
                                f"team {team!r} in replication {rep}")
        cells[rep, team] = (wins, qualified == 1)
        first_row.setdefault(rep, lineno)
    if not cells:
        raise PipelineError(f"{path}: no replication rows; rerun `simulate`")
    reps, teams = sorted(first_row), sorted({team for _, team in cells})
    for rep in reps:
        for team in teams:
            if (rep, team) not in cells:
                raise PipelineError(f"{path} row {first_row[rep]}: "
                                    f"replication {rep} has no row for team "
                                    f"{team!r}")
    table = np.array([[cells[rep, team] for team in teams] for rep in reps])
    return SeasonResults(teams=tuple(teams), wins=table[..., 0],
                         qualified=table[..., 1] == 1)


def cmd_report(cfg: RunConfig, extras) -> int:
    path = _artifact(cfg, "replication_results.csv", "simulate")
    results = _read_replication_results(path)
    for line in _summary_stdout_lines(summarize(results), len(results)):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# settings every subcommand takes, in flag order
COMMON_SETTINGS = ("game_log", "schedule", "league", "out", "seed", "jobs",
                   "season_length")
# subcommand: (help, the settings it takes beyond COMMON_SETTINGS)
SUBCOMMANDS = {
    "validate": ("check input files for consistency", ()),
    "fit": ("sample the exponent posterior",
            ("r_max", "proposal_std", "iterations", "burn_in", "thin",
             "chains", "filter_mode", "min_games")),
    "noise": ("estimate ERA noise pools by tercile", ("window_length",)),
    "simulate": ("run season replications",
                 ("replications", "mode", "draws", "era_mode",
                  "burn_in_games", "walk_std")),
    "report": ("re-summarize simulation results", ()),
}
SETTING_HELP = {
    "game_log": "game log CSV", "schedule": "remaining-schedule CSV",
    "league": "league structure CSV", "out": "output directory (default: out)",
    "seed": "master seed",
    "jobs": "fit: chain worker processes (default: the cores available); "
            "no effect elsewhere",
    "mode": "accepted; no effect",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pennantsim",
        description="Season forecasting: Bayesian game model, noise "
                    "estimation, and Monte Carlo season simulation.")
    parser.set_defaults(histogram=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, settings) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value settings file")
        for name in COMMON_SETTINGS + settings:
            p.add_argument(_flag(name), type=SETTING_TYPES[name],
                           choices=CHOICES.get(name),
                           help=SETTING_HELP.get(name))
        if command == "simulate":
            p.add_argument("--histogram", action="append", metavar="TEAM",
                           help="also write histogram_TEAM.csv (repeatable)")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "fit": cmd_fit,
    "noise": cmd_noise,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
