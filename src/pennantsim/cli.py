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
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .gamelog import (DatasetFilter, batting_series, current_standings,
                      date_window_filter, derive_pregame_records, era_series,
                      filter_training_window, games_played_filter,
                      parse_game_log)
from .kalman import (GaussianState, NoiseEstimate, NoiseParams,
                     filter_series, group_terciles, sliding_noise_estimates)
from .mcmc import (PARAM_NAMES, ChainConfig, PosteriorDraws, PriorConfig,
                   derived_seed, effective_sample_size, export_trace,
                   run_chains, split_rhat, tune_proposal_std, write_trace_csv)
from .season import (SeasonResult, SimOptions, TeamSimState, WalkConfig,
                     export_win_histogram, generate_schedule, read_league_csv,
                     read_schedule_csv, run_replications, summarize)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

RHAT_LIMIT = 1.1  # fit exits nonzero when any parameter diverges past this


class UsageError(Exception):
    """Bad invocation: missing required setting, unknown key, bad value."""


class PipelineError(Exception):
    """Runtime failure: missing prerequisite artifact, bad data."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    game_log: str | None = None
    schedule: str | None = None
    league: str | None = None
    out: str = "out"
    seed: int = 0
    r_max: float = 5.0
    concentration: float = 1.0
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
    jobs: int = 1

    def __post_init__(self):
        # resolve_config has the domain configs check the other settings
        if self.chains < 1:
            raise UsageError(f"chains must be >= 1, got {self.chains}")
        if self.replications < 1:
            raise UsageError(f"replications must be >= 1, "
                             f"got {self.replications}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        if self.filter_mode not in ("date-window", "games-played"):
            raise UsageError(f"filter_mode must be date-window or "
                             f"games-played, got {self.filter_mode!r}")
        for name in ("window_length", "season_length"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1")
        if self.min_games < 0:
            raise UsageError("min_games must be >= 0")

    def training_filter(self) -> DatasetFilter:
        if self.filter_mode == "games-played":
            return games_played_filter(self.min_games)
        return date_window_filter()

    def prior_config(self) -> PriorConfig:
        return PriorConfig(r_max=self.r_max)

    def chain_config(self) -> ChainConfig:
        """Chain settings; an unset proposal_std starts tuning at 0.05."""
        return ChainConfig(n_iterations=self.iterations, burn_in=self.burn_in,
                           thin=self.thin, seed=self.seed,
                           proposal_std=0.05 if self.proposal_std is None
                           else self.proposal_std)

    def walk_config(self) -> WalkConfig:
        return WalkConfig(step_std=self.walk_std)

    def sim_options(self) -> SimOptions:
        return SimOptions(probability_mode=self.mode, draw_mode=self.draws,
                          era_mode=self.era_mode,
                          concentration=self.concentration,
                          walk=self.walk_config(),
                          burn_in_games=self.burn_in_games)


_STRING_KEYS = ("game_log", "schedule", "league", "out", "mode", "draws",
                "era_mode", "filter_mode")
_INT_KEYS = ("seed", "iterations", "burn_in", "thin", "chains",
             "replications", "burn_in_games", "window_length", "min_games",
             "season_length", "jobs")
_FLOAT_KEYS = ("r_max", "concentration", "proposal_std", "walk_std")


def parse_config_file(path) -> dict:
    """Flat key=value settings file; # starts a comment, blanks ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
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
        if key in _STRING_KEYS:
            values[key] = raw
        elif key in _INT_KEYS:
            try:
                values[key] = int(raw)
            except ValueError:
                raise UsageError(f"{path} line {lineno}: {key} needs an "
                                 f"integer, got {raw!r}") from None
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(raw)
            except ValueError:
                raise UsageError(f"{path} line {lineno}: {key} needs a "
                                 f"number, got {raw!r}") from None
        else:
            raise UsageError(f"{path} line {lineno}: unknown key {key!r}")
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


def _require(value, command: str, what: str, key: str):
    if not value:
        raise UsageError(f"{command} requires {what} (--{key.replace('_', '-')} "
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


def _write_file(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_outputs(cfg: RunConfig, outputs: dict) -> None:
    """Write every output file at once, after all computation succeeded."""
    os.makedirs(cfg.out, exist_ok=True)
    for filename, lines in outputs.items():
        _write_file(os.path.join(cfg.out, filename), lines)


def _metadata_lines(cfg: RunConfig, command: str, extra: dict) -> list:
    lines = [f"command={command}", f"master_seed={cfg.seed}"]
    lines += [f"{k}={v}" for k, v in extra.items()]
    return lines


def _load_training_records(cfg: RunConfig, command: str):
    path = _require(cfg.game_log, command, "a game log", "game_log")
    rows = parse_game_log(_open_input(path, "game log"))
    records = derive_pregame_records(rows)
    kept = filter_training_window(records, cfg.training_filter())
    return rows, kept


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
    rows = None
    if cfg.game_log:
        try:
            known = set(league.teams) if league else None
            rows = parse_game_log(_open_input(cfg.game_log, "game log"),
                                  known_teams=known)
            derive_pregame_records(rows)
        except (ValueError, PipelineError, OSError) as exc:
            issues.append(f"game log: {exc}")
    if cfg.schedule:
        try:
            schedule = read_schedule_csv(
                _open_input(cfg.schedule, "schedule file"))
            if league is not None:
                known = set(league.teams)
                for game in schedule.games:
                    for team in (game.home, game.away):
                        if team not in known:
                            issues.append(
                                f"schedule: team {team!r} on {game.date} "
                                f"missing from league structure")
                if rows is not None:
                    standings = current_standings(rows)
                    remaining = schedule.games_per_team()
                    for team in sorted(remaining):
                        played = sum(standings.get(team, (0, 0)))
                        total = played + remaining[team]
                        if total > cfg.season_length:
                            issues.append(
                                f"schedule: {team} has {played} played + "
                                f"{remaining[team]} scheduled = {total} games, "
                                f"over the {cfg.season_length}-game season")
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


# ---------------------------------------------------------------------------
# fit


def cmd_fit(cfg: RunConfig, extras) -> int:
    _, training = _load_training_records(cfg, "fit")
    if not training:
        raise PipelineError("no training records left after filtering; "
                            "widen the window or supply more data")
    prior = cfg.prior_config()
    base = cfg.chain_config()
    if cfg.proposal_std is None:
        std = tune_proposal_std(training, prior, base)
        std_source = "tuned"
    else:
        std = cfg.proposal_std
        std_source = "config"
    chains = run_chains(training, prior, replace(base, proposal_std=std),
                        cfg.chains)

    by_param = [[c.draws[:, j] for c in chains] for j in range(3)]
    rhats = [split_rhat(seqs) for seqs in by_param]
    esss = [effective_sample_size(seqs) for seqs in by_param]
    pooled = np.vstack([c.draws for c in chains])
    pooled_summary = export_trace(
        PosteriorDraws(draws=pooled, acceptance_rate=0.0, chain_id=-1),
        burn_in=0, thin=1).summaries

    outputs = {}
    draw_lines = ["chain,r1,r2,r3"]
    for chain in chains:
        for row in chain.draws:
            draw_lines.append(f"{chain.chain_id},{float(row[0])!r},"
                              f"{float(row[1])!r},{float(row[2])!r}")
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
    meta = {"r_max": repr(cfg.r_max), "concentration": repr(cfg.concentration),
            "iterations": cfg.iterations, "burn_in": cfg.burn_in,
            "thin": cfg.thin, "chains": cfg.chains,
            "proposal_std": repr(float(std)),
            "proposal_std_source": std_source,
            "filter_mode": cfg.filter_mode,
            "training_records": len(training)}
    for chain in chains:
        meta[f"chain_seed_{chain.chain_id}"] = derived_seed(
            cfg.seed, chain.chain_id)
    outputs["fit_metadata.txt"] = _metadata_lines(cfg, "fit", meta)

    _emit_outputs(cfg, outputs)
    for chain in chains:  # trace files reuse the mcmc writer
        trace = export_trace(chain, burn_in=cfg.burn_in, thin=cfg.thin)
        write_trace_csv(trace, os.path.join(
            cfg.out, f"trace_chain{chain.chain_id}.csv"))

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
    rows = parse_game_log(_open_input(path, "game log"))
    series = era_series(rows)
    window = cfg.window_length

    estimates = {}
    skipped = []
    for team in sorted(series):
        if len(series[team]) < window:
            skipped.append(f"{team}: series length {len(series[team])} "
                           f"is below the {window}-game window")
            continue
        estimates[team] = sliding_noise_estimates(series[team], window,
                                                  team=team)
    if not estimates:
        raise PipelineError("no team has an ERA series long enough for the "
                            f"{window}-game window")
    for line in skipped:
        print(f"warning: {line}", file=sys.stderr)

    early = {team: float(np.mean(series[team][:window]))
             for team in estimates}
    terciles = group_terciles(early)
    labels = terciles.labels

    pool_lines = ["team,window_start,sigma_obs,sigma_process,converged"]
    n_converged = n_pinned = 0
    for team in sorted(estimates):
        for est in estimates[team]:
            if not est.converged:
                continue
            n_converged += 1
            n_pinned += est.pinned
            pool_lines.append(f"{team},{est.window_start},"
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

    sizes = {label: sum(1 for v in labels.values() if v == label)
             for label in ("low", "medium", "high")}
    print(f"fit {n_converged} converged windows across {len(estimates)} "
          f"teams (skipped {len(skipped)})")
    print(f"pinned_windows={n_pinned} (converged windows with "
          f"sigma_process at the search-box floor)")
    print(f"terciles: low {sizes['low']}, medium {sizes['medium']}, "
          f"high {sizes['high']}")
    return EXIT_OK


def _load_noise_artifacts(cfg: RunConfig):
    """Pools and tercile labels written by cmd_noise, or (None, None) when
    --draws point with --era-mode forecast runs without them (raw last ERA,
    zero noise). Path mode reads the noise on every game, so it never falls
    back."""
    pool_path = os.path.join(cfg.out, "noise_estimates.csv")
    terc_path = os.path.join(cfg.out, "terciles.csv")
    if not (os.path.exists(pool_path) and os.path.exists(terc_path)):
        if cfg.draws == "point" and cfg.era_mode == "forecast":
            return None, None
        raise PipelineError(f"noise pools missing in {cfg.out}; run the "
                            f"`noise` command first (only --draws point with "
                            f"--era-mode forecast runs without them)")
    pools: dict[str, list[NoiseEstimate]] = {}
    labels: dict[str, str] = {}
    with open(terc_path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "team,tercile,early_era":
            raise PipelineError(f"{terc_path}: unexpected header {header!r}")
        for line in fh:
            team, label, _ = line.strip().split(",")
            labels[team] = label
    with open(pool_path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "team,window_start,sigma_obs,sigma_process,converged":
            raise PipelineError(f"{pool_path}: unexpected header {header!r}")
        for line in fh:
            team, start, sobs, sproc, conv = line.strip().split(",")
            if team not in labels:
                raise PipelineError(f"{pool_path}: team {team!r} has no "
                                    f"tercile assignment")
            est = NoiseEstimate(team=team, window_start=int(start),
                                params=NoiseParams(float(sobs), float(sproc)),
                                converged=conv == "1")
            pools.setdefault(labels[team], []).append(est)
    for label in set(labels.values()):
        if not pools.get(label):
            raise PipelineError(f"tercile {label!r} has no converged noise "
                                f"estimates; rerun the `noise` command")
    return pools, labels


def _median_noise(pool) -> NoiseParams:
    return NoiseParams(
        sigma_obs=float(np.median([e.sigma_obs for e in pool])),
        sigma_process=float(np.median([e.sigma_process for e in pool])))


def _initial_states(rows, league, pools, labels, cfg: RunConfig):
    """Current record, batting deviation, and filtered ERA level per team."""
    standings = current_standings(rows)
    eras = era_series(rows)
    battings = batting_series(rows)
    walk = cfg.walk_config()
    states = []
    for team in league.teams:
        if team not in standings:
            raise PipelineError(f"team {team!r} has no games in the log; "
                                f"cannot build an initial state")
        wins, losses = standings[team]
        series = eras[team]
        if pools is not None:
            label = labels.get(team)
            if label is None:
                raise PipelineError(f"team {team!r} has no tercile "
                                    f"assignment; rerun the `noise` command")
            noise = _median_noise(pools[label])
            spread = float(np.var(series)) if len(series) > 1 else 0.0
            init = GaussianState(mean=series[0],
                                 var=max(10.0 * spread, 1e-6))
            era = filter_series(init, series, noise).mean
        else:
            label = ""
            noise = NoiseParams(sigma_obs=0.0, sigma_process=0.0)
            era = series[-1]
        states.append(TeamSimState(
            team=team, wins=wins, losses=losses,
            batting_deviation=battings[team][-1] - walk.league_mean,
            era=era, noise=noise, tercile=label))
    return states


def _read_draw_matrix(cfg: RunConfig) -> np.ndarray:
    path = _artifact(cfg, "draws.csv", "fit")
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "chain,r1,r2,r3":
            raise PipelineError(f"{path}: unexpected header {header!r}")
        for line in fh:
            _, r1, r2, r3 = line.strip().split(",")
            rows.append((float(r1), float(r2), float(r3)))
    if not rows:
        raise PipelineError(f"{path}: no posterior draws; rerun `fit`")
    return np.array(rows)


def cmd_simulate(cfg: RunConfig, extras) -> int:
    league_path = _require(cfg.league, "simulate", "a league structure file",
                           "league")
    league = read_league_csv(_open_input(league_path, "league file"),
                             season_length=cfg.season_length)
    log_path = _require(cfg.game_log, "simulate", "a game log", "game_log")
    rows = parse_game_log(_open_input(log_path, "game log"),
                          known_teams=set(league.teams))
    draws = _read_draw_matrix(cfg)
    pools, labels = _load_noise_artifacts(cfg)
    states = _initial_states(rows, league, pools, labels, cfg)

    hist_teams = list(dict.fromkeys(extras.histogram or []))
    known = set(league.teams)
    for team in hist_teams:
        if team not in known:
            raise UsageError(f"histogram team {team!r} is not in the league "
                             f"structure")

    if cfg.schedule:
        schedule = read_schedule_csv(
            _open_input(cfg.schedule, "schedule file"))
        unknown = sorted(schedule.teams - known)
        if unknown:
            raise PipelineError(f"schedule names teams missing from the "
                                f"league structure: {', '.join(unknown)}")
    else:
        standings = current_standings(rows)
        played = {t: sum(standings[t]) for t in league.teams}
        schedule = generate_schedule(league, played, seed=cfg.seed)

    results = run_replications(cfg.replications, states, schedule, draws,
                               league, cfg.seed, opts=cfg.sim_options(),
                               noise_pools=pools, n_jobs=cfg.jobs)
    summary = summarize(results)

    outputs = {}
    rep_lines = ["replication,team,wins,qualified"]
    for res in results:
        for team in sorted(res.wins):
            rep_lines.append(f"{res.replication_id},{team},{res.wins[team]},"
                             f"{1 if team in res.qualifiers else 0}")
    outputs["replication_results.csv"] = rep_lines
    outputs["summary.csv"] = _summary_csv_lines(summary)
    for team in hist_teams:
        hist = export_win_histogram(results, team)
        outputs[f"histogram_{team}.csv"] = (
            ["wins,count"] + [f"{w},{c}" for w, c in hist])
    meta = {"replications": cfg.replications, "mode": cfg.mode,
            "draws_mode": cfg.draws, "era_mode": cfg.era_mode,
            "burn_in_games": cfg.burn_in_games,
            "walk_std": repr(cfg.walk_std),
            "schedule_source": "synthetic" if schedule.synthetic else "file",
            "scheduled_games": len(schedule),
            "replication_seed_scheme": f"({cfg.seed}, replication_id)",
            "noise_pools": "none" if pools is None else "terciles"}
    outputs["simulate_metadata.txt"] = _metadata_lines(cfg, "simulate", meta)
    _emit_outputs(cfg, outputs)

    for line in _summary_stdout_lines(summary):
        print(line)
    return EXIT_OK


def _summary_csv_lines(summary) -> list:
    lines = ["Team,MeanWins,CI5,CI95,PlayoffPct"]
    for f in summary.teams:
        lines.append(f"{f.team},{f.mean_wins:.4f},{int(f.ci5)},{int(f.ci95)},"
                     f"{100.0 * f.playoff_prob:.4f}")
    return lines


def _summary_stdout_lines(summary) -> list:
    rows = [(f.team, f"{f.mean_wins:.2f}", f"{int(f.ci5)}", f"{int(f.ci95)}",
             f"{100.0 * f.playoff_prob:.1f}")
            for f in summary.teams]
    table = _aligned_table(("Team", "MeanWins", "CI5", "CI95", "PlayoffPct"),
                           rows)
    table.append(f"{summary.n_replications} replications")
    return table


# ---------------------------------------------------------------------------
# report


def cmd_report(cfg: RunConfig, extras) -> int:
    path = _artifact(cfg, "replication_results.csv", "simulate")
    per_rep: dict[int, dict] = {}
    quals: dict[int, set] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "replication,team,wins,qualified":
            raise PipelineError(f"{path}: unexpected header {header!r}")
        for line in fh:
            rep, team, wins, qualified = line.strip().split(",")
            rep = int(rep)
            per_rep.setdefault(rep, {})[team] = int(wins)
            if qualified == "1":
                quals.setdefault(rep, set()).add(team)
    if not per_rep:
        raise PipelineError(f"{path}: no replication rows; rerun `simulate`")
    results = [SeasonResult(replication_id=rep, wins=per_rep[rep],
                            qualifiers=frozenset(quals.get(rep, set())))
               for rep in sorted(per_rep)]
    for line in _summary_stdout_lines(summarize(results)):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pennantsim",
        description="Season forecasting: Bayesian game model, noise "
                    "estimation, and Monte Carlo season simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value settings file")
        p.add_argument("--game-log", dest="game_log", help="game log CSV")
        p.add_argument("--schedule", help="remaining-schedule CSV")
        p.add_argument("--league", help="league structure CSV")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--jobs", type=int, help="worker processes")
        p.add_argument("--season-length", dest="season_length", type=int)

    p = sub.add_parser("validate", help="check input files for consistency")
    add_common(p)

    p = sub.add_parser("fit", help="sample the exponent posterior")
    add_common(p)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--proposal-std", dest="proposal_std", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--chains", type=int)
    p.add_argument("--filter-mode", dest="filter_mode",
                   choices=("date-window", "games-played"))
    p.add_argument("--min-games", dest="min_games", type=int)

    p = sub.add_parser("noise", help="estimate ERA noise pools by tercile")
    add_common(p)
    p.add_argument("--window-length", dest="window_length", type=int)

    p = sub.add_parser("simulate", help="run season replications")
    add_common(p)
    p.add_argument("--replications", type=int)
    p.add_argument("--mode", choices=("marginal", "two-stage"))
    p.add_argument("--draws", choices=("posterior-predictive", "point"))
    p.add_argument("--era-mode", dest="era_mode",
                   choices=("forecast", "path"))
    p.add_argument("--burn-in-games", dest="burn_in_games", type=int)
    p.add_argument("--walk-std", dest="walk_std", type=float)
    p.add_argument("--concentration", type=float)
    p.add_argument("--histogram", action="append", metavar="TEAM",
                   help="also write histogram_TEAM.csv (repeatable)")

    p = sub.add_parser("report", help="re-summarize simulation results")
    add_common(p)
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
    if not hasattr(args, "histogram"):
        args.histogram = None
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
