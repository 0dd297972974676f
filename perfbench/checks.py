"""Output checks for each pipeline stage.

Each check returns a list of problems; an empty list means the stage's
outputs are correct. Structural checks hold for any workload seed. If the
workload seed has an entry in `reference.json` (written by
`make_reference.py` when the benchmark was added), the forecast must also
agree with it: posterior means, per-team mean wins and playoff rates within
REFERENCE_SE Monte-Carlo standard errors, and the noise fit's per-tercile
summary within the NOISE_* tolerances. Those are tolerances, not byte
comparisons, so a documented change of random stream or of optimizer passes
while a broken model does not.
"""

from __future__ import annotations

import collections
import csv
import json
import math
import statistics
from pathlib import Path

import inputs

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = range(40)  # workload seeds stored in reference.json
REFERENCE_SE = 5.0     # allowed distance from the reference, in combined SEs
TRUTH_SD = 4.0         # allowed distance of a posterior mean from the truth
RHAT_LIMIT = 1.1
BURN_IN, THIN = 2_000, 5            # the CLI's fit defaults
QUALIFIERS_PER_LEAGUE = 6           # 3 division winners + 3 wild cards
PARAMS = ("r1", "r2", "r3")
TERCILES = ("low", "medium", "high")
# Noise fit against the generator's truth. 30-game windows barely identify a
# process sd this far below the observation sd, so the per-window MLE of
# sigma_process is boundary-biased low and only sigma_obs and the ordering
# are held to the truth.
TRUTH_SIGMA_OBS_REL = 0.25    # median sigma_obs within 25 % of the truth
MIN_OBS_ABOVE_PROCESS = 0.9   # share of windows with sigma_obs > sigma_process
# Noise fit against the reference, per tercile. sigma_process is compared by
# its mean: many windows sit at the search box's floor, so its median can
# jump between the floor and the rest on a change far below the tolerance.
NOISE_COUNT_REL = 0.02        # converged windows
NOISE_OBS_REL = 0.03          # median sigma_obs
NOISE_PROCESS_REL = 0.15      # mean sigma_process


def load_reference(workload: str, seed: int):
    """The stored forecast for (workload, seed), or None."""
    if not REFERENCE_FILE.exists():
        return None
    data = json.loads(REFERENCE_FILE.read_text())
    return data["workloads"].get(workload, {}).get(str(seed))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def current_wins(games_csv: Path) -> dict[str, int]:
    """Wins per team in the log's current season (every team has played)."""
    wins = collections.Counter()
    for row in _rows(games_csv):
        if not row["date"].startswith(str(inputs.CURRENT_YEAR)):
            continue
        home_won = int(row["home_runs"]) > int(row["away_runs"])
        wins[row["home"]] += home_won
        wins[row["away"]] += not home_won
    return dict(wins)


def posterior(out: Path) -> dict[str, tuple[float, float, float]]:
    """Parameter -> (mean, sd, ess) from diagnostics.csv."""
    return {row["parameter"]: (float(row["mean"]), float(row["sd"]),
                               float(row["ess"]))
            for row in _rows(out / "diagnostics.csv")
            if row["parameter"] in PARAMS}


def forecast(out: Path) -> tuple[int, dict[str, tuple[float, float, float]]]:
    """(replications, team -> (mean wins, sd of wins, playoff rate)) from
    replication_results.csv."""
    wins = collections.defaultdict(list)
    made = collections.Counter()
    reps = set()
    for row in _rows(out / "replication_results.csv"):
        reps.add(row["replication"])
        wins[row["team"]].append(int(row["wins"]))
        made[row["team"]] += row["qualified"] == "1"
    table = {team: (statistics.fmean(values), statistics.stdev(values),
                    made[team] / len(values))
             for team, values in wins.items()}
    return len(reps), table


def check_validate(stdout: str) -> list[str]:
    return [] if "no issues found" in stdout \
        else ["validate: inputs reported as invalid"]


def check_fit(workload, out: Path, reference) -> list[str]:
    problems = []
    kept = len(range(BURN_IN, workload.iterations, THIN))
    per_chain = collections.Counter(row["chain"]
                                    for row in _rows(out / "draws.csv"))
    expected = {str(k): kept for k in range(workload.chains)}
    if per_chain != expected:
        problems.append(f"fit: draws.csv has {dict(per_chain)} rows per "
                        f"chain, expected {kept} for each of "
                        f"{workload.chains} chains")
    post = posterior(out)
    rhats = {row["parameter"]: float(row["rhat"])
             for row in _rows(out / "diagnostics.csv")
             if row["parameter"] in PARAMS}
    for name, truth in zip(PARAMS, inputs.TRUE_EXPONENTS):
        if rhats.get(name, math.inf) > RHAT_LIMIT:
            problems.append(f"fit: R-hat {name} = {rhats.get(name)}")
        mean, sd, _ = post[name]
        if abs(mean - truth) > TRUTH_SD * sd:
            problems.append(f"fit: posterior mean {name} = {mean:.4f} is "
                            f"more than {TRUTH_SD} sd ({sd:.4f}) from the "
                            f"true exponent {truth}")
    if reference is not None:
        for name in PARAMS:
            mean, sd, ess = post[name]
            ref_mean, ref_sd, ref_ess = reference["posterior"][name]
            tol = REFERENCE_SE * math.hypot(sd / math.sqrt(ess),
                                            ref_sd / math.sqrt(ref_ess))
            if abs(mean - ref_mean) > tol:
                problems.append(f"fit: posterior mean {name} = {mean:.4f}, "
                                f"reference {ref_mean:.4f} (tolerance "
                                f"{tol:.4f})")
    return problems


def noise_summary(out: Path) -> dict[str, list[float]]:
    """Tercile -> [converged windows, median sigma_obs, mean sigma_process]
    from noise_estimates.csv and terciles.csv."""
    label = {row["team"]: row["tercile"]
             for row in _rows(out / "terciles.csv")}
    fits = collections.defaultdict(list)
    for row in _rows(out / "noise_estimates.csv"):
        fits[label[row["team"]]].append((float(row["sigma_obs"]),
                                         float(row["sigma_process"])))
    return {name: [len(fits[name]),
                   statistics.median(obs for obs, _ in fits[name]),
                   statistics.fmean(proc for _, proc in fits[name])]
            for name in TERCILES if fits[name]}


def check_noise(out: Path, reference) -> list[str]:
    problems = []
    sizes = collections.Counter(row["tercile"]
                                for row in _rows(out / "terciles.csv"))
    if sorted(sizes.values()) != [10, 10, 10]:
        problems.append(f"noise: tercile sizes {dict(sizes)}, expected "
                        f"10/10/10")
    fits = [(row["team"], float(row["sigma_obs"]),
             float(row["sigma_process"]))
            for row in _rows(out / "noise_estimates.csv")]
    teams = {team for team, _, _ in fits}
    if teams != set(inputs.league_teams()):
        problems.append(f"noise: estimates for {len(teams)} of "
                        f"{len(inputs.league_teams())} teams")
        return problems
    obs = statistics.median(o for _, o, _ in fits)
    if abs(obs - inputs.ERA_OBS_SD) > TRUTH_SIGMA_OBS_REL * inputs.ERA_OBS_SD:
        problems.append(f"noise: median sigma_obs {obs:.4f}, true "
                        f"{inputs.ERA_OBS_SD}")
    above = statistics.fmean(o > p for _, o, p in fits)
    if above < MIN_OBS_ABOVE_PROCESS:
        problems.append(f"noise: sigma_obs > sigma_process in {above:.1%} "
                        f"of windows")
    if reference is not None:
        problems += _compare_noise(noise_summary(out), reference["noise"])
    return problems


def _compare_noise(summary, reference) -> list[str]:
    problems = []
    for name, (ref_n, ref_obs, ref_proc) in reference.items():
        n, obs, proc = summary.get(name, (0, math.nan, math.nan))
        for what, value, ref, rel in (
                ("converged windows", n, ref_n, NOISE_COUNT_REL),
                ("median sigma_obs", obs, ref_obs, NOISE_OBS_REL),
                ("mean sigma_process", proc, ref_proc, NOISE_PROCESS_REL)):
            if not abs(value - ref) <= rel * ref:
                problems.append(f"noise: {name} tercile {what} {value:.5g}, "
                                f"reference {ref:.5g} (tolerance "
                                f"{rel:.0%})")
    return problems


def check_simulate(workload, out: Path, wins_before, reference) -> list[str]:
    """wins_before: current_wins of the workload's log."""
    problems = []
    remaining = workload.season_length - workload.rounds_played
    total = sum(wins_before.values()) + inputs.scheduled_games(workload)
    by_rep = collections.defaultdict(list)
    for row in _rows(out / "replication_results.csv"):
        by_rep[row["replication"]].append(row)
    if len(by_rep) != workload.replications:
        problems.append(f"simulate: {len(by_rep)} replications, expected "
                        f"{workload.replications}")
    for rep, rows in by_rep.items():
        wins = {row["team"]: int(row["wins"]) for row in rows}
        if set(wins) != set(wins_before):
            problems.append(f"simulate: replication {rep} covers "
                            f"{len(wins)} teams")
            continue
        if sum(wins.values()) != total:
            problems.append(f"simulate: replication {rep} has "
                            f"{sum(wins.values())} wins, expected {total}")
        for team, w in wins_before.items():
            if not w <= wins[team] <= w + remaining:
                problems.append(f"simulate: replication {rep} gives {team} "
                                f"{wins[team]} wins from {w} with "
                                f"{remaining} left")
        quals = collections.Counter(row["team"][0] for row in rows
                                    if row["qualified"] == "1")
        if quals != {lg: QUALIFIERS_PER_LEAGUE for lg in inputs.LEAGUES}:
            problems.append(f"simulate: replication {rep} qualifiers per "
                            f"league {dict(quals)}")
        if len(problems) > 20:
            return problems
    summary = _rows(out / "summary.csv")
    if sorted(row["Team"] for row in summary) != sorted(wins_before):
        problems.append(f"simulate: summary.csv has {len(summary)} rows, "
                        f"expected one per team")
    n_reps, table = forecast(out)
    for row in summary:
        mean, ci5, ci95 = (float(row["MeanWins"]), float(row["CI5"]),
                           float(row["CI95"]))
        if not ci5 <= mean <= ci95:
            problems.append(f"simulate: {row['Team']} MeanWins {mean} "
                            f"outside [{ci5}, {ci95}]")
        if row["Team"] in table \
                and abs(mean - table[row["Team"]][0]) > 1e-4:
            problems.append(f"simulate: {row['Team']} MeanWins {mean} "
                            f"disagrees with replication_results.csv")
    if reference is not None:
        problems += _compare_forecast(n_reps, table, reference)
    return problems


def _rate_se(p: float, n: int) -> float:
    """Binomial SE, with p shrunk off 0 and 1 so a zero count keeps a
    nonzero spread."""
    p = (p * n + 1.0) / (n + 2.0)
    return math.sqrt(p * (1.0 - p) / n)


def _compare_forecast(n_reps, table, reference) -> list[str]:
    problems = []
    ref_n = reference["replications"]
    for team, (ref_mean, ref_sd, ref_rate) in reference["teams"].items():
        mean, sd, rate = table[team]
        tol = REFERENCE_SE * math.hypot(sd / math.sqrt(n_reps),
                                        ref_sd / math.sqrt(ref_n))
        if abs(mean - ref_mean) > tol:
            problems.append(f"simulate: {team} mean wins {mean:.3f}, "
                            f"reference {ref_mean:.3f} (tolerance {tol:.3f})")
        tol = REFERENCE_SE * math.hypot(_rate_se(rate, n_reps),
                                        _rate_se(ref_rate, ref_n))
        if abs(rate - ref_rate) > tol:
            problems.append(f"simulate: {team} playoff rate {rate:.4f}, "
                            f"reference {ref_rate:.4f} (tolerance {tol:.4f})")
    return problems


def reference_entry(out: Path) -> dict:
    """What reference.json stores for one (workload, seed)."""
    n_reps, table = forecast(out)
    return {"posterior": {k: [round(x, 6) for x in v]
                          for k, v in posterior(out).items()},
            "noise": {k: [round(x, 6) for x in v]
                      for k, v in noise_summary(out).items()},
            "replications": n_reps,
            "teams": {team: [round(x, 6) for x in v]
                      for team, v in sorted(table.items())}}
