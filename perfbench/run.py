"""Pipeline benchmark: time each pennantsim CLI stage end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload early-marginal --seed 1 \
        --seconds 60 --trace 0

The benchmark writes the workload's inputs (league and game log, made from
--seed), then drives the real CLI, `python -m pennantsim.cli`, from `src/`.

--trace 0  Closed loop from one client: `validate`, `fit`, `noise` and
           `simulate` run one at a time as subprocesses, each followed by
           its output checks. Pipeline repetitions continue while the next
           one fits in --seconds (at least MIN_REPS). Reports the median
           wall of each stage and the peak resident memory of any stage.
--trace 1  In process, through `pennantsim.cli.main`, with one simulate
           job: a warm-up pass, then passes with every traced layer
           function wrapped (see tracing.py) in turn with passes that time
           only the stage entry points; then `run_replications` at one and
           at two jobs, back to back. Reports the per-layer metrics.
           --seconds does not apply.

The last line of stdout is the result as one JSON object. The run is also
stored, with its environment and raw samples, as .perfbench/BENCH_<label>.json
(spans of a traced run in .perfbench/SPANS_<label>.json).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
CLI_SEED = 7
STAGES = ("validate", "fit", "noise", "simulate")
TIMED_STAGES = ("fit", "noise", "simulate")
TRACE_ORDER = (True, False, False, True)  # passes after the warm-up; the
# last is traced, and its spans give the layer metrics
POOL_PAIRS = 5         # back-to-back 1-job and 2-job run_replications timings
SETUP_SAMPLES = 2      # validate runs before the first repetition, and in each
MIN_REPS = 3
STAGE_TIMEOUT = 150.0  # seconds before a stage subprocess is killed


def metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(workload_seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "workload_seed": workload_seed,
            "cli_seed": CLI_SEED}


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; "unknown" in a
    checkout without history."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Session:
    """One benchmark run: the workload, its files, and the op tally. An op
    is one stage invocation plus the checks of its outputs."""

    def __init__(self, workload, work: Path, reference):
        self.workload = workload
        self.work = work
        self.games_csv = work / "games.csv"
        self.reference = reference
        self.attempted = 0
        self.problems = []
        self.failed = 0
        self._wins_before = None

    def argv(self, stage: str, out: Path, *, jobs=None) -> list[str]:
        args = [stage, "--league", str(self.work / "league.csv"),
                "--game-log", str(self.games_csv), "--out", str(out),
                "--seed", str(CLI_SEED), *self.workload.stage_args()[stage]]
        return args + (["--jobs", str(jobs)] if jobs else [])

    def record(self, stage: str, exit_code: int, out: Path,
               stdout: str) -> bool:
        self.attempted += 1
        if exit_code != 0:
            problems = [f"{stage}: exit code {exit_code}: "
                        f"{stdout.strip()[-400:]}"]
        else:
            try:
                problems = self.check(stage, out, stdout)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"{stage}: unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def check(self, stage: str, out: Path, stdout: str) -> list[str]:
        w = self.workload
        if stage == "validate":
            return checks.check_validate(stdout)
        if stage == "fit":
            return checks.check_fit(w, out, self.reference)
        if stage == "noise":
            return checks.check_noise(out, self.reference)
        if self._wins_before is None:
            self._wins_before = checks.current_wins(self.games_csv)
        return checks.check_simulate(w, out, self._wins_before, self.reference)

    def run_cli(self, stage: str, out: Path) -> tuple[float, float, bool]:
        """One stage as a subprocess; (wall s, peak RSS MB including the
        stage's own children, outputs correct)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pennantsim.cli",
                *self.argv(stage, out)]
        log = self.work / f"{stage}.log"
        with open(log, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(STAGE_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.record(stage, proc.returncode, out, log.read_text())
        return wall, usage.ru_maxrss / 1024.0, ok

    def run_inprocess(self, cli, stage: str, out: Path) -> bool:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                code = cli.main(self.argv(stage, out, jobs=1))
        except Exception:  # a crash is a failed op, not a failed benchmark
            code, buf = -1, io.StringIO(traceback.format_exc())
        return self.record(stage, code, out, buf.getvalue())


def timed_run(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from subprocess stages; returns (metrics, samples).

    Each repetition writes into a new directory, and the previous one is
    removed untimed. Rewriting the previous repetition's files in place
    made `fit` up to twice as slow from the third repetition on."""
    out = session.work / "out0"
    samples = {name: [] for name in ("setup_s", "fit_s", "noise_s",
                                     "simulate_s", "pipeline_s")}
    peak_rss = []

    def stage(name):
        wall, rss, ok = session.run_cli(name, out)
        peak_rss.append(rss)
        return wall, ok

    stage("validate")  # warm-up: fills the bytecode and page caches
    for _ in range(SETUP_SAMPLES):
        samples["setup_s"].append(stage("validate")[0])
    start = time.perf_counter()
    reps = 0
    while True:
        for _ in range(SETUP_SAMPLES):
            samples["setup_s"].append(stage("validate")[0])
        rep = {}
        for name in TIMED_STAGES:
            rep[name], ok = stage(name)
            if not ok:
                break
        if not ok:
            break
        for name, wall in rep.items():
            samples[f"{name}_s"].append(wall)
        samples["pipeline_s"].append(sum(rep.values()))
        reps += 1
        shutil.rmtree(out)
        out = session.work / f"out{reps}"
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and elapsed * (reps + 1) / reps > seconds:
            break
    metrics = {name: statistics.median(values) if values else None
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = max(peak_rss)
    samples["peak_rss_mb"] = peak_rss
    return metrics, samples


def traced_run(session: Session) -> tuple[dict, dict]:
    """Per-layer metrics from in-process passes through the CLI stages.

    A warm-up pass, untraced, pays the first calls' lazy imports and cold
    caches, and captures the `run_replications` call. `season.pool_speedup`
    is the median ratio of that call's wall at 1 and at 2 jobs, timed back
    to back in turn. Then traced and untraced passes alternate (traced,
    plain, plain, traced), so that a drift of the machine's speed weighs on
    both alike. The layer metrics come from the last traced pass;
    `trace.overhead_frac` compares the passes' mean stage walls."""
    sys.path.insert(0, str(SRC))
    import pennantsim.cli as cli

    def one_pass(index, tracer):
        out = session.work / f"pass{index}"
        with tracer:
            for stage in STAGES:
                session.run_inprocess(cli, stage, out)
        return out, tracer

    warm_out, warm = one_pass(0, tracing.Tracer(layers=False))

    session.attempted += 1
    pool_speedup, ratios = None, []
    if "season.run_replications" in warm.captured:
        ratios = pool_ratios(session, *warm.captured.pop(
            "season.run_replications"))
        pool_speedup = statistics.median(ratios) if ratios else None
    else:
        session.failed += 1
        session.problems.append("pool: simulate never reached "
                                "run_replications")

    outs, walls = [], {True: [], False: []}
    for i, traced in enumerate(TRACE_ORDER, start=1):
        out, tracer = one_pass(i, tracing.Tracer(layers=traced))
        outs.append(out)
        walls[traced].append(tracer.stage_walls())
        if i < len(TRACE_ORDER):
            # spans kept in memory slowed the passes after them (simulate
            # up to 1.7x), so only the last pass's tracer is kept
            del tracer
    last = tracer

    # tracing must not change any output byte
    session.attempted += 1
    reference = _contents(warm_out)
    differ = set()
    for out in outs:
        files = _contents(out)
        differ |= {name for name in files.keys() | reference.keys()
                   if files.get(name) != reference.get(name)}
    if differ:
        session.failed += 1
        session.problems.append(f"trace: outputs differ between passes: "
                                f"{sorted(differ)}")

    if session.failed:
        return {}, {"spans": last.spans}
    overhead = _pipeline_wall(walls[True]) / _pipeline_wall(walls[False]) - 1
    metrics = tracing.layer_metrics(last, pool_speedup, overhead)
    detail = {"untraced_stage_s": walls[False],
              "traced_stage_s": walls[True],
              "pool_speedups": ratios,
              "stages": tracing.stage_accounting(last.spans),
              "spans": last.spans}
    return metrics, detail


def pool_ratios(session: Session, args, kwargs, results) -> list[float]:
    """Wall of run_replications at 1 job / its wall at 2 jobs, once per
    pair; the pairs alternate which job count runs first. A pooled result
    that differs from the 1-job one fails the op."""
    import pennantsim.season as season

    ratios = []
    for pair in range(POOL_PAIRS):
        walls = {}
        for jobs in ((1, 2) if pair % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            got = season.run_replications(*args, **{**kwargs,
                                                    "n_jobs": jobs})
            walls[jobs] = time.perf_counter() - start
            if got != results:
                session.failed += 1
                session.problems.append(f"pool: results with {jobs} jobs "
                                        f"differ from the simulate stage's")
                return ratios
        ratios.append(walls[1] / walls[2])
    return ratios


def _pipeline_wall(passes) -> float:
    """Mean over passes' stage walls of fit + noise + simulate, in s."""
    return statistics.fmean(sum(walls[s] for s in TIMED_STAGES)
                            for walls in passes)


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.glob("*")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the generated inputs")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="result name (default: workload, "
                                        "seed and mode)")
    args = parser.parse_args(argv)
    if not (SRC / "pennantsim" / "cli.py").is_file():
        print(f"error: no pennantsim sources under {SRC}", file=sys.stderr)
        return 2

    workload = inputs.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = metric_units(kind)
    label = args.label or (f"{workload.name}-seed{args.seed}"
                           + ("-trace" if args.trace else ""))
    work = RESULTS / f"work-{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        digests = inputs.write_inputs(workload, args.seed, work)
        session = Session(workload, work,
                          checks.load_reference(workload.name, args.seed))
        if args.trace:
            metrics, detail = traced_run(session)
        else:
            metrics, detail = timed_run(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": session.failed == 0,
              "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    spans = detail.pop("spans", None)
    record = {"label": label, "workload": dataclasses.asdict(workload),
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "inputs": digests,
              "reference": "stored" if session.reference else "none",
              "problems": session.problems, "result": result,
              "detail": detail}
    (RESULTS / f"BENCH_{label}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"SPANS_{label}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start_ns", "end_ns"],
             "spans": spans}))
    for problem in session.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
