"""Run the benchmark on ten seeds per workload and summarize the runs.

Usage, from the repository root:

    python3 perfbench/aggregate.py LABEL

For every workload, runs `run.py --trace 0` once for each workload seed in
SEEDS, at BENCHMARK.json's run_seconds, then one `--trace 1` run on the
first seed, one run at a time. Writes .perfbench/BENCH_<LABEL>.json with,
per workload and end-to-end metric, the ten values, their median, first and
third quartiles, and spread = (q3 - q1) / median. Quartiles are Python's
`statistics.quantiles(values, n=4)` (its default "exclusive" method). The
per-layer metrics and the stage accounting of the traced run are included.
perfbench/baseline/BENCH_baseline.json is this file for the label
"baseline".
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import inputs
import run

SEEDS = range(10)


def one_run(workload: str, seed: int, trace: int, label: str,
            seconds: int) -> dict:
    """The BENCH record of one run.py invocation."""
    subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--label", label],
                   cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((run.RESULTS / f"BENCH_{label}.json").read_text())


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def summarize(runs: list[dict], traced: dict) -> dict:
    results = [r["result"] for r in runs]
    metrics = results[0]["metrics"]
    return {
        "seeds": list(SEEDS),
        "inputs_sha256": {str(r["environment"]["workload_seed"]):
                          r["inputs"]["games.csv"] for r in runs},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "all_correct": all(r["correct"] for r in results),
        "reference": sorted({r["reference"] for r in runs}),
        "end_to_end": {name: {"unit": m["unit"], **spread(
            [r["metrics"][name]["value"] for r in results])}
            for name, m in metrics.items()},
        "traced_seed0": {
            "correct": traced["result"]["correct"],
            "per_layer": {name: m["value"] for name, m
                          in traced["result"]["metrics"].items()},
            "stages": traced["detail"].get("stages")},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    out = {"label": label, "environment": run.environment(None),
           "command": f"python3 perfbench/run.py --workload <name> --seed "
                      f"<{SEEDS[0]}-{SEEDS[-1]}> --seconds {seconds} "
                      f"--trace 0|1",
           "workloads": {}}
    del out["environment"]["workload_seed"]
    for name in inputs.WORKLOADS:
        runs = [one_run(name, seed, 0, f"{label}-{name}-seed{seed}", seconds)
                for seed in SEEDS]
        traced = one_run(name, SEEDS[0], 1,
                         f"{label}-{name}-seed{SEEDS[0]}-trace", seconds)
        entry = out["workloads"][name] = summarize(runs, traced)
        print(name, "correct" if entry["all_correct"] else "FAILED",
              {k: (round(v["median"], 3), round(v["spread"], 3))
               for k, v in entry["end_to_end"].items()}, flush=True)
    run.RESULTS.mkdir(exist_ok=True)
    (run.RESULTS / f"BENCH_{label}.json").write_text(
        json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
