"""Store the forecast of the current sources as the benchmark's reference.

Usage, from the repository root:

    python3 perfbench/make_reference.py

For every workload and workload seed in checks.REFERENCE_SEEDS (0-39), runs
fit, noise and simulate in process (one job; the results do not depend on
the job count), checks the outputs, and records posterior summaries, the
noise fit's per-tercile summary and per-team forecasts. reference.json is written
whole at the end, so it always comes from one version of the sources.
Regenerate it only for a change that is meant to move the forecast, and say
so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import run


def reference_for(workload, seed: int, cli) -> dict:
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        work = Path(tmp)
        inputs.write_inputs(workload, seed, work)
        session = run.Session(workload, work, reference=None)
        out = work / "out"
        for stage in ("fit", "noise", "simulate"):
            session.run_inprocess(cli, stage, out)
        if session.problems:
            raise SystemExit(f"{workload.name} seed {seed}: "
                             f"{session.problems}")
        return checks.reference_entry(out)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pennantsim.cli as cli

    run.RESULTS.mkdir(exist_ok=True)
    data = {"cli_seed": run.CLI_SEED, "workloads": {}}
    for name, workload in sorted(inputs.WORKLOADS.items()):
        entries = data["workloads"][name] = {}
        for seed in checks.REFERENCE_SEEDS:
            entries[str(seed)] = reference_for(workload, seed, cli)
            print(f"{name} seed {seed}", flush=True)
    tmp = checks.REFERENCE_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True))
    os.replace(tmp, checks.REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
