"""In-process tracing of the pipeline's layers, from outside the package.

A Tracer replaces public functions of pennantsim's modules with wrappers
that record one span per call: (span id, parent span id, name, start ns,
end ns). Spans stay in memory until the run ends. Every module attribute
bound to the same function object is replaced, so a call is traced whether
it goes through `pennantsim.cli`'s imported name or the defining module's
global (for instance `run_chain` called from `tune_proposal_std`).
`uninstall` puts the originals back.

Pool workers do not carry the wrappers, so a traced pass runs `simulate`
with one job.
"""

from __future__ import annotations

import collections
import importlib
import statistics
import time

MODULES = ("cli", "gamelog", "mcmc", "kalman", "season")

# layer -> public functions traced in that layer
LAYER_FUNCTIONS = {
    "gamelog": ("parse_game_log", "derive_pregame_records",
                "filter_training_window"),
    "mcmc": ("log_ratio_design", "design_log_likelihood", "run_chain",
             "tune_proposal_std", "split_rhat", "effective_sample_size"),
    "kalman": ("sliding_noise_estimates", "estimate_noise", "filter_series",
               "sample_noise"),
    "season": ("generate_schedule", "run_replication", "run_replications",
               "playoff_qualifiers", "summarize"),
}
STAGES = ("validate", "fit", "noise", "simulate")
# kalman's search box floor for each sigma; a fit there is pinned
SIGMA_FLOOR = 1e-4


def _modules():
    return {name: importlib.import_module(f"pennantsim.{name}")
            for name in MODULES}


class Tracer:
    """Wraps pennantsim functions; `layers=False` traces only the CLI
    stages and `season.run_replications`, whose call it also captures."""

    def __init__(self, *, layers: bool = True):
        self.layers = layers
        self.spans = []          # (id, parent, name, start_ns, end_ns)
        self.counters = collections.Counter()
        self.captured = {}       # name -> (args, kwargs, result)
        self._stack = [0]
        self._next_id = 1
        self._patches = []       # (namespace, key, original)

    def _wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced

    def _on_return(self, name):
        count = self.counters

        def capture(args, kwargs, result):
            self.captured[name] = (args, kwargs, result)

        def parse(args, kwargs, rows):
            count["gamelog.rows"] += len(rows)

        def chain(args, kwargs, draws):
            n = _arg(args, kwargs, 2, "cfg").n_iterations
            count["mcmc.proposals"] += n
            count["mcmc.accepted"] += round(draws.acceptance_rate * n)

        def window(args, kwargs, estimate):
            if estimate.converged and estimate.sigma_process <= SIGMA_FLOOR \
                    * (1.0 + 1e-9):
                count["kalman.pinned"] += 1

        def replication(args, kwargs, result):
            count["season.games"] += len(_arg(args, kwargs, 1,
                                              "schedule").games)

        hooks = {"gamelog.parse_game_log": parse, "mcmc.run_chain": chain,
                 "kalman.estimate_noise": window,
                 "season.run_replication": replication}
        if not self.layers:
            hooks = {"season.run_replications": capture}
        return hooks.get(name)

    def install(self) -> None:
        mods = _modules()
        cli = mods["cli"]
        for stage in STAGES:
            self._patch(cli.COMMANDS, stage,
                        self._wrap(f"cli.{stage}", cli.COMMANDS[stage]))
        traced = LAYER_FUNCTIONS if self.layers \
            else {"season": ("run_replications",)}
        for layer, functions in traced.items():
            for fn_name in functions:
                original = getattr(mods[layer], fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, self._on_return(name))
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        self._patch(vars(mod), fn_name, wrapper)

    def _patch(self, namespace, key, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stage_walls(self) -> dict[str, float]:
        """Seconds per CLI stage (the last call of each)."""
        return {name[4:]: (end - start) / 1e9
                for _, _, name, start, end in self.spans
                if name.startswith("cli.")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {sid: end - start for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def stage_accounting(spans) -> dict:
    """Per CLI stage: its wall, the stage's own (cli) self time, and the self
    time of each layer's spans beneath it, all in ms. The parts sum to the
    wall; `dominant` names the layer with the most self time."""
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, name, *_ in spans}
    own = _self_times(spans)
    stage_of = {}

    def stage(sid):
        if sid not in stage_of:
            name = name_of.get(sid)
            if name is None:
                stage_of[sid] = None
            elif name.startswith("cli."):
                stage_of[sid] = sid
            else:
                stage_of[sid] = stage(parent_of[sid])
        return stage_of[sid]

    table = {}
    for sid, _, name, start, end in spans:
        if name.startswith("cli."):
            table[sid] = {"stage": name[4:], "wall_ms": (end - start) / 1e6,
                          "layers_ms": {"cli": own[sid] / 1e6}}
    for sid, _, name, *_ in spans:
        top = stage(sid)
        if top is None or top == sid:
            continue
        layer = name.split(".", 1)[0]
        layers = table[top]["layers_ms"]
        layers[layer] = layers.get(layer, 0.0) + own[sid] / 1e6
    out = {}
    for row in table.values():
        layers = row["layers_ms"]
        rest = {k: v for k, v in layers.items() if k != "cli"}
        row["accounted_frac"] = sum(layers.values()) / row["wall_ms"]
        row["dominant"] = max(rest, key=rest.get) if rest else "cli"
        out[row.pop("stage")] = row
    return out


def layer_metrics(tracer: Tracer, pool_speedup: float,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass, plus
    the two measured outside it."""
    spans = tracer.spans
    own = _self_times(spans)
    durations = collections.defaultdict(list)
    ids = collections.defaultdict(list)
    for sid, _, name, start, end in spans:
        durations[name].append(end - start)
        ids[name].append(sid)
    tune_ids = set(ids["mcmc.tune_proposal_std"])
    chain_spans = [(parent, end - start) for _, parent, name, start, end
                   in spans if name == "mcmc.run_chain"]
    c = tracer.counters

    def n(name):
        return len(durations[name])

    def total_ms(*names):
        return sum(sum(durations[name]) for name in names) / 1e6

    def self_ns(name):
        return sum(own[sid] for sid in ids[name])

    def mean(name, scale):
        values = durations[name]
        return statistics.fmean(values) / scale if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    run_chains = n("mcmc.run_chain")
    return {
        "gamelog.rows": ratio(c["gamelog.rows"], n("gamelog.parse_game_log")),
        "gamelog.parse_ms": mean("gamelog.parse_game_log", 1e6),
        "gamelog.derive_ms": mean("gamelog.derive_pregame_records", 1e6),
        "gamelog.filter_ms": mean("gamelog.filter_training_window", 1e6),
        "mcmc.design_builds": n("mcmc.log_ratio_design"),
        "mcmc.design_ms": total_ms("mcmc.log_ratio_design"),
        "mcmc.loglik_evals": n("mcmc.design_log_likelihood"),
        "mcmc.loglik_us": mean("mcmc.design_log_likelihood", 1e3),
        "mcmc.tune_rounds": sum(parent in tune_ids
                                for parent, _ in chain_spans),
        "mcmc.tune_ms": total_ms("mcmc.tune_proposal_std"),
        "mcmc.chains_ms": sum(d for parent, d in chain_spans
                              if parent not in tune_ids) / 1e6,
        "mcmc.accept_frac": ratio(c["mcmc.accepted"], c["mcmc.proposals"]),
        "mcmc.in_box_frac": ratio(n("mcmc.design_log_likelihood")
                                  - run_chains, c["mcmc.proposals"]),
        "mcmc.diag_ms": total_ms("mcmc.split_rhat",
                                 "mcmc.effective_sample_size"),
        "kalman.windows": n("kalman.estimate_noise"),
        "kalman.window_ms": mean("kalman.estimate_noise", 1e6),
        "kalman.noise_fit_ms": total_ms("kalman.sliding_noise_estimates"),
        "kalman.pinned_frac": ratio(c["kalman.pinned"],
                                    n("kalman.estimate_noise")),
        "kalman.filter_ms": total_ms("kalman.filter_series"),
        "kalman.sample_noise_calls": n("kalman.sample_noise"),
        "kalman.sample_noise_us": mean("kalman.sample_noise", 1e3),
        "season.replications": n("season.run_replication"),
        "season.games": c["season.games"],
        "season.replication_ms": mean("season.run_replication", 1e6),
        "season.ns_per_game": ratio(self_ns("season.run_replication"),
                                    c["season.games"]),
        "season.playoff_us": mean("season.playoff_qualifiers", 1e3),
        "season.summarize_ms": total_ms("season.summarize"),
        "season.schedule_ms": total_ms("season.generate_schedule"),
        "season.pool_speedup": pool_speedup,
        "cli.fit_self_ms": self_ns("cli.fit") / 1e6,
        "cli.noise_self_ms": self_ns("cli.noise") / 1e6,
        "cli.simulate_self_ms": self_ns("cli.simulate") / 1e6,
        "trace.overhead_frac": overhead_frac,
    }
