"""Span tracer for the benchmark's per-layer run.

The tracer wraps public functions of the bosecool modules from outside
the package and records one span per call: name, start, end and parent.
Forked pool workers inherit the wrappers; each worker appends its spans
to its own file after every trajectory, so worker spans reach the trace.

Run as a script, it performs one traced step in a fresh interpreter and
writes the spans under ``<trace_dir>/<step>/``:

    python3 perfbench/tracer.py setup   <trace_dir> <workload> <dir> [--toy]
    python3 perfbench/tracer.py command <trace_dir> <bosecool argv...>
    python3 perfbench/tracer.py micro   <workload> <dir> <seed>

``micro`` is untraced: it times the public ``pulse_step`` on the
workload's own matrices and the emission build's allocation peak, and
writes ``<dir>/micro.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name). Every binding of the function inside the
# package is replaced, so `from .x import f` call sites are traced too.
FUNCTIONS = [
    ("bosecool.cli", "main", "cli.main"),
    ("bosecool.config", "load_config", "config.load_config"),
    ("bosecool.basis", "enumerate_levels", "basis.enumerate_levels"),
    ("bosecool.basis", "thermal_distribution", "basis.thermal_distribution"),
    ("bosecool.basis", "sample_initial_configuration",
     "basis.sample_initial_configuration"),
    ("bosecool.rates", "absorption_structure", "rates.absorption_structure"),
    ("bosecool.rates", "build_spontaneous_rates",
     "rates.build_spontaneous_rates"),
    ("bosecool.rates", "emission_quadrature", "rates.emission_quadrature"),
    ("bosecool.cache", "cache_load", "cache.cache_load"),
    ("bosecool.cache", "cache_store", "cache.cache_store"),
    ("bosecool.schedule", "resolve_cycle", "schedule.resolve_cycle"),
    ("bosecool.schedule", "figure_schedule", "schedule.figure_schedule"),
    ("bosecool.dynamics", "calibrate_pulse_area",
     "dynamics.calibrate_pulse_area"),
    ("bosecool.dynamics", "run_ensemble", "dynamics.run_ensemble"),
    ("bosecool.dynamics", "run_trajectory", "dynamics.run_trajectory"),
    ("bosecool.analysis", "find_dark_states", "analysis.find_dark_states"),
    ("bosecool.analysis", "condensation_criterion",
     "analysis.condensation_criterion"),
    ("bosecool.analysis", "split_ramp_branches", "analysis.split_ramp_branches"),
    ("bosecool.analysis", "hysteresis_extract", "analysis.hysteresis_extract"),
]

# (module, class, method, span name)
METHODS = [
    ("bosecool.rates", "AbsorptionStructure", "evaluate",
     "rates.AbsorptionStructure.evaluate"),
    ("bosecool.dynamics", "MatrixProvider", "absorption",
     "dynamics.MatrixProvider.absorption"),
    ("bosecool.dynamics", "MatrixProvider", "spontaneous",
     "dynamics.MatrixProvider.spontaneous"),
    ("bosecool.dynamics", "MatrixProvider", "prepare",
     "dynamics.MatrixProvider.prepare"),
    ("bosecool.dynamics", "PulseRates", "from_matrix",
     "dynamics.PulseRates.from_matrix"),
]


class Tracer:
    """Spans and counters of one process; one tracer per process."""

    def __init__(self, step_dir: Path):
        self.step_dir = step_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._fork_depth = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # keep the open stack so worker spans name their parent span
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._fork_depth = len(self.stack)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = (tracer.pid, next(tracer._ids))
            parent = tracer.stack[-1] if tracer.stack else (0, 0)
            tracer.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid[1], parent[0], parent[1], name, t0, t1))
            if after is not None:
                after(tracer, args, result)
            if tracer.pid != tracer.main_pid and len(tracer.stack) == tracer._fork_depth:
                tracer.flush()
            return result

        return traced

    def flush(self, meta: dict | None = None) -> None:
        record = {"pid": self.pid, "spans": self.spans,
                  "counters": self.counters}
        if meta is not None:
            record["meta"] = meta
        with open(self.step_dir / f"spans-{self.pid}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = {}


def _count_bytes_read(tracer, args, result):
    tracer.count("cache.bytes_read", os.path.getsize(args[0]))


def _count_bytes_written(tracer, args, result):
    tracer.count("cache.bytes_written", os.path.getsize(args[1]))


AFTER = {"cache.cache_load": _count_bytes_read,
         "cache.cache_store": _count_bytes_written}


def install(tracer: Tracer) -> None:
    """Replace the traced functions everywhere inside the package."""
    import bosecool.cli  # noqa: F401  (imports every module)

    modules = [m for n, m in sys.modules.items()
               if n == "bosecool" or n.startswith("bosecool.")]
    for modname, attr, name in FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(name, orig, AFTER.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    for modname, clsname, attr, name in METHODS:
        cls = getattr(sys.modules[modname], clsname)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))

    # Per-pulse counters (no span: one span per pulse would swamp the run).
    # The sampler's step function is private; if a later sampler drops it,
    # the three sampler counters read 0.
    dynamics = sys.modules["bosecool.dynamics"]
    step = getattr(dynamics, "_step", None)
    if step is None:
        return

    def counted_step(*args, **kwargs):
        events, p = step(*args, **kwargs)
        c = tracer.counters
        c["sampler.pulses"] = c.get("sampler.pulses", 0) + 1
        if events:
            c["sampler.busy"] = c.get("sampler.busy", 0) + 1
            c["sampler.excitations"] = c.get("sampler.excitations", 0) + len(events)
        return events, p

    dynamics._step = counted_step


# ------------------------------------------------------------ aggregation


def load_step(step_dir: Path) -> dict:
    """Spans of one traced step: every process, with self times."""
    spans, counters, meta = [], {}, {}
    for path in sorted(step_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                pid = rec["pid"]
                for sid, ppid, pidx, name, t0, t1 in rec["spans"]:
                    spans.append({"key": (pid, sid), "parent": (ppid, pidx),
                                  "name": name, "dur": (t1 - t0) * 1e-9})
                for k, v in rec["counters"].items():
                    counters[k] = counters.get(k, 0) + v
                if "meta" in rec:
                    meta = rec["meta"]
    by_key = {s["key"]: s for s in spans}
    for s in spans:
        s["children"] = []
    for s in spans:
        parent = by_key.get(s["parent"])
        if parent is not None:
            parent["children"].append(s)
    for s in spans:
        # a child in another process runs in parallel, not inside this span
        s["self"] = s["dur"] - sum(c["dur"] for c in s["children"]
                                   if c["key"][0] == s["key"][0])
    return {"spans": spans, "counters": counters, "meta": meta}


def layer_metrics(setup: dict, commands: list[dict],
                  command_walls: list[float], untraced_wall: float,
                  bytes_written: int, micro: dict) -> dict[str, float]:
    """Per-layer metrics over the traced set-up and command steps.

    Counts and times sum over set-up and commands; ``cache.hit_ratio`` and
    the ``trace.*`` metrics cover the commands only.
    """
    steps = [setup] + commands
    spans = [s for st in steps for s in st["spans"]]
    counters: dict[str, int] = {}
    for st in steps:
        for k, v in st["counters"].items():
            counters[k] = counters.get(k, 0) + v

    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name, pool=None):
        if pool is None:
            return by_name.get(name, [])
        return [s for s in pool if s["name"] == name]

    def calls(name, pool=None):
        return float(len(named(name, pool)))

    def dur(name, pool=None):
        return sum(s["dur"] for s in named(name, pool))

    def self_time(name):
        return sum(s["self"] for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    cmd_spans = [s for st in commands for s in st["spans"]]
    loads = calls("cache.cache_load", cmd_spans)
    stores = calls("cache.cache_store", cmd_spans)

    absorption = named("dynamics.MatrixProvider.absorption")
    memo_hits = sum(1 for s in absorption if not s["children"])

    pool_overhead = 0.0
    for ens in named("dynamics.run_ensemble"):
        pid = ens["key"][0]
        prepare = sum(c["dur"] for c in ens["children"]
                      if c["name"] == "dynamics.MatrixProvider.prepare")
        trajs = [c for c in ens["children"]
                 if c["name"] == "dynamics.run_trajectory"]
        workers = len({c["key"][0] for c in trajs if c["key"][0] != pid}) or 1
        pool_overhead += workers * (ens["dur"] - prepare) \
            - sum(c["dur"] for c in trajs)

    uncovered = 0.0  # interpreter start, imports and argument parsing included
    for st, wall in zip(commands, command_walls):
        if not st["meta"]:
            continue
        pid = st["meta"]["pid"]
        roots = [s for s in st["spans"]
                 if s["key"][0] == pid and s["parent"] == (0, 0)]
        uncovered += wall - sum(s["dur"] for s in roots)

    pulses = float(counters.get("sampler.pulses", 0))
    sampler_self = self_time("dynamics.run_trajectory")
    imports = [st["meta"]["import_s"] for st in steps if st["meta"]] or [0.0]
    traced_wall = sum(command_walls)
    return {
        "cli.import_s": statistics.median(imports),
        "cli.self_s": self_time("cli.main"),
        "cli.bytes_written": float(bytes_written),
        "config.load_config_s": dur("config.load_config"),
        "basis.enumerate_levels_s": dur("basis.enumerate_levels"),
        "rates.emission_build_s": dur("rates.build_spontaneous_rates"),
        "rates.emission_nnz": float(micro["emission_nnz"]),
        "rates.emission_build_alloc_peak_mb": micro["emission_alloc_peak_mb"],
        "rates.absorption_structure_calls": calls("rates.absorption_structure"),
        "rates.absorption_structure_s": dur("rates.absorption_structure"),
        "rates.absorption_evaluate_calls":
            calls("rates.AbsorptionStructure.evaluate"),
        "rates.absorption_evaluate_s": dur("rates.AbsorptionStructure.evaluate"),
        "cache.load_calls": calls("cache.cache_load"),
        "cache.load_s": dur("cache.cache_load"),
        "cache.bytes_read": float(counters.get("cache.bytes_read", 0)),
        "cache.store_calls": calls("cache.cache_store"),
        "cache.store_s": dur("cache.cache_store"),
        "cache.bytes_written": float(counters.get("cache.bytes_written", 0)),
        "cache.hit_ratio": ratio(loads, loads + stores),
        "schedule.resolve_cycle_calls": calls("schedule.resolve_cycle"),
        "schedule.resolve_cycle_s": dur("schedule.resolve_cycle"),
        "dynamics.provider.absorption_calls": float(len(absorption)),
        "dynamics.provider.absorption_self_s":
            self_time("dynamics.MatrixProvider.absorption"),
        "dynamics.provider.memo_hit_ratio": ratio(memo_hits, len(absorption)),
        "dynamics.pulse_rates.from_matrix_calls":
            calls("dynamics.PulseRates.from_matrix"),
        "dynamics.pulse_rates.from_matrix_s":
            dur("dynamics.PulseRates.from_matrix"),
        "dynamics.provider.prepare_s": dur("dynamics.MatrixProvider.prepare"),
        "dynamics.calibrate_pulse_area_s": dur("dynamics.calibrate_pulse_area"),
        "dynamics.sampler.pulses": pulses,
        "dynamics.sampler.busy_fraction":
            ratio(counters.get("sampler.busy", 0), pulses),
        "dynamics.sampler.excitations":
            float(counters.get("sampler.excitations", 0)),
        "dynamics.sampler.self_s": sampler_self,
        "dynamics.sampler.us_per_pulse": ratio(sampler_self * 1e6, pulses),
        "dynamics.sampler.quiet_pulse_us": micro["quiet_pulse_us"],
        "dynamics.sampler.busy_pulse_us": micro["busy_pulse_us"],
        "dynamics.ensemble.run_s": dur("dynamics.run_ensemble"),
        "dynamics.ensemble.pool_overhead_s": pool_overhead,
        "analysis.find_dark_states_s": dur("analysis.find_dark_states"),
        "analysis.condensation_criterion_s":
            dur("analysis.condensation_criterion"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.uncovered_s": uncovered,
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith(("_us", ".us_per_pulse")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("bytes_read", "bytes_written")):
        return "bytes"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


# ------------------------------------------------------------ micro-cases


def _median_us(config, rates, sp, rng, keep, pulse_step, want=400,
               budget_s=1.0) -> float:
    """Median time of public ``pulse_step`` calls whose outcome ``keep``
    accepts, cycling through the pulses of cycle 0 from ``config``."""
    times = []
    stop = time.perf_counter() + budget_s
    for i in itertools.cycle(range(len(rates))):
        t0 = time.perf_counter_ns()
        out = pulse_step(config, rates[i], sp, rng)
        t1 = time.perf_counter_ns()
        if keep(out):
            times.append((t1 - t0) * 1e-3)
        if len(times) >= want or time.perf_counter() > stop:
            break
    return statistics.median(times) if times else 0.0


def micro(config_path: Path, seed: int) -> dict:
    """Pulse costs on the workload's own basis and matrices: quiet pulses
    at the condensed state (all atoms in the first watched level), busy
    pulses at the initial state; and the emission build's allocation peak."""
    import tracemalloc
    import warnings

    import numpy as np

    from bosecool.basis import Configuration, sample_initial_configuration
    from bosecool.config import load_config
    from bosecool.dynamics import (MatrixProvider, calibrate_pulse_area,
                                   pulse_step)
    from bosecool.rates import build_spontaneous_rates, emission_quadrature
    from bosecool.schedule import resolve_cycle

    cfg = load_config(str(config_path))
    basis = cfg.build_basis()
    schedule = cfg.build_schedule()
    dist = cfg.initial_distribution(basis)
    if cfg.omega0_tau_abs == "auto":
        omega0 = calibrate_pulse_area(basis, cfg.build_params(0.5), schedule,
                                      cfg.n_atoms * dist)
    else:
        omega0 = float(cfg.omega0_tau_abs)
    params = cfg.build_params(omega0_resolved=omega0)
    quadrature = emission_quadrature(cfg.dim, cfg.emission_pattern,
                                     polar_order=cfg.quadrature_order)
    provider = MatrixProvider(basis, params, cache_dir=cfg.cache_dir,
                              quadrature=quadrature)
    provider.prepare(schedule)
    sp = provider.spontaneous_dense()
    rates = [provider.absorption(p, persist=not schedule.is_ramped(i))
             for i, p in enumerate(resolve_cycle(schedule, 0))]

    rng = np.random.Generator(np.random.Philox(seed))
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of(cfg.watched[0])] = cfg.n_atoms
    condensed = Configuration(occ)
    start = sample_initial_configuration(basis, dist, cfg.n_atoms, rng)
    quiet_us = _median_us(condensed, rates, sp, rng,
                          lambda out: not out.events, pulse_step)
    busy_us = _median_us(start, rates, sp, rng,
                         lambda out: bool(out.events), pulse_step)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tracemalloc.start()
        try:
            built = build_spontaneous_rates(basis, params, quadrature)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"quiet_pulse_us": quiet_us, "busy_pulse_us": busy_us,
            "emission_nnz": built.nnz, "emission_alloc_peak_mb": peak / 2**20}


# ------------------------------------------------------------------ main


def main(argv: list[str]) -> int:
    mode = argv[0]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if mode == "micro":
        _, workload, directory, seed = argv
        result = micro(Path(directory) / "config.yaml", int(seed))
        with open(Path(directory) / "micro.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    t0 = time.perf_counter()
    import bosecool.cli
    import_s = time.perf_counter() - t0

    step_dir = Path(argv[1])
    step_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(step_dir)
    install(tracer)
    code = 0
    try:
        if mode == "setup":
            import workloads
            workload, directory = argv[2], argv[3]
            workloads.setup(workloads.WORKLOADS[workload], Path(directory),
                            toy="--toy" in argv[4:])
        elif mode == "command":
            code = bosecool.cli.main(argv[2:])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        tracer.flush(meta={"pid": tracer.main_pid, "import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
