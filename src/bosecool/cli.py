"""Command-line front end: config-driven runs with CSV/report outputs.

Exit codes: 0 ok, 2 config error, 3 physics-validity error, 4 I/O error.
Failures print a single machine-readable line to stderr. All output
files are written atomically (temp file in the target directory, then
rename), so an interrupted run never leaves truncated results.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
import tempfile
import time

import numpy as np

from .analysis import (condensation_criterion, find_dark_states,
                       hysteresis_extract, split_ramp_branches)
from .basis import Basis
from .cache import CacheError
from .config import ConfigError, RunConfig, load_config
from .dynamics import (EnsembleResult, MatrixProvider, RecorderSpec,
                       StructureMemo, calibrate_pulse_area, run_ensemble)
from .rates import (PhysicsValidityError, emission_memory_bytes,
                    emission_quadrature)
from .schedule import resolve_cycle

CACHE_ENV = "BOSECOOL_CACHE_DIR"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _level_tag(level) -> str:
    return "_".join(str(c) for c in level)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    env_cache = os.environ.get(CACHE_ENV)
    if env_cache:
        updates["cache_dir"] = env_cache
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


@dataclasses.dataclass
class _Prepared:
    cfg: RunConfig
    basis: Basis
    params: object
    schedule: object
    provider: MatrixProvider
    distribution: np.ndarray
    watched_levels: tuple
    watched_ids: tuple
    omega0_resolved: float
    omega0_was_auto: bool


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_emission_memory(basis: Basis, quadrature) -> None:
    """Refuse, before any large allocation, a basis whose emission
    matrix cannot fit in physical memory."""
    need = emission_memory_bytes(basis, quadrature)
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigError(
            f"the emission matrix of {basis.fingerprint()} needs about "
            f"{need:,} bytes ({need / 2**30:.1f} GiB), more than the "
            f"{have:,} bytes ({have / 2**30:.1f} GiB) of physical memory; "
            "lower basis.max_shell")


def _prepare(cfg: RunConfig, extra_watched=(),
             emission: bool = True) -> _Prepared:
    """Resolve a config into a run; ``emission`` says whether the command
    needs the emission matrix, whose memory is checked first."""
    basis = cfg.build_basis()
    quadrature = emission_quadrature(cfg.dim, cfg.emission_pattern,
                                     polar_order=cfg.quadrature_order)
    if emission:
        _check_emission_memory(basis, quadrature)
    schedule = cfg.build_schedule()
    distribution = cfg.initial_distribution(basis)

    watched_levels = list(cfg.watched)
    for lv in extra_watched:
        if lv not in watched_levels:
            watched_levels.append(lv)
    if not watched_levels:
        raise ConfigError("at least one watched level is required")
    watched_ids = tuple(basis.id_of(lv) for lv in watched_levels)

    was_auto = cfg.omega0_tau_abs == "auto"
    structures = StructureMemo()  # calibration's structures serve the run too
    if was_auto:
        probe = cfg.build_params(omega0_resolved=0.5)
        expected = cfg.n_atoms * distribution
        omega0 = calibrate_pulse_area(basis, probe, schedule, expected,
                                      structures=structures)
    else:
        omega0 = float(cfg.omega0_tau_abs)
    params = cfg.build_params(omega0_resolved=omega0)

    if cfg.cache_dir is not None:
        os.makedirs(cfg.cache_dir, exist_ok=True)
    provider = MatrixProvider(basis, params, cache_dir=cfg.cache_dir,
                              quadrature=quadrature, structures=structures)
    return _Prepared(cfg=cfg, basis=basis, params=params, schedule=schedule,
                     provider=provider, distribution=distribution,
                     watched_levels=tuple(watched_levels),
                     watched_ids=watched_ids, omega0_resolved=omega0,
                     omega0_was_auto=was_auto)


def _run(prep: _Prepared, threads: int) -> tuple[EnsembleResult, float]:
    """The ensemble and its wall time; matrices load or build untimed."""
    cfg = prep.cfg
    recorder = RecorderSpec(watched_ids=prep.watched_ids,
                            stride=cfg.recorder.stride,
                            record_events=cfg.recorder.events)
    prep.provider.prepare(prep.schedule)
    start = time.monotonic()
    result = run_ensemble(prep.basis, prep.params, prep.schedule,
                          prep.distribution, cfg.n_atoms, cfg.n_traj,
                          cfg.seed, recorder, provider=prep.provider,
                          threads=threads)
    return result, time.monotonic() - start


def _observables_csv(prep: _Prepared, result: EnsembleResult) -> str:
    cfg = prep.cfg
    buf = io.StringIO()
    cols = ["cycle"]
    cols += [f"ramp{pi}_{fld}" for pi, fld in result.ramp_fields]
    for lv in prep.watched_levels:
        tag = _level_tag(lv)
        cols += [f"frac_{tag}_mean", f"frac_{tag}_std"]
    cols.append("mean_shell")
    buf.write(",".join(cols) + "\n")

    frac_mean = result.watched_mean / cfg.n_atoms
    frac_std = result.watched_std / cfg.n_atoms
    for r in range(result.cycles.shape[0]):
        row = [str(int(result.cycles[r]))]
        row += [_fmt(v) for v in result.ramp_values[r]]
        for j in range(len(prep.watched_ids)):
            row.append(_fmt(frac_mean[r, j]))
            row.append(_fmt(frac_std[r, j]))
        row.append(_fmt(result.mean_shell_mean[r]))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _events_csv(result: EnsembleResult) -> str:
    buf = io.StringIO()
    buf.write("trajectory,cycle,pulse_index,from_id,excited_id,to_id\n")
    for t, ev in enumerate(result.events):
        for row in ev:
            buf.write(f"{t},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]}\n")
    return buf.getvalue()


def _summary_text(prep: _Prepared, result: EnsembleResult, command: str,
                  threads: int, wall: float, extra_lines=()) -> str:
    cfg = prep.cfg
    frac_mean = result.watched_mean / cfg.n_atoms
    first = frac_mean[:, 0]
    above = np.flatnonzero(first > 0.9)
    to_90 = str(int(result.cycles[above[0]])) if above.size else "none"
    counters = prep.provider.counters
    lines = [
        f"command: {command}",
        f"seed: {cfg.seed}",
        f"threads: {threads}",
        f"atoms: {cfg.n_atoms}",
        f"trajectories: {cfg.n_traj}",
        f"total_cycles: {prep.schedule.total_cycles}",
        f"omega0_tau_abs: {_fmt(prep.omega0_resolved)}"
        + (" (auto)" if prep.omega0_was_auto else ""),
        f"final_fraction_{_level_tag(prep.watched_levels[0])}: "
        + _fmt(first[-1]),
        f"cycles_to_0.9: {to_90}",
        f"p_max: {_fmt(result.p_max)}",
        f"pulses_above_p_0.5: {result.n_warn_pulses}",
        "events_total: " + (str(sum(ev.shape[0] for ev in result.events))
                            if cfg.recorder.events else "not recorded"),
        f"abs_builds: {counters['abs_builds']}",
        f"sp_builds: {counters['sp_builds']}",
        f"structure_builds: {counters['structure_builds']}",
        f"disk_loads: {counters['disk_loads']}",
        f"ramp_evals: {result.ramp_evals}",
        f"wall_seconds: {wall:.3f}",
    ]
    lines += list(extra_lines)
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    threads = _threads(args)
    prep = _prepare(cfg)
    result, wall = _run(prep, threads)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "observables.csv"),
                  _observables_csv(prep, result))
    _atomic_write(os.path.join(cfg.out_dir, "events.csv"),
                  _events_csv(result))
    _atomic_write(os.path.join(cfg.out_dir, "summary.txt"),
                  _summary_text(prep, result, "simulate", threads, wall))
    return 0


def cmd_darkstates(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    prep = _prepare(cfg, emission=False)
    pulses = resolve_cycle(prep.schedule, 0)
    exact = find_dark_states(pulses, prep.basis, prep.params,
                             provider=prep.provider)
    near = find_dark_states(pulses, prep.basis, prep.params, tol=1e-3,
                            provider=prep.provider)
    lines = [f"pulses: {len(pulses)}",
             f"exact_dark_count: {len(exact)}"]
    lines += [f"dark: level={lv} depletion={_fmt(g)}" for lv, g in exact]
    lines.append(f"near_dark_count_tol_1e-3: {len(near)}")
    lines += [f"near: level={lv} depletion={_fmt(g)}" for lv, g in near]
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "darkstates.txt"),
                  "\n".join(lines) + "\n")
    return 0


def cmd_criterion(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.criterion_target is None:
        raise ConfigError("criterion.target is required for this command")
    prep = _prepare(cfg, extra_watched=(cfg.criterion_target,))
    pulses = resolve_cycle(prep.schedule, 0)
    report = condensation_criterion(pulses, prep.basis, prep.params,
                                    cfg.criterion_target,
                                    provider=prep.provider,
                                    n_atoms=cfg.n_atoms)
    lines = [
        f"target: {report.target_level}",
        f"verdict: {report.verdict}",
        f"min_net_drain: {_fmt(report.min_tilde)}",
        f"violating_count: {report.violating_ids.size}",
        f"indeterminate_sources: {report.indeterminate_source_ids.size}",
    ]
    for i in report.violating_ids[:50]:
        lines.append(f"violating: level={prep.basis.level(int(i))} "
                     f"net_drain={_fmt(report.tilde[int(i)])}")
    for i in report.indeterminate_source_ids[:50]:
        lines.append(f"indeterminate_source: level={prep.basis.level(int(i))}")
    if report.cooling_time_cycles is not None:
        lines.append(f"cooling_time_cycles: {_fmt(report.cooling_time_cycles)}")
        lines.append(f"cooling_time_seconds: {_fmt(report.cooling_time_seconds)}")
    else:
        lines.append("cooling_time_cycles: none")
    lines.append(f"phase_diffusion_per_cycle: "
                 f"{_fmt(report.phase_diffusion_per_cycle)}")
    lines.append(f"phase_diffusion_hz: {_fmt(report.phase_diffusion_hz)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "criterion.txt"),
                  "\n".join(lines) + "\n")
    return 0


def cmd_hysteresis(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    threads = _threads(args)
    if cfg.hysteresis.source is None:
        raise ConfigError("hysteresis.source level is required")
    if not cfg.hysteresis.targets:
        raise ConfigError("hysteresis.targets must list at least one level")
    prep = _prepare(cfg, extra_watched=(cfg.hysteresis.source,
                                        *cfg.hysteresis.targets))
    if not prep.schedule.ramps:
        raise ConfigError("no ramp declared in the schedule")
    result, wall = _run(prep, threads)

    ramp = result.ramp_values[:, 0]
    frac = result.watched_mean / cfg.n_atoms
    idx = {lv: prep.watched_levels.index(lv)
           for lv in (cfg.hysteresis.source, *cfg.hysteresis.targets)}
    source_series = frac[:, idx[cfg.hysteresis.source]]
    target_series = sum(frac[:, idx[lv]] for lv in cfg.hysteresis.targets)
    up, down = split_ramp_branches(ramp)
    res = hysteresis_extract(ramp[up], source_series[up],
                             ramp[down], target_series[down],
                             threshold=cfg.hysteresis.threshold)

    def _cycle_of(branch: slice, index) -> str:
        if index is None:
            return "none"
        return str(int(result.cycles[branch][index]))

    extra = [
        f"hysteresis_source: {cfg.hysteresis.source}",
        f"hysteresis_targets: {list(cfg.hysteresis.targets)}",
        f"threshold: {_fmt(res.threshold)}",
        f"up_transfer_value: "
        + (_fmt(res.up_value) if res.up_value is not None else "none"),
        f"up_transfer_cycle: {_cycle_of(up, res.up_index)}",
        f"down_transfer_value: "
        + (_fmt(res.down_value) if res.down_value is not None else "none"),
        f"down_transfer_cycle: {_cycle_of(down, res.down_index)}",
        f"found_both: {res.found_both}",
    ]
    os.makedirs(cfg.out_dir, exist_ok=True)
    _atomic_write(os.path.join(cfg.out_dir, "observables.csv"),
                  _observables_csv(prep, result))
    _atomic_write(os.path.join(cfg.out_dir, "events.csv"),
                  _events_csv(result))
    _atomic_write(os.path.join(cfg.out_dir, "hysteresis.txt"),
                  "\n".join(extra) + "\n")
    _atomic_write(os.path.join(cfg.out_dir, "summary.txt"),
                  _summary_text(prep, result, "hysteresis", threads, wall,
                                extra_lines=extra))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosecool",
        description="Pulsed cooling simulator for trapped bosons")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("simulate", cmd_simulate),
                       ("darkstates", cmd_darkstates),
                       ("criterion", cmd_criterion),
                       ("hysteresis", cmd_hysteresis)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except PhysicsValidityError as exc:
        print(f"error: physics: {exc}", file=sys.stderr)
        return 3
    except CacheError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
