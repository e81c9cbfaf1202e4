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
import time

import numpy as np

from .analysis import (condensation_criterion, find_dark_states,
                       hysteresis_extract, split_ramp_branches)
from .basis import _check_memory as _check_basis_memory, enumeration_bytes
from .cache import CacheError, atomic_write
from .config import ConfigError, RunConfig, load_config
from .dynamics import (EnsembleResult, MatrixProvider, calibrate_pulse_area,
                       run_ensemble, trajectory_bytes)
from .rates import (PhysicsValidityError, emission_memory_bytes,
                    emission_quadrature)
from .schedule import resolve_cycle

CACHE_ENV = "BOSECOOL_CACHE_DIR"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_outputs(out_dir: str, files: dict[str, str]) -> None:
    for name, text in files.items():
        atomic_write(os.path.join(out_dir, name), (text.encode("utf-8"),))


def _level_tag(level) -> str:
    return "_".join(str(c) for c in level)


def _load(args) -> RunConfig:
    """The command's config, with ``--seed``, ``--out`` and a non-empty
    ``BOSECOOL_CACHE_DIR`` in place of the keys they replace."""
    overrides = {"seed": args.seed, "output.directory": args.out,
                 "cache_dir": os.environ.get(CACHE_ENV) or None}
    return load_config(args.config, {k: v for k, v in overrides.items()
                                     if v is not None})


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        return args.threads
    return os.cpu_count() or 1


def _check_memory(what: str, need: int, key: str = "basis.max_shell") -> None:
    """``basis._check_memory``, refused as a config error that names the
    ``key`` to lower."""
    try:
        _check_basis_memory(what, need)
    except ValueError as exc:
        raise ConfigError(f"{exc}; lower {key}") from exc


def _watched(cfg: RunConfig, extra=()) -> list:
    """The levels a run records: ``cfg.watched``, then those of ``extra``
    not among them."""
    levels = list(dict.fromkeys((*cfg.watched, *extra)))
    if not levels:
        raise ConfigError("at least one watched level is required")
    return levels


def _prepare(cfg: RunConfig, emission: bool = True) -> MatrixProvider:
    """The provider of a config's basis, params and resolved pulse area;
    ``emission`` says whether the command needs the emission matrix. The
    basis's enumeration tables, and the emission matrix where needed, are
    checked against physical memory before they are allocated."""
    _check_memory(f"enumerating basis(dim={cfg.dim},max_shell={cfg.max_shell})",
                  enumeration_bytes(cfg.dim, cfg.max_shell))
    basis = cfg.build_basis()
    quadrature = emission_quadrature(cfg.dim, cfg.emission_pattern,
                                     polar_order=cfg.quadrature_order)
    if emission:
        _check_memory(f"the emission matrix of {basis.fingerprint()}",
                      emission_memory_bytes(basis, quadrature))
    if cfg.omega0_tau_abs == "auto":
        probe = cfg.build_params(omega0_resolved=0.5)
        expected = cfg.n_atoms * cfg.initial_distribution(basis)
        omega0 = calibrate_pulse_area(basis, probe, cfg.schedule, expected)
    else:
        omega0 = float(cfg.omega0_tau_abs)
    return MatrixProvider(basis, cfg.build_params(omega0_resolved=omega0),
                          cache_dir=cfg.cache_dir, quadrature=quadrature)


def _run(cfg: RunConfig, provider: MatrixProvider, watched: list,
         threads: int) -> tuple[EnsembleResult, float]:
    """The ensemble and its wall time; matrices load or build untimed,
    after the initial state and the trajectories' memory are checked."""
    basis = provider.basis
    initial = cfg.initial_distribution(basis)
    recorder = dataclasses.replace(
        cfg.recorder, watched_ids=tuple(basis.id_of(lv) for lv in watched))
    held = cfg.n_traj * trajectory_bytes(basis.size, cfg.schedule, recorder)
    # a worker draws one trajectory's atoms at a time, and rng.choice holds
    # 16 bytes an atom and a level while it draws (tracemalloc)
    draw = min(threads, cfg.n_traj) * 16 * (cfg.n_atoms + basis.size)
    _check_memory(f"{cfg.n_traj:,} trajectories of {cfg.n_atoms:,} atoms on "
                  f"{basis.fingerprint()}", held + draw,
                  "atoms" if draw > held else "trajectories")
    provider.prepare(cfg.schedule)
    start = time.monotonic()
    result = run_ensemble(basis, provider.params, cfg.schedule, initial,
                          cfg.n_atoms, cfg.n_traj, cfg.seed, recorder,
                          provider=provider, threads=threads)
    return result, time.monotonic() - start


def _observables_csv(watched: list, result: EnsembleResult) -> str:
    buf = io.StringIO()
    cols = ["cycle"]
    cols += [f"ramp{pi}_{fld}" for pi, fld in result.ramp_fields]
    for lv in watched:
        tag = _level_tag(lv)
        cols += [f"frac_{tag}_mean", f"frac_{tag}_std"]
    cols.append("mean_shell")
    buf.write(",".join(cols) + "\n")

    frac_mean = result.watched_fraction_mean()
    frac_std = result.watched_std / result.n_atoms
    for r in range(result.cycles.shape[0]):
        row = [str(int(result.cycles[r]))]
        row += [_fmt(v) for v in result.ramp_values[r]]
        for j in range(len(watched)):
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


def _summary_text(cfg: RunConfig, provider: MatrixProvider, watched: list,
                  result: EnsembleResult, command: str, threads: int,
                  wall: float, extra_lines=()) -> str:
    first = result.watched_fraction_mean()[:, 0]
    above = np.flatnonzero(first > 0.9)
    to_90 = str(int(result.cycles[above[0]])) if above.size else "none"
    counters = provider.counters
    lines = [
        f"command: {command}",
        f"seed: {cfg.seed}",
        f"threads: {threads}",
        f"atoms: {cfg.n_atoms}",
        f"trajectories: {cfg.n_traj}",
        f"total_cycles: {cfg.schedule.total_cycles}",
        f"omega0_tau_abs: {_fmt(provider.params.omega0_tau_abs)}"
        + (" (auto)" if cfg.omega0_tau_abs == "auto" else ""),
        f"final_fraction_{_level_tag(watched[0])}: "
        + _fmt(first[-1]),
        f"cycles_to_0.9: {to_90}",
        f"p_max: {_fmt(result.p_max)}",
        f"pulses_above_p_0.5: {result.n_warn_pulses}",
        "events_total: " + (str(sum(ev.shape[0] for ev in result.events))
                            if cfg.recorder.record_events else "not recorded"),
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
    cfg = _load(args)
    threads = _threads(args)
    watched = _watched(cfg)
    provider = _prepare(cfg)
    result, wall = _run(cfg, provider, watched, threads)
    _write_outputs(cfg.out_dir, {
        "observables.csv": _observables_csv(watched, result),
        "events.csv": _events_csv(result),
        "summary.txt": _summary_text(cfg, provider, watched, result,
                                     "simulate", threads, wall)})
    return 0


def cmd_darkstates(args) -> int:
    cfg = _load(args)
    provider = _prepare(cfg, emission=False)
    pulses = resolve_cycle(cfg.schedule, 0)
    exact = find_dark_states(pulses, provider.basis, provider.params,
                             provider=provider)
    near = find_dark_states(pulses, provider.basis, provider.params, tol=1e-3,
                            provider=provider)
    lines = [f"pulses: {len(pulses)}",
             f"exact_dark_count: {len(exact)}"]
    lines += [f"dark: level={lv} depletion={_fmt(g)}" for lv, g in exact]
    lines.append(f"near_dark_count_tol_1e-3: {len(near)}")
    lines += [f"near: level={lv} depletion={_fmt(g)}" for lv, g in near]
    _write_outputs(cfg.out_dir, {"darkstates.txt": "\n".join(lines) + "\n"})
    return 0


def cmd_criterion(args) -> int:
    cfg = _load(args)
    if cfg.criterion_target is None:
        raise ConfigError("criterion.target is required for this command")
    provider = _prepare(cfg)
    basis = provider.basis
    pulses = resolve_cycle(cfg.schedule, 0)
    report = condensation_criterion(pulses, basis, provider.params,
                                    cfg.criterion_target, provider=provider,
                                    n_atoms=cfg.n_atoms)
    lines = [
        f"target: {report.target_level}",
        f"verdict: {report.verdict}",
        f"min_net_drain: {_fmt(report.min_tilde)}",
        f"violating_count: {report.violating_ids.size}",
        f"indeterminate_sources: {report.indeterminate_source_ids.size}",
    ]
    for i in report.violating_ids[:50]:
        lines.append(f"violating: level={basis.level(int(i))} "
                     f"net_drain={_fmt(report.tilde[int(i)])}")
    for i in report.indeterminate_source_ids[:50]:
        lines.append(f"indeterminate_source: level={basis.level(int(i))}")
    if report.cooling_time_cycles is not None:
        lines.append(f"cooling_time_cycles: {_fmt(report.cooling_time_cycles)}")
        lines.append(f"cooling_time_seconds: {_fmt(report.cooling_time_seconds)}")
    else:
        lines.append("cooling_time_cycles: none")
    lines.append(f"phase_diffusion_per_cycle: "
                 f"{_fmt(report.phase_diffusion_per_cycle)}")
    lines.append(f"phase_diffusion_hz: {_fmt(report.phase_diffusion_hz)}")
    _write_outputs(cfg.out_dir, {"criterion.txt": "\n".join(lines) + "\n"})
    return 0


def cmd_hysteresis(args) -> int:
    cfg = _load(args)
    threads = _threads(args)
    if cfg.hysteresis.source is None:
        raise ConfigError("hysteresis.source level is required")
    if not cfg.hysteresis.targets:
        raise ConfigError("hysteresis.targets must list at least one level")
    if not cfg.schedule.ramps:
        raise ConfigError("no ramp declared in the schedule")
    watched = _watched(cfg, (cfg.hysteresis.source, *cfg.hysteresis.targets))
    provider = _prepare(cfg)
    result, wall = _run(cfg, provider, watched, threads)

    ramp = result.ramp_values[:, 0]
    frac = result.watched_fraction_mean()
    idx = {lv: watched.index(lv)
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
    _write_outputs(cfg.out_dir, {
        "observables.csv": _observables_csv(watched, result),
        "events.csv": _events_csv(result),
        "hysteresis.txt": "\n".join(extra) + "\n",
        "summary.txt": _summary_text(cfg, provider, watched, result,
                                     "hysteresis", threads, wall,
                                     extra_lines=extra)})
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
    except (CacheError, OSError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
