"""Run configuration: one YAML file describes one reproducible run.

Parsing is strict: unknown keys, missing variants, out-of-range values
and knobs the run would ignore are configuration errors, not warnings.
A key left over once its section is read is unknown. Ranges are checked
by the types that use the values, built at load; the run's ``Schedule``
is kept, the "auto" pulse-area marker too (resolved at run time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .basis import Basis, SimParams, enumerate_levels, thermal_distribution
from .dynamics import RecorderSpec
from .rates import emission_quadrature
from .schedule import (FIGURE_IDS, PulseSpec, Ramp, Schedule, figure_schedule)


class ConfigError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}: expected an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_level(value, dim: int, max_shell: int, where: str) -> tuple:
    """A level of the basis, checked by its quantum numbers: the basis is
    not built at load."""
    _require(isinstance(value, (list, tuple)) and len(value) == dim,
             f"{where}: expected a {dim}-component level, got {value!r}")
    level = tuple(_as_int(v, where) for v in value)
    _require(min(level) >= 0 and sum(level) <= max_shell,
             f"{where}: level {level} outside the basis")
    return level


def _as_levels(values, dim: int, max_shell: int, where: str) -> tuple:
    """Distinct levels: a repeated one would be read, and counted, twice."""
    _require(isinstance(values, list), f"{where} must be a list of levels")
    levels = tuple(_as_level(v, dim, max_shell, where) for v in values)
    for i, lv in enumerate(levels):
        _require(lv not in levels[:i], f"{where}: level {lv} is listed twice")
    return levels


@dataclass(frozen=True)
class InitialStateConfig:
    kind: str                    # thermal | point
    mean_shell: float | None = None
    level: tuple | None = None


@dataclass(frozen=True)
class HysteresisConfig:
    threshold: float
    source: tuple | None
    targets: tuple


@dataclass(frozen=True)
class RunConfig:
    dim: int
    max_shell: int
    eta: float
    schedule: Schedule
    omega_tau_abs: float
    omega0_tau_abs: float | str
    eta_sp_ratio: float
    resonance_window: int
    emission_pattern: str
    quadrature_order: int
    n_atoms: int
    n_traj: int
    seed: int
    initial: InitialStateConfig
    recorder: RecorderSpec       # watched_ids (), filled in by the run
    watched: tuple
    out_dir: str
    cache_dir: str | None
    criterion_target: tuple | None
    hysteresis: HysteresisConfig

    # -- runtime builders ------------------------------------------------

    def build_basis(self) -> Basis:
        return enumerate_levels(self.dim, self.max_shell)

    def build_params(self, omega0_resolved: float | None = None) -> SimParams:
        area = self.omega0_tau_abs if omega0_resolved is None else omega0_resolved
        _require(isinstance(area, float),
                 "params.omega0_tau_abs is 'auto' but no resolved value given")
        return SimParams(eta=self.eta, omega_tau_abs=self.omega_tau_abs,
                         omega0_tau_abs=area,
                         eta_sp_ratio=self.eta_sp_ratio,
                         resonance_window=self.resonance_window)

    def build_schedule(self) -> Schedule:
        """The schedule built at load (the benchmark calls this)."""
        return self.schedule

    def initial_distribution(self, basis: Basis) -> np.ndarray:
        if self.initial.kind == "thermal":
            try:
                return thermal_distribution(basis, self.initial.mean_shell)
            except ValueError as exc:
                raise ConfigError(f"initial: {exc}") from exc
        dist = np.zeros(basis.size)
        dist[basis.id_of(self.initial.level)] = 1.0
        return dist


_ABSENT = object()  # default of a key whose presence the parser tests


def _take(section, where: str, **defaults) -> list:
    """The values of ``section``'s keys named in ``defaults``, in that
    order, each its default when absent; a key left over is unknown."""
    _require(isinstance(section, dict), f"{where} must be a mapping")
    rest = dict(section)
    values = [rest.pop(key, default) for key, default in defaults.items()]
    _require(not rest, f"{where}: unknown keys {sorted(rest)}")
    return values


_PULSE_WIDTHS = ("omega0_tau_abs", "omega_tau_abs")  # optional per pulse


def _parse_pulses(raw_pulses, raw_ramps, dim: int,
                  total_cycles: int | None) -> Schedule:
    """The schedule of an explicit ``pulses`` list and its ``ramps``."""
    _require(isinstance(raw_pulses, list) and raw_pulses,
             "schedule.pulses must be a non-empty list")
    _require(total_cycles is not None,
             "schedule.total_cycles is required with explicit pulses")
    pulses = []
    for i, rp in enumerate(raw_pulses):
        where = f"schedule.pulses[{i}]"
        s, amps, *widths = _take(rp, where, s=None, amps=[1.0] * dim,
                                 **dict.fromkeys(_PULSE_WIDTHS, _ABSENT))
        s = _as_int(s, f"{where}.s")
        _require(isinstance(amps, (list, tuple)) and len(amps) == dim,
                 f"{where}.amps must have {dim} entries")
        amps = tuple(_as_float(a, f"{where}.amps") for a in amps)
        kw = {k: _as_float(v, f"{where}.{k}")
              for k, v in zip(_PULSE_WIDTHS, widths) if v is not _ABSENT}
        try:
            pulses.append(PulseSpec(s=s, amps=amps, **kw))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    _require(isinstance(raw_ramps, list), "schedule.ramps must be a list")
    ramps = []
    for i, rr in enumerate(raw_ramps):
        where = f"schedule.ramps[{i}]"
        pulse, fld, start, end, start_cycle, end_cycle = _take(
            rr, where, pulse=None, field=None, start=None, end=None,
            start_cycle=None, end_cycle=None)
        try:
            ramps.append(Ramp(
                pulse_index=_as_int(pulse, f"{where}.pulse"), field=fld,
                start_value=_as_float(start, f"{where}.start"),
                end_value=_as_float(end, f"{where}.end"),
                start_cycle=_as_int(start_cycle, f"{where}.start_cycle"),
                end_cycle=_as_int(end_cycle, f"{where}.end_cycle")))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return Schedule(cycle=tuple(pulses), total_cycles=total_cycles,
                    ramps=tuple(ramps))


def config_from_dict(doc: dict) -> RunConfig:
    (b, p, n_atoms, n_traj, seed, ini, sc, rec, watched, out, cache_dir,
     crit, hys) = _take(
        doc, "config", basis=None, params=None, atoms=1, trajectories=1,
        seed=0, initial={"thermal_mean_shell": 6.0}, schedule=None,
        recorder={}, watched=[], output={}, cache_dir=None, criterion={},
        hysteresis={})

    _require(isinstance(b, dict), "basis section is required")
    dim, max_shell = _take(b, "basis", dim=None, max_shell=None)
    dim = _as_int(dim, "basis.dim")
    _require(dim in (1, 2, 3), "basis.dim must be 1, 2 or 3")
    max_shell = _as_int(max_shell, "basis.max_shell")
    _require(max_shell >= 0, "basis.max_shell must be >= 0")

    _require(isinstance(p, dict), "params section is required")
    eta, wtau, area, sp_ratio, window, pattern, order = _take(
        p, "params", eta=None, omega_tau_abs=4.0, omega0_tau_abs="auto",
        eta_sp_ratio=1.0, resonance_window=0, emission_pattern="isotropic",
        quadrature_order=24)
    eta = _as_float(eta, "params.eta")
    wtau = _as_float(wtau, "params.omega_tau_abs")
    if area != "auto":
        area = _as_float(area, "params.omega0_tau_abs")
    sp_ratio = _as_float(sp_ratio, "params.eta_sp_ratio")
    window = _as_int(window, "params.resonance_window")
    order = _as_int(order, "params.quadrature_order")
    try:  # the run's own types check the ranges; "auto" probes at 0.5
        SimParams(eta=eta, omega_tau_abs=wtau,
                  omega0_tau_abs=0.5 if area == "auto" else area,
                  eta_sp_ratio=sp_ratio, resonance_window=window)
        emission_quadrature(dim, pattern, polar_order=order)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    n_atoms = _as_int(n_atoms, "atoms")
    _require(n_atoms >= 1, "atoms must be >= 1")
    n_traj = _as_int(n_traj, "trajectories")
    _require(n_traj >= 1, "trajectories must be >= 1")
    seed = _as_int(seed, "seed")
    _require(seed >= 0, "seed must be >= 0")

    mean, level = _take(ini, "initial", thermal_mean_shell=_ABSENT,
                        point_level=_ABSENT)
    _require((mean is _ABSENT) != (level is _ABSENT),
             "initial: exactly one of thermal_mean_shell/point_level")
    if mean is not _ABSENT:
        mean = _as_float(mean, "initial.thermal_mean_shell")
        _require(mean > 0, "initial.thermal_mean_shell must be > 0")
        initial = InitialStateConfig("thermal", mean_shell=mean)
    else:
        level = _as_level(level, dim, max_shell, "initial.point_level")
        initial = InitialStateConfig("point", level=level)

    _require(isinstance(sc, dict), "schedule section is required")
    figure, pulses, ramps, total_cycles, ramp_scale = _take(
        sc, "schedule", figure=None, pulses=None, ramps=_ABSENT,
        total_cycles=None, ramp_scale=_ABSENT)
    _require((figure is None) != (pulses is None),
             "schedule: exactly one of figure/pulses")
    if total_cycles is not None:
        total_cycles = _as_int(total_cycles, "schedule.total_cycles")
    _require(ramp_scale is _ABSENT or figure == "fig3",
             "schedule.ramp_scale is read by figure fig3 only")
    _require(ramps is _ABSENT or figure is None,
             "schedule.ramps is read with schedule.pulses only")
    try:
        if figure is None:
            schedule = _parse_pulses(pulses, [] if ramps is _ABSENT else ramps,
                                     dim, total_cycles)
        else:
            _require(figure in FIGURE_IDS,
                     f"schedule.figure must be one of {sorted(FIGURE_IDS)}")
            _require(dim == 3, "figure schedules require a 3D basis")
            kw = ({} if ramp_scale is _ABSENT else
                  {"ramp_scale": _as_float(ramp_scale, "schedule.ramp_scale")})
            schedule = figure_schedule(figure, eta=eta,
                                       total_cycles=total_cycles, **kw)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    stride, events = _take(rec, "recorder", stride=1, events=True)
    stride = _as_int(stride, "recorder.stride")
    _require(isinstance(events, bool), "recorder.events must be a boolean")
    try:
        recorder = RecorderSpec(watched_ids=(), stride=stride,
                                record_events=events)
    except ValueError as exc:
        raise ConfigError(f"recorder: {exc}") from exc

    watched = _as_levels(watched, dim, max_shell, "watched")

    out_dir, = _take(out, "output", directory="out")
    _require(isinstance(out_dir, str) and out_dir, "output.directory must be a path")

    _require(cache_dir is None or (isinstance(cache_dir, str) and cache_dir),
             "cache_dir must be a path")

    target, = _take(crit, "criterion", target=_ABSENT)
    criterion_target = (None if target is _ABSENT else
                        _as_level(target, dim, max_shell, "criterion.target"))

    threshold, source, targets = _take(hys, "hysteresis", threshold=0.5,
                                       source=_ABSENT, targets=[])
    threshold = _as_float(threshold, "hysteresis.threshold")
    _require(0 < threshold < 1, "hysteresis.threshold must lie in (0, 1)")
    source = (None if source is _ABSENT else
              _as_level(source, dim, max_shell, "hysteresis.source"))
    targets = _as_levels(targets, dim, max_shell, "hysteresis.targets")
    hysteresis = HysteresisConfig(threshold=threshold, source=source,
                                  targets=targets)

    return RunConfig(dim=dim, max_shell=max_shell, eta=eta, schedule=schedule,
                     omega_tau_abs=wtau, omega0_tau_abs=area,
                     eta_sp_ratio=sp_ratio, resonance_window=window,
                     emission_pattern=pattern, quadrature_order=order,
                     n_atoms=n_atoms, n_traj=n_traj, seed=seed,
                     initial=initial, recorder=recorder,
                     watched=watched, out_dir=out_dir, cache_dir=cache_dir,
                     criterion_target=criterion_target, hysteresis=hysteresis)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The run a YAML file describes, where ``overrides`` maps a key (dotted
    in a section: ``"output.directory"``) to a value parsed in its place."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if isinstance(doc, dict):  # any other root is refused by the parser
        for dotted, value in (overrides or {}).items():
            outer, _, key = dotted.rpartition(".")
            section = doc.setdefault(outer, {}) if outer else doc
            if isinstance(section, dict):
                section[key] = value
    return config_from_dict(doc)

