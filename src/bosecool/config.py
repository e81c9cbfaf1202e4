"""Run configuration: one YAML file describes one reproducible run.

Parsing is strict: unknown keys, missing variants, out-of-range values
and knobs the run would ignore are configuration errors, not warnings.
The validated form holds the run's ``Schedule``, built once at load; the
"auto" pulse-area marker is kept as is (resolution happens at run time,
not here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .basis import Basis, SimParams, enumerate_levels, thermal_distribution
from .schedule import (FIGURE_IDS, PulseSpec, Ramp, Schedule, figure_schedule)


class ConfigError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_section(section, allowed: set, where: str) -> None:
    """Check that ``section`` is a mapping with no key outside ``allowed``."""
    _require(isinstance(section, dict), f"{where} must be a mapping")
    unknown = set(section) - allowed
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")


def _as_int(value, where: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}: expected an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_level(value, dim: int, where: str) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) == dim,
             f"{where}: expected a {dim}-component level, got {value!r}")
    return tuple(_as_int(v, where) for v in value)


def _as_levels(values, dim: int, where: str) -> tuple:
    """Distinct levels: a repeated one would be read, and counted, twice."""
    _require(isinstance(values, list), f"{where} must be a list of levels")
    levels = tuple(_as_level(v, dim, where) for v in values)
    for i, lv in enumerate(levels):
        _require(lv not in levels[:i], f"{where}: level {lv} is listed twice")
    return levels


@dataclass(frozen=True)
class InitialStateConfig:
    kind: str                    # thermal | point
    mean_shell: float | None = None
    level: tuple | None = None


@dataclass(frozen=True)
class RecorderConfig:
    stride: int = 1
    events: bool = True


@dataclass(frozen=True)
class HysteresisConfig:
    threshold: float = 0.5
    source: tuple | None = None
    targets: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    dim: int
    max_shell: int
    eta: float
    schedule: Schedule
    omega_tau_abs: float = 4.0
    omega0_tau_abs: float | str = "auto"
    eta_sp_ratio: float = 1.0
    resonance_window: int = 0
    emission_pattern: str = "isotropic"
    quadrature_order: int = 24
    n_atoms: int = 1
    n_traj: int = 1
    seed: int = 0
    initial: InitialStateConfig = field(
        default_factory=lambda: InitialStateConfig("thermal", mean_shell=6.0))
    recorder: RecorderConfig = field(default_factory=RecorderConfig)
    watched: tuple = ()
    out_dir: str = "out"
    cache_dir: str | None = None
    criterion_target: tuple | None = None
    hysteresis: HysteresisConfig = field(default_factory=HysteresisConfig)

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


_TOP_KEYS = {"basis", "params", "atoms", "trajectories", "seed", "initial",
             "schedule", "recorder", "watched", "output", "cache_dir",
             "criterion", "hysteresis"}
_PARAM_KEYS = {"eta", "omega_tau_abs", "omega0_tau_abs",
               "eta_sp_ratio", "resonance_window", "emission_pattern",
               "quadrature_order"}
_PULSE_WIDTHS = ("omega0_tau_abs", "omega_tau_abs")  # optional per pulse
_PULSE_KEYS = {"s", "amps", *_PULSE_WIDTHS}
_RAMP_KEYS = {"pulse", "field", "start", "end", "start_cycle", "end_cycle"}


def _parse_pulses(sc: dict, dim: int, total_cycles: int | None) -> Schedule:
    """The schedule of an explicit ``pulses`` list and its ``ramps``."""
    raw_pulses = sc["pulses"]
    _require(isinstance(raw_pulses, list) and raw_pulses,
             "schedule.pulses must be a non-empty list")
    _require(total_cycles is not None,
             "schedule.total_cycles is required with explicit pulses")
    pulses = []
    for i, rp in enumerate(raw_pulses):
        _check_section(rp, _PULSE_KEYS, f"schedule.pulses[{i}]")
        s = _as_int(rp.get("s"), f"schedule.pulses[{i}].s")
        amps = rp.get("amps", [1.0] * dim)
        _require(isinstance(amps, (list, tuple)) and len(amps) == dim,
                 f"schedule.pulses[{i}].amps must have {dim} entries")
        amps = tuple(_as_float(a, f"schedule.pulses[{i}].amps") for a in amps)
        kw = {k: _as_float(rp[k], f"schedule.pulses[{i}].{k}")
              for k in _PULSE_WIDTHS if k in rp}
        try:
            pulses.append(PulseSpec(s=s, amps=amps, **kw))
        except ValueError as exc:
            raise ConfigError(f"schedule.pulses[{i}]: {exc}") from exc
    raw_ramps = sc.get("ramps", [])
    _require(isinstance(raw_ramps, list), "schedule.ramps must be a list")
    ramps = []
    for i, rr in enumerate(raw_ramps):
        _check_section(rr, _RAMP_KEYS, f"schedule.ramps[{i}]")
        try:
            ramps.append(Ramp(
                pulse_index=_as_int(rr.get("pulse"), f"schedule.ramps[{i}].pulse"),
                field=rr.get("field"),
                start_value=_as_float(rr.get("start"), f"schedule.ramps[{i}].start"),
                end_value=_as_float(rr.get("end"), f"schedule.ramps[{i}].end"),
                start_cycle=_as_int(rr.get("start_cycle"),
                                    f"schedule.ramps[{i}].start_cycle"),
                end_cycle=_as_int(rr.get("end_cycle"),
                                  f"schedule.ramps[{i}].end_cycle")))
        except ValueError as exc:
            raise ConfigError(f"schedule.ramps[{i}]: {exc}") from exc
    return Schedule(cycle=tuple(pulses), total_cycles=total_cycles,
                    ramps=tuple(ramps))


def config_from_dict(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config root must be a mapping")
    _check_section(doc, _TOP_KEYS, "config")

    b = doc.get("basis")
    _require(isinstance(b, dict), "basis section is required")
    _check_section(b, {"dim", "max_shell"}, "basis")
    dim = _as_int(b.get("dim"), "basis.dim")
    _require(dim in (1, 2, 3), "basis.dim must be 1, 2 or 3")
    max_shell = _as_int(b.get("max_shell"), "basis.max_shell")
    _require(max_shell >= 0, "basis.max_shell must be >= 0")

    p = doc.get("params")
    _require(isinstance(p, dict), "params section is required")
    _check_section(p, _PARAM_KEYS, "params")
    eta = _as_float(p.get("eta"), "params.eta")
    _require(eta >= 0, "params.eta must be >= 0")
    wtau = _as_float(p.get("omega_tau_abs", 4.0), "params.omega_tau_abs")
    _require(wtau > 1, "params.omega_tau_abs must be > 1")
    area = p.get("omega0_tau_abs", "auto")
    if area != "auto":
        area = _as_float(area, "params.omega0_tau_abs")
        _require(0 < area < 1, "params.omega0_tau_abs must lie in (0, 1)")
    sp_ratio = _as_float(p.get("eta_sp_ratio", 1.0), "params.eta_sp_ratio")
    _require(sp_ratio >= 0, "params.eta_sp_ratio must be >= 0")
    window = _as_int(p.get("resonance_window", 0), "params.resonance_window")
    _require(window >= 0, "params.resonance_window must be >= 0")
    pattern = p.get("emission_pattern", "isotropic")
    ok_pattern = pattern == "isotropic" or (
        isinstance(pattern, str) and pattern.startswith("dipole:")
        and pattern[7:] in ("x", "y", "z"))
    _require(ok_pattern,
             "params.emission_pattern must be 'isotropic' or 'dipole:<axis>'")
    _require(pattern == "isotropic" or dim == 3,
             "dipole emission patterns require a 3D basis")
    order = _as_int(p.get("quadrature_order", 24), "params.quadrature_order")
    _require(order >= 2, "params.quadrature_order must be >= 2")

    n_atoms = _as_int(doc.get("atoms", 1), "atoms")
    _require(n_atoms >= 1, "atoms must be >= 1")
    n_traj = _as_int(doc.get("trajectories", 1), "trajectories")
    _require(n_traj >= 1, "trajectories must be >= 1")
    seed = _as_int(doc.get("seed", 0), "seed")
    _require(seed >= 0, "seed must be >= 0")

    ini = doc.get("initial", {"thermal_mean_shell": 6.0})
    _check_section(ini, {"thermal_mean_shell", "point_level"}, "initial")
    _require(len(ini) == 1,
             "initial: exactly one of thermal_mean_shell/point_level")
    if "thermal_mean_shell" in ini:
        mean = _as_float(ini["thermal_mean_shell"], "initial.thermal_mean_shell")
        _require(mean > 0, "initial.thermal_mean_shell must be > 0")
        initial = InitialStateConfig("thermal", mean_shell=mean)
    else:
        level = _as_level(ini["point_level"], dim, "initial.point_level")
        initial = InitialStateConfig("point", level=level)

    sc = doc.get("schedule")
    _require(isinstance(sc, dict), "schedule section is required")
    _check_section(sc, {"figure", "pulses", "ramps", "total_cycles",
                     "ramp_scale"}, "schedule")
    figure = sc.get("figure")
    _require((figure is None) != (sc.get("pulses") is None),
             "schedule: exactly one of figure/pulses")
    total_cycles = sc.get("total_cycles")
    if total_cycles is not None:
        total_cycles = _as_int(total_cycles, "schedule.total_cycles")
        _require(total_cycles >= 1, "schedule.total_cycles must be >= 1")
    ramp_scale = _as_float(sc.get("ramp_scale", 1.0), "schedule.ramp_scale")
    _require("ramp_scale" not in sc or figure == "fig3",
             "schedule.ramp_scale is read by figure fig3 only")
    _require("ramps" not in sc or figure is None,
             "schedule.ramps is read with schedule.pulses only")
    try:
        if figure is None:
            schedule = _parse_pulses(sc, dim, total_cycles)
        else:
            _require(figure in FIGURE_IDS,
                     f"schedule.figure must be one of {sorted(FIGURE_IDS)}")
            _require(dim == 3, "figure schedules require a 3D basis")
            schedule = figure_schedule(figure, eta=eta,
                                       total_cycles=total_cycles,
                                       ramp_scale=ramp_scale)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    rec = doc.get("recorder", {})
    _check_section(rec, {"stride", "events"}, "recorder")
    stride = _as_int(rec.get("stride", 1), "recorder.stride")
    _require(stride >= 0, "recorder.stride must be >= 0")
    events = rec.get("events", True)
    _require(isinstance(events, bool), "recorder.events must be a boolean")
    recorder = RecorderConfig(stride=stride, events=events)

    watched = _as_levels(doc.get("watched", []), dim, "watched")

    out = doc.get("output", {})
    _check_section(out, {"directory"}, "output")
    out_dir = out.get("directory", "out")
    _require(isinstance(out_dir, str) and out_dir, "output.directory must be a path")

    cache_dir = doc.get("cache_dir")
    _require(cache_dir is None or (isinstance(cache_dir, str) and cache_dir),
             "cache_dir must be a path")

    crit = doc.get("criterion", {})
    _check_section(crit, {"target"}, "criterion")
    criterion_target = (None if "target" not in crit else
                        _as_level(crit["target"], dim, "criterion.target"))

    hys = doc.get("hysteresis", {})
    _check_section(hys, {"threshold", "source", "targets"}, "hysteresis")
    threshold = _as_float(hys.get("threshold", 0.5), "hysteresis.threshold")
    _require(0 < threshold < 1, "hysteresis.threshold must lie in (0, 1)")
    source = (None if "source" not in hys else
              _as_level(hys["source"], dim, "hysteresis.source"))
    targets = _as_levels(hys.get("targets", []), dim, "hysteresis.targets")
    hysteresis = HysteresisConfig(threshold=threshold, source=source,
                                  targets=targets)

    cfg = RunConfig(dim=dim, max_shell=max_shell, eta=eta, schedule=schedule,
                    omega_tau_abs=wtau, omega0_tau_abs=area,
                    eta_sp_ratio=sp_ratio, resonance_window=window,
                    emission_pattern=pattern, quadrature_order=order,
                    n_atoms=n_atoms, n_traj=n_traj, seed=seed,
                    initial=initial, recorder=recorder,
                    watched=watched, out_dir=out_dir, cache_dir=cache_dir,
                    criterion_target=criterion_target, hysteresis=hysteresis)

    # level references must lie in the basis, which is not built here
    refs = [("watched level", lv) for lv in cfg.watched]
    refs += [("level", lv) for lv in (cfg.criterion_target, cfg.hysteresis.source,
                                      *cfg.hysteresis.targets) if lv is not None]
    if cfg.initial.kind == "point":
        refs.append(("initial.point_level", cfg.initial.level))
    for what, lv in refs:
        _require(min(lv) >= 0 and sum(lv) <= max_shell,
                 f"{what} {lv} outside the basis")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(doc)

