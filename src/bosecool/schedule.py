"""Pulse schedules: named pulse constructors, ramps, bundled presets.

A schedule is a fixed per-cycle pulse list plus optional linear ramps on
float-valued pulse fields. Ramps activate at their start cycle, clamp at
their end value afterwards, and later ramps in the list override earlier
ones once active, so an up ramp followed by a down ramp on the same field
forms a closed sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .basis import SimParams

_RAMPABLE = ("a_x", "a_y", "a_z", "omega0_tau_abs")
_AXES = {"a_x": 0, "a_y": 1, "a_z": 2}


@dataclass(frozen=True)
class PulseSpec:
    """One stimulated pulse: shell target ``s`` and per-axis beam amplitudes.

    ``s`` is the detuning in trap quanta (the shell change driven at
    resonance). Width overrides are optional; None defers to SimParams.
    """

    s: int
    amps: tuple[float, ...]
    omega0_tau_abs: float | None = None
    omega_tau_abs: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "amps", tuple(float(a) for a in self.amps))
        if not self.amps:
            raise ValueError("a pulse needs at least one beam amplitude")
        if all(a == 0.0 for a in self.amps):
            raise ValueError("a pulse needs a nonzero beam amplitude")
        if self.omega_tau_abs is not None and not self.omega_tau_abs > 1:
            raise ValueError("omega_tau_abs must exceed 1")
        if self.omega0_tau_abs is not None and not 0 < self.omega0_tau_abs < 1:
            raise ValueError("omega0_tau_abs must lie in (0, 1)")

    def with_amp(self, axis: int, value: float) -> "PulseSpec":
        amps = list(self.amps)
        amps[axis] = float(value)
        return replace(self, amps=tuple(amps))

    def with_field(self, name: str, value: float) -> "PulseSpec":
        """This pulse with one rampable field set to ``value``."""
        amps, area = self.driven((name,), (value,))
        return replace(self, amps=amps, omega0_tau_abs=area)

    def field_value(self, name: str) -> float | None:
        axis = _AXES.get(name)
        return getattr(self, name) if axis is None else self.amps[axis]

    def driven(self, names, values) -> tuple[tuple[float, ...], float | None]:
        """(amps, omega0_tau_abs) once each rampable field of ``names`` is
        set to its entry of ``values``, without building or checking a
        pulse."""
        amps, area = list(self.amps), self.omega0_tau_abs
        for name, value in zip(names, values):
            axis = _AXES.get(name)
            if axis is None:
                area = value
            else:
                amps[axis] = float(value)
        return tuple(amps), area

    def resolved(self, params: SimParams) -> "PulseSpec":
        """This pulse with unset widths taken from ``params``. Rates depend
        on the resolved pulse only, so its key() is their memo key."""
        otau, wtau = self.omega0_tau_abs, self.omega_tau_abs
        return replace(
            self, omega0_tau_abs=params.omega0_tau_abs if otau is None else otau,
            omega_tau_abs=params.omega_tau_abs if wtau is None else wtau)

    def key(self) -> tuple:
        return (self.s, self.amps, self.omega0_tau_abs, self.omega_tau_abs)


@dataclass(frozen=True)
class Ramp:
    """Linear sweep of one pulse field across a cycle window."""

    pulse_index: int
    field: str
    start_value: float
    end_value: float
    start_cycle: int
    end_cycle: int

    def __post_init__(self):
        if self.field not in _RAMPABLE:
            raise ValueError(f"field {self.field!r} is not rampable "
                             f"(choose from {_RAMPABLE})")
        if self.end_cycle <= self.start_cycle:
            raise ValueError("ramp window must have end_cycle > start_cycle")

    def value_at(self, cycle: int) -> float:
        """Clamped linear interpolation, evaluated from the nearer endpoint.

        Evaluating from the nearer endpoint makes a down ramp retrace a
        matching up ramp bit-for-bit, which keeps hysteresis sweeps exactly
        symmetric in the driving field.
        """
        if cycle <= self.start_cycle:
            return self.start_value
        if cycle >= self.end_cycle:
            return self.end_value
        width = self.end_cycle - self.start_cycle
        t = (cycle - self.start_cycle) / width
        if t == 0.5:  # endpoint-symmetric form, ties identical under reversal
            return 0.5 * self.start_value + 0.5 * self.end_value
        if t < 0.5:
            return self.start_value + (self.end_value - self.start_value) * t
        u = (self.end_cycle - cycle) / width
        return self.end_value - (self.end_value - self.start_value) * u

    def active_at(self, cycle: int) -> bool:
        return cycle >= self.start_cycle


@dataclass(frozen=True)
class Schedule:
    cycle: tuple[PulseSpec, ...]
    total_cycles: int
    ramps: tuple[Ramp, ...] = ()
    name: str = "custom"

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("a schedule needs at least one pulse per cycle")
        if self.total_cycles < 1:
            raise ValueError("total_cycles must be >= 1")
        dim = len(self.cycle[0].amps)
        if any(len(p.amps) != dim for p in self.cycle):
            raise ValueError("all pulses must share the beam dimensionality")
        for r in self.ramps:
            if not 0 <= r.pulse_index < len(self.cycle):
                raise ValueError(f"ramp targets pulse {r.pulse_index}, "
                                 f"cycle has {len(self.cycle)} pulses")
            axis = _AXES.get(r.field)
            if axis is not None and axis >= dim:
                raise ValueError(f"ramp field {r.field!r} needs a {axis + 1}D+ pulse")
            if not (0 <= r.start_cycle < self.total_cycles
                    and r.end_cycle <= self.total_cycles):
                raise ValueError("ramp window must lie within the run")
            for value in (r.start_value, r.end_value):
                try:
                    self.cycle[r.pulse_index].with_field(r.field, value)
                except ValueError as exc:
                    raise ValueError(f"ramp of {r.field!r} to {value}: {exc}") from exc

    @property
    def dim(self) -> int:
        return len(self.cycle[0].amps)

    @property
    def n_pulses(self) -> int:
        return len(self.cycle)

    def is_ramped(self, pulse_index: int) -> bool:
        return any(r.pulse_index == pulse_index for r in self.ramps)

    @cached_property
    def _field_ramps(self) -> dict[tuple[int, str], list[Ramp]]:
        """The ramps of each ramped (pulse index, field), latest first, in
        order of the field's first ramp."""
        out: dict[tuple[int, str], list[Ramp]] = {}
        for r in self.ramps:
            out.setdefault((r.pulse_index, r.field), []).insert(0, r)
        return out

    @property
    def ramp_fields(self) -> list[tuple[int, str]]:
        """Every ramped (pulse index, field), in order of its first ramp."""
        return list(self._field_ramps)

    def field_values(self, cycle_index: int) -> tuple:
        """The value each of ``ramp_fields`` holds at ``cycle_index``: the
        latest active ramp's, else the pulse's own. Reads the ramps only
        and builds no pulse, so the sampler can compare values cheaply."""
        out = []
        for (pi, name), ramps in self._field_ramps.items():
            for r in ramps:
                if r.active_at(cycle_index):
                    out.append(r.value_at(cycle_index))
                    break
            else:
                out.append(self.cycle[pi].field_value(name))
        return tuple(out)

    def resolved(self, params: SimParams) -> "Schedule":
        """This schedule with every pulse resolved against ``params``."""
        return replace(self, cycle=tuple(p.resolved(params) for p in self.cycle))


def resolve_cycle(schedule: Schedule, cycle_index: int) -> list[PulseSpec]:
    """Concrete pulse list for one cycle, with ramped fields interpolated."""
    if not 0 <= cycle_index < schedule.total_cycles:
        raise ValueError(f"cycle_index {cycle_index} outside "
                         f"[0, {schedule.total_cycles})")
    pulses = list(schedule.cycle)
    for (pi, name), value in zip(schedule.ramp_fields,
                                 schedule.field_values(cycle_index)):
        pulses[pi] = pulses[pi].with_field(name, value)
    return pulses


# ----------------------------------------------------- named constructors


def _near_int(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > 1e-9:
        import warnings
        warnings.warn(f"{what} = {x} is not near an integer shell target; "
                      f"rounding to {n}", stacklevel=3)
    return int(n)


def confinement_pulse(dim: int, eta: float, offset: int = 0) -> PulseSpec:
    """Deep cooling pulse targeting s = -dim * eta^2 (+ offset).

    Drives the strongest red sideband each beam supports at this
    Lamb-Dicke parameter, which caps the energy an atom can keep.
    """
    s = -dim * _near_int(eta * eta, "dim*eta^2 confinement target") + offset
    return PulseSpec(s=s, amps=(1.0,) * dim)


def pseudo_confinement_pulses(dim: int, eta: float,
                              offset: int = 0) -> tuple[PulseSpec, PulseSpec]:
    """Mid-band cooling pair at s = -3 eta^2 / 2 and s = -eta^2 (+ offset)."""
    e2 = eta * eta
    s1 = -_near_int(1.5 * e2, "3*eta^2/2 pseudo-confinement target") + offset
    s2 = -_near_int(e2, "eta^2 pseudo-confinement target") + offset
    return (PulseSpec(s=s1, amps=(1.0,) * dim),
            PulseSpec(s=s2, amps=(1.0,) * dim))


def sideband_pulse(dim: int, s: int,
                   amps: tuple[float, ...] | None = None) -> PulseSpec:
    """Plain sideband pulse at shell target ``s`` (equal amplitudes by default)."""
    if amps is None:
        amps = (1.0,) * dim
    return PulseSpec(s=s, amps=tuple(amps))


def interference_pulse(amps: tuple[float, ...], s: int = 0) -> PulseSpec:
    """Resonant pulse whose beam amplitudes set the destructive-interference
    condition; levels with sum_j amps_j * d_j = 0 scatter nothing."""
    return PulseSpec(s=s, amps=tuple(amps))


# -------------------------------------------------------------- presets

FIGURE_IDS = ("fig1", "fig2", "fig3")
_DEFAULT_CYCLES = {"fig1": 2000, "fig2": 4000}
FIG3_HOLD = 1200
FIG3_RAMP = 18600
FIG3_AZ_NEAR_DARK = -1.94
FIG3_AZ_FAR = -0.08


def figure_schedule(figure_id: str, eta: float = 2.0,
                    total_cycles: int | None = None,
                    ramp_scale: float = 1.0) -> Schedule:
    """Bundled 3D demonstration schedules.

    fig1: condensation into (0,0,0). Confining pulse pair (offsets 0/-1),
          two pseudo-confining pairs, the triple-beam interference pulse
          at A=(1,1,-2), and the s=-1 sideband.
    fig2: condensation into (1,1,1) via the s=3 recoil-node pulse (dark
          when eta^2 = 4), equal amplitudes everywhere.
    fig3: hysteresis sweep. fig1-style cycle with the s=-1 pulse replaced
          by s=-2 (so both competing dark families survive it) and the
          interference A_z swept -1.94 -> -0.08 -> -1.94 after a hold.
          ``ramp_scale`` shortens the two ramp windows only.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure_id {figure_id!r}; choose from {FIGURE_IDS}")

    conf_a = confinement_pulse(3, eta, 0)
    conf_b = confinement_pulse(3, eta, -1)
    pseudo_a = pseudo_confinement_pulses(3, eta, 0)
    pseudo_b = pseudo_confinement_pulses(3, eta, -1)

    if figure_id == "fig1":
        cycle = (conf_a, pseudo_a[0], pseudo_a[1],
                 interference_pulse((1.0, 1.0, -2.0)),
                 conf_b, pseudo_b[0], pseudo_b[1],
                 sideband_pulse(3, -1))
        return Schedule(cycle=cycle, ramps=(),
                        total_cycles=total_cycles or _DEFAULT_CYCLES["fig1"],
                        name="fig1")

    if figure_id == "fig2":
        cycle = (sideband_pulse(3, -12), sideband_pulse(3, -6),
                 sideband_pulse(3, -3), sideband_pulse(3, 3),
                 sideband_pulse(3, -13), sideband_pulse(3, -7),
                 sideband_pulse(3, -4), sideband_pulse(3, -2))
        return Schedule(cycle=cycle, ramps=(),
                        total_cycles=total_cycles or _DEFAULT_CYCLES["fig2"],
                        name="fig2")

    # fig3
    if not 0 < ramp_scale <= 1:
        raise ValueError("ramp_scale must lie in (0, 1]")
    ramp = max(1, round(FIG3_RAMP * ramp_scale))
    hold = FIG3_HOLD
    total = hold + 2 * ramp
    if total_cycles is not None and total_cycles != total:
        raise ValueError(f"fig3 length is fixed by its ramps ({total} cycles "
                         f"at ramp_scale={ramp_scale}); drop total_cycles")
    cycle = (conf_a, pseudo_a[0], pseudo_a[1],
             interference_pulse((1.0, 1.0, FIG3_AZ_NEAR_DARK)),
             conf_b, pseudo_b[0], pseudo_b[1],
             sideband_pulse(3, -2))
    ramps = (
        Ramp(3, "a_z", FIG3_AZ_NEAR_DARK, FIG3_AZ_FAR, hold, hold + ramp),
        Ramp(3, "a_z", FIG3_AZ_FAR, FIG3_AZ_NEAR_DARK, hold + ramp, total),
    )
    return Schedule(cycle=cycle, ramps=ramps, total_cycles=total, name="fig3")
