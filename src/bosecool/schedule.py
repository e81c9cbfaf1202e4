"""Pulse schedules: named pulse constructors, ramps, bundled presets.

A schedule is a fixed per-cycle pulse list plus optional linear ramps on
float-valued pulse fields. Ramps activate at their start cycle, clamp at
their end value afterwards, and later ramps in the list override earlier
ones once active, so an up ramp followed by a down ramp on the same field
forms a closed sweep.
A pulse's ramped fields apply together (``Schedule.driven``), and the
joint pulse must be legal at every cycle: one beam may fade out while
another fades in, but no cycle may leave a pulse with no beam.
"""

from __future__ import annotations

import math
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
        if not all(map(math.isfinite, self.amps)):
            raise ValueError(f"beam amplitudes must be finite, got {self.amps}")
        if all(a == 0.0 for a in self.amps):
            raise ValueError("a pulse needs a nonzero beam amplitude")
        if self.omega_tau_abs is not None and not 1 < self.omega_tau_abs < math.inf:
            raise ValueError("omega_tau_abs must exceed 1 and be finite")
        if self.omega0_tau_abs is not None and not 0 < self.omega0_tau_abs < 1:
            raise ValueError("omega0_tau_abs must lie in (0, 1)")

    def field_value(self, name: str) -> float | None:
        axis = _AXES.get(name)
        return getattr(self, name) if axis is None else self.amps[axis]

    def resolved(self, params: SimParams) -> "PulseSpec":
        """This pulse with unset widths taken from ``params``. Rates depend
        on the resolved pulse only, so the pulse itself is their memo key."""
        otau, wtau = self.omega0_tau_abs, self.omega_tau_abs
        return replace(
            self, omega0_tau_abs=params.omega0_tau_abs if otau is None else otau,
            omega_tau_abs=params.omega_tau_abs if wtau is None else wtau)


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
        if not (math.isfinite(self.start_value) and math.isfinite(self.end_value)):
            raise ValueError("ramp endpoints must be finite, got "
                             f"{self.start_value} and {self.end_value}")

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
        # a pulse's fields change only inside its ramps' windows, so scan
        # those cycles, unless a beam no ramp drives stays on and every
        # area ramp's endpoints (which bound its values) lie in (0, 1)
        for i, slots in self._slots.items():
            ramps = [r for r in self.ramps if r.pulse_index == i]
            lit = any(a and axis not in {x for _, x in slots}
                      for axis, a in enumerate(self.cycle[i].amps))
            if lit and all(0 < v < 1 for r in ramps if r.field == "omega0_tau_abs"
                           for v in (r.start_value, r.end_value)):
                continue
            for c in sorted({c for r in ramps for c in range(
                    r.start_cycle, min(r.end_cycle + 1, self.total_cycles))}):
                amps, area = self.driven(i, self.field_values(c))
                if not any(amps) or area is not None and not 0 < area < 1:
                    problem = ("no nonzero beam amplitude" if not any(amps)
                               else f"omega0_tau_abs {area} outside (0, 1)")
                    raise ValueError(f"the ramps leave pulse {i} with "
                                     f"{problem} at cycle {c}")

    @property
    def dim(self) -> int:
        return len(self.cycle[0].amps)

    @property
    def n_pulses(self) -> int:
        return len(self.cycle)

    def is_ramped(self, pulse_index: int) -> bool:
        return pulse_index in self._slots

    @cached_property
    def _field_ramps(self) -> dict[tuple[int, str], list[Ramp]]:
        """The ramps of each ramped (pulse index, field), latest first, in
        order of the field's first ramp."""
        out: dict[tuple[int, str], list[Ramp]] = {}
        for r in self.ramps:
            out.setdefault((r.pulse_index, r.field), []).insert(0, r)
        return out

    @cached_property
    def _slots(self) -> dict[int, list[tuple[int, int | None]]]:
        """Each ramped pulse's (position in field_values, axis or None)."""
        out: dict[int, list[tuple[int, int | None]]] = {}
        for k, (i, name) in enumerate(self._field_ramps):
            out.setdefault(i, []).append((k, _AXES.get(name)))
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

    def driven(self, pulse_index: int,
               values: tuple) -> tuple[tuple[float, ...], float | None]:
        """(amps, omega0_tau_abs) of ramped pulse ``pulse_index`` when the
        ramped fields hold ``values`` from ``field_values``; builds and
        checks no pulse, as construction checked every cycle."""
        pulse = self.cycle[pulse_index]
        amps, area = list(pulse.amps), pulse.omega0_tau_abs
        for k, axis in self._slots[pulse_index]:
            if axis is None:
                area = values[k]
            else:
                amps[axis] = float(values[k])
        return tuple(amps), area

    def resolved(self, params: SimParams) -> "Schedule":
        """This schedule with every pulse resolved against ``params``, or
        itself if already resolved, so no check runs twice."""
        cycle = tuple(p.resolved(params) for p in self.cycle)
        return self if cycle == self.cycle else replace(self, cycle=cycle)


def resolve_cycle(schedule: Schedule, cycle_index: int) -> list[PulseSpec]:
    """Concrete pulse list for one cycle, with ramped fields interpolated."""
    if not 0 <= cycle_index < schedule.total_cycles:
        raise ValueError(f"cycle_index {cycle_index} outside "
                         f"[0, {schedule.total_cycles})")
    pulses = list(schedule.cycle)
    values = schedule.field_values(cycle_index)
    for i in schedule._slots:
        amps, area = schedule.driven(i, values)
        pulses[i] = replace(pulses[i], amps=amps, omega0_tau_abs=area)
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
    if total_cycles is None:  # fig3 has no default: its ramps fix its length
        total_cycles = _DEFAULT_CYCLES.get(figure_id)

    conf_a = confinement_pulse(3, eta, 0)
    conf_b = confinement_pulse(3, eta, -1)
    pseudo_a = pseudo_confinement_pulses(3, eta, 0)
    pseudo_b = pseudo_confinement_pulses(3, eta, -1)

    if figure_id == "fig1":
        # s = 0: the interference pulse; levels with sum_j A_j d_j = 0
        # scatter nothing
        cycle = (conf_a, pseudo_a[0], pseudo_a[1],
                 PulseSpec(s=0, amps=(1.0, 1.0, -2.0)),
                 conf_b, pseudo_b[0], pseudo_b[1],
                 PulseSpec(s=-1, amps=(1.0, 1.0, 1.0)))
        return Schedule(cycle=cycle, total_cycles=total_cycles)

    if figure_id == "fig2":
        cycle = tuple(PulseSpec(s=s, amps=(1.0, 1.0, 1.0))
                      for s in (-12, -6, -3, 3, -13, -7, -4, -2))
        return Schedule(cycle=cycle, total_cycles=total_cycles)

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
             PulseSpec(s=0, amps=(1.0, 1.0, FIG3_AZ_NEAR_DARK)),
             conf_b, pseudo_b[0], pseudo_b[1],
             PulseSpec(s=-2, amps=(1.0, 1.0, 1.0)))
    ramps = (
        Ramp(3, "a_z", FIG3_AZ_NEAR_DARK, FIG3_AZ_FAR, hold, hold + ramp),
        Ramp(3, "a_z", FIG3_AZ_FAR, FIG3_AZ_NEAR_DARK, hold + ramp, total),
    )
    return Schedule(cycle=cycle, ramps=ramps, total_cycles=total)
