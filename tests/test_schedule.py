from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bosecool import (PulseSpec, Ramp, Schedule, SimParams, figure_schedule,
                      resolve_cycle)

from oracles import FIGURE_PULSES


def test_pulse_spec_validation():
    p = PulseSpec(s=-1, amps=(1.0, 0.5, 1.0))
    assert p.amps == (1.0, 0.5, 1.0)
    assert p != PulseSpec(s=-1, amps=(1.0, 0.5, -2.0))
    with pytest.raises(ValueError):
        PulseSpec(s=0, amps=())
    with pytest.raises(ValueError):
        PulseSpec(s=0, amps=(0.0, 0.0))
    with pytest.raises(ValueError):
        PulseSpec(s=-1, amps=(1.0,), omega0_tau_abs=1.0)
    with pytest.raises(ValueError):
        PulseSpec(s=-1, amps=(1.0,), omega_tau_abs=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beam amplitudes must be finite"):
            PulseSpec(s=-1, amps=(1.0, bad))
        with pytest.raises(ValueError, match="omega_tau_abs must exceed 1"):
            PulseSpec(s=-1, amps=(1.0,), omega_tau_abs=bad)


def test_confinement_targets():
    # eta^2 = 4: a 3D shell costs 3*4 = 12 quanta; the confining pulse
    # opens each half of the fig1 and fig3 cycles, offset 0 then -1
    for figure in ("fig1", "fig3"):
        cycle = figure_schedule(figure, eta=2.0).cycle
        assert cycle[0].s == -12
        assert cycle[4].s == -13
        assert cycle[0].amps == (1.0, 1.0, 1.0)


def test_pseudo_confinement_targets():
    # the pseudo-confining pair follows the confining pulse in each half
    for figure in ("fig1", "fig3"):
        cycle = figure_schedule(figure, eta=2.0).cycle
        assert (cycle[1].s, cycle[2].s) == (-6, -4)
        assert (cycle[5].s, cycle[6].s) == (-7, -5)
        cycle = figure_schedule(figure, eta=math.sqrt(2.0)).cycle
        assert (cycle[1].s, cycle[2].s) == (-3, -2)


def test_non_integer_target_warns():
    with pytest.warns(UserWarning, match=r"dim\*eta\^2 confinement target"):
        figure_schedule("fig1", eta=1.1)  # 3*1.21 is far from integer
    with pytest.warns(UserWarning, match="pseudo-confinement target"):
        figure_schedule("fig1", eta=1.3)


def test_presets_are_these_pulses():
    # every pulse and ramp of the presets as literals at eta = 2, so no
    # change to how figure_schedule builds them can move one unseen
    for figure, pulses in FIGURE_PULSES.items():
        assert figure_schedule(figure).cycle == tuple(
            PulseSpec(s=s, amps=amps) for s, amps in pulses), figure
    assert figure_schedule("fig1").ramps == figure_schedule("fig2").ramps == ()
    assert figure_schedule("fig3").ramps == (
        Ramp(3, "a_z", -1.94, -0.08, 1200, 19800),
        Ramp(3, "a_z", -0.08, -1.94, 19800, 38400))


def test_fig1_cycle_layout():
    sch = figure_schedule("fig1")
    assert sch.total_cycles == 2000
    assert [p.s for p in sch.cycle] == [-12, -6, -4, 0, -13, -7, -5, -1]
    for i, p in enumerate(sch.cycle):
        assert p.amps == ((1.0, 1.0, -2.0) if i == 3 else (1.0, 1.0, 1.0))
    assert sch.ramps == ()
    assert sch.n_pulses == 8


def test_fig2_cycle_layout():
    sch = figure_schedule("fig2")
    assert sch.total_cycles == 4000
    assert [p.s for p in sch.cycle] == [-12, -6, -3, 3, -13, -7, -4, -2]
    assert all(p.amps == (1.0, 1.0, 1.0) for p in sch.cycle)


def test_fig3_ramp_plan():
    sch = figure_schedule("fig3")
    assert sch.total_cycles == 1200 + 2 * 18600
    assert [p.s for p in sch.cycle] == [-12, -6, -4, 0, -13, -7, -5, -2]
    assert sch.cycle[3].amps == (1.0, 1.0, -1.94)
    assert len(sch.ramps) == 2
    assert all(r.pulse_index == 3 and r.field == "a_z" for r in sch.ramps)
    assert sch.is_ramped(3) and not sch.is_ramped(0)

    a_z = lambda c: resolve_cycle(sch, c)[3].amps[2]
    assert a_z(0) == -1.94
    assert a_z(1199) == -1.94                      # hold
    assert_allclose(a_z(1200 + 18600), -0.08)      # top of the up ramp
    assert_allclose(a_z(1200 + 9300), -1.01)       # midpoint
    # the loop closes one cycle past the end, so the last executed cycle
    # sits a single ramp step away from the start value
    step = (1.94 - 0.08) / 18600
    assert abs(a_z(sch.total_cycles - 1) - (-1.94)) <= step + 1e-12


def test_fig3_down_ramp_retraces_up():
    sch = figure_schedule("fig3")
    up0 = 1200
    for k in (1, 517, 9300, 18599, 18600):
        fwd = resolve_cycle(sch, up0 + k)[3].amps[2]
        back = resolve_cycle(sch, sch.total_cycles - k)[3].amps[2]
        assert fwd == back  # bitwise, not just close


def test_fig3_scale():
    sch = figure_schedule("fig3", ramp_scale=0.1)
    assert sch.total_cycles == 1200 + 2 * 1860
    with pytest.raises(ValueError):
        figure_schedule("fig3", ramp_scale=0.0)
    with pytest.raises(ValueError):
        figure_schedule("fig3", ramp_scale=1.5)
    with pytest.raises(ValueError, match="fixed by its ramps"):
        figure_schedule("fig3", total_cycles=5000)


def test_figure_overrides():
    assert figure_schedule("fig1", total_cycles=100).total_cycles == 100
    for figure in ("fig1", "fig2"):  # 0 is checked, not taken as unset
        with pytest.raises(ValueError, match="total_cycles must be >= 1"):
            figure_schedule(figure, total_cycles=0)
    with pytest.raises(ValueError):
        figure_schedule("fig9")


def test_resolve_cycle_bounds():
    sch = figure_schedule("fig1", total_cycles=10)
    with pytest.raises(ValueError):
        resolve_cycle(sch, 10)
    with pytest.raises(ValueError):
        resolve_cycle(sch, -1)


def test_ramp_value_interpolation():
    r = Ramp(pulse_index=0, field="a_z", start_value=1.0, end_value=3.0,
             start_cycle=100, end_cycle=300)
    assert r.value_at(50) == 1.0      # clamped before the window
    assert r.value_at(100) == 1.0
    assert r.value_at(300) == 3.0
    assert r.value_at(999) == 3.0
    assert_allclose(r.value_at(200), 2.0)
    assert not r.active_at(99)
    assert r.active_at(100)


def test_ramp_validation():
    with pytest.raises(ValueError):
        Ramp(pulse_index=0, field="s", start_value=0, end_value=1,
             start_cycle=0, end_cycle=10)
    with pytest.raises(ValueError):
        Ramp(pulse_index=0, field="a_z", start_value=0, end_value=1,
             start_cycle=10, end_cycle=10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="ramp endpoints must be finite"):
            Ramp(0, "a_x", bad, 1.0, 0, 10)
        with pytest.raises(ValueError, match="ramp endpoints must be finite"):
            Ramp(0, "a_x", 1.0, bad, 0, 10)


def test_schedule_validation():
    p1 = PulseSpec(s=-1, amps=(1.0,))
    p3 = PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Schedule(cycle=(), total_cycles=10)
    with pytest.raises(ValueError):
        Schedule(cycle=(p1,), total_cycles=0)
    with pytest.raises(ValueError):
        Schedule(cycle=(p1, p3), total_cycles=10)  # mixed dims
    ramp = Ramp(pulse_index=5, field="a_x", start_value=1, end_value=2,
                start_cycle=0, end_cycle=5)
    with pytest.raises(ValueError):
        Schedule(cycle=(p1,), total_cycles=10, ramps=(ramp,))  # index range
    ramp_z = Ramp(pulse_index=0, field="a_z", start_value=1, end_value=2,
                  start_cycle=0, end_cycle=5)
    with pytest.raises(ValueError):
        Schedule(cycle=(p1,), total_cycles=10, ramps=(ramp_z,))  # no z in 1D
    late = Ramp(pulse_index=0, field="a_x", start_value=1, end_value=2,
                start_cycle=0, end_cycle=50)
    with pytest.raises(ValueError):
        Schedule(cycle=(p1,), total_cycles=10, ramps=(late,))  # past the end


def test_ramped_amplitude_applies_only_in_window():
    base = PulseSpec(s=-1, amps=(1.0,))
    ramp = Ramp(pulse_index=0, field="a_x", start_value=1.0, end_value=0.2,
                start_cycle=4, end_cycle=8)
    sch = Schedule(cycle=(base,), total_cycles=10, ramps=(ramp,))
    assert resolve_cycle(sch, 0)[0].amps == (1.0,)
    assert resolve_cycle(sch, 8)[0].amps == (0.2,)
    assert resolve_cycle(sch, 9)[0].amps == (0.2,)
    assert_allclose(resolve_cycle(sch, 6)[0].amps[0], 0.6)


def test_cross_fade_is_legal_and_a_dark_cycle_is_named():
    # a_x fades out while a_y fades in: each beam is off at one end, yet
    # some beam is on at every cycle
    fade = (Ramp(0, "a_x", 1.0, 0.0, 5, 15), Ramp(0, "a_y", 0.0, 1.0, 5, 15))
    sch = Schedule(cycle=(PulseSpec(s=0, amps=(1.0, 0.0)),), total_cycles=20,
                   ramps=fade)
    assert [resolve_cycle(sch, c)[0].amps for c in (0, 10, 19)] == \
        [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
    # the same fade with a_y held at 0 leaves no beam from cycle 15 on
    with pytest.raises(ValueError, match="pulse 0 with no nonzero beam "
                                         "amplitude at cycle 15"):
        Schedule(cycle=(PulseSpec(s=0, amps=(1.0, 0.0)),), total_cycles=20,
                 ramps=fade[:1])
    # an area ramp is judged by the values it reaches: 0.4 -> 1.5 over
    # cycles 10-40 leaves (0, 1) at cycle 27
    area = Ramp(0, "omega0_tau_abs", 0.4, 1.5, 10, 40)
    with pytest.raises(ValueError, match=r"omega0_tau_abs 1\.0\d* outside "
                                         r"\(0, 1\) at cycle 27"):
        Schedule(cycle=(PulseSpec(s=0, amps=(1.0, 0.0)),), total_cycles=50,
                 ramps=(area,))


_BEAM_VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)
_AREA_VALUES = (0.0, 0.3, 0.6, 1.0, 1.2)


@st.composite
def ramped_schedules(draw):
    """A static pulse and a ramped one on a 2D or 3D basis, with 1-3 ramps
    on the second's beams and area. Windows may overlap, and a beam ramp
    may be followed by its cross-fade: the reverse sweep on another beam
    over the same window."""
    dim = draw(st.sampled_from((2, 3)))
    total = draw(st.integers(2, 40))
    amps = draw(st.tuples(*[st.sampled_from((0.0, 0.0, 1.0, -0.5))] * dim)
                .filter(any))
    area = draw(st.sampled_from((None, 0.5)))
    beams = ("a_x", "a_y", "a_z")[:dim]
    ramps = []
    for _ in range(draw(st.integers(1, 3))):
        last = ramps[-1] if ramps else None
        if last is not None and last.field in beams and draw(st.booleans()):
            name = draw(st.sampled_from([b for b in beams if b != last.field]))
            ramps.append(Ramp(1, name, last.end_value, last.start_value,
                              last.start_cycle, last.end_cycle))
            continue
        name = draw(st.sampled_from(beams * 2 + ("omega0_tau_abs",)))
        values = _AREA_VALUES if name == "omega0_tau_abs" else _BEAM_VALUES
        start = draw(st.integers(0, total - 1))
        ramps.append(Ramp(1, name, draw(st.sampled_from(values)),
                          draw(st.sampled_from(values)), start,
                          draw(st.integers(start + 1, total))))
    static = PulseSpec(s=-1, amps=(1.0,) * dim)
    return (static, PulseSpec(s=0, amps=amps, omega0_tau_abs=area)), \
        total, tuple(ramps)


def brute_force(pulse, ramps, total):
    """(amps, area) of ``pulse`` at every cycle: for each field the latest
    active ramp's value, else the pulse's own."""
    out = []
    for c in range(total):
        amps, area = list(pulse.amps), pulse.omega0_tau_abs
        for r in ramps:  # list order, so a later active ramp wins
            if r.active_at(c):
                if r.field == "omega0_tau_abs":
                    area = r.value_at(c)
                else:
                    amps["xyz".index(r.field[-1])] = r.value_at(c)
        out.append((tuple(amps), area))
    return out


@settings(max_examples=500)
@given(ramped_schedules())
def test_construction_accepts_exactly_the_schedules_legal_at_every_cycle(drawn):
    cycle, total, ramps = drawn
    joint = brute_force(cycle[1], ramps, total)
    bad = [c for c, (amps, area) in enumerate(joint)
           if not any(amps) or (area is not None and not 0 < area < 1)]
    if bad:
        with pytest.raises(ValueError,
                           match=f"the ramps leave pulse 1 with .* at cycle "
                                 f"{bad[0]}$"):
            Schedule(cycle=cycle, total_cycles=total, ramps=ramps)
        return
    sch = Schedule(cycle=cycle, total_cycles=total, ramps=ramps)
    for c, (amps, area) in enumerate(joint):
        static, ramped = resolve_cycle(sch, c)
        assert static == cycle[0]
        assert ramped.amps == amps and ramped.omega0_tau_abs == area
        assert ramped.s == 0 and ramped.omega_tau_abs is None


def test_a_long_monotone_ramp_is_checked_by_its_pieces():
    # the only beam ramps 1 -> 0.5 over 200,000 cycles: every piece keeps
    # its sign at both ends, so construction and resolution walk no cycle;
    # one that crosses zero is still named at its first dark cycle
    tracemalloc.start()
    try:
        sch = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),),
                       total_cycles=200_000,
                       ramps=(Ramp(0, "a_x", 1.0, 0.5, 0, 200_000),))
        sch.resolved(SimParams(eta=0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match="no nonzero beam amplitude at "
                                         "cycle 150$"):
        Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=200,
                 ramps=(Ramp(0, "a_x", 1.0, -1.0, 100, 200),))
