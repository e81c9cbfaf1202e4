"""Stochastic pulse dynamics against analytic marginals and exact propagation.

The step law decomposes into three draws (how many atoms leave each level,
which intermediate level each one reaches, where each one lands), so each
stage is pinned separately with frequency tests before the joint law is
checked against the exact reference propagator.
"""
from __future__ import annotations

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bosecool import (Configuration, MatrixProvider, PhysicsValidityError,
                      PulseSpec, Ramp, RecorderSpec, Schedule, SimParams,
                      TrajectoryRecord, calibrate_pulse_area,
                      condensation_criterion, dynamics, emission_counts,
                      enumerate_configurations, enumerate_levels,
                      exact_initial_state, exact_propagate, figure_schedule,
                      franck_condon_1d, pulse_step, resolve_cycle,
                      run_ensemble, run_trajectory)
from bosecool.dynamics import PulseRates, StructureMemo, _step
from bosecool.rates import RateMatrix

from oracles import multinomial_sigma

PREF = math.pi / 8.0


def rate_matrix(size, entries, kind="absorption"):
    to = np.array([e[0] for e in entries], dtype=np.uint32)
    fr = np.array([e[1] for e in entries], dtype=np.uint32)
    ra = np.array([float(e[2]) for e in entries])
    return RateMatrix(kind=kind, shape=(size, size), to_ids=to, from_ids=fr,
                      rates=ra, fingerprint=f"test|{kind}|{size}|{len(entries)}")


def pulse_rates(size, entries):
    return PulseRates.from_matrix(rate_matrix(size, entries))


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def sample_steps(occ0, rates, sp, n_steps, seed):
    """Repeated single steps from a frozen configuration."""
    rng = rng_of(seed)
    template = np.asarray(occ0, dtype=np.int64)
    all_events = []
    for _ in range(n_steps):
        occ = template.copy()
        occf = occ.astype(np.float64)
        events, _ = _step(occ, occf, rates, sp, rng)
        all_events.append(events)
        assert occ.sum() == template.sum()
    return all_events


def test_pulse_rates_grouping():
    mat = rate_matrix(4, [(0, 2, 0.1), (1, 2, 0.3), (0, 3, 0.2)])
    pr = PulseRates.from_matrix(mat)
    assert_allclose(pr.depletion, [0.0, 0.0, 0.4, 0.2])
    # channels for level 2 enumerate both destinations
    lo, hi = pr.chan_indptr[2], pr.chan_indptr[3]
    assert sorted(zip(pr.chan_to[lo:hi], pr.chan_rate[lo:hi])) == [(0, 0.1), (1, 0.3)]


def test_excitation_counts_are_binomial():
    # per-atom probability 2*Gamma, independently per atom
    rates = pulse_rates(3, [(2, 0, 0.15), (2, 1, 0.05)])
    sp = np.eye(3)
    sp[:, 2] = [0.5, 0.5, 0.0]
    occ0 = [4, 3, 0]
    events = sample_steps(occ0, rates, sp, 20_000, seed=42)
    from0 = np.array([sum(1 for e in ev if e[0] == 0) for ev in events])
    from1 = np.array([sum(1 for e in ev if e[0] == 1) for ev in events])
    n = from0.size
    assert abs(from0.mean() - 4 * 0.3) < 4 * math.sqrt(4 * 0.3 * 0.7 / n)
    assert abs(from1.mean() - 3 * 0.1) < 4 * math.sqrt(3 * 0.1 * 0.9 / n)
    # binomial variance, not Poisson
    assert abs(from0.var() - 4 * 0.3 * 0.7) < 0.05
    assert from0.max() <= 4 and from1.max() <= 3


def test_channel_branching_frequencies():
    # intermediate level drawn proportional to the per-channel rate
    rates = pulse_rates(3, [(1, 0, 0.1), (2, 0, 0.3)])
    sp = np.eye(3)
    events = sample_steps([5, 0, 0], rates, sp, 6000, seed=7)
    flat = [e for ev in events for e in ev]
    frac = sum(1 for e in flat if e[1] == 2) / len(flat)
    assert abs(frac - 0.75) < 4 * multinomial_sigma(0.75, len(flat))


def test_bose_enhanced_destination():
    # one excitable atom, N-1 spectators in level 1, equal branching:
    # the occupied destination wins with weight N/(N+1)
    n_atoms = 5
    rates = pulse_rates(2, [(0, 0, 0.4)])
    sp = np.zeros((2, 2))
    sp[:, 0] = [0.5, 0.5]
    sp[:, 1] = [0.0, 1.0]
    events = sample_steps([1, n_atoms - 1], rates, sp, 30_000, seed=11)
    flat = [e for ev in events for e in ev]
    want = n_atoms / (n_atoms + 1.0)
    frac = sum(1 for e in flat if e[2] == 1) / len(flat)
    assert abs(frac - want) < 4 * multinomial_sigma(want, len(flat))


def test_sequential_emission_sees_evolving_occupancy():
    # two atoms absorbed together re-emit one at a time; the second lands on
    # the first's destination with probability 2/3 under equal branching
    # (a frozen intermediate configuration would give 1/2)
    rates = pulse_rates(2, [(1, 0, 0.45)])
    sp = np.zeros((2, 2))
    sp[:, 1] = [0.5, 0.5]
    sp[:, 0] = [1.0, 0.0]
    events = sample_steps([2, 0], rates, sp, 30_000, seed=12)
    pairs = [ev for ev in events if len(ev) == 2]
    same = sum(1 for ev in pairs if ev[0][2] == ev[1][2]) / len(pairs)
    want = 2.0 / 3.0
    assert abs(same - want) < 4 * multinomial_sigma(want, len(pairs))


def test_single_atom_has_no_enhancement():
    rates = pulse_rates(2, [(1, 0, 0.4)])
    sp = np.zeros((2, 2))
    sp[:, 1] = [0.5, 0.5]
    sp[:, 0] = [1.0, 0.0]
    events = sample_steps([1, 0], rates, sp, 30_000, seed=13)
    flat = [e for ev in events for e in ev]
    frac = sum(1 for e in flat if e[2] == 0) / len(flat)
    assert abs(frac - 0.5) < 4 * multinomial_sigma(0.5, len(flat))


def test_dark_level_is_fixed_point():
    rates = pulse_rates(2, [(0, 1, 0.3)])  # level 0 has zero depletion
    sp = np.eye(2)
    cfg = Configuration(np.array([6, 0]))
    rng = rng_of(3)
    for _ in range(50):
        out = pulse_step(cfg, rates, sp, rng)
        assert out.events == ()
        assert out.p_excite == 0.0
        assert_array_equal(out.config.occ, cfg.occ)


def test_pulse_step_does_not_mutate_input():
    rates = pulse_rates(2, [(1, 0, 0.45)])
    sp = np.zeros((2, 2))
    sp[:, 1] = [0.2, 0.8]
    sp[:, 0] = [1.0, 0.0]
    cfg = Configuration(np.array([8, 0]))
    out = pulse_step(cfg, rates, sp, rng_of(5))
    assert cfg.occ[0] == 8
    assert out.config.occ.sum() == 8
    assert 0.0 < out.p_excite <= 1.0


def test_hard_validity_bound():
    rates = pulse_rates(2, [(1, 0, 0.55)])  # per-atom probability 1.1
    sp = np.eye(2)
    with pytest.raises(PhysicsValidityError, match="exceeds 1"):
        pulse_step(Configuration(np.array([2, 0])), rates, sp, rng_of(1))
    # the same rates are fine while the hot level is empty
    out = pulse_step(Configuration(np.array([0, 3])), rates, sp, rng_of(1))
    assert out.p_excite == 0.0


def make_1d_system(max_shell=3, eta=0.9, area=0.45, pulses=(-1,), cycles=10):
    basis = enumerate_levels(1, max_shell)
    params = SimParams(eta=eta, omega0_tau_abs=area)
    cycle = tuple(PulseSpec(s=s, amps=(1.0,)) for s in pulses)
    schedule = Schedule(cycle=cycle, total_cycles=cycles)
    return basis, params, schedule


def test_trajectory_recording_grid():
    basis, params, schedule = make_1d_system(cycles=20)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 2
    rec = RecorderSpec(watched_ids=(0, 3), stride=7)
    rec7 = run_trajectory(basis, params, schedule, Configuration(occ), None, 5, rec)
    assert list(rec7.cycles) == [0, 7, 14, 20]
    assert rec7.watched_occ.shape == (4, 2)
    assert rec7.watched_occ[0, 1] == 2
    assert rec7.final_occ.sum() == 2
    assert rec7.seed_key == (5,)
    rec0 = run_trajectory(basis, params, schedule, Configuration(occ), None, 5,
                          RecorderSpec(watched_ids=(0,), stride=0))
    assert list(rec0.cycles) == [0, 20]
    with pytest.raises(ValueError):
        RecorderSpec(watched_ids=(0,), stride=-1)


def test_trajectory_event_log_schema():
    basis, params, schedule = make_1d_system(cycles=15)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 4
    rec = run_trajectory(basis, params, schedule, Configuration(occ), None, 9,
                         RecorderSpec(watched_ids=(0,), stride=1))
    ev = rec.events
    assert ev.shape[1] == 5
    assert ev.shape[0] > 0
    assert ev[:, 0].min() >= 0 and ev[:, 0].max() < 15
    assert set(np.unique(ev[:, 1])) <= {0}
    assert ev[:, 2].max() < basis.size and ev[:, 4].max() < basis.size
    # cycles are logged in execution order
    assert (np.diff(ev[:, 0]) >= 0).all()


def test_trajectory_bitwise_deterministic():
    basis, params, schedule = make_1d_system(cycles=30)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 5
    rec = RecorderSpec(watched_ids=(0, 1), stride=3)
    a = run_trajectory(basis, params, schedule, Configuration(occ), None, (77, 0), rec)
    b = run_trajectory(basis, params, schedule, Configuration(occ), None, (77, 0), rec)
    assert_array_equal(a.watched_occ, b.watched_occ)
    assert_array_equal(a.events, b.events)
    assert_array_equal(a.final_occ, b.final_occ)
    assert a.p_max == b.p_max
    c = run_trajectory(basis, params, schedule, Configuration(occ), None, (78, 0), rec)
    assert not (np.array_equal(a.events, c.events) and
                np.array_equal(a.final_occ, c.final_occ))


def test_trajectory_warns_above_half():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.9, omega0_tau_abs=0.75)
    # amplified self-coupling: 2 * pi/8 * 0.75^2 * 4 e^{-0.81} ~ 0.79
    schedule = Schedule(cycle=(PulseSpec(s=0, amps=(-2.0,)),), total_cycles=4)
    occ = np.zeros(3, dtype=np.int64)
    occ[0] = 3
    with pytest.warns(UserWarning, match="exceeded 0.5"):
        rec = run_trajectory(basis, params, schedule, Configuration(occ), None, 1,
                             RecorderSpec(watched_ids=(0,), stride=1))
    assert rec.n_warn_pulses >= 1
    assert 0.5 < rec.p_max <= 1.0


def test_distribution_initial_needs_atom_count():
    basis, params, schedule = make_1d_system()
    dist = np.zeros(basis.size)
    dist[2] = 1.0
    with pytest.raises(ValueError):
        run_trajectory(basis, params, schedule, dist, None, 1,
                       RecorderSpec(watched_ids=(0,)))
    rec = run_trajectory(basis, params, schedule, dist, 3, 1,
                         RecorderSpec(watched_ids=(0,)))
    assert rec.final_occ.sum() == 3


def test_initial_length_checked():
    basis, params, schedule = make_1d_system()
    with pytest.raises(ValueError):
        run_trajectory(basis, params, schedule,
                       Configuration(np.array([1, 1])), None, 1,
                       RecorderSpec(watched_ids=(0,)))


def test_ensemble_threads_bitwise_equal():
    basis, params, schedule = make_1d_system(cycles=25)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 4
    rec = RecorderSpec(watched_ids=(0, 3), stride=5)
    one = run_ensemble(basis, params, schedule, Configuration(occ), None, 12, 99, rec)
    par = run_ensemble(basis, params, schedule, Configuration(occ), None, 12, 99, rec,
                       threads=3)
    assert_array_equal(one.watched_mean, par.watched_mean)
    assert_array_equal(one.watched_std, par.watched_std)
    assert_array_equal(one.final_occ, par.final_occ)
    for ev_a, ev_b in zip(one.events, par.events):
        assert_array_equal(ev_a, ev_b)
    assert one.p_max == par.p_max


def test_ensemble_standard_error_definition():
    basis, params, schedule = make_1d_system(cycles=8)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 4
    ens = run_ensemble(basis, params, schedule, Configuration(occ), None, 6, 5,
                       RecorderSpec(watched_ids=(0,), stride=4))
    se = ens.watched_fraction_se()
    assert_allclose(se, ens.watched_std / (4 * math.sqrt(6)))
    assert ens.watched_fraction_mean().max() <= 1.0


def test_exact_single_atom_matches_hand_matrix():
    basis, params, schedule = make_1d_system(max_shell=2, eta=0.9, area=0.4,
                                             pulses=(-1,), cycles=1)
    provider = MatrixProvider(basis, params)
    sp = provider.spontaneous_dense()
    gam = np.array([0.0] + [PREF * 0.4 ** 2 * abs(franck_condon_1d(n - 1, n, 0.9)) ** 2
                            for n in (1, 2)])
    T = np.zeros((3, 3))
    for m in range(3):
        T[m, m] += 1.0 - 2.0 * gam[m]
        if m > 0:
            dest = sp[:, m - 1] / sp[:, m - 1].sum()
            T[:, m] += 2.0 * gam[m] * dest
    occ = np.zeros(3, dtype=np.int64)
    occ[2] = 1
    state = exact_propagate(basis, params, schedule, Configuration(occ),
                            provider=provider)
    # map configuration probabilities back to level probabilities
    got = state.marginal_occupancy()
    want = T @ np.array([0.0, 0.0, 1.0])
    assert_allclose(got, want, atol=1e-12)
    assert_allclose(state.probs.sum(), 1.0, atol=1e-12)


def test_exact_dark_state_is_stationary():
    basis, params, schedule = make_1d_system(max_shell=2, pulses=(-1, -2), cycles=7)
    occ = np.zeros(3, dtype=np.int64)
    occ[0] = 2
    state = exact_propagate(basis, params, schedule, Configuration(occ))
    idx = state.index[(2, 0, 0)]
    assert_allclose(state.probs[idx], 1.0, atol=1e-14)


def test_exact_matches_monte_carlo_small():
    basis, params, schedule = make_1d_system(max_shell=3, eta=0.8, area=0.45,
                                             pulses=(-1, -2), cycles=12)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 1
    occ[2] = 1
    init = Configuration(occ)
    provider = MatrixProvider(basis, params)
    state = exact_propagate(basis, params, schedule, init, provider=provider)
    ens = run_ensemble(basis, params, schedule, init, None, 4000, 17,
                       RecorderSpec(watched_ids=(0,), stride=0, record_events=False),
                       provider=provider)
    emp = np.zeros_like(state.probs)
    for row in ens.final_occ:
        emp[state.index[tuple(int(x) for x in row)]] += 1.0
    emp /= emp.sum()
    tv = 0.5 * float(np.abs(emp - state.probs).sum())
    assert tv < 0.03


def test_enumerate_configurations_layout():
    confs = enumerate_configurations(2, 3)
    assert confs.shape == (6, 3)
    assert (confs.sum(axis=1) == 2).all()
    assert len({tuple(r) for r in confs}) == 6
    assert enumerate_configurations(3, 1).tolist() == [[3]]
    with pytest.raises(ValueError):
        enumerate_configurations(30, 30, max_configs=1000)


def test_exact_initial_state_is_point_mass():
    basis = enumerate_levels(1, 2)
    occ = np.array([1, 0, 1], dtype=np.int64)
    state = exact_initial_state(basis, Configuration(occ))
    assert_allclose(state.probs.sum(), 1.0)
    assert state.probs[state.index[(1, 0, 1)]] == 1.0
    assert_allclose(state.marginal_occupancy(), occ.astype(float))


def test_emission_counts_windows():
    ev = np.array([
        [0, 0, 3, 2, 0],
        [1, 0, 3, 2, 1],
        [4, 0, 0, 0, 0],
        [9, 0, 1, 0, 0],
    ], dtype=np.int64)
    assert_array_equal(emission_counts(ev, 3, 10), [2, 1, 0])
    assert_array_equal(emission_counts(ev, 5, 10), [3, 1])
    # self-transition filter keeps rows with from == to == level
    assert_array_equal(emission_counts(ev, 5, 10, self_level=0), [1, 0])
    assert emission_counts(ev, 50, 10).size == 0
    none = emission_counts(np.zeros((0, 5), dtype=np.int64), 3, 10)
    assert_array_equal(none, [0, 0, 0])
    with pytest.raises(ValueError):
        emission_counts(ev, 0, 10)


def test_calibration_hits_target_probability():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.5, omega0_tau_abs=0.5)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=5)
    occ = np.zeros(3)
    occ[1] = 10.0
    area = calibrate_pulse_area(basis, params, schedule, occ)
    p1 = 2.0 * PREF * abs(franck_condon_1d(0, 1, 0.5)) ** 2
    p2 = 2.0 * PREF * abs(franck_condon_1d(1, 2, 0.5)) ** 2
    want = min(0.9,
               0.5 * math.sqrt(0.5 / (p1 * 0.25)),
               0.5 * math.sqrt(0.98 / (p2 * 0.25)))
    assert_allclose(area, want, rtol=1e-12)
    # at the returned area the populated level sits exactly on target
    # unless the cap or the hard-margin guard came first
    if want not in (0.9,):
        worst = p1 * area ** 2
        guard = p2 * area ** 2
        assert worst <= 0.5 + 1e-12 and guard <= 0.98 + 1e-12


def test_calibration_cap_and_floor():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.05, omega0_tau_abs=0.5)  # tiny rates: cap binds
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=5)
    occ = np.zeros(3)
    occ[1] = 10.0
    assert calibrate_pulse_area(basis, params, schedule, occ) == 0.9
    # occupancy below the floor is ignored; only the hot empty level guards
    occ2 = np.zeros(3)
    occ2[1] = 0.2
    occ2[2] = 10.0
    a2 = calibrate_pulse_area(basis, params, schedule, occ2)
    assert a2 == 0.9  # still capped at this eta


def test_calibration_validation():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.5, omega0_tau_abs=0.5)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=5)
    occ = np.zeros(3)
    occ[1] = 10.0
    with pytest.raises(ValueError):
        calibrate_pulse_area(basis, params, schedule, occ, target=0.0)
    with pytest.raises(ValueError):
        calibrate_pulse_area(basis, params, schedule, occ, target=1.5)
    with pytest.raises(ValueError):
        calibrate_pulse_area(basis, params, schedule, np.zeros(3))
    dark = np.zeros(3)
    dark[0] = 10.0  # nothing below the ground level on a lowering pulse
    with pytest.raises(PhysicsValidityError, match="drives no excitation"):
        calibrate_pulse_area(basis, params, schedule, dark)


def test_provider_memoizes_and_persists(tmp_path):
    basis, params, schedule = make_1d_system(cycles=5)
    first = MatrixProvider(basis, params, cache_dir=str(tmp_path))
    first.prepare(schedule)
    assert first.counters["abs_builds"] == 1
    assert first.counters["sp_builds"] == 1
    first.prepare(schedule)  # memoized, nothing new
    assert first.counters["abs_builds"] == 1
    assert any(p.suffix == ".rates" for p in tmp_path.iterdir())

    second = MatrixProvider(basis, params, cache_dir=str(tmp_path))
    second.prepare(schedule)
    assert second.counters["abs_builds"] == 0
    assert second.counters["sp_builds"] == 0
    assert second.counters["disk_loads"] == 2  # one pulse matrix plus emission
    assert_allclose(second.spontaneous_dense(), first.spontaneous_dense())


def test_provider_ramp_evaluations_share_structure():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    base = PulseSpec(s=-1, amps=(1.0,))
    provider = MatrixProvider(basis, params)
    for amp in (1.0, 0.9, 0.8, 0.7):
        provider.absorption(base.with_amp(0, amp))
    assert provider.counters["structure_builds"] == 1
    assert provider.counters["abs_builds"] == 0  # evaluations are not builds
    # rates scale with the squared amplitude on a single-beam pulse
    full = provider.absorption(base).matrix.to_dense()
    half = provider.absorption(base.with_amp(0, 0.5)).matrix.to_dense()
    assert_allclose(half, 0.25 * full, rtol=1e-13)


def test_provider_serves_persisted_pulses_once():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    provider = MatrixProvider(basis, params)
    pulse = PulseSpec(s=-1, amps=(1.0,))
    first = provider.absorption(pulse, persist=True)
    # spelling out the default widths resolves to the same pulse
    same = PulseSpec(s=-1, amps=(1.0,), omega0_tau_abs=0.4, omega_tau_abs=4.0)
    assert provider.absorption(same, persist=True) is first
    assert provider.counters["abs_builds"] == 1
    assert provider.counters["structure_builds"] == 1

    # an unpersisted evaluation is fresh on every call and kept nowhere
    fresh = provider.absorption(pulse)
    assert fresh is not first
    assert_array_equal(fresh.matrix.rates, first.matrix.rates)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None
    assert provider.absorption(pulse, persist=True) is first
    assert provider.counters["abs_builds"] == 1


def test_structure_memo_keys_on_params_and_keeps_ramped_after_prepare():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    memo = StructureMemo()
    pulse = PulseSpec(s=-1, amps=(1.0,)).resolved(params)
    st = memo.get(basis, params, pulse)
    # the area is not part of a structure; eta and the window are
    assert memo.get(basis, dataclasses.replace(params, omega0_tau_abs=0.2),
                    pulse) is st
    for other in (dataclasses.replace(params, eta=1.1),
                  dataclasses.replace(params, resonance_window=1)):
        assert memo.get(basis, other, pulse) is not st
    assert memo.get(enumerate_levels(1, 4), params, pulse) is not st
    assert memo.builds == 4

    # after prepare only the ramped pulse's structure is kept
    memo = StructureMemo()
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),
                               PulseSpec(s=0, amps=(1.0,))), total_cycles=4,
                        ramps=(Ramp(1, "a_x", 1.0, 0.5, 0, 4),))
    provider = MatrixProvider(basis, params, structures=memo)
    provider.prepare(schedule)
    assert provider.counters["structure_builds"] == 2
    static, ramped = (p.resolved(params) for p in schedule.cycle)
    memo.get(basis, params, ramped)
    assert memo.builds == 2
    memo.get(basis, params, static)
    assert memo.builds == 3


def test_ramp_columns_record_the_area_in_effect():
    # the pulse defers its area to params until the ramp starts at cycle 5
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    ramp = Ramp(pulse_index=0, field="omega0_tau_abs", start_value=0.2,
                end_value=0.4, start_cycle=5, end_cycle=15)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=20,
                        ramps=(ramp,))
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 1
    rec = run_trajectory(basis, params, schedule, Configuration(occ), None, 3,
                         RecorderSpec(watched_ids=(0,), stride=1))
    values = rec.ramp_values[:, 0]  # row k holds cycle max(0, k - 1)
    assert_array_equal(values[:6], 0.4)
    assert values[6] == 0.2
    assert_allclose(values[7], 0.22, rtol=1e-14)
    assert values[-1] == 0.4
    # evaluated at cycle 0, then at each of the ten changing cycles 5..15
    assert rec.ramp_evals == 12


def reference_trajectory(basis, params, schedule, initial, seed_key, recorder):
    """``run_trajectory``'s record from a loop that resolves every cycle's
    pulses afresh and calls the stateless ``_step`` on every pulse, with
    one array binomial per pulse. Returns the record, or the number of
    completed pulses if a step raised PhysicsValidityError."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_SCALAR_DRAWS", 0)
        return _reference_trajectory(basis, params, schedule, initial, seed_key,
                                     recorder)


def _reference_trajectory(basis, params, schedule, initial, seed_key, recorder):
    provider = MatrixProvider(basis, params)
    provider.prepare(schedule)
    sp = provider.spontaneous_dense()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))
    occ = initial.occ.copy()
    occf = occ.astype(np.float64)
    shells = basis.shells.astype(np.float64)
    n_total = float(occ.sum())
    watched = np.asarray(recorder.watched_ids, dtype=np.int64)
    fields = list(dict.fromkeys((r.pulse_index, r.field) for r in schedule.ramps))
    schedule = schedule.resolved(params)
    ramped = [i for i in range(schedule.n_pulses) if schedule.is_ramped(i)]
    rows, events = [], []
    p_max, n_warn, ramp_evals, steps = 0.0, 0, 0, 0

    def row(done, pulses):
        rows.append((done, occ[watched].copy(), float(shells @ occf / n_total),
                     [pulses[i].field_value(f) for i, f in fields]))

    previous = None
    for c in range(schedule.total_cycles):
        pulses = resolve_cycle(schedule, c)
        ramp_evals += sum(previous is None or pulses[i] != previous[i]
                          for i in ramped)
        if c == 0:
            row(0, pulses)
        for i, pulse in enumerate(pulses):
            rates = provider.absorption(pulse, persist=i not in ramped)
            try:
                pulse_events, p = _step(occ, occf, rates, sp, rng)
            except PhysicsValidityError:
                return steps
            steps += 1
            p_max = max(p_max, p)
            n_warn += p > 0.5
            if recorder.record_events:
                events.extend((c, i) + ev for ev in pulse_events)
        done = c + 1
        if (recorder.stride and done % recorder.stride == 0
                and done < schedule.total_cycles) or done == schedule.total_cycles:
            row(done, pulses)
        previous = pulses
    return TrajectoryRecord(
        cycles=np.array([r[0] for r in rows], dtype=np.int64),
        watched_occ=np.array([r[1] for r in rows], dtype=np.int64),
        mean_shell=np.array([r[2] for r in rows]),
        ramp_values=np.array([r[3] for r in rows],
                             dtype=np.float64).reshape(len(rows), len(fields)),
        events=np.array(events, dtype=np.int64).reshape(len(events), 5),
        final_occ=occ.copy(), p_max=p_max, n_warn_pulses=n_warn,
        seed_key=seed_key, ramp_evals=ramp_evals)


def assert_records_identical(a, b):
    for f in dataclasses.fields(TrajectoryRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
def test_kept_draw_inputs_leave_the_stream_unchanged_1d(monkeypatch, scalar_draws):
    # the demo1d preset: two sidebands walk two atoms down six levels
    basis = enumerate_levels(1, 5)
    params = SimParams(eta=0.7, omega0_tau_abs=0.4)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),
                               PulseSpec(s=-2, amps=(1.0,))), total_cycles=200)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[5] = 2
    rec = RecorderSpec(watched_ids=(0, 1), stride=10, record_events=True)
    provider = MatrixProvider(basis, params)
    provider.prepare(schedule)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    n_events = 0
    for k in range(20):
        got = run_trajectory(basis, params, schedule, Configuration(occ), None,
                             (4242, k), rec, provider)
        want = reference_trajectory(basis, params, schedule, Configuration(occ),
                                    (4242, k), rec)
        assert_records_identical(got, want)
        n_events += got.events.shape[0]
    assert n_events > 0


def ramped_2d_system(ramps, total_cycles):
    """2D basis, a cooling sideband and an interference pulse whose
    (a_x, a_y) = (1, -1) leaves (0,0) and (1,1) exactly dark."""
    basis = enumerate_levels(2, 3)
    params = SimParams(eta=1.0, omega0_tau_abs=0.85)
    cycle = (PulseSpec(s=-1, amps=(1.0, 1.0)), PulseSpec(s=0, amps=(1.0, -1.0)))
    schedule = Schedule(cycle=cycle, total_cycles=total_cycles, ramps=ramps)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of((0, 3))] = 3
    occ[basis.id_of((2, 1))] = 1
    return basis, params, schedule, Configuration(occ)


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
def test_kept_draw_inputs_leave_the_stream_unchanged_2d_ramp(monkeypatch,
                                                              scalar_draws):
    # a_y leaves the dark point, returns to it and holds there
    ramps = (Ramp(1, "a_y", -1.0, -0.4, 20, 60), Ramp(1, "a_y", -0.4, -1.0, 60, 100))
    basis, params, schedule, initial = ramped_2d_system(ramps, 120)
    dep = MatrixProvider(basis, params).absorption(schedule.cycle[1]).depletion
    assert dep[basis.id_of((0, 0))] == 0.0
    rec = RecorderSpec(watched_ids=(0, 4), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    n_warn = 0
    for k in range(6):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_trajectory(basis, params, schedule, initial, None, (3, k), rec)
        want = reference_trajectory(basis, params, schedule, initial, (3, k), rec)
        assert_records_identical(got, want)
        assert got.events.shape[0] > 0
        n_warn += got.n_warn_pulses
    assert n_warn > 0


def test_kept_draw_inputs_raise_at_the_reference_pulse(monkeypatch):
    # a_y = -5 drives the occupied (0,0) past one excitation per atom
    ramps = (Ramp(1, "a_y", -1.0, -5.0, 20, 80),)
    basis, params, schedule, initial = ramped_2d_system(ramps, 100)
    rec = RecorderSpec(watched_ids=(0,), stride=0, record_events=True)
    step = dynamics._step
    done = []

    def counted_step(*args):
        out = step(*args)
        done.append(1)
        return out

    monkeypatch.setattr(dynamics, "_step", counted_step)
    for k in range(3):
        want = reference_trajectory(basis, params, schedule, initial, (3, k), rec)
        assert isinstance(want, int) and want > 20 * schedule.n_pulses
        done.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PhysicsValidityError, match="exceeds 1"):
                run_trajectory(basis, params, schedule, initial, None, (3, k), rec)
        assert len(done) == want


def ramped_3d_system():
    """3D ``max_shell`` 3 at ``resonance_window`` 1: a weak heating
    sideband and an s=-1 interference pulse whose diagonal comes with
    lowering shifts. Its a_z sweeps 2 -> -2 -> 2: zero at cycles 30 and
    80, and -2 over cycles 50-60, where (1, 1, -2) leaves (0,0,0) exactly
    dark. Twelve atoms on ten levels start it above ``_SCALAR_DRAWS``
    coupled levels."""
    basis = enumerate_levels(3, 3)
    params = SimParams(eta=1.0, omega0_tau_abs=0.6, resonance_window=1)
    cycle = (PulseSpec(s=1, amps=(0.5, 0.5, 0.5)),
             PulseSpec(s=-1, amps=(1.0, 1.0, 1.0)))
    ramps = (Ramp(1, "a_z", 2.0, -2.0, 10, 50), Ramp(1, "a_z", -2.0, 2.0, 60, 100))
    schedule = Schedule(cycle=cycle, total_cycles=120, ramps=ramps)
    occ = np.zeros(basis.size, dtype=np.int64)
    for level in [(0, 0, 3), (0, 3, 0), (3, 0, 0), (1, 1, 1), (2, 1, 0),
                  (0, 1, 2), (1, 0, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1),
                  (1, 1, 0), (0, 0, 2)]:
        occ[basis.id_of(level)] += 1
    return basis, params, schedule, Configuration(occ)


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
def test_kept_draw_inputs_leave_the_stream_unchanged_3d_ramp(monkeypatch,
                                                              scalar_draws):
    basis, params, schedule, initial = ramped_3d_system()
    assert [schedule.field_values(c)[0] for c in (30, 50, 60, 80)] == \
        [0.0, -2.0, -2.0, 0.0]
    provider = MatrixProvider(basis, params)
    ramped = schedule.cycle[1]
    dark = provider.absorption(ramped.with_amp(2, -2.0))
    assert dark.depletion[basis.id_of((0, 0, 0))] == 0.0
    src = np.repeat(np.arange(basis.size), np.diff(dark.chan_indptr))
    assert (dark.chan_to != src).any()  # shift channels
    zero = provider.absorption(ramped.with_amp(2, 0.0))
    assert zero.chan_to.size < dark.chan_to.size  # the z beam opens none
    rec = RecorderSpec(watched_ids=(0, 5), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    n_events = n_warn = 0
    for k in range(6):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_trajectory(basis, params, schedule, initial, None, (9, k), rec)
            want = reference_trajectory(basis, params, schedule, initial, (9, k),
                                        rec)
        assert_records_identical(got, want)
        n_events += got.events.shape[0]
        n_warn += got.n_warn_pulses
    assert n_events > 200 and n_warn > 0


def test_patched_draw_inputs_raise_at_the_reference_pulse(monkeypatch):
    # static pulses; the s=-1 pulse leaves level 0 dark but would excite
    # an atom in levels 1-3 with probability above one, so the first
    # event that lands an atom there must raise at that pulse's next turn,
    # although its kept inputs were computed before the event
    basis = enumerate_levels(1, 4)
    params = SimParams(eta=0.7, omega0_tau_abs=0.9)
    cycle = (PulseSpec(s=1, amps=(0.4,)), PulseSpec(s=-1, amps=(2.5,)))
    schedule = Schedule(cycle=cycle, total_cycles=200)
    pa = 2.0 * MatrixProvider(basis, params).absorption(cycle[1]).depletion
    assert pa[0] == 0.0 and (pa[1:4] > 1.0).all() and pa[4] < 1.0
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[0] = 3
    initial = Configuration(occ)
    rec = RecorderSpec(watched_ids=(0,), stride=0, record_events=True)
    step = dynamics._step
    done = []

    def counted_step(*args):
        out = step(*args)
        done.append(1)
        return out

    monkeypatch.setattr(dynamics, "_step", counted_step)
    steps = []
    for k in range(8):
        want = reference_trajectory(basis, params, schedule, initial, (5, k), rec)
        assert isinstance(want, int)
        done.clear()
        with pytest.raises(PhysicsValidityError, match="exceeds 1"):
            run_trajectory(basis, params, schedule, initial, None, (5, k), rec)
        assert len(done) == want
        steps.append(want)
    assert min(steps) > schedule.n_pulses and len(set(steps)) > 1


def test_ramp_through_all_zero_beams_raises_like_resolve_cycle():
    # the sampler reads ramp values without building pulses, yet stops
    # where resolve_cycle cannot build one
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.7, omega0_tau_abs=0.4)
    ramp = Ramp(0, "a_x", 1.0, -1.0, 0, 10)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=10,
                        ramps=(ramp,))
    with pytest.raises(ValueError, match="nonzero beam amplitude"):
        resolve_cycle(schedule, 5)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="nonzero beam amplitude"):
            run_trajectory(basis, params, schedule, Configuration(occ), None, 1,
                           RecorderSpec(watched_ids=(0,)))


def test_emission_matrix_is_column_major():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    provider = MatrixProvider(basis, params)
    sp = provider.spontaneous_dense()
    assert sp.flags.f_contiguous
    # the same values as a row-major scatter of the COO entries
    m = provider.spontaneous()
    row_major = np.zeros(m.shape)
    np.add.at(row_major, (m.to_ids.astype(np.int64), m.from_ids.astype(np.int64)),
              m.rates)
    assert sp.tobytes(order="C") == row_major.tobytes()
    assert m.to_dense().tobytes(order="C") == row_major.tobytes()

    # readers of the dense matrix see no difference against a row-major copy
    other = MatrixProvider(basis, params)
    other._sp_matrix = provider.spontaneous()
    other._sp_dense = row_major
    pulses = figure_schedule("fig1").cycle
    a = condensation_criterion(pulses, basis, params, (0, 0, 0), provider=provider)
    b = condensation_criterion(pulses, basis, params, (0, 0, 0), provider=other)
    assert a.tilde.tobytes() == b.tilde.tobytes()
    assert (a.verdict, a.min_tilde, a.cooling_time_cycles) == \
        (b.verdict, b.min_tilde, b.cooling_time_cycles)

    basis, params, schedule = make_1d_system(max_shell=3, pulses=(-1, -2), cycles=4)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 2
    provider = MatrixProvider(basis, params)
    provider.prepare(schedule)
    other = MatrixProvider(basis, params)
    other.prepare(schedule)
    other._sp_dense = np.ascontiguousarray(other.spontaneous().to_dense())
    a = exact_propagate(basis, params, schedule, Configuration(occ), provider)
    b = exact_propagate(basis, params, schedule, Configuration(occ), other)
    assert a.probs.tobytes() == b.probs.tobytes()
