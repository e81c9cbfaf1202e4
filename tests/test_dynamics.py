"""Stochastic pulse dynamics against analytic marginals and exact propagation.

The step law decomposes into three draws (how many atoms leave each level,
which intermediate level each one reaches, where each one lands), so each
stage is pinned separately with frequency tests before the joint law is
checked against the exact reference propagator.
"""
from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bosecool import (Configuration, MatrixProvider, PhysicsValidityError,
                      PulseSpec, Ramp, RecorderSpec, Schedule, SimParams,
                      TrajectoryRecord, calibrate_pulse_area,
                      condensation_criterion, depletion_profile, dynamics,
                      emission_counts, emission_quadrature,
                      enumerate_configurations, enumerate_levels,
                      exact_initial_state, exact_propagate, figure_schedule,
                      find_dark_states, franck_condon_1d, pulse_step,
                      resolve_cycle,
                      run_ensemble, run_trajectory)
from bosecool import basis as basis_module
from bosecool.dynamics import PulseRates, _step
from bosecool.rates import (REL_CUTOFF, EmissionMatrix, RateMatrix,
                            _kappa_table_cache)

import oracles
from oracles import multinomial_sigma, spontaneous_dense_3d_flat

PREF = math.pi / 8.0


def rate_matrix(size, entries):
    to = np.array([e[0] for e in entries], dtype=np.uint32)
    fr = np.array([e[1] for e in entries], dtype=np.uint32)
    ra = np.array([float(e[2]) for e in entries])
    return RateMatrix(shape=(size, size), to_ids=to, from_ids=fr, rates=ra,
                      fingerprint=f"test|{size}|{len(entries)}")


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
        events, _ = _step(occ, rates, sp, rng)
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
    # an integer seed is the one-element key
    assert_records_identical(rec7, run_trajectory(
        basis, params, schedule, Configuration(occ), None, (5,), rec))
    rec0 = run_trajectory(basis, params, schedule, Configuration(occ), None, 5,
                          RecorderSpec(watched_ids=(0,), stride=0))
    assert list(rec0.cycles) == [0, 20]
    with pytest.raises(ValueError):
        RecorderSpec(watched_ids=(0,), stride=-1)


def test_row_cycles_follow_the_recording_rule():
    # rows at 0, then at every d in 1..total with d == total or a stride
    # multiple; trajectory_bytes charges the same count, one row at a time
    basis, params, _ = make_1d_system()
    provider = MatrixProvider(basis, params)

    def bound(total, stride):
        return dynamics.trajectory_bytes(
            basis.size, Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),),
                                 total_cycles=total),
            RecorderSpec(watched_ids=(0,), stride=stride))

    per_row = bound(2, 1) - bound(1, 1)  # 3 rows against 2
    for total in range(1, 41):
        schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),),
                            total_cycles=total)
        for stride in range(total + 2):
            want = [0] + [d for d in range(1, total + 1)
                          if d == total or stride and d % stride == 0]
            assert dynamics._row_cycles(total, stride).tolist() == want
            run = dynamics._Run(basis, params, schedule,
                                Configuration([0, 0, 0, 1]), None,
                                RecorderSpec(watched_ids=(0,), stride=stride),
                                provider)
            assert run.cycles.tolist() == want
            assert bound(total, stride) == bound(1, 1) + (len(want) - 2) * per_row


def test_trajectory_memory_stays_below_its_bound():
    # stride 1 over 2,000 cycles, a ramp and 2 watched levels: the rows
    # dominate what each trajectory holds
    basis, params, _ = make_1d_system(max_shell=5, eta=0.7, area=0.4)
    schedule = Schedule(
        cycle=(PulseSpec(s=-1, amps=(1.0,)), PulseSpec(s=-2, amps=(1.0,))),
        total_cycles=2000, ramps=(Ramp(0, "a_x", 1.0, 0.5, 0, 2000),))
    rec = RecorderSpec(watched_ids=(0, 1), stride=1, record_events=False)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[5] = 2
    provider = MatrixProvider(basis, params)
    # one untraced trajectory first, so that one-time costs such as
    # numpy.random's lazy imports are not charged to the traced ones
    run_ensemble(basis, params, schedule, Configuration(occ), None, 1, 11, rec,
                 provider)
    n_traj = 20
    tracemalloc.start()
    try:
        run_ensemble(basis, params, schedule, Configuration(occ), None, n_traj,
                     11, rec, provider)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_traj < dynamics.trajectory_bytes(basis.size, schedule, rec)


def test_trajectory_bytes_counts_rows_without_building_them():
    # 10**8 rows would take 0.8 GB as an array of their cycles
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),),
                        total_cycles=10 ** 8)
    rec = RecorderSpec(watched_ids=(0,), stride=1)
    tracemalloc.start()
    try:
        need = dynamics.trajectory_bytes(6, schedule, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need == 3584 + 10 * 6 + (10 ** 8 + 1) * (24 + 32)
    assert peak < 10_000


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


def test_ensemble_refuses_fewer_than_one_thread():
    basis, params, schedule = make_1d_system(cycles=3)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 1
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_ensemble(basis, params, schedule, Configuration(occ), None, 2, 1,
                         RecorderSpec(watched_ids=(0,)), threads=threads)


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
    got = state.configs.T.astype(np.float64) @ state.probs
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


def ramp_2d_system():
    """A 2D interference pulse ramped through a_y = -a_x, where (0, 0) is
    exactly dark, after a cooling pulse; two atoms above the ground."""
    basis = enumerate_levels(2, 2)
    params = SimParams(eta=1.0, omega0_tau_abs=0.4, resonance_window=0)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0, 1.0)),
                               PulseSpec(s=0, amps=(1.0, 0.0))),
                        total_cycles=10,
                        ramps=(Ramp(1, "a_y", 0.0, -2.0, 0, 8),))
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of((1, 1))] = 1
    occ[basis.id_of((2, 0))] = 1
    return basis, params, schedule, Configuration(occ)


def test_exact_matches_monte_carlo_2d_ramp_through_dark():
    # the sampler's final configuration law must be the exact propagator's
    basis, params, schedule, init = ramp_2d_system()
    provider = MatrixProvider(basis, params)
    ground = basis.id_of((0, 0))
    dark = provider.absorption(resolve_cycle(schedule, 4)[1])
    assert dark.depletion[ground] == 0.0 < dark.depletion.max()

    state = exact_propagate(basis, params, schedule, init, provider=provider)
    n_traj = 8_000
    ens = run_ensemble(basis, params, schedule, init, None, n_traj, 2024,
                       RecorderSpec(watched_ids=(ground,), stride=0,
                                    record_events=False),
                       provider=provider)
    emp = np.zeros_like(state.probs)
    for row in ens.final_occ:
        emp[state.index[tuple(int(x) for x in row)]] += 1.0
    emp /= n_traj
    tv = 0.5 * float(np.abs(emp - state.probs).sum())
    # over K configurations E[TV] <= sqrt(K / N) / 2 (Cauchy-Schwarz), and
    # one trajectory moves TV by at most 1 / N, so by McDiarmid's inequality
    # TV passes the bound below with probability under 1e-3
    k = state.probs.size
    bound = 0.5 * math.sqrt(k / n_traj) + math.sqrt(math.log(1e3) / (2 * n_traj))
    assert tv < bound, (tv, bound)


def test_exact_matches_monte_carlo_3d_dark_cycle_and_cross_fade():
    # 3D, 10 levels, 2 atoms: a sideband cross-faded from the x beam to the
    # y beam, and an interference pulse whose a_z passes the exactly dark
    # -2 at cycle 2 only; the sampler's final configuration law must be the
    # exact propagator's
    basis = enumerate_levels(3, 2)
    params = SimParams(eta=1.0, omega0_tau_abs=0.4, resonance_window=0)
    ramps = (Ramp(0, "a_x", 1.0, 0.0, 0, 4), Ramp(0, "a_y", 0.0, 1.0, 0, 4),
             Ramp(1, "a_z", 0.0, -4.0, 0, 4))
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0, 0.0, 0.0)),
                               PulseSpec(s=0, amps=(1.0, 1.0, 0.0))),
                        total_cycles=6, ramps=ramps)
    assert [resolve_cycle(schedule, c)[1].amps[2] for c in (1, 2, 3)] == \
        [-1.0, -2.0, -3.0]
    assert [resolve_cycle(schedule, c)[0].amps for c in (0, 2, 4)] == \
        [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 1.0, 0.0)]
    provider = MatrixProvider(basis, params)
    ground = basis.id_of((0, 0, 0))
    dark = provider.absorption(resolve_cycle(schedule, 2)[1])
    assert dark.depletion[ground] == 0.0 < dark.depletion.max()
    assert provider.absorption(resolve_cycle(schedule, 1)[1]).depletion[ground] > 0
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of((1, 1, 0))] = 1
    occ[basis.id_of((0, 0, 2))] = 1
    init = Configuration(occ)

    state = exact_propagate(basis, params, schedule, init, provider=provider)
    assert state.probs.size == 55
    n_traj = 6_000
    ens = run_ensemble(basis, params, schedule, init, None, n_traj, 2025,
                       RecorderSpec(watched_ids=(ground,), stride=0,
                                    record_events=False),
                       provider=provider)
    emp = np.zeros_like(state.probs)
    for row in ens.final_occ:
        emp[state.index[tuple(int(x) for x in row)]] += 1.0
    emp /= n_traj
    tv = 0.5 * float(np.abs(emp - state.probs).sum())
    # the 2D check's bound: E[TV] <= sqrt(K / N) / 2, plus McDiarmid's term
    # for a failure probability under 1e-3
    k = state.probs.size
    bound = 0.5 * math.sqrt(k / n_traj) + math.sqrt(math.log(1e3) / (2 * n_traj))
    assert tv < bound, (tv, bound)


@pytest.mark.parametrize("dim, max_shell, eta, seed", [(1, 5, 0.7, 4401),
                                                       (2, 2, 0.9, 4402)])
def test_exact_matches_monte_carlo_at_four_atoms(dim, max_shell, eta, seed):
    # 4 atoms start in the top of 6 levels, so an emitter's three partners
    # can share its landing level and weight it by occ + 1 = 4, which the
    # 2-atom checks never reach; the sampler's final configuration law
    # must be the exact propagator's
    basis = enumerate_levels(dim, max_shell)
    params = SimParams(eta=eta, omega0_tau_abs=0.6)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,) * dim),
                               PulseSpec(s=-2, amps=(1.0,) * dim)),
                        total_cycles=8)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[-1] = 4
    init = Configuration(occ)
    provider = MatrixProvider(basis, params)

    state = exact_propagate(basis, params, schedule, init, provider=provider)
    assert state.probs.size == 126
    assert state.probs[state.configs.max(axis=1) >= 3].sum() > 0.5
    n_traj = 8_000
    ens = run_ensemble(basis, params, schedule, init, None, n_traj, seed,
                       RecorderSpec(watched_ids=(0,), stride=0,
                                    record_events=False),
                       provider=provider)
    emp = np.zeros_like(state.probs)
    for row in ens.final_occ:
        emp[state.index[tuple(row.tolist())]] += 1.0
    emp /= n_traj
    tv = 0.5 * float(np.abs(emp - state.probs).sum())
    # the 2D check's bound: E[TV] <= sqrt(K / N) / 2, plus McDiarmid's term
    # for a failure probability under 1e-3
    k = state.probs.size
    bound = 0.5 * math.sqrt(k / n_traj) + math.sqrt(math.log(1e3) / (2 * n_traj))
    assert tv < bound, (tv, bound)


def crossfade_3d_system():
    """The 3D check's system above: 10 levels, 2 atoms, a cross-faded
    sideband and an interference pulse ramped through a dark a_z."""
    basis = enumerate_levels(3, 2)
    params = SimParams(eta=1.0, omega0_tau_abs=0.4, resonance_window=0)
    ramps = (Ramp(0, "a_x", 1.0, 0.0, 0, 4), Ramp(0, "a_y", 0.0, 1.0, 0, 4),
             Ramp(1, "a_z", 0.0, -4.0, 0, 4))
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0, 0.0, 0.0)),
                               PulseSpec(s=0, amps=(1.0, 1.0, 0.0))),
                        total_cycles=6, ramps=ramps)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of((1, 1, 0))] = 1
    occ[basis.id_of((0, 0, 2))] = 1
    return basis, params, schedule, Configuration(occ)


def tier1_exact_systems():
    """(basis, params, schedule, initial) of every exact propagation the
    2-atom tests run: the checks above, the memory checks below and
    criterion 3, whose pulses are also the demo1d preset's."""
    def on(system, counts):
        basis, params, schedule = system
        occ = np.zeros(basis.size, dtype=np.int64)
        for level, n in counts.items():
            occ[level] = n
        return basis, params, schedule, Configuration(occ)

    criterion_3 = (enumerate_levels(1, 5),
                   SimParams(eta=0.7, omega0_tau_abs=0.4),
                   Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),
                                   PulseSpec(s=-2, amps=(1.0,))),
                            total_cycles=200))
    return [
        on(make_1d_system(max_shell=2, eta=0.9, area=0.4, pulses=(-1,),
                          cycles=1), {2: 1}),
        on(make_1d_system(max_shell=2, pulses=(-1, -2), cycles=7), {0: 2}),
        on(make_1d_system(max_shell=3, eta=0.8, area=0.45, pulses=(-1, -2),
                          cycles=12), {3: 1, 2: 1}),
        on(make_1d_system(max_shell=19, pulses=(-1,), cycles=1), {1: 1}),
        on(make_1d_system(max_shell=19, pulses=(-1, -2), cycles=1), {19: 2}),
        on(criterion_3, {5: 1, 3: 1}),
        ramp_2d_system(),
        crossfade_3d_system(),
    ]


def test_exact_pulse_matrices_match_the_enumeration(monkeypatch):
    # every pulse matrix the 2-atom exact checks build, ramped values
    # included, against the brute-force enumeration kept as the oracle
    build, built = dynamics._exact_pulse_matrix, []

    def compared(state, rates, sp_dense):
        matrix = build(state, rates, sp_dense)
        want = oracles.exact_pulse_matrix_reference(state, rates, sp_dense)
        assert np.abs(matrix - want).max() <= 1e-14
        built.append(matrix.shape[0])
        return matrix

    monkeypatch.setattr(dynamics, "_exact_pulse_matrix", compared)
    for basis, params, schedule, init in tier1_exact_systems():
        exact_propagate(basis, params, schedule, init)
    assert built == [3, 6, 6, 10, 10, 20, 210, 210, 21, 21] + [21] * 10 \
        + [55] * 10


_EXACT_AMPS = {1: ((1.0,), (-0.5,)),
               2: ((1.0, 0.0), (1.0, 1.0), (1.0, -1.0), (0.5, 1.0))}


@st.composite
def small_exact_systems(draw):
    dim = draw(st.sampled_from((1, 2)))
    basis = enumerate_levels(dim, draw(st.integers(0, 5 if dim == 1 else 2)))
    params = SimParams(eta=draw(st.sampled_from((0.7, 1.0))),
                       resonance_window=draw(st.integers(0, 1)))
    pulses = [PulseSpec(s=draw(st.integers(-3, 1)),
                        amps=draw(st.sampled_from(_EXACT_AMPS[dim])),
                        omega0_tau_abs=draw(st.sampled_from((0.3, 0.6, 0.9))))
              for _ in range(draw(st.integers(1, 2)))]
    return basis, params, pulses, draw(st.integers(1, 3))


@settings(max_examples=100)
@given(small_exact_systems())
@example((enumerate_levels(2, 2), SimParams(eta=0.7),
          [PulseSpec(s=0, amps=(1.0, 1.0), omega0_tau_abs=0.9)], 2))
def test_exact_pulse_matrix_matches_the_enumeration_on_drawn_systems(case):
    # where a pulse drives p > 1 (as the example's does, p = 1.56 at the
    # ground) both refuse it, at the same configuration
    basis, params, pulses, n_atoms = case
    provider = MatrixProvider(basis, params)
    with warnings.catch_warnings():  # small bands truncate by design
        warnings.simplefilter("ignore")
        sp = provider.spontaneous_dense()
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[0] = n_atoms
    state = exact_initial_state(basis, Configuration(occ))
    for pulse in pulses:
        rates = provider.absorption(pulse)
        try:
            want = oracles.exact_pulse_matrix_reference(state, rates, sp)
        except PhysicsValidityError as err:
            with pytest.raises(PhysicsValidityError,
                               match=re.escape(str(err))):
                dynamics._exact_pulse_matrix(state, rates, sp)
            continue
        got = dynamics._exact_pulse_matrix(state, rates, sp)
        assert np.abs(got - want).max() <= 1e-14


def test_enumerate_configurations_layout():
    confs = enumerate_configurations(2, 3)
    assert confs.shape == (6, 3)
    assert (confs.sum(axis=1) == 2).all()
    assert len({tuple(r) for r in confs}) == 6
    assert enumerate_configurations(3, 1).tolist() == [[3]]
    with pytest.raises(ValueError):
        enumerate_configurations(30, 30)
    # rows run in descending lexicographic order of the occupations, the
    # order ExactState.index and the exact propagator's matrices follow
    assert confs.tolist() == [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                              [0, 2, 0], [0, 1, 1], [0, 0, 2]]
    for n_atoms, n_levels in ((1, 1), (0, 4), (1, 5), (4, 3), (3, 6), (6, 4)):
        want = sorted((c for c in itertools.product(range(n_atoms + 1),
                                                     repeat=n_levels)
                       if sum(c) == n_atoms), reverse=True)
        got = enumerate_configurations(n_atoms, n_levels)
        assert got.dtype == np.int64
        assert got.tolist() == [list(c) for c in want], (n_atoms, n_levels)


def test_exact_propagation_refuses_what_memory_cannot_hold(monkeypatch):
    # 5 atoms on 20 levels: 42,504 configurations, so each dense pulse
    # matrix would take 8 * 42,504**2 bytes, beside 8 (2 * 20 + 20) + 16
    # bytes a configuration for configs, index and probabilities; nothing
    # is enumerated
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    monkeypatch.setattr(basis_module, "_physical_memory", lambda: 8 << 30)
    monkeypatch.setattr(dynamics, "enumerate_configurations", unreachable)
    basis, params, schedule = make_1d_system(max_shell=19, pulses=(-1,),
                                             cycles=1)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[19] = 5
    need = 8 * 42_504 ** 2 + 42_504 * (8 * (2 * 20 + 20) + 16)
    with pytest.raises(ValueError, match=re.escape(
            f"exact propagation over 42,504 configurations needs about "
            f"{need:,} bytes (13.5 GiB), more than the {8 << 30:,} bytes "
            "(8.0 GiB) of physical memory")):
        exact_propagate(basis, params, schedule, Configuration(occ))
    # a small system goes ahead, and so does any platform that cannot say
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[1] = 1
    monkeypatch.setattr(dynamics, "enumerate_configurations",
                        enumerate_configurations)
    # (one atom: 20 configurations, each a matrix row of 20 float64 beside
    # what the enumeration and the index hold)
    for probe in (lambda: 20 * (8 * 20 + 8 * (2 * 20 + 20) + 16),
                  lambda: None):
        monkeypatch.setattr(basis_module, "_physical_memory", probe)
        state = exact_propagate(basis, params, schedule, Configuration(occ))
        assert_allclose(state.probs.sum(), 1.0, atol=1e-12)


def test_exact_propagation_bounds_a_matrix_per_pulse(monkeypatch):
    # 2 atoms on 20 levels: 210 configurations, so each pulse's dense
    # matrix takes 8 * 210**2 bytes, beside what the rest holds; room for
    # one refuses two pulses
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    basis, params, schedule = make_1d_system(max_shell=19, pulses=(-1, -2),
                                             cycles=1)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[19] = 2
    one = 8 * 210 ** 2
    need = 2 * one + 210 * (8 * (2 * 20 + 20) + 16)
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(dynamics, "enumerate_configurations", unreachable)
    with pytest.raises(ValueError, match=re.escape(
            f"exact propagation over 210 configurations needs about "
            f"{need:,} bytes")):
        exact_propagate(basis, params, schedule, Configuration(occ))
    monkeypatch.setattr(dynamics, "enumerate_configurations",
                        enumerate_configurations)
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: need)
    state = exact_propagate(basis, params, schedule, Configuration(occ))
    assert_allclose(state.probs.sum(), 1.0, atol=1e-12)


def test_exact_propagation_bounds_what_it_holds_beside_the_matrices(
        monkeypatch):
    # room for the two pulse matrices of 210 configurations is not room
    # for them and the configurations, their index and the probabilities
    # (8 (2 L + 20) + 16 bytes a configuration on L levels)
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    basis, params, schedule = make_1d_system(max_shell=19, pulses=(-1, -2),
                                             cycles=1)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[19] = 2
    matrices = 2 * 8 * 210 ** 2
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: matrices)
    monkeypatch.setattr(dynamics, "enumerate_configurations", unreachable)
    with pytest.raises(ValueError, match=re.escape(
            f"needs about {matrices + 210 * (8 * (2 * 20 + 20) + 16):,} "
            "bytes")):
        exact_propagate(basis, params, schedule, Configuration(occ))


def test_exact_state_index_keys_are_plain_ints():
    # a key of numpy scalars takes 32 bytes a level more than the bound
    # counts; the plain ints look the same configurations up
    basis = enumerate_levels(1, 3)
    state = exact_initial_state(basis, Configuration([1, 0, 1, 0]))
    assert all(type(x) is int for key in state.index for x in key)
    assert state.index[(1, 0, 1, 0)] == state.index[
        tuple(np.array([1, 0, 1, 0]))]


def test_exact_propagation_refuses_a_configuration_off_the_basis(
        monkeypatch):
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    monkeypatch.setattr(dynamics, "enumerate_configurations", unreachable)
    basis, params, schedule = make_1d_system(max_shell=3, cycles=1)
    for occ in ([1, 0, 0], [1, 0, 0, 0, 0]):
        with pytest.raises(ValueError,
                           match="initial configuration does not match "
                                 "the basis"):
            exact_propagate(basis, params, schedule, Configuration(occ))


def test_exact_propagation_holds_one_matrix_per_pulse(monkeypatch):
    # the ramped pulse takes 9 values: each replaces its predecessor, so
    # no build finds more than the other pulse's matrix alive
    basis, params, schedule, init = ramp_2d_system()
    build, built, most = dynamics._exact_pulse_matrix, [], 0

    def tracked(*args):
        nonlocal most
        alive = sum(ref() is not None for ref in built)
        most = max(most, alive + 1)  # with the one about to be built
        matrix = build(*args)
        built.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(dynamics, "_exact_pulse_matrix", tracked)
    state = exact_propagate(basis, params, schedule, init)
    assert len(built) == 10
    assert most == schedule.n_pulses
    assert_allclose(state.probs.sum(), 1.0, atol=1e-12)


def test_enumeration_refuses_what_memory_cannot_hold(monkeypatch):
    # the bound is the bytes of the arrays, checked before any is made:
    # per row, the level and cell indices (n_atoms int64 each) and the
    # occupations (n_levels int64)
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    monkeypatch.setattr(dynamics, "combinations_with_replacement", unreachable)
    with pytest.raises(ValueError, match="physical memory"):
        enumerate_configurations(30, 30)
    need = 8 * 6 * (2 * 2 + 3)  # 2 atoms on 3 levels: 6 rows
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=re.escape(
            f"6 configurations of 2 atoms on 3 levels needs about {need:,} "
            "bytes")):
        enumerate_configurations(2, 3)
    monkeypatch.setattr(dynamics, "combinations_with_replacement",
                        itertools.combinations_with_replacement)
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: need)
    assert enumerate_configurations(2, 3).shape == (6, 3)


def test_exact_entry_points_refuse_a_configuration_of_another_basis(
        monkeypatch):
    # 3 occupations on a 4-level basis: both entry points refuse them
    # before they enumerate a configuration
    def unreachable(*args):
        raise AssertionError("the configurations were enumerated")

    monkeypatch.setattr(dynamics, "enumerate_configurations", unreachable)
    basis, params, schedule = make_1d_system(max_shell=3)
    for run in (lambda c: exact_initial_state(basis, c),
                lambda c: exact_propagate(basis, params, schedule, c)):
        with pytest.raises(ValueError, match="initial configuration does "
                                             "not match the basis"):
            run(Configuration([1, 0, 0]))


def test_exact_initial_state_is_point_mass():
    basis = enumerate_levels(1, 2)
    occ = np.array([1, 0, 1], dtype=np.int64)
    state = exact_initial_state(basis, Configuration(occ))
    assert_allclose(state.probs.sum(), 1.0)
    assert state.probs[state.index[(1, 0, 1)]] == 1.0
    assert_allclose(state.configs.T.astype(np.float64) @ state.probs,
                    occ.astype(float))


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
        calibrate_pulse_area(basis, params, schedule, np.zeros(3))
    dark = np.zeros(3)
    dark[0] = 10.0  # nothing below the ground level on a lowering pulse
    with pytest.raises(PhysicsValidityError, match="drives no excitation"):
        calibrate_pulse_area(basis, params, schedule, dark)
    own = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,), omega0_tau_abs=0.5),),
                   total_cycles=5)  # no pulse takes the calibrated area
    with pytest.raises(PhysicsValidityError, match="drives no excitation"):
        calibrate_pulse_area(basis, params, own, occ)


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


def test_run_ensemble_keeps_a_prepared_provider():
    # the command line prepares before it times run_ensemble, which must
    # not resolve and look up every pulse again
    basis, params, schedule = make_1d_system(cycles=5)
    provider = MatrixProvider(basis, params)
    provider.prepare(schedule)
    kept = provider._structures  # each prepare that does its work replaces it
    counters = dict(provider.counters)
    recorder = RecorderSpec(watched_ids=(0,))
    run_ensemble(basis, params, schedule, np.full(basis.size, 0.25), 3, 2,
                 5, recorder, provider=provider)
    assert provider._structures is kept
    assert provider.counters == counters
    provider.prepare(Schedule(cycle=schedule.cycle, total_cycles=4))
    assert provider._structures is not kept  # another schedule is prepared anew


@pytest.mark.parametrize("other", ["params", "basis"])
def test_provider_for_other_physics_is_refused(other):
    basis, params, schedule = make_1d_system(max_shell=5, eta=0.7, area=0.4)
    provider = MatrixProvider(basis, params)
    if other == "params":
        params = SimParams(eta=0.9, omega_tau_abs=6.0, omega0_tau_abs=0.2)
    else:
        basis = enumerate_levels(1, 4)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[-1] = 2
    initial, rec = Configuration(occ), RecorderSpec(watched_ids=(0,))
    with pytest.raises(ValueError, match="the provider serves"):
        run_ensemble(basis, params, schedule, initial, None, 2, 1, rec,
                     provider=provider)
    with pytest.raises(ValueError, match="the provider serves"):
        run_trajectory(basis, params, schedule, initial, None, 1, rec,
                       provider=provider)
    with pytest.raises(ValueError, match="the provider serves"):
        exact_propagate(basis, params, schedule, initial, provider=provider)
    # the analysis functions take the same check: a provider for other
    # params would report that physics, one for another basis fail later
    pulses = resolve_cycle(schedule, 0)
    for analyse in (depletion_profile, find_dark_states):
        with pytest.raises(ValueError, match="the provider serves"):
            analyse(pulses, basis, params, provider=provider)
    with pytest.raises(ValueError, match="the provider serves"):
        condensation_criterion(pulses, basis, params, 0, provider=provider)
    assert not any(provider.counters.values())  # refused before any build


def test_provider_ramp_evaluations_share_structure():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    base = PulseSpec(s=-1, amps=(1.0,))
    provider = MatrixProvider(basis, params)
    for amp in (1.0, 0.9, 0.8, 0.7):
        provider.absorption(dataclasses.replace(base, amps=(amp,)))
    assert provider.counters["structure_builds"] == 1
    assert provider.counters["abs_builds"] == 0  # evaluations are not builds
    # rates scale with the squared amplitude on a single-beam pulse
    full = provider.absorption(base)
    half = provider.absorption(dataclasses.replace(base, amps=(0.5,)))
    assert_array_equal(half.chan_to, full.chan_to)
    assert_array_equal(half.chan_indptr, full.chan_indptr)
    assert_allclose(half.chan_rate, 0.25 * full.chan_rate, rtol=1e-13)


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


def test_provider_keeps_only_ramped_structures_after_prepare():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),
                               PulseSpec(s=0, amps=(1.0,))), total_cycles=4,
                        ramps=(Ramp(1, "a_x", 1.0, 0.5, 0, 4),))
    provider = MatrixProvider(basis, params)
    provider.prepare(schedule)
    assert provider.counters["structure_builds"] == 2
    static, ramped = (p.resolved(params) for p in schedule.cycle)
    provider.structure(ramped)
    assert provider.counters["structure_builds"] == 2
    provider.structure(static)
    assert provider.counters["structure_builds"] == 3


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
    provider = MatrixProvider(basis, params)
    rec = run_trajectory(basis, params, schedule, Configuration(occ), None, 3,
                         RecorderSpec(watched_ids=(0,), stride=1), provider)
    values = rec.ramp_values[:, 0]  # row k holds cycle max(0, k - 1)
    assert_array_equal(values[:6], 0.4)
    assert values[6] == 0.2
    assert_allclose(values[7], 0.22, rtol=1e-14)
    assert values[-1] == 0.4
    # evaluated at cycle 0, then at each of the ten changing cycles 5..15
    assert provider.counters["ramp_evals"] == 12
    assert reference_ramp_evals(params, schedule) == 12


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
    shells = basis.shells.astype(np.float64)
    n_total = float(occ.sum())
    watched = np.asarray(recorder.watched_ids, dtype=np.int64)
    fields = list(dict.fromkeys((r.pulse_index, r.field) for r in schedule.ramps))
    schedule = schedule.resolved(params)
    ramped = [i for i in range(schedule.n_pulses) if schedule.is_ramped(i)]
    rows, events = [], []
    p_max, n_warn, steps = 0.0, 0, 0

    def row(done, pulses):
        rows.append((done, occ[watched].copy(), float(shells @ occ / n_total),
                     [pulses[i].field_value(f) for i, f in fields]))

    for c in range(schedule.total_cycles):
        pulses = resolve_cycle(schedule, c)
        if c == 0:
            row(0, pulses)
        for i, pulse in enumerate(pulses):
            rates = provider.absorption(pulse, persist=i not in ramped)
            try:
                pulse_events, p = _step(occ, rates, sp, rng)
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
    return TrajectoryRecord(
        cycles=np.array([r[0] for r in rows], dtype=np.int64),
        watched_occ=np.array([r[1] for r in rows], dtype=np.int64),
        mean_shell=np.array([r[2] for r in rows]),
        ramp_values=np.array([r[3] for r in rows],
                             dtype=np.float64).reshape(len(rows), len(fields)),
        events=np.array(events, dtype=np.int64).reshape(len(events), 5),
        final_occ=occ.copy(), p_max=p_max, n_warn_pulses=n_warn)


def reference_ramp_evals(params, schedule):
    """Evaluations of ramped pulses that one worker makes: one per ramped
    pulse at cycle 0, then one per change of its resolved form."""
    schedule = schedule.resolved(params)
    ramped = [i for i in range(schedule.n_pulses) if schedule.is_ramped(i)]
    previous, evals = None, 0
    for c in range(schedule.total_cycles):
        pulses = resolve_cycle(schedule, c)
        evals += sum(previous is None or pulses[i] != previous[i]
                     for i in ramped)
        previous = pulses
    return evals


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


def ramped_2d_system(ramps, total_cycles, amps=(1.0, -1.0)):
    """2D basis, a cooling sideband and an interference pulse at ``amps``;
    (a_x, a_y) = (1, -1) leaves (0,0) and (1,1) exactly dark."""
    basis = enumerate_levels(2, 3)
    params = SimParams(eta=1.0, omega0_tau_abs=0.85)
    cycle = (PulseSpec(s=-1, amps=(1.0, 1.0)), PulseSpec(s=0, amps=amps))
    schedule = Schedule(cycle=cycle, total_cycles=total_cycles, ramps=ramps)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[basis.id_of((0, 3))] = 3
    occ[basis.id_of((2, 1))] = 1
    return basis, params, schedule, Configuration(occ)


# ramped_2d_system's arguments: a_y leaves the dark point, returns to it and
# holds there; the interference pulse fades from (1, 0) to (0, 1), so one
# beam is off at each end and some beam is on at every cycle
RAMPED_2D = {
    "ramp": ((Ramp(1, "a_y", -1.0, -0.4, 20, 60),
              Ramp(1, "a_y", -0.4, -1.0, 60, 100)), 120),
    "cross_fade": ((Ramp(1, "a_x", 1.0, 0.0, 20, 60),
                    Ramp(1, "a_y", 0.0, 1.0, 20, 60)), 100, (1.0, 0.0)),
}


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
def test_kept_draw_inputs_leave_the_stream_unchanged_2d_ramp(monkeypatch,
                                                              scalar_draws):
    basis, params, schedule, initial = ramped_2d_system(*RAMPED_2D["ramp"])
    dep = MatrixProvider(basis, params).absorption(schedule.cycle[1]).depletion
    assert dep[basis.id_of((0, 0))] == 0.0
    rec = RecorderSpec(watched_ids=(0, 4), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    n_warn = 0
    for k in range(6):
        provider = MatrixProvider(basis, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_trajectory(basis, params, schedule, initial, None, (3, k),
                                 rec, provider)
        want = reference_trajectory(basis, params, schedule, initial, (3, k), rec)
        assert_records_identical(got, want)
        assert (provider.counters["ramp_evals"]
                == reference_ramp_evals(params, schedule))
        assert got.events.shape[0] > 0
        n_warn += got.n_warn_pulses
    assert n_warn > 0


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
def test_kept_draw_inputs_leave_the_stream_unchanged_2d_cross_fade(monkeypatch,
                                                                    scalar_draws):
    basis, params, schedule, initial = ramped_2d_system(*RAMPED_2D["cross_fade"])
    ends = [resolve_cycle(schedule, c)[1].amps for c in (0, 40, 99)]
    assert ends == [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
    rec = RecorderSpec(watched_ids=(0, 4), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    assert reference_ramp_evals(params, schedule) == 1 + 40
    for k in range(6):
        provider = MatrixProvider(basis, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_trajectory(basis, params, schedule, initial, None, (4, k),
                                 rec, provider)
        want = reference_trajectory(basis, params, schedule, initial, (4, k), rec)
        assert_records_identical(got, want)
        assert got.events.shape[0] > 0
        assert provider.counters["ramp_evals"] == 1 + 40


def count_pulses(monkeypatch, n_pulses):
    """A list that gains one entry per pulse a trajectory completes: one per
    ``_step`` call and ``n_pulses`` per cycle that runs in a quiet block."""
    step, quiet = dynamics._step, dynamics._Trajectory._quiet
    done = []

    def counted_step(*args):
        out = step(*args)
        done.append(1)
        return out

    def counted_quiet(self, *args):
        cycles = quiet(self, *args)
        done.extend([1] * cycles * n_pulses)
        return cycles

    monkeypatch.setattr(dynamics, "_step", counted_step)
    monkeypatch.setattr(dynamics._Trajectory, "_quiet", counted_quiet)
    return done


def test_kept_draw_inputs_raise_at_the_reference_pulse(monkeypatch):
    # a_y = -5 drives the occupied (0,0) past one excitation per atom
    ramps = (Ramp(1, "a_y", -1.0, -5.0, 20, 80),)
    basis, params, schedule, initial = ramped_2d_system(ramps, 100)
    rec = RecorderSpec(watched_ids=(0,), stride=0, record_events=True)
    done = count_pulses(monkeypatch, schedule.n_pulses)
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
    dark = provider.absorption(dataclasses.replace(ramped, amps=(1.0, 1.0, -2.0)))
    assert dark.depletion[basis.id_of((0, 0, 0))] == 0.0
    src = np.repeat(np.arange(basis.size), np.diff(dark.chan_indptr))
    assert (dark.chan_to != src).any()  # shift channels
    zero = provider.absorption(dataclasses.replace(ramped, amps=(1.0, 1.0, 0.0)))
    assert zero.chan_to.size < dark.chan_to.size  # the z beam opens none
    rec = RecorderSpec(watched_ids=(0, 5), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    n_events = n_warn = 0
    for k in range(6):
        provider = MatrixProvider(basis, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = run_trajectory(basis, params, schedule, initial, None, (9, k),
                                 rec, provider)
            want = reference_trajectory(basis, params, schedule, initial, (9, k),
                                        rec)
        assert_records_identical(got, want)
        assert (provider.counters["ramp_evals"]
                == reference_ramp_evals(params, schedule))
        n_events += got.events.shape[0]
        n_warn += got.n_warn_pulses
    assert n_events > 200 and n_warn > 0


def blocked_1d_system(case):
    """A 1D system whose quiet cycles run as blocks, built so that its
    trajectories reach the edge ``case`` names:

    - ``dark_mid_window``: the demo1d preset; two atoms walk down to level
      0, dark for both sidebands, at some cycle inside a window, and the
      rest of the run draws nothing;
    - ``leaves_inversion``: 70 atoms in level 0 under a weak heating pulse
      run in blocks until cycle 30, where that pulse's area steps up so
      that n p > 30 (numpy's BTPE draws level 0) and heated atoms meet a
      cooling pulse with p > 0.5;
    - ``window_edge``: two atoms in level 0 under weak heating, quiet for
      about 100 cycles at a time, so quiet stretches cross window edges.
      The cooling pulse comes first in the cycle, so an atom the heating
      lifts meets it in the next cycle, often in a block that lasts to
      the end; that block's p is then the trajectory's p_max.
    """
    if case == "dark_mid_window":
        basis, params = enumerate_levels(1, 5), SimParams(eta=0.7, omega0_tau_abs=0.4)
        cycle, ramps, total, start = ((PulseSpec(s=-1, amps=(1.0,)),
                                       PulseSpec(s=-2, amps=(1.0,))), (), 200, (5, 2))
    elif case == "leaves_inversion":
        basis, params = enumerate_levels(1, 4), SimParams(eta=0.7, omega0_tau_abs=0.9)
        cycle = (PulseSpec(s=1, amps=(0.05,)), PulseSpec(s=-1, amps=(1.8,)))
        ramps, total, start = (Ramp(0, "a_x", 0.05, 1.55, 29, 30),), 40, (0, 70)
    else:
        basis, params = enumerate_levels(1, 4), SimParams(eta=0.7, omega0_tau_abs=0.4)
        cycle, ramps, total, start = ((PulseSpec(s=-1, amps=(0.5,)),
                                       PulseSpec(s=1, amps=(0.4,))), (), 150, (0, 2))
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[start[0]] = start[1]
    return (basis, params, Schedule(cycle=cycle, total_cycles=total, ramps=ramps),
            Configuration(occ))


BLOCKED_1D = ("dark_mid_window", "leaves_inversion", "window_edge")


@pytest.mark.parametrize("scalar_draws", [0, dynamics._SCALAR_DRAWS])
@pytest.mark.parametrize("case", list(RAMPED_2D) + list(BLOCKED_1D))
def test_ensemble_trajectories_match_the_reference_2d(monkeypatch, case,
                                                      scalar_draws):
    # workers share each window's ramped rates across their block, and a
    # trajectory runs quiet cycles as blocks of uniforms; every trajectory
    # must still be the oracle's at its own (seed, index), in 2D and 1D
    basis, params, schedule, initial = (
        ramped_2d_system(*RAMPED_2D[case]) if case in RAMPED_2D
        else blocked_1d_system(case))
    rec = RecorderSpec(watched_ids=(0, 4), stride=7, record_events=True)
    monkeypatch.setattr(dynamics, "_SCALAR_DRAWS", scalar_draws)
    wants = [reference_trajectory(basis, params, schedule, initial, (3, k), rec)
             for k in range(6)]
    for threads in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ens = run_ensemble(basis, params, schedule, initial, None, 6, 3, rec,
                               threads=threads)
        for k, want in enumerate(wants):
            for got, exp in ((ens.final_occ[k], want.final_occ),
                             (ens.events[k], want.events)):
                assert (got.dtype, got.shape) == (exp.dtype, exp.shape)
                assert got.tobytes() == exp.tobytes()
        assert sum(ev.shape[0] for ev in ens.events) > 0
        assert ens.ramp_evals == threads * reference_ramp_evals(params, schedule)


@pytest.mark.parametrize("case", BLOCKED_1D)
def test_blocks_reach_their_edge_for_any_window(monkeypatch, case):
    basis, params, schedule, initial = blocked_1d_system(case)
    rec = RecorderSpec(watched_ids=(0, 1), stride=7, record_events=True)
    quiet, threshold = dynamics._Trajectory._quiet, dynamics._threshold
    blocks, regime = [], []  # (cycle, cycles left, quiet cycles, dark)

    def logged_quiet(self, c, cycles):
        n = quiet(self, c, cycles)
        blocks.append((c, cycles, n, self.plan[0] is None))
        return n

    def logged_threshold(n, p):
        qn = threshold(n, p)
        regime.append(qn is not None)
        return qn

    monkeypatch.setattr(dynamics._Trajectory, "_quiet", logged_quiet)
    monkeypatch.setattr(dynamics, "_threshold", logged_threshold)
    n_events = 0
    for k in range(6):
        want = reference_trajectory(basis, params, schedule, initial, (6, k), rec)
        for window in (1, schedule.total_cycles, 64):
            monkeypatch.setattr(dynamics, "_WINDOW", window)
            blocks.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = run_trajectory(basis, params, schedule, initial, None,
                                     (6, k), rec)
            assert_records_identical(got, want)
            assert window > 1 or not blocks
        n_events += got.events.shape[0]
        if case == "dark_mid_window":  # a dark jump from inside a window
            assert any(dark and c % 64 for c, _, _, dark in blocks)
        elif case == "window_edge":  # quiet up to an edge, on from it
            assert any(c + n == q + c == 64 and not dark
                       for c, n, q, dark in blocks)
            assert any(c == 64 and not dark for c, _, _, dark in blocks)
        else:  # blocks up to the ramp, none after it
            assert any(c + n == q + c == 30 for c, n, q, _ in blocks)
            assert all(c < 30 for c, _, _, _ in blocks)
    assert n_events > 0
    if case == "leaves_inversion":
        assert not all(regime) and any(regime)


def stream_position(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


# (n, p) where n p is exactly 30, the last product numpy draws by inversion
_INVERSION_EDGES = ((60, 0.5), (64, 0.46875), (80, 0.375))


@st.composite
def quiet_cycle_cases(draw):
    """A Philox seed, one cycle's levels (count n, probability p) in
    numpy's inversion regime and a number of cycles. Some levels' p is
    moved so that qn lies within a few ULP of the uniform the level's draw
    would read were every level before it quiet."""
    seed = draw(st.integers(0, 2**32 - 1))
    levels = draw(st.lists(st.one_of(
        st.tuples(st.integers(1, 59), st.one_of(
            st.floats(1e-9, 0.02), st.floats(0.0, 0.5, exclude_min=True),
            st.just(0.5))),
        st.sampled_from(_INVERSION_EDGES)), min_size=1, max_size=12))
    u = np.random.Generator(np.random.Philox(seed)).random(len(levels))
    for j, (n, p) in enumerate(levels):
        ulps = draw(st.one_of(st.none(), st.integers(-3, 3)))
        if ulps is None or u[j] < 0.5 ** n:
            continue
        target = float(u[j]) + ulps * math.ulp(float(u[j]))
        p = -math.expm1(math.log(target) / n)
        for _ in range(64):  # qn falls as p grows
            qn = math.exp(n * math.log1p(-p))
            if qn == target:
                break
            p = math.nextafter(p, 1.0 if qn > target else 0.0)
        if 0.0 < p <= 0.5 and p * n <= 30.0:
            levels[j] = (n, p)
    return seed, levels, draw(st.integers(1, 40))


@settings(max_examples=400)
@given(quiet_cycle_cases())
def test_quiet_blocks_follow_numpy_inversion_binomial(case):
    # numpy's binomial draws a level in its inversion regime from one
    # uniform U and returns 0 exactly when U <= qn; a block rests on that
    seed, levels, cycles = case
    n = np.array([k for k, _ in levels], dtype=np.int64)
    p = np.array([q for _, q in levels])
    qn = [dynamics._threshold(k, q) for k, q in levels]
    assert None not in qn

    def stream():
        return np.random.Generator(np.random.Philox(seed))

    quiet = bool((stream().random(len(levels)) <= qn).all())
    scalar = stream()
    assert quiet == (not any([scalar.binomial(k, q) for k, q in levels]))
    assert quiet == (not stream().binomial(n, p).any())

    block, ref = stream(), stream()
    got = dynamics._quiet_cycles(block, np.array(qn), cycles)
    want = 0
    while want < cycles:
        before = ref.bit_generator.state
        if any([ref.binomial(k, q) for k, q in levels]):
            ref.bit_generator.state = before
            break
        want += 1
    assert got == want and (got > 0) == quiet
    assert stream_position(block) == stream_position(ref)
    assert block.random() == ref.random()


def test_thresholds_refuse_levels_outside_inversion():
    for n, p in _INVERSION_EDGES:
        assert dynamics._threshold(n, p) is not None
        assert dynamics._threshold(n + 1, p) is None
    assert dynamics._threshold(1, 0.5) == 0.5
    assert dynamics._threshold(1, math.nextafter(0.5, 1.0)) is None
    assert dynamics._threshold(1, 1.0) is None


def test_ensemble_is_the_same_for_any_window(monkeypatch):
    basis, params, schedule, initial = ramped_3d_system()
    rec = RecorderSpec(watched_ids=(0, 5), stride=7, record_events=True)
    results = []
    for window in (1, 13, schedule.total_cycles):
        monkeypatch.setattr(dynamics, "_WINDOW", window)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results.append(run_ensemble(basis, params, schedule, initial, None,
                                        4, 9, rec))
    assert sum(ev.shape[0] for ev in results[0].events) > 0
    for other in results[1:]:
        for f in dataclasses.fields(other):
            x, y = getattr(results[0], f.name), getattr(other, f.name)
            if isinstance(x, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == \
                    (y.dtype, y.shape, y.tobytes()), f.name
            elif f.name in ("events", "final_occ"):
                assert [e.tobytes() for e in x] == [e.tobytes() for e in y]
            else:
                assert x == y, f.name


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
    done = count_pulses(monkeypatch, schedule.n_pulses)
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


def test_events_drop_only_the_inputs_that_couple_a_moved_level():
    # pulse 0 moves atoms between levels 0 and 1 only; pulse 1 couples only
    # level 3, so its kept inputs must outlive pulse 0's events untouched
    basis, params, schedule = make_1d_system(max_shell=5, pulses=(-1, -2),
                                             cycles=50)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[[0, 1, 3]] = (2, 1, 1)
    run = dynamics._Run(basis, params, schedule, Configuration(occ), None,
                        RecorderSpec(watched_ids=(0,)), None)
    sp = np.zeros((basis.size, basis.size), order="F")
    sp[:2, :2] = 1.0
    sp[3, 3] = 1.0
    run.sp_dense = sp
    rates = [pulse_rates(basis.size, [(0, 0, 0.2), (1, 1, 0.2)]),
             pulse_rates(basis.size, [(3, 3, 1e-9)])]
    t = dynamics._Trajectory(run, (11,))
    t.rates = rates
    for c in range(schedule.total_cycles):
        before = [t._inputs(i) if kept is None else kept
                  for i, kept in enumerate(t.inputs)]
        t._cycle(c, rates)
        if t.events:
            break
    assert {ev[2] for ev in t.events} | {ev[4] for ev in t.events} <= {0, 1}
    assert t.inputs[1] is before[1]
    assert t.inputs[0] is None  # dropped at its own turn, refilled by the plan
    t._plan()
    assert t.inputs[0] == dynamics._draw_inputs(t.occ, np.flatnonzero(t.occ),
                                                rates[0].depletion)

    # now every emission swaps levels 0 and 1: a pulse that excites both
    # atoms of (1, 1) moves two atoms and no count, and keeps every kept
    # input, the plan and the occupied list; one that moves a count drops
    # pulse 0's inputs and the plan, but never pulse 1's
    occ[[0, 1, 3]] = (1, 1, 1)
    run = dynamics._Run(basis, params, schedule, Configuration(occ), None,
                        RecorderSpec(watched_ids=(0,)), None)
    sp = np.zeros((basis.size, basis.size), order="F")
    sp[1, 0] = sp[0, 1] = sp[3, 3] = 1.0
    run.sp_dense = sp
    t = dynamics._Trajectory(run, (12,))
    t.rates = rates
    kept, moved = 0, 0
    for c in range(schedule.total_cycles):
        before = [t._inputs(i) if k is None else k for i, k in enumerate(t.inputs)]
        t.plan = plan = t._plan()
        occupied, counts, done = t.occupied, t.occ.copy(), len(t.events)
        t._cycle(c, rates)
        if len(t.events) == done:
            continue
        assert t.inputs[1] is before[1]
        if (t.occ == counts).all():
            kept += 1
            assert all(a is b for a, b in zip(t.inputs, before))
            assert t.plan is plan and t.occupied is occupied
        else:
            moved += 1
            assert t.inputs[0] is None and t.plan is None
    assert kept and moved


def test_plan_stops_at_the_first_level_that_refuses_blocks(monkeypatch):
    # level 0's qn = 0.6**2 = 0.36 is already at most _QUIET_MIN, so the
    # plan evaluates no other level's threshold; quiet levels are all read
    basis, params, schedule = make_1d_system(max_shell=5, pulses=(-1,))
    occ = np.array([2, 1, 1, 1, 1, 0])
    run = dynamics._Run(basis, params, schedule, Configuration(occ), None,
                        RecorderSpec(watched_ids=(0,)), None)
    threshold, calls = dynamics._threshold, []

    def counted(n, p):
        calls.append((n, p))
        return threshold(n, p)

    monkeypatch.setattr(dynamics, "_threshold", counted)
    for dep, want in ((0.2, False), (0.01, True)):
        t = dynamics._Trajectory(run, (1,))
        t.rates = [pulse_rates(basis.size, [(m, m, dep) for m in range(5)])]
        calls.clear()
        plan = t._plan()
        assert bool(plan) is want
        if want:
            assert calls == [(2, 0.02)] + [(1, 0.02)] * 4
            assert plan[0].tolist() == [threshold(*c) for c in calls]
        else:
            assert calls == [(2, 0.4)]


def test_accumulate_is_a_left_to_right_python_sum():
    # the emission draw's prefix walk rests on numpy's float64 multiply and
    # accumulate rounding as Python's float product and sequential sum do
    r = np.random.default_rng(19)
    for n in (1, 7, 64, 1771):
        col = 10.0 ** r.uniform(-30, 0, n) * (r.random(n) > 0.3)
        occ1 = r.integers(1, 10_001, n).astype(np.float64)
        w = np.multiply(col, occ1)
        assert w.tolist() == [a * b for a, b in zip(col.tolist(), occ1.tolist())]
        sums, c = [], 0.0
        for x in w.tolist():
            c += x
            sums.append(c)
        assert np.add.accumulate(w).tolist() == sums


class FixedUniform:
    """A generator stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


def emission_draws(col, occ1, rng_new, rng_ref):
    """(the prefix draw, the full-sum draw) of one emission column."""
    head = occ1[:dynamics._HEAD].tolist()
    buffers = np.empty_like(occ1), np.empty_like(occ1)
    got = dynamics._emission_index(col, occ1, head, rng_new, *buffers)
    want = dynamics._draw_index(col * occ1, rng_ref)
    return got, want


@st.composite
def emission_columns(draw):
    """A Philox seed, an emission column of 2 _HEAD + 1 to 3,000 levels
    whose non-zero values span up to 300 decades, with runs of zeros, and
    occupancies up to 10**4."""
    n = draw(st.integers(2 * dynamics._HEAD + 1, 3000))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.sampled_from((0, 3, 16, 60, 300)))
    col = 10.0 ** -r.uniform(0, decades, n)
    for _ in range(draw(st.integers(0, 6))):  # runs of zeros
        start = r.integers(0, n)
        col[start:start + r.integers(1, n // 2)] = 0.0
    col *= draw(st.sampled_from((1.0, 1e-150, 1e-300, 1e-320, 1e290)))
    tail = draw(st.sampled_from((1.0, 1e-6, 1e6)))  # weight beyond the head
    col[dynamics._HEAD:] *= tail
    top = draw(st.sampled_from((0, 1, 30, 10_000)))
    occ1 = r.integers(0, top + 1, n) + 1.0
    return draw(st.integers(0, 2**32 - 1)), col, occ1


@settings(max_examples=300)
@given(emission_columns())
@example((5, np.zeros(60), np.ones(60)))
@example((6, np.full(60, 5e-324), np.full(60, 3.0)))
def test_prefix_emission_draw_is_the_full_sum_draw(case):
    seed, col, occ1 = case
    rng_new, rng_ref = rng_of(seed), rng_of(seed)
    if not (col * occ1).sum() > 0.0:
        for rng in (rng_new, rng_ref):
            with pytest.raises(PhysicsValidityError, match="no open channel"):
                emission_draws(col, occ1, rng, rng)
    else:
        got, want = emission_draws(col, occ1, rng_new, rng_ref)
        assert got == want
    assert stream_position(rng_new) == stream_position(rng_ref)
    assert rng_new.random() == rng_ref.random()


def test_step_draws_destinations_as_the_full_sum_draw(monkeypatch):
    # 84 levels take the prefix draw; a pulse's emissions keep occ + 1 and
    # its head up to date, so _step must equal one whose every destination
    # is drawn from the full prefix sum
    basis = enumerate_levels(3, 6)
    assert basis.size > 2 * dynamics._HEAD
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    provider = MatrixProvider(basis, params)
    sp = provider.spontaneous_dense()
    rates = provider.absorption(PulseSpec(s=-1, amps=(1.0, 1.0, 1.0)))
    start = np.zeros(basis.size, dtype=np.int64)
    start[:40] = np.random.default_rng(3).integers(0, 30, 40)

    def full_sum(col, occ1, head, rng, weights, cw):
        return dynamics._draw_index(np.multiply(col, occ1, out=weights), rng, cw)

    runs = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(dynamics, "_emission_index", full_sum)
        occ, rng, events = start.copy(), rng_of(21), []
        for _ in range(60):
            events += _step(occ, rates, sp, rng)[0]
        runs.append((events, occ.tolist(), stream_position(rng)))
    assert len(runs[0][0]) > 200
    assert runs[0] == runs[1]


def test_prefix_emission_draw_widens_the_dot_product():
    # u puts fl(u T) and fl(u D) on either side of a prefix sum in the head,
    # T the sequential total and D the dot product: a draw that read D as
    # T would settle on the wrong level
    r = np.random.default_rng(5)
    straddled = 0
    for _ in range(200):
        n = 3 * dynamics._HEAD
        col = 10.0 ** r.uniform(-12, 0, n)
        occ1 = r.integers(1, 10_001, n).astype(np.float64)
        cw = np.add.accumulate(col * occ1)
        t, d = cw[-1], float(np.dot(col, occ1))
        for k in range(dynamics._HEAD - 1):
            # the least u with fl(u T) >= cw[k] if D < T, else the largest
            # with fl(u T) < cw[k]
            u = float(cw[k] / t)
            while u * t < cw[k]:
                u = math.nextafter(u, 1.0)
            while math.nextafter(u, 0.0) * t >= cw[k]:
                u = math.nextafter(u, 0.0)
            if d > t:
                u = math.nextafter(u, 0.0)
            if (u * t < cw[k]) == (u * d < cw[k]):
                continue
            straddled += 1
            got, want = emission_draws(col, occ1, FixedUniform(u), FixedUniform(u))
            assert got == want
    assert straddled >= 20


def numpy_draw_inputs(occ, occupied, depletion):
    """``_draw_inputs`` as numpy computes it for long level sets, with the
    result a short set gets: lists, or ``_DARK`` where nothing couples."""
    occ_ids = np.array(occupied, dtype=np.int64)
    pa = 2.0 * depletion[occ_ids]
    hit = pa > 0.0
    if not hit.any():
        return dynamics._DARK
    worst = float(pa.max())
    ids = occ_ids[hit]
    return ids.tolist(), occ[ids].tolist(), pa[hit].tolist(), worst


_DEPLETION_EDGES = (0.0, -0.0, 5e-324, 0.5, math.nextafter(0.5, 0.0),
                    math.nextafter(0.5, 1.0))


@st.composite
def scalar_draw_cases(draw):
    """0 to ``_SCALAR_DRAWS`` occupied levels of 12, each level's depletion
    dark, subnormal, ordinary or next to where 2 Gamma_m crosses P_HARD."""
    size = 12
    occupied = sorted(draw(st.sets(st.integers(0, size - 1),
                                   max_size=dynamics._SCALAR_DRAWS)))
    occ = np.zeros(size, dtype=np.int64)
    for m in occupied:
        occ[m] = draw(st.integers(1, 500))
    depletion = np.array([draw(st.one_of(
        st.sampled_from(_DEPLETION_EDGES),
        st.floats(0.0, 0.6, allow_subnormal=True))) for _ in range(size)])
    return occ, occupied, depletion


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=400)
@given(scalar_draw_cases())
@example((np.array([3, 0, 1]), [0, 2], np.array([0.5, 0.0, 0.0])))
@example((np.array([3, 0, 1]), [0, 2],
          np.array([0.1, 0.3, math.nextafter(0.5, 1.0)])))
@example((np.array([0, 2, 0]), [1], np.array([0.2, 0.0, 0.2])))
def test_scalar_draw_inputs_match_numpy(case):
    # up to _SCALAR_DRAWS occupied levels, _draw_inputs reads them in plain
    # Python; that must be bitwise what the array path gives
    occ, occupied, depletion = case
    want = numpy_draw_inputs(occ, occupied, depletion)
    got = dynamics._draw_inputs(occ, occupied, depletion)
    if want is dynamics._DARK:
        assert got is dynamics._DARK
        return
    ids, n_occ, pa, worst = got
    assert (ids, n_occ) == want[:2]
    assert bits(pa) == bits(want[2]) and bits([worst]) == bits([want[3]])
    assert [type(x) for x in got] == [list, list, list, float]
    assert {type(x) for x in ids + n_occ} == {int}
    assert {type(p) for p in pa} == {float}


def test_step_refuses_kept_inputs_past_the_hard_bound_before_drawing():
    # level 0 depletes at 0.5, so its per-atom p is exactly P_HARD; kept
    # inputs one ulp past it raise in either form and leave the stream and
    # the occupancies untouched, while P_HARD itself draws
    rates = pulse_rates(2, [(1, 0, 0.5)])
    sp = np.eye(2)
    past = math.nextafter(dynamics.P_HARD, 2.0)
    for kept in (([0], [2], [past], past),
                 (np.array([0]), np.array([2]), np.array([past]), past)):
        occ, rng = np.array([2, 0]), rng_of(3)
        before = stream_position(rng)
        with pytest.raises(PhysicsValidityError, match="exceeds 1"):
            _step(occ, rates, sp, rng, kept)
        assert stream_position(rng) == before
        assert occ.tolist() == [2, 0]
    kept = dynamics._draw_inputs(occ, [0], rates.depletion)
    assert kept == ([0], [2], [dynamics.P_HARD], dynamics.P_HARD)
    events, p = _step(occ, rates, sp, rng, kept)
    assert p == dynamics.P_HARD and events == ((0, 1, 1), (0, 1, 1))
    assert occ.tolist() == [0, 2] and stream_position(rng) != before


def test_ramp_through_all_zero_beams_is_refused_at_construction():
    # both endpoints are legal, but the pulse's only beam passes 0 at
    # cycle 5, so the schedule is refused before any trajectory runs
    ramp = Ramp(0, "a_x", 1.0, -1.0, 0, 10)
    with pytest.raises(ValueError,
                       match="no nonzero beam amplitude at cycle 5"):
        Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=10,
                 ramps=(ramp,))


def test_emission_matrix_is_column_major():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    provider = MatrixProvider(basis, params)
    sp = provider.spontaneous_dense()
    assert sp.flags.f_contiguous
    assert provider.spontaneous().dense is sp
    # the per-pair oracle's values, with the build's cutoff applied
    want = spontaneous_dense_3d_flat(basis, params.eta_sp,
                                     emission_quadrature(3),
                                     _kappa_table_cache(basis.max_shell))
    want[want < REL_CUTOFF * want.max()] = 0.0
    assert sp.tobytes(order="C") == want.tobytes()
    row_major = np.ascontiguousarray(sp)
    assert not row_major.flags.f_contiguous

    # readers of the dense matrix see no difference against a row-major copy
    other = MatrixProvider(basis, params)
    other._sp = EmissionMatrix(row_major)
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
    other._sp = EmissionMatrix(np.ascontiguousarray(other.spontaneous_dense()))
    a = exact_propagate(basis, params, schedule, Configuration(occ), provider)
    b = exact_propagate(basis, params, schedule, Configuration(occ), other)
    assert a.probs.tobytes() == b.probs.tobytes()
