from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bosecool import (PulseSpec, SimParams, condensation_criterion,
                      cycles_to_seconds, depletion_profile, enumerate_levels,
                      fano_factor, figure_schedule, find_dark_states,
                      first_downward_crossing, franck_condon_1d,
                      hysteresis_extract, split_ramp_branches)


def test_depletion_additive_over_pulses():
    basis = enumerate_levels(3, 4)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    p1 = PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))
    p2 = PulseSpec(s=-2, amps=(1.0, 1.0, 1.0))
    combined = depletion_profile([p1, p2], basis, params)
    assert_allclose(combined,
                    depletion_profile([p1], basis, params)
                    + depletion_profile([p2], basis, params), rtol=1e-14)
    with pytest.raises(ValueError):
        depletion_profile([], basis, params)


def test_depletion_scales_with_area_squared():
    basis = enumerate_levels(3, 4)
    pulse = PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))
    lo = depletion_profile([pulse], basis, SimParams(eta=2.0, omega0_tau_abs=0.2))
    hi = depletion_profile([pulse], basis, SimParams(eta=2.0, omega0_tau_abs=0.4))
    assert_allclose(hi, 4.0 * lo, rtol=1e-13)


def dark_oracle(basis, amps, eta):
    """Brute-force interference zeros: levels with sum_j A_j d_{m_j} ~ 0."""
    d = np.array([franck_condon_1d(m, m, eta).real for m in range(basis.max_shell + 1)])
    m = (d[basis.levels] * np.asarray(amps)).sum(axis=1)
    top = np.abs(m).max()
    return {tuple(basis.level(int(i))) for i in np.flatnonzero(np.abs(m) < 1e-12 * top)}


def test_dark_states_match_interference_oracle():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    found = {lvl for lvl, _ in find_dark_states([PulseSpec(s=0, amps=(1.0, 1.0, -2.0))],
                                                basis, params)}
    assert found == dark_oracle(basis, (1.0, 1.0, -2.0), 2.0)
    for m in (0, 1, 2):
        assert (m, m, m) in found


def test_dark_states_beam_ratio_pair():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    found = {lvl for lvl, _ in
             find_dark_states([PulseSpec(s=0, amps=(1.0, 1.0, -2.0 / 3.0))], basis, params)}
    assert found == dark_oracle(basis, (1.0, 1.0, -2.0 / 3.0), 2.0)
    assert (1, 0, 1) in found and (0, 1, 1) in found


def test_dark_states_full_cycle_unique_ground():
    basis = enumerate_levels(3, 8)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    found = find_dark_states(list(figure_schedule("fig1").cycle), basis, params)
    assert [lvl for lvl, _ in found] == [(0, 0, 0)]
    assert found[0][1] == 0.0


def test_dark_states_detuned_trap_is_leaky():
    # at eta = 2.05 the protected level survives only approximately
    basis = enumerate_levels(3, 8)
    params = SimParams(eta=2.05, omega0_tau_abs=0.5)
    pulses = list(figure_schedule("fig2", eta=2.05).cycle)
    # nothing is exactly protected off the magic coupling
    assert find_dark_states(pulses, basis, params) == []
    near = {lvl for lvl, _ in find_dark_states(pulses, basis, params, tol=2e-2)}
    assert (1, 1, 1) in near
    assert (0, 0, 0) not in near


def test_dark_states_amplitude_rescale_invariant():
    basis = enumerate_levels(3, 5)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    a = find_dark_states([PulseSpec(s=0, amps=(1.0, 1.0, -2.0))], basis, params)
    b = find_dark_states([PulseSpec(s=0, amps=(0.5, 0.5, -1.0))], basis, params)
    assert [lvl for lvl, _ in a] == [lvl for lvl, _ in b]


def test_dark_states_tol_validation():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.5, omega0_tau_abs=0.5)
    with pytest.raises(ValueError):
        find_dark_states([PulseSpec(s=-1, amps=(1.0,))], basis, params, tol=0.0)
    with pytest.raises(ValueError):
        find_dark_states([PulseSpec(s=-1, amps=(1.0,))], basis, params, tol=1.0)


def test_criterion_condensing_reduces_to_depletion():
    # when the target is exactly dark the net drain is the bare depletion
    basis = enumerate_levels(3, 5)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    pulses = [PulseSpec(s=0, amps=(1.0, 1.0, -2.0)),
              PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))]
    rep = condensation_criterion(pulses, basis, params, (0, 0, 0))
    assert rep.verdict == "condensing"
    assert rep.target_level == (0, 0, 0)
    assert math.isnan(rep.tilde[rep.target_id])
    dep = depletion_profile(pulses, basis, params)
    mask = np.arange(basis.size) != rep.target_id
    assert_allclose(rep.tilde[mask], dep[mask], rtol=1e-14)
    assert rep.min_tilde > 0.0
    assert_allclose(rep.cooling_time_cycles, 1.0 / rep.min_tilde)
    assert rep.cooling_time_seconds > 0.0
    assert rep.violating_ids.size == 0


def test_criterion_rejects_unprotected_target():
    basis = enumerate_levels(3, 4)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    rep = condensation_criterion([PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))],
                                 basis, params, (1, 0, 0))
    assert rep.verdict == "not_condensing"
    assert rep.cooling_time_cycles is None
    assert basis.id_of((0, 0, 0)) in rep.violating_ids


def test_criterion_reports_indeterminate_sources():
    # recoil-free emission never returns leaked atoms to the target, so the
    # branching ratio is undefined rather than guessed
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4, eta_sp_ratio=0.0)
    rep = condensation_criterion([PulseSpec(s=-1, amps=(1.0,))], basis, params, (1,))
    assert rep.verdict == "indeterminate"
    assert rep.indeterminate_source_ids.size > 0


def test_criterion_phase_diffusion_scales_inversely_with_n():
    # the leaky upper sideband must fit inside the basis for the target
    # to lose anything at all
    basis = enumerate_levels(3, 8)
    params = SimParams(eta=2.05, omega0_tau_abs=0.5)
    pulses = list(figure_schedule("fig2", eta=2.05).cycle)
    r1 = condensation_criterion(pulses, basis, params, (1, 1, 1), n_atoms=1)
    r500 = condensation_criterion(pulses, basis, params, (1, 1, 1), n_atoms=500)
    assert r1.phase_diffusion_per_cycle > 0.0
    assert_allclose(r1.phase_diffusion_per_cycle,
                    500.0 * r500.phase_diffusion_per_cycle, rtol=1e-14)
    assert r500.phase_diffusion_hz > 0.0


def test_criterion_validation():
    basis = enumerate_levels(1, 2)
    params = SimParams(eta=0.9, omega0_tau_abs=0.4)
    with pytest.raises(ValueError):
        condensation_criterion([], basis, params, (0,))
    with pytest.raises(KeyError):
        condensation_criterion([PulseSpec(s=-1, amps=(1.0,))], basis, params, (9,))


def test_first_downward_crossing_skips_prefix():
    # values before the series first reaches the threshold do not count
    assert first_downward_crossing(np.array([0.1, 0.2, 0.8, 0.9, 0.3]), 0.5) == 4
    assert first_downward_crossing(np.array([0.9, 0.3, 0.8, 0.2]), 0.5) == 1
    assert first_downward_crossing(np.array([0.1, 0.2, 0.3]), 0.5) is None
    assert first_downward_crossing(np.array([0.6, 0.7, 0.9]), 0.5) is None


def test_split_ramp_branches():
    ramp = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
    up, down = split_ramp_branches(ramp)
    assert up == slice(0, 4)
    assert down == slice(3, 7)
    assert ramp[up][-1] == ramp[down][0]  # shared turning point
    with pytest.raises(ValueError):
        split_ramp_branches(np.array([1.0]))


def test_hysteresis_extraction_recovers_transfer_points():
    a = np.linspace(-2.0, 0.0, 41)
    up_series = np.where(a < -0.52, 1.0, 0.0)     # source collapses late
    b = a[::-1]
    down_series = np.where(b > -1.47, 1.0, 0.0)   # target survives until -1.5
    h = hysteresis_extract(a, up_series, b, down_series)
    assert h.found_both
    assert_allclose(h.up_value, -0.5)
    assert_allclose(h.down_value, -1.5)
    assert h.up_value > h.down_value
    assert a[h.up_index] == h.up_value
    assert b[h.down_index] == h.down_value


def test_hysteresis_memoryless_series_shows_no_loop():
    # if the population is a pure function of the ramp value, the two
    # branches transfer at the same point up to grid resolution
    a_star = -0.9
    a = np.linspace(-2.0, 0.0, 201)
    up_series = np.where(a < a_star, 1.0, 0.0)
    b = a[::-1]
    down_series = np.where(b > a_star, 1.0, 0.0)
    h = hysteresis_extract(a, up_series, b, down_series)
    assert h.found_both
    step = a[1] - a[0]
    assert abs(h.up_value - h.down_value) <= step + 1e-12


def test_hysteresis_missing_crossing():
    a = np.linspace(0.0, 1.0, 11)
    h = hysteresis_extract(a, np.where(a > 0.5, 0.0, 1.0), a[::-1], np.ones(11))
    assert h.up_value is not None
    assert h.down_value is None
    assert not h.found_both


def test_hysteresis_validation():
    a = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        hysteresis_extract(a, np.ones(4), a, np.ones(5))
    with pytest.raises(ValueError):
        hysteresis_extract(a, np.ones(5), a, np.ones(4))
    with pytest.raises(ValueError):
        hysteresis_extract(a, np.ones(5), a, np.ones(5), threshold=0.0)
    with pytest.raises(ValueError):
        hysteresis_extract(a, np.ones(5), a, np.ones(5), threshold=1.0)


def test_fano_constant_counts():
    res = fano_factor(np.full(40, 7, dtype=np.int64))
    assert res.fano == 0.0
    assert res.mean == 7.0
    assert res.n_windows == 40


def test_fano_poisson_counts():
    rng = np.random.Generator(np.random.Philox(21))
    counts = rng.poisson(5.0, size=400)
    res = fano_factor(counts)
    assert abs(res.fano - 1.0) < 3 * math.sqrt(2.0 / 399)
    assert abs(res.fano - 1.0) < 4 * res.error
    assert res.error > 0.0


def test_fano_empty_and_short():
    res = fano_factor(np.zeros(50, dtype=np.int64))
    assert res.fano is None and res.error is None
    assert res.mean == 0.0
    with pytest.raises(ValueError):
        fano_factor(np.ones(10, dtype=np.int64))


def test_cycles_to_seconds_formula():
    # cycle wall time = pulses * (absorption + emission window)
    want = 1000 * 8 * (4.0 / (2 * math.pi * 1e4)) * (1 + 3.0)
    got = cycles_to_seconds(1000)
    assert_allclose(got, want, rtol=1e-14)
    assert_allclose(got, 2.0371832715762604, rtol=1e-12)
    assert cycles_to_seconds(0) == 0.0
    assert_allclose(cycles_to_seconds(500), got / 2)
    assert_allclose(cycles_to_seconds(1000, n_pulses=2), got / 4)
    with pytest.raises(ValueError):
        cycles_to_seconds(10, omega_hz=0.0)
