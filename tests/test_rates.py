"""Absorption and emission rate construction.

The absorption side is checked against hand-evaluated single-transition
rates and exact interference zeros; the emission side against closed-form
columns and quadrature refinement.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from bosecool import rates as rates_module
from bosecool import (MatrixProvider, PulseSpec, SimParams,
                      build_spontaneous_rates, cache_filename, cache_store,
                      emission_quadrature, enumerate_levels, franck_condon_1d,
                      pulse_spectrum_sq)
from bosecool.rates import (PulseRates, RateMatrix, _kappa_table_cache,
                            _spontaneous_dense_3d, absorption_fingerprint,
                            absorption_structure, emission_memory_bytes,
                            fc_diag)

from oracles import (absorption_rates_reference, product_quadrature,
                     spontaneous_dense_3d_flat)

PREF = math.pi / 8.0


def absorption_matrix(basis, params, pulse):
    """One pulse's absorption matrix, through the provider the CLI uses."""
    return MatrixProvider(basis, params).absorption(pulse).matrix


def dense_of(record):
    """A (to, from, rate) record as a dense array."""
    out = np.zeros(record.shape)
    out[record.to_ids, record.from_ids] = record.rates
    return out


def test_spectrum_values():
    assert pulse_spectrum_sq(0.0, 4.0) == 1.0
    assert_allclose(pulse_spectrum_sq(1.0, 4.0), math.exp(-8.0), rtol=1e-14)
    assert_allclose(pulse_spectrum_sq(-1.0, 4.0), math.exp(-8.0), rtol=1e-14)
    assert_allclose(pulse_spectrum_sq(2.0, 4.0), math.exp(-32.0), rtol=1e-13)


def test_single_beam_rate_by_hand():
    basis = enumerate_levels(1, 3)
    params = SimParams(eta=1.1, omega0_tau_abs=0.3)
    mat = absorption_matrix(basis, params, PulseSpec(s=-1, amps=(1.0,)))
    dense = dense_of(mat)
    for n in (1, 2, 3):
        want = PREF * 0.3 ** 2 * abs(franck_condon_1d(n - 1, n, 1.1)) ** 2
        assert_allclose(dense[n - 1, n], want, rtol=1e-13)
    # ground level has nowhere to go on a lowering pulse
    assert mat.column_sums()[0] == 0.0


def test_selection_rule_one_axis():
    basis = enumerate_levels(3, 4)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    mat = absorption_matrix(basis, params, PulseSpec(s=-1, amps=(1.0, 1.0, 1.0)))
    assert mat.nnz > 0
    for to_id, from_id in zip(mat.to_ids, mat.from_ids):
        diff = np.asarray(basis.level(int(to_id))) - np.asarray(basis.level(int(from_id)))
        moved = np.nonzero(diff)[0]
        assert moved.size == 1
        assert diff[moved[0]] == -1


def test_area_scaling_quadratic():
    basis = enumerate_levels(1, 4)
    pulse = PulseSpec(s=-1, amps=(1.0,))
    lo = absorption_matrix(basis, SimParams(eta=0.9, omega0_tau_abs=0.3), pulse)
    hi = absorption_matrix(basis, SimParams(eta=0.9, omega0_tau_abs=0.6), pulse)
    assert np.array_equal(lo.to_ids, hi.to_ids)
    assert_allclose(hi.rates, 4.0 * lo.rates, rtol=1e-14)


def test_interference_dark_diagonal():
    # A = (1,1,-2): every (m,m,m) decouples, and so does (0,2,0)
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    dep = absorption_matrix(basis, params, PulseSpec(s=0, amps=(1.0, 1.0, -2.0))).column_sums()
    top = dep.max()
    assert top > 0.0
    for m in (0, 1, 2):
        assert dep[basis.id_of((m, m, m))] <= 1e-12 * top
    assert dep[basis.id_of((0, 2, 0))] <= 1e-12 * top
    assert dep[basis.id_of((1, 0, 0))] > 1e-3 * top


def test_interference_dark_pair():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    dep = absorption_matrix(
        basis, params, PulseSpec(s=0, amps=(1.0, 1.0, -2.0 / 3.0))).column_sums()
    top = dep.max()
    assert dep[basis.id_of((1, 0, 1))] <= 1e-12 * top
    assert dep[basis.id_of((0, 1, 1))] <= 1e-12 * top
    assert dep[basis.id_of((1, 1, 1))] > 1e-3 * top


def test_ground_dark_on_lowering_pulse():
    basis = enumerate_levels(3, 5)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    dep = absorption_matrix(basis, params, PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))).column_sums()
    assert dep[basis.id_of((0, 0, 0))] == 0.0


def test_laguerre_dark_on_raising_pulse():
    # eta^2 = s + 1 protects the first excited shell against s = +3
    basis = enumerate_levels(3, 5)
    params = SimParams(eta=2.0, omega0_tau_abs=0.5)
    dep = absorption_matrix(basis, params, PulseSpec(s=3, amps=(1.0, 1.0, 1.0))).column_sums()
    assert dep[basis.id_of((1, 1, 1))] == 0.0
    assert dep[basis.id_of((0, 0, 0))] > 0.0


def test_resonance_window_adds_detuned_lines():
    basis = enumerate_levels(1, 6)
    narrow = SimParams(eta=1.1, omega0_tau_abs=0.3)
    wide = SimParams(eta=1.1, omega0_tau_abs=0.3, resonance_window=1)
    pulse = PulseSpec(s=-1, amps=(1.0,))
    d0 = dense_of(absorption_matrix(basis, narrow, pulse))
    d1 = dense_of(absorption_matrix(basis, wide, pulse))
    # resonant line unchanged
    assert_allclose(d1[1, 2], d0[1, 2], rtol=1e-13)
    # one shell further down, suppressed by the pulse spectrum at delta = 1
    want = PREF * 0.09 * abs(franck_condon_1d(0, 2, 1.1)) ** 2 * math.exp(-8.0)
    assert d0[0, 2] == 0.0
    assert_allclose(d1[0, 2], want, rtol=1e-12)
    # |s| <= window turns on the coherent diagonal as well
    amp = abs(franck_condon_1d(3, 3, 1.1)) ** 2
    assert_allclose(d1[3, 3], PREF * 0.09 * amp * math.exp(-8.0), rtol=1e-12)
    assert d0[3, 3] == 0.0


def test_rate_matrix_helpers():
    mat = RateMatrix(shape=(3, 3),
                     to_ids=np.array([0, 2], dtype=np.uint32),
                     from_ids=np.array([1, 1], dtype=np.uint32),
                     rates=np.array([0.25, 0.5]))
    assert mat.nnz == 2
    assert_allclose(mat.column_sums(), [0.0, 0.75, 0.0])
    empty = RateMatrix(shape=(2, 2),
                       to_ids=np.zeros(0, dtype=np.uint32),
                       from_ids=np.zeros(0, dtype=np.uint32), rates=np.zeros(0))
    assert empty.nnz == 0
    assert_array_equal(empty.column_sums(), [0.0, 0.0])
    with pytest.raises(ValueError):
        RateMatrix(shape=(2, 2),
                   to_ids=np.array([0], dtype=np.uint32),
                   from_ids=np.array([0], dtype=np.uint32),
                   rates=np.array([-1.0]))


def test_structure_amps_length_checked():
    basis = enumerate_levels(2, 3)
    struct = absorption_structure(basis, SimParams(eta=1.0, omega0_tau_abs=0.4),
                                  -1, 4.0)
    with pytest.raises(ValueError):
        struct.evaluate((1.0, 1.0, 1.0), 0.4)


def channel_shifts(basis, rates):
    """Source, beam axis and quantum-number shift of every channel in
    layout order; the diagonal has axis -1 and shift 0."""
    src = np.repeat(np.arange(basis.size), np.diff(rates.chan_indptr))
    diff = basis.levels[rates.chan_to].astype(np.int64) - basis.levels[src]
    moved = diff != 0
    axis = np.where(moved.any(axis=1), moved.argmax(axis=1), -1)
    return src, axis, diff.sum(axis=1)


def assert_same_rates(got, want):
    for name in ("depletion", "chan_indptr", "chan_to", "chan_rate"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dim, max_shell, window, s, amps", [
    (1, 8, 2, -1, (1.0,)),
    (2, 6, 1, 0, (1.0, 0.6)),
    (3, 5, 2, -1, (1.0, 1.0, 1.0)),
    (3, 5, 1, 1, (0.0, 1.0, 0.5)),    # a zero beam opens no channels
    (3, 5, 1, 0, (0.0, 0.0, 0.0)),    # only the all-zero diagonal is left
    (3, 6, 0, 0, (1.0, 1.0, -2.0)),   # interference: (0,0,0) exactly dark
])
def test_pulse_rates_layout(dim, max_shell, window, s, amps):
    # the sampler draws a source's channels in layout order, so evaluating
    # must give what regrouping the record by source gives, bit for bit
    basis = enumerate_levels(dim, max_shell)
    params = SimParams(eta=2.0, omega0_tau_abs=0.3, resonance_window=window)
    rates = absorption_structure(basis, params, s, 4.0).evaluate(amps, 0.3)
    assert rates.chan_to.size > 0
    assert_same_rates(PulseRates.from_matrix(rates.matrix), rates)
    # per source: the diagonal first, then (axis, delta) blocks in order
    src, axis, delta = channel_shifts(basis, rates)
    assert_array_equal(np.lexsort((delta, axis, src)), np.arange(src.size))
    if amps[0] == 0.0:
        assert not (axis == 0).any()
    if amps == (1.0, 1.0, -2.0):
        ground = basis.id_of((0, 0, 0))
        assert rates.depletion[ground] == 0.0
        assert rates.chan_indptr[ground + 1] == rates.chan_indptr[ground]


_AMPS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


@st.composite
def rate_cases(draw):
    """A basis, params, a pulse's s and width, and amplitudes: drawn per
    beam (zero beams included), or exactly dark at (0,...,0), or aimed at
    the dark condition of a drawn level."""
    dim = draw(st.integers(1, 3))
    basis = enumerate_levels(dim, draw(st.integers(0, 4)))
    params = SimParams(eta=draw(st.sampled_from((0.7, 1.0, 1.3, 2.0))),
                       omega0_tau_abs=0.5,
                       resonance_window=draw(st.integers(0, 2)))
    amps = [draw(st.sampled_from(_AMPS)) for _ in range(dim)]
    kind = draw(st.sampled_from(("free", "ground_dark", "level_dark")))
    if kind == "ground_dark" and dim > 1:  # equal d_j(0): the sum vanishes
        amps[-1] = -sum(amps[:-1])
    elif kind == "level_dark" and dim > 1:
        d = fc_diag(basis.max_shell, params.eta)[
            basis.levels[draw(st.integers(0, basis.size - 1))]]
        amps = [0.0] * dim
        amps[0], amps[1] = float(d[1]), -float(d[0])
    if not any(amps):
        amps[0] = 1.0
    return (basis, params, draw(st.integers(-3, 3)),
            draw(st.sampled_from((1.5, 4.0))), tuple(amps),
            draw(st.sampled_from((0.3, 0.9))))


@settings(max_examples=300)
@given(rate_cases())
def _evaluate_matches_reference(outcomes, case):
    """One drawn case of ``test_evaluate_matches_reference_bitwise``; adds
    the layout its evaluation took to ``outcomes``. At module level, so
    hypothesis keys its draws on this body and not on its decorators."""
    basis, params, s, width, amps, area = case
    struct = absorption_structure(basis, params, s, width)
    got = struct.evaluate(amps, area)
    assert_same_rates(got, PulseRates(*absorption_rates_reference(
        struct, amps, area)))
    shared = got.chan_to is struct.chan_to
    assert shared == (got.chan_indptr is struct.indptr)
    outcomes.add("grouped" if not shared
                 else "diagonal" if got.depletion is got.chan_rate
                 else "shared")
    # a shared layout cannot be written through
    assert not (struct.indptr.flags.writeable
                or struct.chan_to.flags.writeable)


def test_evaluate_matches_reference_bitwise():
    # evaluate shares the structure's layout where no channel is cut and
    # regroups where one is; both must be the plain evaluation, bit for bit
    outcomes = set()
    _evaluate_matches_reference(outcomes)
    assert outcomes == {"grouped", "shared", "diagonal"}


def test_ungrouped_cache_record_loads_bitwise(tmp_path):
    # a record listed block by block (the diagonal, then each (axis, delta)
    # block over ascending sources) is not grouped by source
    basis = enumerate_levels(2, 5)
    params = SimParams(eta=1.3, omega0_tau_abs=0.3, resonance_window=1)
    pulse = PulseSpec(s=0, amps=(1.0, 0.7)).resolved(params)
    fresh = MatrixProvider(basis, params).absorption(pulse)
    src, axis, delta = channel_shifts(basis, fresh)
    order = np.lexsort((src, delta, axis))
    grouped = fresh.matrix
    fp = absorption_fingerprint(basis, pulse.s, params.eta, pulse.amps,
                                pulse.omega0_tau_abs, pulse.omega_tau_abs,
                                params.resonance_window)
    record = RateMatrix(grouped.shape, grouped.to_ids[order],
                        grouped.from_ids[order], grouped.rates[order], fp)
    assert (np.diff(record.from_ids.astype(np.int64)) < 0).any()
    cache_store(record, tmp_path / cache_filename(fp))

    provider = MatrixProvider(basis, params, cache_dir=str(tmp_path))
    loaded = provider.absorption(pulse, persist=True)
    assert provider.counters["abs_builds"] == 0
    assert provider.counters["disk_loads"] == 1
    assert_same_rates(loaded, fresh)


def test_quadrature_normalization():
    for dim in (1, 2, 3):
        quad = emission_quadrature(dim)
        assert_allclose(quad.weights.sum(), 1.0, atol=1e-12)
        assert quad.directions.shape[1] == dim
        assert_allclose(np.linalg.norm(quad.directions, axis=1), 1.0, atol=1e-12)
    dip = emission_quadrature(3, pattern="dipole:z")
    assert_allclose(dip.weights.sum(), 1.0, atol=1e-12)


def test_quadrature_second_moments():
    iso = emission_quadrature(3)
    assert_allclose((iso.weights * iso.directions[:, 2] ** 2).sum(), 1.0 / 3.0, atol=1e-12)
    dip = emission_quadrature(3, pattern="dipole:z")
    # (3/8)(1+cos^2) pattern has <cos^2> = 2/5
    assert_allclose((dip.weights * dip.directions[:, 2] ** 2).sum(), 0.4, atol=1e-12)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        emission_quadrature(3, pattern="cardioid")
    with pytest.raises(ValueError):
        emission_quadrature(1, pattern="dipole:z")
    with pytest.raises(ValueError):
        emission_quadrature(2, pattern="dipole:x")
    with pytest.raises(ValueError, match="unknown emission pattern None"):
        emission_quadrature(3, pattern=None)
    with pytest.raises(ValueError, match="quadrature order must be >= 2"):
        emission_quadrature(3, polar_order=1)


def test_emission_1d_poisson_column():
    # both emission directions carry |kappa| = eta, so the ground column is
    # the exact Poisson comb exp(-eta^2) eta^(2n) / n!
    basis = enumerate_levels(1, 30)
    params = SimParams(eta=1.2, omega0_tau_abs=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sp = build_spontaneous_rates(basis, params, emission_quadrature(1)).dense
    eta2 = 1.2 ** 2
    for n in range(13):
        want = math.exp(-eta2) * eta2 ** n / math.factorial(n)
        assert_allclose(sp[n, 0], want, rtol=1e-10)


def test_emission_3d_ground_anchor():
    # isotropic 3D self-overlap of the ground level is exp(-eta_sp^2) exactly
    basis = enumerate_levels(3, 2)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sp = build_spontaneous_rates(basis, params, emission_quadrature(3)).dense
    assert_allclose(sp[0, 0], math.exp(-4.0), rtol=1e-12)


def test_emission_columns_substochastic():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sp = build_spontaneous_rates(basis, params, emission_quadrature(3))
    sums = sp.dense.sum(axis=0)
    assert sums.max() <= 1.0 + 1e-9
    assert sums.min() > 0.0


def test_emission_column_grows_with_truncation():
    params = SimParams(eta=1.5, omega0_tau_abs=0.4)
    totals = []
    for max_shell in (6, 12, 24):
        basis = enumerate_levels(1, max_shell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sp = build_spontaneous_rates(basis, params, emission_quadrature(1))
        totals.append(sp.dense[:, 0].sum())
    assert totals[0] <= totals[1] <= totals[2] <= 1.0 + 1e-12
    assert totals[2] > 0.999


def test_emission_quadrature_refinement():
    basis = enumerate_levels(3, 6)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        coarse = build_spontaneous_rates(basis, params, emission_quadrature(3, polar_order=24))
        fine = build_spontaneous_rates(basis, params, emission_quadrature(3, polar_order=48))
    diff = np.abs(coarse.dense - fine.dense).max()
    assert diff <= 1e-10 * fine.dense.max()


def test_emission_without_recoil_is_identity():
    basis = enumerate_levels(2, 4)
    params = SimParams(eta=1.3, omega0_tau_abs=0.4, eta_sp_ratio=0.0)
    sp = build_spontaneous_rates(basis, params, emission_quadrature(2))
    assert_allclose(sp.dense, np.eye(basis.size), atol=1e-15)


def test_truncation_warning_threshold(monkeypatch):
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    basis = enumerate_levels(3, 4)
    with pytest.warns(UserWarning, match="lose more than"):
        build_spontaneous_rates(basis, params, emission_quadrature(3))
    # a generous threshold stays quiet on the same matrix
    monkeypatch.setattr(rates_module, "_COMPLETENESS_WARN", 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_spontaneous_rates(basis, params, emission_quadrature(3))


def test_quadrature_dim_mismatch():
    basis = enumerate_levels(2, 3)
    params = SimParams(eta=1.0, omega0_tau_abs=0.4)
    with pytest.raises(ValueError):
        build_spontaneous_rates(basis, params, emission_quadrature(3))


@pytest.mark.parametrize("max_shell,pattern,polar_order,n_phi,ratio", [
    (0, "isotropic", 24, None, 1.0),
    (1, "dipole:x", 24, None, 1.0),
    (3, "dipole:z", 7, None, 1.0),      # odd polar order: a z = 0 ring
    (3, "isotropic", 6, 10, 1.0),       # 10 phi nodes, not a multiple of 4
    (6, "isotropic", 24, None, 1.0),
    (6, "dipole:x", 5, 18, 1.0),
    (6, "dipole:z", 8, None, 1.0),
    (3, "isotropic", 24, None, 0.0),    # no recoil: identity tables
    (12, "isotropic", 24, None, 1.0),   # 455 levels: long permutation cycles
    (12, "dipole:x", 24, None, 1.0),
])
def test_emission_kernel_matches_flat_gather_bitwise(max_shell, pattern,
                                                     polar_order, n_phi, ratio):
    # n_phi None: the library's quadrature (2 * polar_order phi nodes)
    basis = enumerate_levels(3, max_shell)
    quad = (emission_quadrature(3, pattern, polar_order=polar_order)
            if n_phi is None else product_quadrature(pattern, polar_order, n_phi))
    eta_sp = SimParams(eta=2.0, omega0_tau_abs=0.4, eta_sp_ratio=ratio).eta_sp
    got = _spontaneous_dense_3d(basis, eta_sp, quad, _kappa_table_cache(max_shell))
    want = spontaneous_dense_3d_flat(basis, eta_sp, quad,
                                     _kappa_table_cache(max_shell))
    assert got.flags.f_contiguous
    assert np.array_equal(got, want)
    assert got.tobytes(order="C") == want.tobytes()


def test_emission_build_memory_is_dense_plus_kernel():
    # 455 levels; tracemalloc counts numpy buffers, so the peak is repeatable
    basis = enumerate_levels(3, 12)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    quad = emission_quadrature(3)  # 24 rings of 48 phi nodes
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            build_spontaneous_rates(basis, params, quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = basis.size ** 2
    k = math.comb(12 + 2, 2)
    # what the build must hold at once: the float64 dense matrix, one
    # polar group's (x, y) tensor, a quarter of the rows of each of one
    # ring's 12 distinct node terms (3 tensors' worth) and about one tensor
    # of gathers; a quarter more covers the recoil tables. No group keeps
    # its tensor past its turn, and no record is built.
    must_hold = 8 * pairs + 8 * k * k * (1 + 3 + 1)
    assert peak <= 1.25 * must_hold, f"{peak / pairs:.1f} B per level pair"


def test_emission_memory_estimate(tmp_path):
    quad = emission_quadrature(3)  # 24 rings of 48 phi nodes
    for max_shell in (0, 6, 20, 60):
        basis = enumerate_levels(3, max_shell)  # the level list only
        pairs = basis.size ** 2
        k = math.comb(max_shell + 2, 2)
        # 156 distinct |direction components|, one recoil table each
        tables = 8 * (max_shell + 1) ** 2 * 156
        # one group's tensor and a quarter of the rows of 48 node terms
        # and 4 gathers, or one sixteenth of the matrix's columns
        kernel = max(8 * k * k + 8 * -(-k // 4) * k * (48 + 4),
                     8 * basis.size * max(16, -(-basis.size // 16)))
        assert emission_memory_bytes(basis, quad) == 8 * pairs + tables + kernel

    # the estimate bounds what a build holds at its peak, and not loosely
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    for dim, max_shell in ((1, 300), (2, 40), (3, 12)):
        basis = enumerate_levels(dim, max_shell)
        dim_quad = emission_quadrature(dim)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                build_spontaneous_rates(basis, params, dim_quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        est = emission_memory_bytes(basis, dim_quad)
        assert peak <= est <= 1.5 * peak, (dim, peak, est)

    # the estimate tracks what the path allocates: build and store on an
    # empty cache, then a load from it
    basis = enumerate_levels(3, 12)
    est = emission_memory_bytes(basis, quad)
    peaks = []
    for _ in range(2):
        provider = MatrixProvider(basis, params, cache_dir=str(tmp_path),
                                  quadrature=quad)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                provider.spontaneous_dense()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert provider.counters["disk_loads"] == 1
    assert 0.5 * est <= max(peaks) <= 1.02 * est, (peaks, est)


@pytest.mark.parametrize("dim,max_shell", [(1, 4), (2, 3), (3, 2)])
def test_structure_skips_shifts_no_level_can_make(dim, max_shell):
    # no level changes its shell by more than max_shell, so a window of
    # 2 max_shell already reaches every channel of a target in the basis
    # and a window of 10**9 adds none (nor lists its shifts); a target no
    # shift can reach from the basis lists no channel at all
    basis = enumerate_levels(dim, max_shell)
    fields = ("diag_amp", "indptr", "chan_from", "chan_to", "chan_axis",
              "chan_fc2s")
    for s in range(-max_shell, max_shell + 1):
        a, b = (absorption_structure(
            basis, SimParams(eta=0.9, resonance_window=w), s, 4.0)
            for w in (2 * max_shell, 10 ** 9))
        assert a.diag_spectrum == b.diag_spectrum
        for name in fields:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), name
    for s in (10 ** 400, -10 ** 400):
        st_ = absorption_structure(basis, SimParams(eta=0.9), s, 4.0)
        assert st_.diag_amp is None and st_.chan_from.size == 0
        assert not st_.evaluate((1.0,) * dim, 0.5).depletion.any()
