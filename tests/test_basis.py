from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bosecool import (Basis, Configuration, SimParams, enumerate_levels,
                      sample_initial_configuration, thermal_distribution)

from bosecool.basis import (_BETA_LIMIT, _brentq, _shell_moments,
                            enumeration_bytes)

from oracles import thermal_level_weights


def test_level_counts_match_binomial():
    for dim, top in ((1, 30), (2, 15), (3, 12)):
        for max_shell in range(top + 1):
            basis = enumerate_levels(dim, max_shell)
            assert basis.size == math.comb(max_shell + dim, dim)


def test_reference_basis_size():
    assert enumerate_levels(3, 20).size == 1771
    assert enumerate_levels(1, 0).size == 1


def test_small_2d_ordering():
    basis = enumerate_levels(2, 2)
    got = [tuple(row) for row in basis.levels]
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_id_level_bijection():
    basis = enumerate_levels(3, 6)
    for lid in range(basis.size):
        assert basis.id_of(basis.level(lid)) == lid
    assert basis.lut[(1, 2, 3)] == basis.id_of((1, 2, 3))
    assert type(basis.id_of(np.array([1, 2, 3]))) is int
    # outside the truncation, a negative or a wrong-length tuple: the lut
    # holds -1 there, wraps a negative index or cannot be indexed
    for level in ((0, 0, 7), (7, 0, 0), (0, -1, 1), (0, 1), (0, 0, 0, 0)):
        with pytest.raises(KeyError, match=r"outside basis \(dim=3, max_shell=6\)"):
            basis.id_of(level)


@pytest.mark.parametrize("dim, max_shell", [(1, 100_000), (2, 600), (3, 60)])
def test_enumeration_stays_within_its_preflight_estimate(dim, max_shell):
    # the preflight refuses a basis whose enumeration_bytes exceed physical
    # memory, so enumeration must never hold more than that
    tracemalloc.start()
    try:
        enumerate_levels(dim, max_shell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= enumeration_bytes(dim, max_shell)


def test_shells_column():
    basis = enumerate_levels(2, 5)
    assert_array_equal(basis.shells, basis.levels.sum(axis=1))
    assert basis.max_shell == 5


def test_fingerprint_stability():
    basis = enumerate_levels(3, 20)
    assert basis.fingerprint() == enumerate_levels(3, 20).fingerprint()
    assert basis.fingerprint() != enumerate_levels(3, 19).fingerprint()


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_levels(4, 3)
    with pytest.raises(ValueError):
        enumerate_levels(0, 3)
    with pytest.raises(ValueError):
        enumerate_levels(2, -1)


def test_thermal_matches_boltzmann_oracle():
    # a mean shell of 6 in 3D corresponds to beta = ln(3/2); the truncation
    # at shell 60 leaves a relative tail below 1e-7
    basis = enumerate_levels(3, 60)
    p = thermal_distribution(basis, 6.0)
    assert_allclose(p.sum(), 1.0, atol=1e-12)
    beta = math.log(p[basis.id_of((0, 0, 0))] / p[basis.id_of((0, 0, 1))])
    assert_allclose(beta, math.log(1.5), atol=1e-6)
    assert_allclose(float((p * basis.shells).sum()), 6.0, atol=1e-7)
    oracle = thermal_level_weights(basis.shells, math.log(1.5))
    assert_allclose(p, oracle, rtol=2e-6, atol=1e-18)


def test_brent_root_matches_scipy_bitwise():
    # the thermal solver's own equation on 1D-3D bases, 400 means each
    optimize = pytest.importorskip("scipy.optimize")
    n_roots = 0
    for dim, max_shell in ((1, 5), (1, 30), (2, 3), (2, 12), (3, 2), (3, 20)):
        basis = enumerate_levels(dim, max_shell)
        lo = _shell_moments(basis, _BETA_LIMIT)
        hi = _shell_moments(basis, -_BETA_LIMIT)
        for mean in np.linspace(lo, hi, 402)[1:-1]:
            def f(b):
                return _shell_moments(basis, b) - mean
            want = optimize.brentq(f, -_BETA_LIMIT, _BETA_LIMIT,
                                   xtol=1e-13, rtol=8.882e-16)
            got = _brentq(f, -_BETA_LIMIT, _BETA_LIMIT, xtol=1e-13, rtol=8.882e-16)
            assert got == want, (dim, max_shell, mean)
            n_roots += 1
    assert n_roots == 2400
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13, rtol=8.882e-16)


def test_thermal_two_level_half():
    basis = enumerate_levels(1, 1)
    p = thermal_distribution(basis, 0.5)
    assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_thermal_cold_limit():
    basis = enumerate_levels(2, 4)
    p = thermal_distribution(basis, 1e-6)
    assert p[0] > 0.999998
    assert_allclose(float((p * basis.shells).sum()), 1e-6, rtol=1e-3)


def test_thermal_validation():
    basis = enumerate_levels(1, 2)
    with pytest.raises(ValueError):
        thermal_distribution(basis, 0.0)
    with pytest.raises(ValueError):
        thermal_distribution(basis, -1.0)
    # hottest attainable mean on {0,1,2} is below 2
    with pytest.raises(ValueError):
        thermal_distribution(basis, 2.0)
    with pytest.raises(ValueError):
        thermal_distribution(enumerate_levels(1, 0), 0.5)


def test_sampling_point_mass():
    basis = enumerate_levels(3, 4)
    dist = np.zeros(basis.size)
    dist[basis.id_of((1, 1, 1))] = 1.0
    rng = np.random.Generator(np.random.Philox(7))
    cfg = sample_initial_configuration(basis, dist, 500, rng)
    assert cfg.occ[basis.id_of((1, 1, 1))] == 500
    assert cfg.n_atoms == 500


def test_sampling_uniform_two_levels():
    basis = enumerate_levels(1, 1)
    rng = np.random.Generator(np.random.Philox(11))
    cfg = sample_initial_configuration(basis, np.array([0.5, 0.5]), 10_000, rng)
    # 4 sigma band around the even split
    assert abs(cfg.occ[0] - 5000) < 4 * 50


def test_sampling_thermal_mean():
    basis = enumerate_levels(3, 20)
    p = thermal_distribution(basis, 6.0)
    var = float((p * basis.shells.astype(float) ** 2).sum()) - 36.0
    rng = np.random.Generator(np.random.Philox(13))
    cfg = sample_initial_configuration(basis, p, 500, rng)
    got = float(basis.shells @ cfg.occ) / 500
    assert abs(got - 6.0) < 3 * math.sqrt(var / 500)


def test_sampling_reproducible():
    basis = enumerate_levels(2, 3)
    p = thermal_distribution(basis, 1.0)
    a = sample_initial_configuration(basis, p, 40, np.random.Generator(np.random.Philox(3)))
    b = sample_initial_configuration(basis, p, 40, np.random.Generator(np.random.Philox(3)))
    assert_array_equal(a.occ, b.occ)


def test_sampling_validation():
    basis = enumerate_levels(1, 1)
    rng = np.random.Generator(np.random.Philox(1))
    with pytest.raises(ValueError):
        sample_initial_configuration(basis, np.array([0.5, 0.5]), 0, rng)
    with pytest.raises(ValueError):
        sample_initial_configuration(basis, np.array([0.7, 0.7]), 5, rng)
    with pytest.raises(ValueError):
        sample_initial_configuration(basis, np.array([1.0]), 5, rng)


def test_configuration_validation():
    cfg = Configuration(np.array([2, 0, 1]))
    assert cfg.n_atoms == 3
    assert cfg.occ.dtype == np.int64
    copy = cfg.copy()
    copy.occ[0] = 9
    assert cfg.occ[0] == 2
    with pytest.raises(ValueError):
        Configuration(np.array([1, -1]))
    with pytest.raises(ValueError):
        Configuration(np.array([[1, 0], [0, 1]]))


def test_configuration_refuses_occupations_that_are_not_whole_numbers():
    for occ in ([1.5, 0.0], [np.nan, 1.0], [np.inf, 0.0], [2.0, -np.inf]):
        with pytest.raises(ValueError, match="finite whole numbers"):
            Configuration(np.array(occ))
    # whole numbers of any numeric type read as the same int64 occupations
    for occ in ([2, 0, 1], np.array([2, 0, 1], dtype=np.uint8),
                np.array([2.0, 0.0, 1.0]), [2.0, -0.0, 1.0]):
        cfg = Configuration(occ)
        assert cfg.occ.dtype == np.int64
        assert cfg.occ.tolist() == [2, 0, 1]
    assert Configuration(np.array([True, False])).occ.tolist() == [1, 0]


def test_params_validation():
    p = SimParams(eta=2.0)
    assert p.eta_sp == 2.0
    assert SimParams(eta=2.0, eta_sp_ratio=0.5).eta_sp == 1.0
    with pytest.raises(ValueError):
        SimParams(eta=-0.1)
    with pytest.raises(ValueError):
        SimParams(eta=1.0, omega_tau_abs=1.0)
    with pytest.raises(ValueError):
        SimParams(eta=1.0, omega0_tau_abs=1.0)
    with pytest.raises(ValueError):
        SimParams(eta=1.0, omega0_tau_abs=0.0)
    with pytest.raises(ValueError):
        SimParams(eta=1.0, eta_sp_ratio=-0.2)
    with pytest.raises(ValueError):
        SimParams(eta=1.0, resonance_window=-1)
    for bad in (math.nan, math.inf):
        for key in ("eta", "omega_tau_abs", "eta_sp_ratio"):
            with pytest.raises(ValueError, match=f"{key} must .* finite"):
                SimParams(**{"eta": 1.0, key: bad})
