from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bosecool import (CacheCorruptError, CacheMismatchError, MatrixProvider,
                      PulseSpec, SimParams, cache_filename, cache_load,
                      cache_store, enumerate_levels)
from bosecool.rates import RateMatrix, absorption_fingerprint


def small_matrix(eta=1.1):
    """A pulse's absorption record, fingerprinted as the provider stores it."""
    basis = enumerate_levels(1, 5)
    params = SimParams(eta=eta, omega0_tau_abs=0.3)
    pulse = PulseSpec(s=-1, amps=(1.0,)).resolved(params)
    mat = MatrixProvider(basis, params).absorption(pulse).matrix
    mat.fingerprint = absorption_fingerprint(
        basis, pulse.s, eta, pulse.amps, pulse.omega0_tau_abs,
        pulse.omega_tau_abs, params.resonance_window)
    return mat


def test_round_trip_bit_exact(tmp_path):
    mat = small_matrix()
    path = tmp_path / cache_filename(mat.fingerprint)
    cache_store(mat, path)
    back = cache_load(path, expected_fingerprint=mat.fingerprint)
    assert back.kind == mat.kind
    assert back.shape == mat.shape
    assert back.fingerprint == mat.fingerprint
    assert_array_equal(back.to_ids, mat.to_ids)
    assert_array_equal(back.from_ids, mat.from_ids)
    assert back.rates.dtype == np.float64
    assert_array_equal(back.rates, mat.rates)


def test_load_without_expectation(tmp_path):
    mat = small_matrix()
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    assert cache_load(path).fingerprint == mat.fingerprint


def test_fingerprint_mismatch(tmp_path):
    mat = small_matrix(eta=1.1)
    other = small_matrix(eta=1.2)
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    with pytest.raises(CacheMismatchError, match="different physics"):
        cache_load(path, expected_fingerprint=other.fingerprint)


def test_truncated_file(tmp_path):
    mat = small_matrix()
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CacheCorruptError):
        cache_load(path)


def test_flipped_byte_fails_checksum(tmp_path):
    mat = small_matrix()
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruptError, match="checksum"):
        cache_load(path)


def test_foreign_file_rejected(tmp_path):
    path = tmp_path / "m.rates"
    path.write_bytes(b"definitely not a rate table, padded out to some length")
    with pytest.raises(CacheCorruptError):
        cache_load(path)


def test_missing_file(tmp_path):
    with pytest.raises(CacheCorruptError):
        cache_load(tmp_path / "absent.rates")


def test_store_requires_fingerprint(tmp_path):
    anon = RateMatrix(kind="absorption", shape=(2, 2),
                      to_ids=np.array([0], dtype=np.uint32),
                      from_ids=np.array([1], dtype=np.uint32),
                      rates=np.array([0.5]))
    with pytest.raises(ValueError):
        cache_store(anon, tmp_path / "m.rates")


def test_cache_filename_stable():
    name = cache_filename("abs|basis(dim=1,max_shell=5)|s=-1")
    assert name == cache_filename("abs|basis(dim=1,max_shell=5)|s=-1")
    assert name.endswith(".rates")
    assert name != cache_filename("abs|basis(dim=1,max_shell=6)|s=-1")
