from __future__ import annotations

import hashlib
import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bosecool import (CacheCorruptError, CacheMismatchError, MatrixProvider,
                      PulseSpec, SimParams, build_spontaneous_rates,
                      cache_filename, cache_load, cache_store,
                      emission_quadrature, enumerate_levels)
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


def v1_file_bytes(matrix):
    """A version-1 file as a writer that concatenates the whole body
    before hashing it lays it out."""
    fp_bytes = matrix.fingerprint.encode("utf-8")
    header = b"BCRATES1" + struct.pack(
        "<IBxxxIIQI", 1, {"absorption": 0, "spontaneous": 1}[matrix.kind],
        matrix.shape[0], matrix.shape[1], matrix.nnz, len(fp_bytes))
    entries = np.empty(matrix.nnz, dtype=[("to", "<u4"), ("from", "<u4"),
                                          ("rate", "<f8")])
    entries["to"] = matrix.to_ids
    entries["from"] = matrix.from_ids
    entries["rate"] = matrix.rates
    body = header + fp_bytes + entries.tobytes()
    return body + hashlib.sha256(body).digest()


def emission_record():
    """A 3D emission record: 455 levels, 207k entries, several store chunks."""
    basis = enumerate_levels(3, 12)
    params = SimParams(eta=2.0, omega0_tau_abs=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_spontaneous_rates(basis, params, emission_quadrature(3))


@pytest.mark.parametrize("make", [emission_record, small_matrix])
def test_v1_layout_unchanged(tmp_path, make):
    mat = make()
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    assert path.read_bytes() == v1_file_bytes(mat)

    ref = tmp_path / "ref.rates"
    ref.write_bytes(v1_file_bytes(mat))
    back = cache_load(ref, expected_fingerprint=mat.fingerprint)
    assert (back.kind, back.shape, back.fingerprint) == \
        (mat.kind, mat.shape, mat.fingerprint)
    for name in ("to_ids", "from_ids", "rates"):
        got, want = getattr(back, name), getattr(mat, name)
        assert got.dtype == want.dtype
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == want.tobytes()
