from __future__ import annotations

import errno
import hashlib
import mmap
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bosecool import (CacheCorruptError, CacheMismatchError, EmissionMatrix,
                      MatrixProvider, PulseSpec, SimParams,
                      build_spontaneous_rates, cache_filename, cache_load,
                      cache_store, emission_quadrature, enumerate_levels)
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
    assert isinstance(back, RateMatrix)
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
    anon = RateMatrix(shape=(2, 2),
                      to_ids=np.array([0], dtype=np.uint32),
                      from_ids=np.array([1], dtype=np.uint32),
                      rates=np.array([0.5]))
    with pytest.raises(ValueError):
        cache_store(anon, tmp_path / "m.rates")
    with pytest.raises(ValueError):
        cache_store(EmissionMatrix(np.eye(2, order="F")), tmp_path / "m.rates")


def test_cache_filename_stable():
    name = cache_filename("abs|basis(dim=1,max_shell=5)|s=-1")
    assert name == cache_filename("abs|basis(dim=1,max_shell=5)|s=-1")
    assert name.endswith(".rates")
    assert name != cache_filename("abs|basis(dim=1,max_shell=6)|s=-1")


def file_bytes(matrix, version=3):
    """A file of format ``version`` (3, or the retired 2, which has no
    padding) as a writer that concatenates the whole body before hashing
    it lays it out."""
    fp_bytes = matrix.fingerprint.encode("utf-8")
    if isinstance(matrix, EmissionMatrix):
        kind, (rows, cols) = 1, matrix.dense.shape
        n = rows * cols
        body = matrix.dense.astype("<f8").tobytes(order="F")
    else:
        kind, (rows, cols), n = 0, matrix.shape, matrix.nnz
        entries = np.empty(n, dtype=[("to", "<u4"), ("from", "<u4"),
                                     ("rate", "<f8")])
        entries["to"] = matrix.to_ids
        entries["from"] = matrix.from_ids
        entries["rate"] = matrix.rates
        body = entries.tobytes()
    header = b"BCRATES1" + struct.pack("<IBxxxIIQI", version, kind, rows,
                                       cols, n, len(fp_bytes)) + fp_bytes
    if version == 3:
        header += bytes(-len(header) % 64)
    data = header + body
    return data + hashlib.sha256(data).digest()


def body_offset(matrix) -> int:
    """Where the body of ``matrix``'s version-3 file starts: the header and
    fingerprint rounded up to a multiple of 64 bytes."""
    unpadded = 36 + len(matrix.fingerprint.encode("utf-8"))
    return unpadded + -unpadded % 64


EMISSION_PARAMS = SimParams(eta=2.0, omega0_tau_abs=0.4)


def emission_matrix():
    """A 3D emission matrix: 455 levels, 207k level pairs."""
    basis = enumerate_levels(3, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_spontaneous_rates(basis, EMISSION_PARAMS,
                                       emission_quadrature(3))


@pytest.fixture(scope="module")
def emission():
    return emission_matrix()


@pytest.mark.parametrize("make", [emission_matrix, small_matrix])
def test_v3_layout(tmp_path, make):
    mat = make()
    path = tmp_path / "m.rates"
    cache_store(mat, path)
    raw = path.read_bytes()
    assert raw == file_bytes(mat)
    offset = body_offset(mat)
    unpadded = 36 + len(mat.fingerprint.encode("utf-8"))
    assert offset % 64 == 0
    assert raw[unpadded:offset] == bytes(offset - unpadded)

    ref = tmp_path / "ref.rates"
    ref.write_bytes(file_bytes(mat))
    back = cache_load(ref, expected_fingerprint=mat.fingerprint)
    assert type(back) is type(mat)
    assert back.fingerprint == mat.fingerprint
    if isinstance(mat, EmissionMatrix):
        assert back.dense.tobytes(order="F") == mat.dense.tobytes(order="F")
        return
    assert back.shape == mat.shape
    for name in ("to_ids", "from_ids", "rates"):
        got, want = getattr(back, name), getattr(mat, name)
        assert got.dtype == want.dtype
        assert got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_emission_round_trip_bit_exact(tmp_path, emission):
    assert emission.dense.flags.f_contiguous
    path = tmp_path / cache_filename(emission.fingerprint)
    cache_store(emission, path)
    assert path.stat().st_size == body_offset(emission) + \
        8 * emission.dense.size + 32
    back = cache_load(path, expected_fingerprint=emission.fingerprint)
    assert isinstance(back, EmissionMatrix)
    assert back.dense.dtype == np.float64
    assert back.dense.flags.f_contiguous and not back.dense.flags.writeable
    assert back.dense.shape == emission.dense.shape
    assert back.dense.tobytes(order="F") == emission.dense.tobytes(order="F")
    assert back.nnz == emission.nnz


def emission_file(tmp_path, emission):
    path = tmp_path / "m.rates"
    cache_store(emission, path)
    return path, bytearray(path.read_bytes())


def test_emission_truncated_body(tmp_path, emission):
    path, raw = emission_file(tmp_path, emission)
    path.write_bytes(bytes(raw[:len(raw) // 2]))
    with pytest.raises(CacheCorruptError, match="payload length"):
        cache_load(path, expected_fingerprint=emission.fingerprint)


def test_emission_flipped_body_byte(tmp_path, emission):
    path, raw = emission_file(tmp_path, emission)
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruptError, match="checksum"):
        cache_load(path, expected_fingerprint=emission.fingerprint)


def test_emission_wrong_fingerprint(tmp_path, emission):
    path, _ = emission_file(tmp_path, emission)
    with pytest.raises(CacheMismatchError, match="different physics"):
        cache_load(path, expected_fingerprint=emission.fingerprint + "|x")


@pytest.mark.parametrize("field,delta", [("cols", -1), ("n", 1), ("tail", 8)])
def test_emission_wrong_payload_length(tmp_path, emission, field, delta):
    # a header that disagrees with the body, checksummed as if it were valid
    path, raw = emission_file(tmp_path, emission)
    data = raw[:-32]
    if field == "tail":
        data += bytes(delta)
    else:
        offset, fmt = {"cols": (20, "<I"), "n": (24, "<Q")}[field]
        (value,) = struct.unpack_from(fmt, data, offset)
        struct.pack_into(fmt, data, offset, value + delta)
    path.write_bytes(bytes(data) + hashlib.sha256(data).digest())
    with pytest.raises(CacheCorruptError, match="payload length"):
        cache_load(path)


def test_v2_emission_file_is_ignored(tmp_path, emission):
    basis = enumerate_levels(3, 12)
    quad = emission_quadrature(3)
    old = tmp_path / (hashlib.sha256(f"v2|{emission.fingerprint}"
                                     .encode("utf-8")).hexdigest()[:32]
                      + ".rates")
    old.write_bytes(file_bytes(emission, version=2))
    before = old.read_bytes(), old.stat().st_mtime_ns
    with pytest.raises(CacheMismatchError, match="format version 2"):
        cache_load(old)

    provider = MatrixProvider(basis, EMISSION_PARAMS, cache_dir=str(tmp_path),
                              quadrature=quad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        dense = provider.spontaneous_dense()
    assert provider.counters["sp_builds"] == 1
    assert provider.counters["disk_loads"] == 0
    assert dense.tobytes(order="F") == emission.dense.tobytes(order="F")
    assert (old.read_bytes(), old.stat().st_mtime_ns) == before
    new = tmp_path / cache_filename(emission.fingerprint)
    assert new != old and new.exists()


def test_emission_flipped_padding_byte(tmp_path, emission):
    path, raw = emission_file(tmp_path, emission)
    offset = body_offset(emission)
    assert offset > 36 + len(emission.fingerprint.encode())  # padded
    raw[offset - 1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruptError, match="checksum"):
        cache_load(path, expected_fingerprint=emission.fingerprint)


def test_emission_truncated_inside_body_or_digest(tmp_path, emission):
    path, raw = emission_file(tmp_path, emission)
    for cut in (body_offset(emission) + 8, len(raw) - 40, len(raw) - 1):
        path.write_bytes(bytes(raw[:cut]))
        with pytest.raises(CacheCorruptError, match="payload length"):
            cache_load(path, expected_fingerprint=emission.fingerprint)


def test_loaded_emission_is_a_read_only_view_of_the_file(tmp_path, emission):
    path, _ = emission_file(tmp_path, emission)
    nbytes = 8 * emission.dense.size
    tracemalloc.start()
    try:
        back = cache_load(path, expected_fingerprint=emission.fingerprint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = back.dense
    assert dense.flags.f_contiguous and dense.flags.aligned
    assert not dense.flags.writeable and not dense.flags.owndata
    # what the load allocates is the read buffer and a few small
    # objects, not a copy of the body
    assert peak < 0.05 * nbytes
    owner = dense
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, memoryview) and isinstance(owner.obj, mmap.mmap)
    with pytest.raises(ValueError, match="read-only"):
        dense[0, 0] = 1.0
    # the view's bytes are the file's body, where the file puts them
    mapped = np.frombuffer(path.read_bytes(), dtype="<f8", count=dense.size,
                           offset=body_offset(emission))
    assert dense.T.tobytes() == mapped.tobytes()
    assert dense.tobytes(order="F") == emission.dense.tobytes(order="F")


def test_mapping_failure_is_corruption(tmp_path, emission, monkeypatch):
    path, _ = emission_file(tmp_path, emission)

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    with pytest.raises(CacheCorruptError, match="Cannot allocate memory"):
        cache_load(path, expected_fingerprint=emission.fingerprint)
