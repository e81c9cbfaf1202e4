"""On-disk cache for rate matrices.

Byte layout (all little-endian), version 1:

    offset  size  field
    0       8     magic  b"BCRATES1"
    8       4     u32 format version (1)
    12      1     u8 kind (0 absorption, 1 spontaneous)
    13      3     zero padding
    16      4     u32 rows
    20      4     u32 cols
    24      8     u64 entry count n
    32      4     u32 fingerprint byte length f
    36      f     UTF-8 physics fingerprint string
    36+f    16*n  entries: (u32 to_id, u32 from_id, f64 rate), packed
    end-32  32    SHA-256 over all preceding bytes

The fingerprint string encodes every physics input of the build (basis,
Lamb-Dicke parameters, pulse fields or quadrature layout), so a load
against different physics fails loudly instead of silently reusing stale
rates. Round trips are bit-exact: rates are stored as raw IEEE doubles.

A store streams the header, the fingerprint and the entries (packed a
chunk at a time) to the file and to the checksum; a load reads the file
once and parses it through ``memoryview`` slices. Neither holds a second
copy of the body, and the bytes on disk are those of every earlier
version-1 writer.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile

import numpy as np

from .rates import RateMatrix

MAGIC = b"BCRATES1"
VERSION = 1
_KIND_CODE = {"absorption": 0, "spontaneous": 1}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_ENTRY_DTYPE = np.dtype([("to", "<u4"), ("from", "<u4"), ("rate", "<f8")])


class CacheError(RuntimeError):
    pass


class CacheCorruptError(CacheError):
    """File is unreadable, truncated, or fails its checksum."""


class CacheMismatchError(CacheError):
    """File is valid but was built for different physics."""


_CHUNK = 1 << 16  # entries packed per write while streaming a store


def cache_store(matrix: RateMatrix, path: str | os.PathLike) -> None:
    """Write ``matrix`` atomically (temp file + rename in the target dir).

    The header, the fingerprint and the entries stream to the file and
    to one SHA-256, the entries packed a chunk at a time, so no copy of
    the whole body is ever held.
    """
    if not matrix.fingerprint:
        raise ValueError("refusing to cache a matrix without a fingerprint")
    fp_bytes = matrix.fingerprint.encode("utf-8")
    head = MAGIC + struct.pack(
        "<IBxxxIIQI", VERSION, _KIND_CODE[matrix.kind],
        matrix.shape[0], matrix.shape[1], matrix.nnz, len(fp_bytes)) + fp_bytes

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            sha = hashlib.sha256(head)
            entries = np.empty(min(matrix.nnz, _CHUNK), dtype=_ENTRY_DTYPE)
            for lo in range(0, matrix.nnz, _CHUNK):
                chunk = entries[:min(_CHUNK, matrix.nnz - lo)]
                chunk["to"] = matrix.to_ids[lo:lo + _CHUNK]
                chunk["from"] = matrix.from_ids[lo:lo + _CHUNK]
                chunk["rate"] = matrix.rates[lo:lo + _CHUNK]
                fh.write(chunk)
                sha.update(chunk)
            fh.write(sha.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_load(path: str | os.PathLike,
               expected_fingerprint: str | None = None) -> RateMatrix:
    """Read a cached matrix, verifying checksum and (optionally) physics.

    The file is read once; the checksum and the parse work on
    ``memoryview`` slices of that buffer, and only the three entry
    columns are copied out of it.
    """
    try:
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())
    except OSError as exc:
        raise CacheCorruptError(f"cannot read cache file {path}: {exc}") from exc

    if len(raw) < len(MAGIC) + 24 + 4 + 32 or raw[:len(MAGIC)] != MAGIC:
        raise CacheCorruptError(f"{path} is not a rate cache file")
    end = len(raw) - 32
    if hashlib.sha256(raw[:end]).digest() != raw[end:]:
        raise CacheCorruptError(f"{path} failed its checksum")

    version, kind_code, rows, cols, n, fp_len = struct.unpack_from(
        "<IBxxxIIQI", raw, len(MAGIC))
    if version != VERSION:
        raise CacheMismatchError(f"{path} has format version {version}, "
                                 f"this build reads {VERSION}")
    if kind_code not in _KIND_NAME:
        raise CacheCorruptError(f"{path} has unknown matrix kind {kind_code}")
    off = len(MAGIC) + struct.calcsize("<IBxxxIIQI")
    fingerprint = str(raw[off:off + fp_len], "utf-8")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise CacheMismatchError(
            f"{path} was built for different physics:\n"
            f"  cached:   {fingerprint}\n  expected: {expected_fingerprint}")
    off += fp_len
    if end - off != 16 * n:
        raise CacheCorruptError(f"{path} payload length mismatch")
    entries = np.frombuffer(raw, dtype=_ENTRY_DTYPE, count=n, offset=off)
    columns = [entries[name].copy() for name in ("to", "from", "rate")]
    del entries, raw  # free the file's bytes before the record is checked
    return RateMatrix(_KIND_NAME[kind_code], (rows, cols), *columns,
                      fingerprint)


def cache_filename(fingerprint: str) -> str:
    """Stable file name for a fingerprint (hash keeps paths short)."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:32] + ".rates"
