"""On-disk cache for rate matrices.

Byte layout (all little-endian), version 2:

    offset  size  field
    0       8     magic  b"BCRATES1"
    8       4     u32 format version (2)
    12      1     u8 kind (0 absorption, 1 spontaneous)
    13      3     zero padding
    16      4     u32 rows
    20      4     u32 cols
    24      8     u64 value count n
    32      4     u32 fingerprint byte length f
    36      f     UTF-8 physics fingerprint string
    36+f    body  kind 0: n entries (u32 to_id, u32 from_id, f64 rate),
                  packed, 16*n bytes
                  kind 1: the n = rows*cols f64 rates of the dense matrix
                  in column-major (F) order, 8*n bytes
    end-32  32    SHA-256 over all preceding bytes

The fingerprint string encodes every physics input of the build (basis,
Lamb-Dicke parameters, pulse fields or quadrature layout), so a load
against different physics fails loudly instead of silently reusing stale
rates. Round trips are bit-exact: rates are stored as raw IEEE doubles.
A fingerprint names physics inputs, not code: a code change that moves
any bit of a stored matrix must bump ``VERSION``, or old files load
silently and disagree with fresh builds.

A store writes the emission body from the matrix's own buffer and a load
reads it straight into the array it returns, so neither holds a second
copy. The version is part of every file name (``cache_filename``), so
files of another version are never opened.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile

import numpy as np

from .rates import EmissionMatrix, RateMatrix

MAGIC = b"BCRATES1"
VERSION = 2
_HEAD = struct.Struct("<IBxxxIIQI")
_ENTRY_DTYPE = np.dtype([("to", "<u4"), ("from", "<u4"), ("rate", "<f8")])


class CacheError(RuntimeError):
    pass


class CacheCorruptError(CacheError):
    """File is unreadable, truncated, or fails its checksum."""


class CacheMismatchError(CacheError):
    """File is valid but was built for different physics."""


def cache_store(matrix: RateMatrix | EmissionMatrix,
                path: str | os.PathLike) -> None:
    """Write ``matrix`` atomically (``atomic_write``).

    An emission matrix's body is written from its own buffer; an
    absorption record, a few thousand entries, is packed first.
    """
    if not matrix.fingerprint:
        raise ValueError("refusing to cache a matrix without a fingerprint")
    if isinstance(matrix, EmissionMatrix):
        # the transpose of an F-ordered array is its bytes in C order
        body = np.asfortranarray(matrix.dense, dtype="<f8").T
        kind, (cols, rows), n = 1, body.shape, body.size
    else:
        body = np.empty(matrix.nnz, dtype=_ENTRY_DTYPE)
        body["to"], body["from"], body["rate"] = (matrix.to_ids,
                                                  matrix.from_ids, matrix.rates)
        kind, (rows, cols), n = 0, matrix.shape, matrix.nnz
    fp_bytes = matrix.fingerprint.encode("utf-8")
    head = MAGIC + _HEAD.pack(VERSION, kind, rows, cols, n,
                              len(fp_bytes)) + fp_bytes
    sha = hashlib.sha256(head)
    sha.update(body)

    atomic_write(path, (head, body, sha.digest()))


def atomic_write(path: str | os.PathLike, parts) -> None:
    """Write the byte ``parts`` to ``path`` through a hidden ``.tmp-``
    file in its directory, created if missing, and a rename, so the path
    holds either its old bytes or all of the new ones."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_load(path: str | os.PathLike,
               expected_fingerprint: str | None = None
               ) -> RateMatrix | EmissionMatrix:
    """Read a cached matrix, verifying checksum and (optionally) physics.

    The header, the fingerprint and the payload length are checked before
    the body is read; the body is read straight into the array that is
    returned (column-major for an emission matrix) and hashed there.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(len(MAGIC) + _HEAD.size)
            if len(head) < len(MAGIC) + _HEAD.size or not head.startswith(MAGIC):
                raise CacheCorruptError(f"{path} is not a rate cache file")
            version, kind, rows, cols, n, fp_len = _HEAD.unpack_from(
                head, len(MAGIC))
            if version != VERSION:
                raise CacheMismatchError(f"{path} has format version "
                                         f"{version}, this build reads {VERSION}")
            if kind not in (0, 1):
                raise CacheCorruptError(f"{path} has unknown matrix kind {kind}")
            fp_bytes = fh.read(fp_len)
            # bytes that are not UTF-8 are a corrupt header: the checksum fails
            fingerprint = fp_bytes.decode("utf-8", "replace")
            if expected_fingerprint not in (None, fingerprint):
                raise CacheMismatchError(
                    f"{path} was built for different physics:\n"
                    f"  cached:   {fingerprint}\n  expected: {expected_fingerprint}")
            nbytes = (8 if kind else _ENTRY_DTYPE.itemsize) * n
            if (kind and n != rows * cols) \
                    or size != len(head) + fp_len + nbytes + 32:
                raise CacheCorruptError(f"{path} payload length mismatch")
            if kind:
                body = np.empty((rows, cols), order="F")
                buf = body.T  # C-ordered view of the same bytes
            else:
                body = buf = np.empty(n, dtype=_ENTRY_DTYPE)
            if fh.readinto(memoryview(buf).cast("B")) != nbytes:
                raise CacheCorruptError(f"{path} payload length mismatch")
            sha = hashlib.sha256(head + fp_bytes)
            sha.update(buf)
            if fh.read() != sha.digest():
                raise CacheCorruptError(f"{path} failed its checksum")
    except OSError as exc:
        raise CacheCorruptError(f"cannot read cache file {path}: {exc}") from exc
    if kind:
        return EmissionMatrix(body, fingerprint)
    return RateMatrix((rows, cols), body["to"].copy(), body["from"].copy(),
                      body["rate"].copy(), fingerprint)


def cache_filename(fingerprint: str) -> str:
    """Stable file name for a fingerprint and this format version (hash
    keeps paths short)."""
    key = f"v{VERSION}|{fingerprint}".encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:32] + ".rates"
