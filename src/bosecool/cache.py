"""On-disk cache for rate matrices.

Byte layout (all little-endian), version 3:

    offset  size  field
    0       8     magic  b"BCRATES1"
    8       4     u32 format version (3)
    12      1     u8 kind (0 absorption, 1 spontaneous)
    13      3     zero padding
    16      4     u32 rows
    20      4     u32 cols
    24      8     u64 value count n
    32      4     u32 fingerprint byte length f
    36      f     UTF-8 physics fingerprint string
    36+f    p     zero padding, so the body starts at b = 36+f+p, the
                  next multiple of 64
    b       body  kind 0: n entries (u32 to_id, u32 from_id, f64 rate),
                  packed, 16*n bytes
                  kind 1: the n = rows*cols f64 rates of the dense matrix
                  in column-major (F) order, 8*n bytes
    end-32  32    SHA-256 over all preceding bytes, padding included

The fingerprint string encodes every physics input of the build (basis,
Lamb-Dicke parameters, pulse fields or quadrature layout), so a load
against different physics fails loudly instead of silently reusing stale
rates. Round trips are bit-exact: rates are stored as raw IEEE doubles.
A fingerprint names physics inputs, not code: a code change that moves
any bit of a stored matrix must bump ``VERSION``, or old files load
silently and disagree with fresh builds.

A store writes the emission body from the matrix's own buffer. A load
hashes the body through one small read buffer and then maps the same
open file read-only, so the matrix it returns is a view of the page
cache: no process holds an anonymous copy, forked workers share the
mapping, and concurrent runs on one cache share one copy. Files are
replaced only by rename (``atomic_write``), so a mapped file never
changes under a reader; truncating one in place would kill the reader
with SIGBUS. The version is part of every file name (``cache_filename``),
so files of another version are never opened.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import tempfile

import numpy as np

from .rates import EmissionMatrix, RateMatrix

MAGIC = b"BCRATES1"
VERSION = 3
_HEAD = struct.Struct("<IBxxxIIQI")
_ENTRY_DTYPE = np.dtype([("to", "<u4"), ("from", "<u4"), ("rate", "<f8")])
_ALIGN = 64  # body offset; also a cache line, so a mapped column starts on one
_READ_BUFFER = 1 << 16  # the load's hashing buffer, a fixed 64 KiB


class CacheError(RuntimeError):
    pass


class CacheCorruptError(CacheError):
    """File is unreadable, truncated, or fails its checksum."""


class CacheMismatchError(CacheError):
    """File is valid but was built for different physics."""


def _header(kind: int, rows: int, cols: int, n: int, fingerprint: bytes) -> bytes:
    """Magic, fixed fields, fingerprint and the zero padding up to the body."""
    head = MAGIC + _HEAD.pack(VERSION, kind, rows, cols, n,
                              len(fingerprint)) + fingerprint
    return head + bytes(-len(head) % _ALIGN)


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
    head = _header(kind, rows, cols, n, matrix.fingerprint.encode("utf-8"))
    sha = hashlib.sha256(head)
    sha.update(body)

    atomic_write(path, (head, body, sha.digest()))


def atomic_write(path: str | os.PathLike, parts) -> None:
    """Write the byte ``parts`` to ``path`` through a hidden ``.tmp-``
    file in its directory, created if missing, and a rename, so the path
    holds either its old bytes or all of the new ones. The file gets the
    mode ``open()`` would give a new file (0o666 less the umask), not
    the owner-only mode of the temporary file."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
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
    the body is read. An absorption record's body is read into an array
    and hashed there. An emission body is hashed through one fixed read
    buffer, never through the mapping, and the checksum is compared
    before the matrix is returned as a read-only column-major view of a
    read-only map of the same open file.
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
            offset = len(head) + fp_len
            offset += -offset % _ALIGN
            nbytes = (8 if kind else _ENTRY_DTYPE.itemsize) * n
            if (kind and n != rows * cols) or size != offset + nbytes + 32:
                raise CacheCorruptError(f"{path} payload length mismatch")
            sha = hashlib.sha256(head + fp_bytes)
            sha.update(fh.read(offset - len(head) - fp_len))
            if kind:
                _hash_body(fh, nbytes, sha, path)
            else:
                body = np.empty(n, dtype=_ENTRY_DTYPE)
                if fh.readinto(memoryview(body).cast("B")) != nbytes:
                    raise CacheCorruptError(f"{path} payload length mismatch")
                sha.update(body)
            if fh.read() != sha.digest():
                raise CacheCorruptError(f"{path} failed its checksum")
            if kind:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                # the C-ordered (cols, rows) bytes are the F-ordered matrix
                body = np.frombuffer(mapped, dtype="<f8", count=n,
                                     offset=offset).reshape(cols, rows).T
    except OSError as exc:
        raise CacheCorruptError(f"cannot read cache file {path}: {exc}") from exc
    if kind:
        return EmissionMatrix(body, fingerprint)
    return RateMatrix((rows, cols), body["to"].copy(), body["from"].copy(),
                      body["rate"].copy(), fingerprint)


def _hash_body(fh, nbytes: int, sha, path) -> None:
    """Feed the next ``nbytes`` of ``fh`` to ``sha`` through one fixed
    buffer, so hashing a body holds no copy of it."""
    buf = memoryview(bytearray(min(nbytes, _READ_BUFFER)))
    while nbytes:
        got = fh.readinto(buf[:min(nbytes, len(buf))])
        if not got:
            raise CacheCorruptError(f"{path} payload length mismatch")
        sha.update(buf[:got])
        nbytes -= got


def cache_filename(fingerprint: str) -> str:
    """Stable file name for a fingerprint and this format version (hash
    keeps paths short)."""
    key = f"v{VERSION}|{fingerprint}".encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:32] + ".rates"
