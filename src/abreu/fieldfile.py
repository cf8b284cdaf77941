"""Bit-exact binary format for scalar fields.

Layout (all little-endian):

    bytes 0..4    magic "PABR1"
    bytes 5..8    dim, unsigned 32-bit
    next 8*dim    per-axis node counts, unsigned 64-bit
    payload       prod(N_k) IEEE-754 doubles, row-major, last axis fastest

Reads and writes round-trip byte-identically; writes go through a
temporary file in the target directory and an atomic rename.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError
from .grid import ScalarField, make_grid

__all__ = ["MAGIC", "read_field", "write_field"]

MAGIC = b"PABR1"


def atomic_write(path, write, binary: bool = True) -> None:
    """Write `path` through `write(handle)` on a temporary file renamed over
    it; on any failure the file is removed and `path` left as it was.  The
    rename keeps the temporary's mode: 0o666 less the umask, as for any new file."""
    folder = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(folder, f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        mode, encoding = ("wb", None) if binary else ("w", "utf-8")
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_field(path, field: ScalarField) -> None:
    """Serialize a field; atomic (temp file + rename), lossless."""
    grid = field.grid
    header = MAGIC + struct.pack("<I", grid.dim)
    header += struct.pack(f"<{grid.dim}Q", *grid.resolution)
    payload = field.values.astype("<f8", copy=False).tobytes(order="C")
    atomic_write(path, lambda handle: handle.writelines((header, payload)))


def read_field(path) -> ScalarField:
    """Deserialize a field, validating magic, header and payload length."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(MAGIC):
        raise FormatError(
            f"{path}: file of {len(data)} bytes is shorter than the "
            f"{len(MAGIC)}-byte magic"
        )
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise FormatError(
            f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}"
        )
    offset = len(MAGIC)
    if len(data) < offset + 4:
        raise FormatError(
            f"{path}: header truncated at offset {len(data)}, "
            f"missing {offset + 4 - len(data)} bytes of the dimension field"
        )
    (dim,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if dim < 1:
        raise FormatError(f"{path}: dimension field is {dim}, must be >= 1")
    if len(data) < offset + 8 * dim:
        raise FormatError(
            f"{path}: header truncated at offset {len(data)}, missing "
            f"{offset + 8 * dim - len(data)} bytes of the resolution table"
        )
    resolution = struct.unpack_from(f"<{dim}Q", data, offset)
    offset += 8 * dim
    try:
        grid = make_grid(dim, resolution)
    except (ValueError, OverflowError) as err:
        raise FormatError(f"{path}: invalid resolution {resolution}: {err}") from None
    expected = 8 * grid.node_count
    actual = len(data) - offset
    if actual < expected:
        raise FormatError(
            f"{path}: payload truncated, missing {expected - actual} bytes "
            f"(expected {expected}, found {actual})"
        )
    if actual > expected:
        raise FormatError(
            f"{path}: {actual - expected} trailing bytes after the payload"
        )
    values = np.frombuffer(data, dtype="<f8", count=grid.node_count, offset=offset)
    try:
        return ScalarField(grid, values.reshape(grid.shape))
    except ValueError as err:
        raise FormatError(f"{path}: invalid payload: {err}") from None
