"""File formats for instances and results.

Dense real matrices travel either as CSV or as a compact binary:
little-endian float64 entries in row-major order behind a 12-byte header
(magic ``VMIN``, u32 rows, u32 cols). Complex arrays in JSON are nested
``[re, im]`` pairs.
"""

import os
import struct

import numpy as np

from .errors import InvalidInputError

VMIN_MAGIC = b"VMIN"


def write_vmin(path, A):
    A = np.ascontiguousarray(np.asarray(A, dtype="<f8"))
    if A.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={A.ndim}")
    with open(path, "wb") as fh:
        fh.write(VMIN_MAGIC)
        fh.write(struct.pack("<II", A.shape[0], A.shape[1]))
        fh.write(A.tobytes(order="C"))


def read_vmin(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != VMIN_MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}, expected {VMIN_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise InvalidInputError(f"{path}: truncated header ({4 + len(header)} of 12 bytes)")
        n, l = struct.unpack("<II", header)
        size = os.fstat(fh.fileno()).st_size - 12
        if size != 8 * n * l:
            raise InvalidInputError(f"{path}: a {n} x {l} header needs {8 * n * l} payload "
                                    f"bytes, the file holds {size}")
        return np.frombuffer(fh.read(size), dtype="<f8").reshape(n, l).copy()


def write_matrix_csv(path, A):
    np.savetxt(path, np.asarray(A, dtype=float), delimiter=",")


def read_matrix_csv(path):
    try:
        A = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise InvalidInputError(f"{path}: not a numeric CSV matrix: {exc}") from exc
    return np.asarray(A, dtype=float)


def read_dense_matrix(path):
    """Dispatch on content: VMIN binary if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == VMIN_MAGIC:
        return read_vmin(path)
    return read_matrix_csv(path)


def complex_to_pairs(arr):
    """Nested-list representation of a complex array with [re, im] leaves."""
    arr = np.asarray(arr)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data):
    """Inverse of :func:`complex_to_pairs`, bit for bit (signed zeros included).

    Raises :class:`InvalidInputError` (a ``ValueError``) unless ``data`` is
    nested ``[re, im]`` pairs: at least two axes, the last of length 2.
    """
    stacked = np.asarray(data, dtype=float)
    if stacked.ndim < 2 or stacked.shape[-1] != 2:
        raise InvalidInputError(
            f"expected nested [re, im] pairs, got an array of shape {stacked.shape}")
    return np.ascontiguousarray(stacked).view(complex)[..., 0]
