"""Packed-bit (uint64 word) representations of sparse bit sets.

The batched classification kernels (:mod:`repro.kernels`) and the ECC
codes' batch APIs represent a set of bit offsets as a row of ``uint64``
words — offset ``o`` lives in
word ``o >> 6``, bit ``o & 63``.  Membership tests, intersections and
parities then become word-wide AND/XOR plus popcounts, which numpy
evaluates across whole matrices at once.

All helpers operate on either a single row (shape ``(words,)``) or a
matrix of rows (shape ``(n, words)``).
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "n_words",
    "pack_positions",
    "pack_positions_matrix",
    "pack_bit_matrix",
    "unpack_positions",
    "popcount64",
    "mask_from_bool",
]

_LITTLE_ENDIAN = sys.byteorder == "little"

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_SIXTY_THREE = np.uint64(63)


def n_words(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` bit offsets."""
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return (n_bits + 63) >> 6


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _BYTE_POPCOUNT = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1, dtype=np.uint8)

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (byte-LUT fallback)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        counts = _BYTE_POPCOUNT[as_bytes].reshape(*words.shape, 8)
        return counts.sum(axis=-1, dtype=np.uint64)


def pack_positions(positions, n_bits: int) -> np.ndarray:
    """Pack an iterable of bit offsets into one uint64 row.

    Offsets appearing multiple times are idempotent (set semantics).
    """
    row = np.zeros(n_words(n_bits), dtype=np.uint64)
    positions = np.asarray(positions, dtype=np.int64).ravel()
    if positions.size == 0:
        return row
    if positions.min() < 0 or positions.max() >= n_bits:
        raise IndexError(f"positions outside [0, {n_bits})")
    unsigned = positions.astype(np.uint64)
    np.bitwise_or.at(row, unsigned >> _SIX, _ONE << (unsigned & _SIXTY_THREE))
    return row


def pack_positions_matrix(
    offsets: np.ndarray, valid: np.ndarray, n_bits: int
) -> np.ndarray:
    """Pack per-row offset lists into a ``(n, words)`` uint64 matrix.

    ``offsets`` has shape ``(n, k_max)``; ``valid`` is a same-shape
    boolean mask selecting which entries are real (rows may hold fewer
    than ``k_max`` offsets).  Invalid entries are ignored; their values
    need not be in range.
    """
    offsets = np.asarray(offsets)
    valid = np.asarray(valid, dtype=bool)
    if offsets.shape != valid.shape or offsets.ndim != 2:
        raise ValueError("offsets and valid must share a (n, k) shape")
    n, k_max = offsets.shape
    packed = np.zeros((n, n_words(n_bits)), dtype=np.uint64)
    rows_base = np.arange(n)
    # One vectorized scatter per offset column: within a column each
    # row contributes at most one bit, so the |= has no write races.
    for j in range(k_max):
        rows = rows_base[valid[:, j]]
        if rows.size == 0:
            continue
        column = offsets[rows, j].astype(np.uint64)
        packed[rows, column >> _SIX] |= _ONE << (column & _SIXTY_THREE)
    return packed


def pack_bit_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n, n_bits)`` 0/1 matrix into ``(n, words)`` uint64 rows."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("expected a (n, n_bits) matrix")
    n, m = bits.shape
    words = n_words(m)
    if _LITTLE_ENDIAN:
        as_bytes = np.packbits(bits, axis=1, bitorder="little")
        padded = np.zeros((n, words * 8), dtype=np.uint8)
        padded[:, : as_bytes.shape[1]] = as_bytes
        return padded.view(np.uint64)
    packed = np.zeros((n, words), dtype=np.uint64)  # pragma: no cover
    for offset in range(m):  # pragma: no cover
        column = bits[:, offset].astype(np.uint64)
        packed[:, offset >> 6] |= column << np.uint64(offset & 63)
    return packed  # pragma: no cover


def unpack_positions(row: np.ndarray) -> np.ndarray:
    """Bit offsets set in a packed row, in increasing order."""
    row = np.ascontiguousarray(row, dtype=np.uint64)
    if _LITTLE_ENDIAN:
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        return np.nonzero(bits)[0]
    positions = []  # pragma: no cover
    for word_index, word in enumerate(row):  # pragma: no cover
        word = int(word)
        while word:
            low = word & -word
            positions.append((word_index << 6) + low.bit_length() - 1)
            word ^= low
    return np.asarray(positions, dtype=np.intp)  # pragma: no cover


def mask_from_bool(member: np.ndarray) -> np.ndarray:
    """Pack a boolean membership vector of length ``n_bits`` into a row."""
    member = np.asarray(member, dtype=bool)
    return pack_positions(np.nonzero(member)[0], len(member))
