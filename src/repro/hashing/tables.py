"""Precomputed CRC look-up tables for the parallel scheme (Section III-D).

A message of ``k`` bytes ``B1..Bk`` satisfies

    CRC(B1..Bk) = XOR_i CRC(Bi || 0^(8*(k-i)))

so each byte position needs one 256-entry LUT mapping a byte value to the
CRC of that byte followed by a fixed number of zero bytes.  Each LUT entry
is a 32-bit CRC, so each LUT costs 1 KB of storage — eight of them for the
paper's 8-byte subblock Sign subunit, four more for the Shift subunit.

The same identity signs many equal-length messages at once:
:func:`crc32_rows` looks every byte of every row up in one
``(length, 256)`` table of those LUTs and XORs each row's lookups.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import HashingError
from .crc32 import _BYTE_TABLE, crc32_table


@functools.lru_cache(maxsize=None)
def lut_for_shift(shift_bytes: int) -> tuple:
    """The 256-entry LUT for a byte followed by ``shift_bytes`` zeros.

    ``lut_for_shift(s)[b] == crc32_table(bytes([b]) + b"\\x00" * s)``.
    Cached: the hardware holds these in ROM, so building them once per
    process mirrors the hardware cost model (storage, not recomputation).
    """
    if shift_bytes < 0:
        raise HashingError("shift_bytes must be non-negative")
    zeros = b"\x00" * shift_bytes
    return tuple(crc32_table(bytes([b]) + zeros) for b in range(256))


@functools.lru_cache(maxsize=64)
def message_table(length: int) -> np.ndarray:
    """The ``(length, 256)`` uint32 table whose row ``k`` is the LUT of
    byte position ``k`` in a ``length``-byte message, i.e.
    ``lut_for_shift(length - 1 - k)``.

    Under the plain convention a lone byte is its own CRC, so the last
    row is ``arange(256)``; each earlier row is the next one shifted by
    one zero byte.  Built once per length, on first use.
    """
    if length < 0:
        raise HashingError("message length must be non-negative")
    byte_table = np.asarray(_BYTE_TABLE, dtype=np.uint32)
    table = np.empty((length, 256), dtype=np.uint32)
    row = np.arange(256, dtype=np.uint32)
    for k in range(length - 1, -1, -1):
        table[k] = row
        row = (row << np.uint32(8)) ^ byte_table[row >> np.uint32(24)]
    table.flags.writeable = False
    return table


def crc32_rows(rows: np.ndarray, length: int) -> np.ndarray:
    """Plain-convention CRC32 of every row of the ``(n, m)`` uint8 array
    ``rows``, each zero-padded to ``length >= m`` bytes.

    The CRC is linear over messages of equal length, so a row's CRC is
    the XOR of its bytes' position LUTs; the padding's zero bytes add
    nothing.  Equals ``crc32_table`` of each padded row.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    m = rows.shape[1]
    if m > length:
        raise HashingError(f"rows of {m} bytes do not fit {length} bytes")
    flat = message_table(length)[:m].reshape(-1)
    lookups = flat[rows + np.arange(0, 256 * m, 256, dtype=np.intp)]
    return np.bitwise_xor.reduce(lookups, axis=1)


LUT_BYTES = 256 * 4  # 1 KB per table, as the paper states


def lut_storage_bytes(block_bytes: int) -> int:
    """Total LUT ROM for a Sign subunit over ``block_bytes``-byte blocks
    plus its companion Shift subunit (4 LUTs for the 32-bit CRC)."""
    return (block_bytes + 4) * LUT_BYTES
