"""Incremental CRC combination (Algorithm 1 of the paper).

The key identity, valid for the plain-remainder CRC convention of
:mod:`repro.hashing.crc32`: for a message ``A`` with known CRC and a
following submessage ``B`` of ``b`` bits,

    CRC(A || B) = shift_crc(CRC(A), b) XOR CRC(B)

where ``shift_crc(c, b) = c(x) * x^b mod G(x)`` — equivalently the CRC of
the 32-bit value ``c`` followed by ``b`` zero bits, which is how the
hardware realizes it ("ComputeCRC(CRC_A << b)" in Algorithm 1).

Two implementations of the shift are provided:

* :func:`shift_crc` — O(log b) GF(2) polynomial exponentiation (the
  software fast path, equivalent to zlib's ``crc32_combine`` trick);
* byte-at-a-time shifting via the CRC byte table, which is what the
  hardware Shift subunit models in :mod:`repro.hashing.parallel`.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import HashingError
from .crc32 import _MASK32, POLY, crc32_table


def _gf2_mulmod(a: int, b: int) -> int:
    """(a(x) * b(x)) mod G(x) for 32-bit polynomials a, b."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        carry = a & 0x80000000
        a = (a << 1) & _MASK32
        if carry:
            a ^= POLY
    return result


def x_pow_mod(n: int) -> int:
    """x^n mod G(x), by square-and-multiply."""
    if n < 0:
        raise HashingError("shift amount must be non-negative")
    result = 1          # the polynomial 1
    base = 2            # the polynomial x
    while n:
        if n & 1:
            result = _gf2_mulmod(result, base)
        base = _gf2_mulmod(base, base)
        n >>= 1
    return result


def shift_crc(crc: int, nbits: int) -> int:
    """CRC of the message ``bits(crc) || 0^nbits``: crc(x)*x^nbits mod G."""
    return _gf2_mulmod(crc & _MASK32, x_pow_mod(nbits))


def combine(crc_a: int, crc_b: int, len_b_bits: int) -> int:
    """CRC of the concatenation A||B given CRC(A), CRC(B) and |B| in bits."""
    return shift_crc(crc_a, len_b_bits) ^ crc_b


@functools.lru_cache(maxsize=4096)
def _shift_columns(nbits: int) -> "np.ndarray":
    """The GF(2)-linear map 'multiply by x^nbits mod G' as 32 column
    vectors: column k is shift_crc(1 << k, nbits).  Shifting a CRC is
    then the XOR of the columns selected by its set bits, which
    vectorizes over arrays of CRCs."""
    xn = x_pow_mod(nbits)
    columns = [_gf2_mulmod(1 << k, xn) for k in range(32)]
    return np.asarray(columns, dtype=np.uint32)


@functools.lru_cache(maxsize=512)
def _shift_tables(nbits: int) -> "np.ndarray":
    """Byte-sliced lookup tables for 'multiply by x^nbits mod G': a
    (4, 256) uint32 array where ``tables[j][v]`` is the shift of the
    32-bit value ``v << (8*j)``.  Shifting a CRC is then four table
    lookups XORed together — the GF(2)-linear map is additive over any
    partition of the input bits, so this is bit-exact with the
    column-per-bit formulation of :func:`_shift_columns`."""
    columns = _shift_columns(nbits)
    tables = np.zeros((4, 256), dtype=np.uint32)
    values = np.arange(256, dtype=np.uint32)
    for byte_index in range(4):
        for bit in range(8):
            mask = (values >> np.uint32(bit)) & np.uint32(1) == 1
            tables[byte_index][mask] ^= columns[byte_index * 8 + bit]
    return tables


#: Offset of each byte lane's table in a flattened :func:`_shift_tables`.
_LANE_OFFSETS = np.arange(0, 4 * 256, 256)


def shift_many(crcs: "np.ndarray", nbits: int) -> "np.ndarray":
    """Vectorized :func:`shift_crc` of every CRC in ``crcs``: each CRC's
    four little-endian bytes index their lanes of the byte-sliced tables
    in one gather, and the lookups are XORed together."""
    crcs = np.asarray(crcs, dtype=np.uint32)
    lanes = np.ascontiguousarray(crcs, dtype="<u4").view(np.uint8)
    lookups = _shift_tables(nbits).reshape(-1)[
        lanes.reshape(crcs.shape + (4,)) + _LANE_OFFSETS
    ]
    return np.bitwise_xor.reduce(lookups, axis=-1)


def combine_many(crcs: "np.ndarray", crc_b: int, len_b_bits: int) -> "np.ndarray":
    """Vectorized :func:`combine`: fold submessage B (CRC ``crc_b``,
    ``len_b_bits`` bits) onto every CRC in ``crcs`` at once.

    Bit-exact with per-element :func:`combine`.
    """
    return shift_many(crcs, len_b_bits) ^ np.uint32(crc_b)


class IncrementalCrc:
    """Software model of Algorithm 1: a CRC built from submessages.

    >>> inc = IncrementalCrc()
    >>> inc.append(b"hello ")
    >>> inc.append(b"world")
    >>> inc.value == crc32_table(b"hello world")
    True
    """

    def __init__(self, value: int = 0) -> None:
        self._value = value & _MASK32

    @property
    def value(self) -> int:
        return self._value

    def append(self, data: bytes) -> None:
        """Fold the next submessage into the running CRC."""
        crc_sub = crc32_table(data)
        self._value = combine(self._value, crc_sub, len(data) * 8)

    def append_crc(self, crc_sub: int, len_bits: int) -> None:
        """Fold a precomputed submessage CRC of known bit length."""
        self._value = combine(self._value, crc_sub, len_bits)

    def copy(self) -> "IncrementalCrc":
        return IncrementalCrc(self._value)
