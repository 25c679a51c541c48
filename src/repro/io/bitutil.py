"""Bit-vector utilities.

Throughout the library a *bit vector* is a one-dimensional
``numpy.ndarray`` of dtype ``uint8`` containing only 0s and 1s.  This
module centralises validation and the conversions between that
representation and packed bytes / hex strings (the on-disk format of
the measurement database).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RandomState, as_generator

BitsLike = Union[np.ndarray, Sequence[int], bytes]


def ensure_bits(bits: BitsLike, length: int = None) -> np.ndarray:
    """Validate and normalise a bit vector.

    Accepts any integer sequence of 0/1 values and returns a
    contiguous ``uint8`` array.  Raises :class:`ConfigurationError` on
    non-binary values or (when ``length`` is given) a length mismatch.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ConfigurationError(f"bit vector must be 1-D, got shape {arr.shape}")
    arr = _binary_uint8(arr)
    if length is not None and arr.size != length:
        raise ConfigurationError(f"expected {length} bits, got {arr.size}")
    return arr


def ensure_bit_matrix(rows) -> np.ndarray:
    """Validate equal-length bit vectors as one ``(rows, bits)`` matrix.

    ``rows`` is a 2-D array (one bit vector per row) or a sequence of
    1-D vectors, which are stacked once.  Either way the values are
    checked with whole-matrix reductions rather than per row, and the
    result is a contiguous ``uint8`` matrix.  Raises
    :class:`ConfigurationError` on a row that is not 1-D, rows of
    different lengths, and the values :func:`ensure_bits` refuses.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2):
        vectors = [np.asarray(row) for row in rows]
        for vec in vectors:
            if vec.ndim != 1:
                raise ConfigurationError(
                    f"bit vector must be 1-D, got shape {vec.shape}"
                )
        if len({vec.size for vec in vectors}) > 1:
            raise ConfigurationError("all read-outs must have equal length")
        rows = np.stack(vectors) if vectors else np.zeros((0, 0), dtype=np.uint8)
    return _binary_uint8(rows)


def _binary_uint8(arr: np.ndarray) -> np.ndarray:
    """``arr`` as contiguous ``uint8`` after checking it holds only 0/1."""
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.bool_):
            arr = arr.astype(np.uint8)
        else:
            raise ConfigurationError(f"bit vector must be integer-typed, got {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ConfigurationError("bit vector may only contain 0 and 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def pack_bits(bits: BitsLike) -> bytes:
    """Pack a bit vector into bytes, MSB first (big-endian within bytes).

    The bit length must be a multiple of 8 so the packing is lossless
    and self-describing.
    """
    arr = ensure_bits(bits)
    if arr.size % 8 != 0:
        raise ConfigurationError(f"bit count must be a multiple of 8, got {arr.size}")
    return np.packbits(arr).tobytes()


def pack_bit_vector(bits: np.ndarray) -> Tuple[bytes, int]:
    """``(packed bytes, bit count)`` of a bit vector of any length.

    The compact form for shipping bits between processes; pass the pair
    to :func:`unpack_bits` to get the same bits back.  ``bits`` must
    already be a bit vector (see :func:`ensure_bits`); it is not
    validated again on this per-board path.
    """
    return np.packbits(bits).tobytes(), bits.size


def unpack_bits(data: bytes, bit_count: int = None) -> np.ndarray:
    """Unpack bytes into a bit vector, MSB first.

    ``bit_count`` defaults to ``8 * len(data)``; pass it to trim
    padding when the logical length is not byte-aligned.
    """
    arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bit_count is not None:
        if bit_count > arr.size:
            raise ConfigurationError(f"requested {bit_count} bits from {arr.size} available")
        arr = arr[:bit_count]
    return arr


def bits_to_bytes(bits: BitsLike) -> bytes:
    """Alias of :func:`pack_bits` (reads better at some call sites)."""
    return pack_bits(bits)


def bits_from_bytes(data: bytes, bit_count: int = None) -> np.ndarray:
    """Alias of :func:`unpack_bits`."""
    return unpack_bits(data, bit_count)


def bits_to_hex(bits: BitsLike) -> str:
    """Render a byte-aligned bit vector as a lowercase hex string."""
    return pack_bits(bits).hex()


def bits_from_hex(text: str, bit_count: int = None) -> np.ndarray:
    """Parse a hex string produced by :func:`bits_to_hex`."""
    try:
        data = bytes.fromhex(text)
    except ValueError as exc:
        raise ConfigurationError(f"invalid hex payload: {exc}") from exc
    return unpack_bits(data, bit_count)


def hamming_weight(bits: BitsLike) -> int:
    """Number of 1-bits in the vector."""
    return int(ensure_bits(bits).sum())


def random_bits(count: int, random_state: RandomState = None) -> np.ndarray:
    """Draw ``count`` uniform random bits (useful for tests and codes)."""
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    rng = as_generator(random_state, "random-bits")
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def xor_bits(a: BitsLike, b: BitsLike) -> np.ndarray:
    """Bitwise XOR of two equal-length bit vectors."""
    av = ensure_bits(a)
    bv = ensure_bits(b, length=av.size)
    return np.bitwise_xor(av, bv)
