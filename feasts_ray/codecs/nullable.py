"""Nullable column codecs: validity bitmap + a stream of the present values.

Gap-filled tiers carry null min/max/mean for empty buckets. Both codecs
store an np.packbits validity bitmap followed by the stream of the
non-null values: Gorilla XOR for floats (mean), delta-of-delta for int64
(min/max). Layout: [n:8 bytes big-endian][bitmap ceil(n/8)][stream].
"""

from __future__ import annotations

import numpy as np

from .gorilla import decode_floats, encode_floats


def encode_nullable_floats(values: np.ndarray, valid: np.ndarray | None = None) -> bytes:
    v = np.asarray(values, dtype=np.float64)
    if valid is None:
        valid = ~np.isnan(v)
    valid = np.asarray(valid, dtype=bool)
    n = len(v)
    bitmap = np.packbits(valid)
    body = encode_floats(v[valid])
    return n.to_bytes(8, "big") + bitmap.tobytes() + body


def decode_nullable_floats(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values float64 with NaN at nulls, valid bool mask)."""
    n = int.from_bytes(data[:8], "big")
    nb = (n + 7) // 8
    bitmap = np.frombuffer(data[8 : 8 + nb], dtype=np.uint8)
    valid = np.unpackbits(bitmap)[:n].astype(bool)
    present = decode_floats(data[8 + nb :])
    out = np.full(n, np.nan, dtype=np.float64)
    out[valid] = present
    return out, valid


def encode_nullable_ints(values: np.ndarray, valid: np.ndarray) -> bytes:
    """Validity bitmap + delta-of-delta stream of the present int64s —
    integer rollup columns (min/max of cents / token counts) compress far
    better and ~8x faster through the int path than through Gorilla."""
    from .intcodec import encode_ints

    valid = np.asarray(valid, dtype=bool)
    v = np.asarray(values, dtype=np.int64)
    bitmap = np.packbits(valid)
    return len(v).to_bytes(8, "big") + bitmap.tobytes() + encode_ints(v[valid])


def decode_nullable_ints(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values int64 with 0 at nulls, valid bool mask) — exact
    over the whole int64 range."""
    from .intcodec import decode_ints

    n = int.from_bytes(data[:8], "big")
    nb = (n + 7) // 8
    bitmap = np.frombuffer(data[8 : 8 + nb], dtype=np.uint8)
    valid = np.unpackbits(bitmap)[:n].astype(bool)
    out = np.zeros(n, dtype=np.int64)
    out[valid] = decode_ints(data[8 + nb :])
    return out, valid
