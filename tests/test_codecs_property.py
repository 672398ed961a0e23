"""Property-based codec tests (hypothesis): every int64 stream round-trips
through the dod codec, and the lockstep batch encoder/decoder are
byte/bit-identical to the scalar paths for ARBITRARY doc mixes —
including pathological second differences that hit every code class."""

import numpy as np
from hypothesis import given, settings, strategies as st

from feasts_ray.codecs.intcodec import (
    decode_ints,
    decode_ints_batch,
    encode_ints,
    encode_ints_batch,
)

# values whose consecutive deltas stay in int64 (codec contract)
_vals = st.integers(min_value=-(2**62), max_value=2**62 - 1)
_doc = st.lists(_vals, min_size=0, max_size=60)


@settings(max_examples=80, deadline=None)
@given(_doc)
def test_scalar_roundtrip(doc):
    arr = np.array(doc, dtype=np.int64)
    out = decode_ints(encode_ints(arr))
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=40, deadline=None)
@given(st.lists(_doc, min_size=0, max_size=8))
def test_batch_encode_matches_scalar(docs):
    arrs = [np.array(d, dtype=np.int64) for d in docs]
    flat = (np.concatenate(arrs) if arrs else np.array([], dtype=np.int64))
    offs = np.concatenate([[0], np.cumsum([len(a) for a in arrs])]).astype(np.int64)
    blobs = encode_ints_batch(flat, offs)
    assert len(blobs) == len(arrs)
    for blob, arr in zip(blobs, arrs):
        assert blob == encode_ints(arr)


@settings(max_examples=40, deadline=None)
@given(st.lists(_doc.filter(lambda d: len(d) > 0), min_size=1, max_size=8))
def test_batch_decode_matches_scalar(docs):
    arrs = [np.array(d, dtype=np.int64) for d in docs]
    blobs = [encode_ints(a) for a in arrs]
    flat, offs = decode_ints_batch(blobs)
    expect = np.concatenate(arrs)
    np.testing.assert_array_equal(flat, expect)
    np.testing.assert_array_equal(offs, np.concatenate(
        [[0], np.cumsum([len(a) for a in arrs])]))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**31 - 1),
                min_size=3, max_size=40))
def test_token_like_streams_hit_spill_classes(doc):
    """int32-range values can produce |dod| >= 2^31 (the '11111' spill
    class); both paths must agree there too."""
    arr = np.array(doc, dtype=np.int64)
    offs = np.array([0, len(arr)], dtype=np.int64)
    assert encode_ints_batch(arr, offs)[0] == encode_ints(arr)
    np.testing.assert_array_equal(decode_ints(encode_ints(arr)), arr)


_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)


@settings(max_examples=60, deadline=None)
@given(st.lists(_floats, min_size=0, max_size=50))
def test_gorilla_float_roundtrip(vals):
    from feasts_ray.codecs.gorilla import decode_floats, encode_floats

    arr = np.array(vals, dtype=np.float64)
    out = decode_floats(encode_floats(arr))
    # bitwise equality (not just value equality: -0.0 vs 0.0 etc.)
    np.testing.assert_array_equal(out.view(np.int64), arr.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_floats, st.booleans()), min_size=0, max_size=50))
def test_nullable_float_roundtrip(pairs):
    from feasts_ray.codecs.nullable import (
        decode_nullable_floats,
        encode_nullable_floats,
    )

    vals = np.array([v for v, _ in pairs], dtype=np.float64)
    valid = np.array([m for _, m in pairs], dtype=bool)
    out, ovalid = decode_nullable_floats(encode_nullable_floats(vals, valid))
    np.testing.assert_array_equal(ovalid, valid)
    np.testing.assert_array_equal(out[valid].view(np.int64),
                                  vals[valid].view(np.int64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-(2**63),
                                      max_value=2**63 - 1),
                          st.booleans()), min_size=0, max_size=50))
def test_nullable_int_roundtrip(pairs):
    from feasts_ray.codecs.nullable import (
        decode_nullable_ints,
        encode_nullable_ints,
    )

    vals = np.array([v for v, _ in pairs], dtype=np.int64)
    valid = np.array([m for _, m in pairs], dtype=bool)
    out, ovalid = decode_nullable_ints(encode_nullable_ints(vals, valid))
    np.testing.assert_array_equal(ovalid, valid)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out[valid], vals[valid])
