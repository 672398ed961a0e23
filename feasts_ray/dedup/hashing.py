"""Deterministic vectorized text hashing primitives shared by dedup ops.

Word hashing is done once per *unique* word in a batch (vocabulary loop,
C-speed digest per word), then shingle/sequence hashes are pure numpy
over the word-id array — no per-shingle Python work. All hashes are
seeded/deterministic (no PYTHONHASHSEED dependence).
"""

from __future__ import annotations

import hashlib

import numpy as np

MERSENNE31 = (1 << 31) - 1  # hash universe for minhash perms: a*x+b fits uint64
_MASK64 = (1 << 64) - 1


def hash_words(words: np.ndarray) -> np.ndarray:
    """uint64 digest per unique word (stable across processes): first 8
    md5 bytes, little-endian. md5 (not blake2b) so SQL oracles can
    reproduce the hash — DuckDB has md5() but no blake2 — at identical
    per-word C-digest cost; any uniform 64-bit word hash serves the
    minhash/simhash math equally (Broder 1997)."""
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        out[i] = int.from_bytes(
            hashlib.md5(w.encode("utf-8")).digest()[:8], "little"
        )
    return out


def tokenize_batch(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split texts on whitespace -> (flat word-hash array, offsets, counts)."""
    all_words: list[str] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        w = t.split()
        counts[i] = len(w)
        all_words.extend(w)
    flat = np.asarray(all_words, dtype=object)
    uniq, inv = np.unique(flat, return_inverse=True) if len(flat) else (
        np.array([], dtype=object), np.array([], dtype=np.int64))
    whash = hash_words(uniq)[inv] if len(flat) else np.array([], dtype=np.uint64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return whash, offsets, counts


# every codepoint where Python str.isspace() is true but Arrow's
# ascii_split_whitespace does not split (C whitespace = \t\n\v\f\r + ' ')
_NON_ASCII_WS_CLASS = ("[\x1c-\x1f\x85\xa0\u1680"
                       "\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")


def split_whitespace_safe(arr):
    """str.split()-equivalent whitespace split that avoids pyarrow
    16.1's ``utf8_split_whitespace``.

    That kernel's utf8 scan misclassifies MULTI-BYTE whitespace
    codepoints for certain buffer layouts: the same 4-doc input with a
    trailing U+00A0 nondeterministically keeps or splits the NBSP
    across allocations of identical bytes in one process (2 distinct
    outputs over 50 ``pa.array`` calls; surfaced by hypothesis in
    tests/test_text_hashing_property.py only after unrelated tests
    perturbed the allocator). Single-byte classification cannot
    straddle a scan boundary, so instead: one RE2 pass normalizes the
    20 non-ASCII (plus \\x1c-\\x1f) Python-whitespace codepoints to
    ' ', then ``ascii_split_whitespace`` does the split. Callers MUST
    drop empty tokens (both callers already do)."""
    import pyarrow.compute as pc

    norm = pc.replace_substring_regex(arr, pattern=_NON_ASCII_WS_CLASS,
                                      replacement=" ")
    return pc.ascii_split_whitespace(norm)


def hash_words_arrow(arr) -> np.ndarray:
    """``hash_words`` over an Arrow string array: digests read each
    word's bytes straight off the UTF-8 values buffer (no Python str /
    re-encode per word). Identical values to ``hash_words``."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(bufs[1], dtype=dt,
                         count=arr.offset + len(arr) + 1)[arr.offset:]
    mv = memoryview(bufs[2])
    out = np.empty(len(arr), dtype=np.uint64)
    md5 = hashlib.md5
    for i in range(len(arr)):
        out[i] = int.from_bytes(md5(mv[offs[i]:offs[i + 1]]).digest()[:8],
                                "little")
    return out


def tokenize_arrow(arr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrow-native ``tokenize_batch``: same (word-hash flat array,
    offsets, counts) triple computed without materializing Python
    strings per doc. ``split_whitespace_safe`` with empty tokens
    dropped is exactly ``str.split()`` — verified over every Unicode
    BMP codepoint + astral samples (test_tokenize_arrow_matches_split);
    the vocabulary is built by ``dictionary_encode`` (C) and only the
    UNIQUE words cross into Python for the md5 digest."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if arr.null_count:
        arr = arr.fill_null("")
    parts = split_whitespace_safe(arr)
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(parts)
    parents = np.repeat(np.arange(n, dtype=np.int64),
                        lens.astype(np.int64))
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    counts = np.bincount(parents[keep_np], minlength=n).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    if len(flat) == 0:
        return np.array([], dtype=np.uint64), offsets, counts
    enc = flat.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash_words_arrow(enc.dictionary)[idx], offsets, counts


def tokenize_arrow_with_lengths(
        arr) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                      "object"]:
    """``tokenize_arrow`` plus per-word CODEPOINT lengths (DuckDB
    ``length()`` semantics, pc.utf8_length) and the flat kept-word
    Arrow array itself — for character-fraction repetition signals and
    tf-idf, which need word sizes / strings alongside the hashes.
    Kept separate from ``tokenize_arrow`` so the minhash/shingle hot
    paths don't pay the extra length pass.

    Returns (word_hashes, offsets, counts, word_lengths, flat_words)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if arr.null_count:
        arr = arr.fill_null("")
    parts = split_whitespace_safe(arr)
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(parts)
    parents = np.repeat(np.arange(n, dtype=np.int64),
                        lens.astype(np.int64))
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    counts = np.bincount(parents[keep_np], minlength=n).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    if len(flat) == 0:
        empty = np.array([], dtype=np.uint64)
        return (empty, offsets, counts, np.array([], dtype=np.int64), flat)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(
        np.int64)
    enc = flat.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash_words_arrow(enc.dictionary)[idx], offsets, counts, wlen, flat


def shingle_hashes(word_hashes: np.ndarray, k: int) -> np.ndarray:
    """k-word shingle hashes (vectorized polynomial combine, uint64)."""
    n = len(word_hashes)
    if n < k:
        # short doc: the whole doc is its single shingle
        if n == 0:
            return np.array([], dtype=np.uint64)
        k = n
    h = word_hashes.astype(np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    acc = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):  # k is tiny (3-5); inner ops are vectorized
        acc = (acc * mult + h[j : n - k + 1 + j]) & np.uint64(_MASK64)
    return acc


def shingle_hashes_batch(
        whash: np.ndarray, offsets: np.ndarray,
        k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``shingle_hashes``: shingle streams for MANY docs in one
    flat pass — (flat shingle hashes, (B+1,) output offsets). The k-term
    polynomial fold runs j-ascending over the whole batch (k vectorized
    passes total instead of one Python call per doc); short docs
    (0 < n < k) fold their n words only (the per-doc kernel's k=n
    fallback) via the ``j < k_i`` mask, so every doc's values are
    bit-identical to ``shingle_hashes`` on its own slice."""
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    ks = np.minimum(counts, k)                       # per-doc fold length
    out_counts = np.where(counts > 0, counts - ks + 1, 0)
    out_offs = np.concatenate([[0], np.cumsum(out_counts)])
    total = int(out_offs[-1])
    if total == 0:
        return np.array([], dtype=np.uint64), out_offs
    doc_of = np.repeat(np.arange(len(counts)), out_counts)
    intra = np.arange(total) - out_offs[:-1][doc_of]
    start = offsets[:-1][doc_of] + intra             # word index of shingle head
    kk = ks[doc_of]
    h = whash.astype(np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    acc = np.zeros(total, dtype=np.uint64)
    last = len(h) - 1
    for j in range(int(ks.max())):
        m = kk > j
        acc = np.where(m, acc * mult + h[np.minimum(start + j, last)], acc)
    return acc, out_offs


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm-wide MinHash over a shingle set: min((a*x+b) mod 2^31-1).

    31-bit universe so a*x+b fits in uint64 — the whole (S, P) grid is one
    vectorized multiply/mod, no Python-object arithmetic.
    """
    if len(shingles) == 0:
        return np.full(len(a), MERSENNE31, dtype=np.uint64)
    x = (np.unique(shingles) % np.uint64(MERSENNE31)).astype(np.uint64)
    prod = (x[:, None] * a[None, :] + b[None, :]) % np.uint64(MERSENNE31)
    return np.min(prod, axis=0)


def perm_params(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE31, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, MERSENNE31, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature_batch(flat_shingles: np.ndarray, starts: np.ndarray,
                            a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, num_perm) MinHash signatures for MANY docs at once: one
    (S_total, P) permutation grid + per-doc minimum.reduceat. Duplicate
    shingles within a doc do not affect the min, so no per-doc unique is
    needed. Empty docs get the identity row (MERSENNE31). Bit-identical
    to minhash_signature per doc."""
    B = len(starts) - 1
    P = len(a)
    out = np.full((B, P), MERSENNE31, dtype=np.uint64)
    if len(flat_shingles) == 0:
        return out
    x = (flat_shingles.astype(np.uint64) % np.uint64(MERSENNE31))
    grid = (x[:, None] * a[None, :] + b[None, :]) % np.uint64(MERSENNE31)
    counts = np.diff(starts)
    nonempty = counts > 0
    # reduceat only over NONEMPTY docs' starts: clipping an empty doc's
    # start==len(x) would shorten the previous doc's segment and drop its
    # last shingle from the min (silently wrong signatures).
    if nonempty.any():
        red = np.minimum.reduceat(grid, starts[:-1][nonempty], axis=0)
        out[nonempty] = red
    return out


_FNV_OFF = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def band_hashes_batch(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(B, num_perm) signatures -> (B, n_bands) uint64 band buckets via a
    vectorized FNV-1a-style mix over each band's lanes. Bucket EQUALITY
    (the only thing LSH uses) matches hashing the band bytes any other
    way, up to negligible 64-bit collisions."""
    Bn, P = sigs.shape
    r = P // n_bands
    lanes = sigs.reshape(Bn, n_bands, r)
    acc = np.full((Bn, n_bands), _FNV_OFF, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(r):
            acc = (acc ^ lanes[:, :, j]) * _FNV_PRIME
    return acc
