"""SimHash near-duplicate detection.

64-bit SimHash per doc (weighted bit vote over word hashes, vectorized
via unpacked bit matrix), then candidate generation by chunk banding:
split the 64-bit hash into n_chunks pieces — any pair within Hamming
distance (n_chunks - 1) shares at least one exact chunk (pigeonhole), so
the ONE shuffle is a groupby on (chunk_id, chunk_value). Verify =
XOR popcount <= max_hamming.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .hashing import tokenize_arrow


def simhash64_batch(word_hashes: np.ndarray, doc_of: np.ndarray, n_docs: int) -> np.ndarray:
    """SimHash for every doc in one vectorized pass: one unpackbits over
    the whole batch's word hashes, per-(doc, bit) votes via bincount."""
    if len(word_hashes) == 0:
        return np.zeros(n_docs, dtype=np.uint64)
    # unique (doc, word) pairs with multiplicity = term frequency
    order = np.lexsort((word_hashes, doc_of))
    wh = word_hashes[order]
    dc = doc_of[order]
    new = np.empty(len(wh), dtype=bool)
    new[0] = True
    new[1:] = (wh[1:] != wh[:-1]) | (dc[1:] != dc[:-1])
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(wh))).astype(np.int64)
    uw = wh[starts]
    ud = dc[starts]
    bits = np.unpackbits(uw.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little").astype(np.int64)  # (U, 64)
    signed = 2 * bits - 1
    weighted = signed * counts[:, None]                        # (U, 64)
    # ud is sorted (lexsort by doc): segment-sum via reduceat, no scatter
    doc_change = np.empty(len(ud), dtype=bool)
    doc_change[0] = True
    doc_change[1:] = ud[1:] != ud[:-1]
    seg_starts = np.flatnonzero(doc_change)
    votes = np.zeros((n_docs, 64), dtype=np.int64)
    votes[ud[seg_starts]] = np.add.reduceat(weighted, seg_starts, axis=0)
    out_bits = (votes > 0).astype(np.uint8)
    return np.packbits(out_bits, axis=1, bitorder="little").view(np.uint64).reshape(-1)


class SimHashEmitter:
    """map_batches kernel: text -> (doc_id, chunk, chunk_val, simhash)."""

    def __init__(self, text_col: str, id_col: str, n_chunks: int):
        self.text_col = text_col
        self.id_col = id_col
        self.n_chunks = n_chunks

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        whash, offsets, counts = tokenize_arrow(batch[self.text_col])
        n = len(ids)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        sh = simhash64_batch(whash, doc_of, n)
        # variable-width chunks: pigeonhole needs only n_chunks pieces,
        # not a divisor of 64 — wider chunks (e.g. 13 bits for 5 chunks)
        # collide ~2^5x less than the 8-bit divisor split, keeping
        # bucket sizes tiny at scale
        widths = np.full(self.n_chunks, 64 // self.n_chunks, dtype=np.int64)
        widths[: 64 % self.n_chunks] += 1
        starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
        chunks = np.empty((n, self.n_chunks), dtype=np.uint64)
        for c in range(self.n_chunks):
            mask = np.uint64((1 << widths[c]) - 1)
            chunks[:, c] = (sh >> np.uint64(starts[c])) & mask
        return pa.table({
            self.id_col: pa.array(np.repeat(ids, self.n_chunks)),
            "chunk": pa.array(np.tile(np.arange(self.n_chunks), n), type=pa.int64()),
            "chunk_val": pa.array(chunks.reshape(-1).astype(np.int64), type=pa.int64()),
            "simhash": pa.array(np.repeat(sh, self.n_chunks).astype(np.int64),
                                type=pa.int64()),
        })


def simhash_dedup_pairs(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    batch_size: int = 256,
    max_bucket: int = 500,
    concurrency=(1, 8),
) -> pd.DataFrame:
    """Pairs (id_a < id_b) within ``max_hamming`` bits; chunk count =
    max_hamming + 1 so recall is exact (pigeonhole; chunks may have
    unequal widths)."""
    n_chunks = max_hamming + 1
    from .pairs import emit_candidate_pairs

    emitted = ds.map_batches(
        SimHashEmitter,
        fn_constructor_args=(text_col, id_col, n_chunks),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    def _hamming_filter(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa

        x = (t["simhash_a"].to_numpy(zero_copy_only=False)
             .astype(np.int64).view(np.uint64)
             ^ t["simhash_b"].to_numpy(zero_copy_only=False)
             .astype(np.int64).view(np.uint64))
        ham = (np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
               .sum(axis=1).astype(np.int64)) if len(x) else (
            np.array([], dtype=np.int64))
        t = t.drop_columns(["simhash_a", "simhash_b"]).append_column(
            "hamming", pa.array(ham))
        return t.filter(pa.array(ham <= max_hamming))

    pdf = emit_candidate_pairs(emitted, ["chunk", "chunk_val"], id_col,
                               carry_cols=["simhash"], max_bucket=max_bucket,
                               post_filter=_hamming_filter)
    if len(pdf) == 0:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "hamming": pd.Series(dtype="int64")})
    return pdf.sort_values(["id_a", "id_b"], ignore_index=True)
