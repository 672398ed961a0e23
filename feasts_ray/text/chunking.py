"""Fixed-length sequence chunking — the training-sequence shaping step
of an LLM data pipeline: split each document's token stream into
consecutive windows of ``size`` tokens (the last window partial unless
``drop_remainder``). No feasts counterpart (the reference computes
per-series features only, /root/reference/R/features.R); this is a
north-rule LLM-pipeline addition.

Scale shape: a pure per-document operator — ONE corpus scan, zero
shuffles. ``chunk_list_column`` works over any Arrow list column and,
with ``drop_remainder=False``, emits chunk lists as NEW OFFSETS over
the SAME values buffer (zero-copy: chunk boundaries partition the flat
values exactly). ``chunk_words`` is the whitespace-word variant used by
the driver query (documents carry text, not token lists) and emits
scalar summary columns so the DuckDB oracle compares bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def _chunk_layout(counts: np.ndarray, size: int, drop_remainder: bool):
    """(doc_of_chunk, chunk_idx, start_in_doc, chunk_len) for every
    chunk, given per-doc element counts."""
    if drop_remainder:
        n_chunks = counts // size
    else:
        n_chunks = -(-counts // size)  # ceil; 0 chunks for empty docs
    doc_of = np.repeat(np.arange(len(counts)), n_chunks)
    starts = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
    chunk_idx = np.arange(int(n_chunks.sum())) - starts[doc_of]
    start_in_doc = chunk_idx * size
    chunk_len = np.minimum(size, counts[doc_of] - start_in_doc)
    return doc_of, chunk_idx, start_in_doc, chunk_len


def chunk_list_column(ds: "ray.data.Dataset", list_col: str = "tokens",
                      id_col: str = "doc_id", size: int = 2048,
                      drop_remainder: bool = False) -> "ray.data.Dataset":
    """Explode each row's list column into fixed-size chunk rows
    (id, chunk_idx, chunk). With ``drop_remainder=False`` the chunk
    lists are zero-copy offset views over the input values buffer."""

    def _chunk(batch: pa.Table) -> pa.Table:
        arr = batch[list_col].combine_chunks()
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offsets)
        doc_of, chunk_idx, start_in_doc, chunk_len = _chunk_layout(
            counts, size, drop_remainder)
        gstart = offsets[:-1][doc_of] + start_in_doc
        if drop_remainder:
            # dropped tails break offset contiguity: gather kept values
            take = np.repeat(gstart, chunk_len) + (
                np.arange(int(chunk_len.sum()))
                - np.repeat(np.concatenate([[0], np.cumsum(chunk_len)[:-1]]),
                            chunk_len))
            values = arr.values.take(pa.array(take, type=pa.int64()))
            bnds = np.concatenate([[0], np.cumsum(chunk_len)])
        else:
            # chunk boundaries partition the flat values exactly:
            # new offsets over the SAME buffer, no copy
            values = arr.values
            bnds = np.concatenate([[offsets[0]], gstart + chunk_len]) \
                if len(gstart) else offsets[:1]
        chunks = pa.ListArray.from_arrays(
            pa.array(bnds, type=pa.int32()), values)
        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_of, type=pa.int64())),
            "chunk_idx": pa.array(chunk_idx, type=pa.int64()),
            "chunk": chunks,
        })

    return ds.map_batches(_chunk, batch_format="pyarrow")


def block_offset(starts: np.ndarray, offsets: np.ndarray, first) -> int:
    """Offset of the sorted block whose first key is ``first``, from the
    per-block offset table (``starts`` ascending). The ops that use it
    map with ``batch_size=None``, one batch per block; a batch that
    starts inside a block matches no block's first key and raises."""
    i = int(np.searchsorted(starts, first, side="left"))
    if i == len(starts) or starts[i] != first:
        raise ValueError(
            f"block_offset: batch starts at key {first!r}, which is no "
            "block's first key; the batch is not a whole sorted block")
    return offsets[i]


def pack_stream_assign(ds: "ray.data.Dataset", count_col: str,
                       id_col: str = "doc_id", seq_len: int = 512,
                       ) -> "ray.data.Dataset":
    """GPT-style stream-packing assignment: documents are concatenated
    in ``id_col`` order into one token stream cut every ``seq_len``
    tokens (the context-length packing of LLM training); for each doc,
    emit which training sequences it lands in:

    - ``cum_before``: tokens before this doc in the stream (the global
      EXCLUSIVE prefix sum of ``count_col`` in id order),
    - ``first_seq`` / ``last_seq``: first/last sequence index the doc
      touches (NULL for empty docs),
    - ``n_seqs``: how many sequences it spans (0 for empty docs).

    This is the distributed GLOBAL PREFIX SUM primitive Ray Data lacks
    (aggregates are unordered): ``sort(id)`` gives range-partitioned,
    internally-sorted blocks; one pass collects per-block (min_id, sum)
    partials — O(#blocks) rows on the driver, never O(#docs) — whose
    exclusive running sum is the per-block offset table, broadcast once;
    a second pass over the SAME materialized blocks (batch_size=None ==
    one batch per block — the partitioning assumption this op relies
    on) adds the local cumsum to its block's offset. All ints; the SQL
    oracle is one SUM OVER (ORDER BY id ROWS UNBOUNDED PRECEDING)."""
    import ray

    narrow = ds.select_columns([id_col, count_col]).sort(id_col).materialize()

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        c = batch[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({"min_id": pa.array([], type=pa.int64()),
                             "total": pa.array([], type=pa.int64())})
        return pa.table({"min_id": pa.array([ids.min()], type=pa.int64()),
                         "total": pa.array([int(c.sum())], type=pa.int64())})

    parts = narrow.map_batches(_partial, batch_format="pyarrow",
                               batch_size=None).to_pandas()
    parts = parts.sort_values("min_id", ignore_index=True)
    offs = np.concatenate([[0], np.cumsum(parts["total"].to_numpy())[:-1]])
    bounds_ref = ray.put((parts["min_id"].to_numpy(), offs.astype(np.int64)))

    def _assign(batch: pa.Table) -> pa.Table:
        min_ids, offsets = ray.get(bounds_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        c = batch[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        off = block_offset(min_ids, offsets, ids[0]) if len(ids) else 0
        cum_end = off + np.cumsum(c)
        cum_before = cum_end - c
        nz = c > 0
        first = cum_before // seq_len
        last = (cum_end - 1) // seq_len
        n_seqs = np.where(nz, last - first + 1, 0)
        return pa.table({
            id_col: batch[id_col],
            count_col: pa.array(c, type=pa.int64()),
            "cum_before": pa.array(cum_before, type=pa.int64()),
            "first_seq": pa.array(np.where(nz, first, 0),
                                  type=pa.int64(), mask=~nz),
            "last_seq": pa.array(np.where(nz, last, 0),
                                 type=pa.int64(), mask=~nz),
            "n_seqs": pa.array(n_seqs, type=pa.int64()),
        })

    return narrow.map_batches(_assign, batch_format="pyarrow",
                              batch_size=None)


def chunk_words(ds: "ray.data.Dataset", size: int = 64,
                id_col: str = "doc_id", text_col: str = "text",
                drop_remainder: bool = False) -> "ray.data.Dataset":
    """Chunk each document's whitespace words into windows of ``size``
    and emit per-chunk summary scalars: (doc_id, chunk_idx,
    n_words_chunk, chunk_chars = summed word codepoints, first_word,
    last_word) — all exact ints/strings, so the DuckDB oracle (tok CTE
    grouped by (i-1)//size with arg_min/arg_max) matches bit-exactly.
    Empty documents emit no chunks on both engines."""
    from ..dedup.hashing import tokenize_arrow_with_lengths

    def _chunk(batch: pa.Table) -> pa.Table:
        _, offsets, counts, wlen, flat = tokenize_arrow_with_lengths(
            batch[text_col])
        doc_of, chunk_idx, start_in_doc, chunk_len = _chunk_layout(
            counts, size, drop_remainder)
        gstart = offsets[:-1][doc_of] + start_in_doc
        cs = np.concatenate([[0], np.cumsum(wlen, dtype=np.int64)])
        chunk_chars = cs[gstart + chunk_len] - cs[gstart]
        first = flat.take(pa.array(gstart, type=pa.int64()))
        last = flat.take(pa.array(gstart + chunk_len - 1, type=pa.int64()))
        return pa.table({
            id_col: batch[id_col].take(pa.array(doc_of, type=pa.int64())),
            "chunk_idx": pa.array(chunk_idx, type=pa.int64()),
            "n_words_chunk": pa.array(chunk_len, type=pa.int64()),
            "chunk_chars": pa.array(chunk_chars, type=pa.int64()),
            "first_word": first,
            "last_word": last,
        })

    return ds.map_batches(_chunk, batch_format="pyarrow")
