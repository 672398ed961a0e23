"""Continuous-aggregate rollup: partial per-batch agg -> groupby merge.

The wide shuffle pattern (SURVEY.md §4.2): every batch is pre-aggregated
to one row per (source, bucket) inside map_batches — a combiner — so the
global ``groupby(source, bucket)`` only shuffles partials. This bounds any
hot (source, bucket) key's fan-in to #batches, which is the explicit
skew/salting strategy for Zipf-distributed sources: the per-batch combine
IS the salt (salt = batch id), and the merge AGG is the de-salt.

One partials format at every tier: count/sum are int64, min/max are
int64 with an Arrow validity mask (null on a gap row, where count == 0).
Every aggregate is an exact integer, so mean = sum/count is derived after
the merge and results are bit-exact regardless of reduction order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..timebase import floor_bucket

_FILL = {np.minimum: np.iinfo(np.int64).max, np.maximum: np.iinfo(np.int64).min}


def measure_suffixes(measures: tuple[str, ...] | None) -> tuple[str, ...]:
    """Column-name suffixes for a measure list. ``None`` (the legacy
    single-measure contract) keeps the historical bare names
    (sum/min/max/mean); a list names each measure's columns
    sum_<m>/min_<m>/max_<m>/mean_<m> with ONE shared count column —
    every measure of a row comes from the same observations, so a
    per-measure count would be redundant."""
    if measures is None:
        return ("",)
    return tuple(f"_{m}" for m in measures)


def int64s(col) -> np.ndarray:
    """Arrow integer column with no nulls -> int64 numpy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype=np.int64)


def masked_ints(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow integer column -> (int64 values, validity); nulls read 0."""
    if col.null_count == 0:
        return int64s(col), np.ones(len(col), dtype=bool)
    return int64s(col.fill_null(0)), np.asarray(pc.is_valid(col), dtype=bool)


def masked_reduceat(op, values: np.ndarray, valid: np.ndarray,
                    starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (np.minimum / np.maximum) of a masked int64 column over the
    sorted runs beginning at ``starts``. Invalid entries take op's
    identity (int64 max for min, int64 min for max), so they never win;
    a run is valid when any of its entries is."""
    if valid.all():  # no nulls: the common case, skip the mask work
        return op.reduceat(values, starts), np.ones(len(starts), dtype=bool)
    return (op.reduceat(np.where(valid, values, _FILL[op]), starts),
            np.logical_or.reduceat(valid, starts))


def _combine(keys, bucket: np.ndarray, count: np.ndarray | None,
             measures, key_col: str) -> pa.Table:
    """THE partials combiner: one row per (key, bucket) over any rows.

    ``keys`` is the Arrow key column, ``count`` the per-row counts
    (None: every row is one observation) and ``measures`` a list of
    (suffix, sum, (min, min_valid), (max, max_valid)) int64 arrays.

    Dictionary-encode the key to codes, bit-pack (code, bucket - min
    bucket) into one int64, argsort + reduceat: one sort per batch,
    shared by every measure. Raises ValueError when the packed key would
    overflow (more keys x bucket span than int64 holds)."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    d = pc.dictionary_encode(keys)
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    b0 = int(bucket.min()) if len(bucket) else 0
    bits = (int(bucket.max()) - b0).bit_length() if len(bucket) else 0
    if len(d.dictionary) << bits >= 2**63:
        raise ValueError("partials combiner: keys x bucket span overflow "
                         "the packed int64 group key")
    key = (codes << np.int64(bits)) | (bucket - np.int64(b0))
    order = np.argsort(key, kind="stable")
    ks = key[order]
    first = np.ones(len(ks), dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(first)
    uk = ks[starts]
    cnt = (np.diff(np.append(starts, len(ks))) if count is None
           else np.add.reduceat(count[order], starts))
    out = {
        key_col: d.dictionary.take(pa.array(uk >> np.int64(bits),
                                            type=pa.int64())),
        "bucket": pa.array((uk & np.int64((1 << bits) - 1)) + b0,
                           type=pa.int64()),
        "count": pa.array(cnt, type=pa.int64()),
    }
    for x, s, mn, mx in measures:
        out[f"sum{x}"] = pa.array(np.add.reduceat(s[order], starts),
                                  type=pa.int64())
        for name, op, (v, ok) in (("min", np.minimum, mn),
                                  ("max", np.maximum, mx)):
            v, ok = masked_reduceat(op, v[order], ok[order], starts)
            out[f"{name}{x}"] = pa.array(v, type=pa.int64(), mask=~ok)
    return pa.table(out)


def partial_rollup_batch(
    batch: pa.Table,
    unit_s: int,
    value_col: str | tuple[str, ...] = "n_tok",
    key_col: str = "source",
    ts_col: str = "ts_s",
) -> pa.Table:
    """Combine a batch of raw rows to one partial row per (source, bucket).

    ``value_col`` may be a tuple of measure columns: the (source,
    bucket) grouping work (one argsort) is shared and each measure adds
    three reduceat passes, emitting sum_<m>/min_<m>/max_<m> columns
    next to the ONE shared count (see measure_suffixes)."""
    multi = not isinstance(value_col, str)
    vcols = tuple(value_col) if multi else (value_col,)
    bucket = floor_bucket(batch[ts_col].to_numpy(zero_copy_only=False), unit_s)
    measures = []
    for vc, x in zip(vcols, measure_suffixes(vcols if multi else None)):
        v = int64s(batch[vc])
        ok = np.ones(len(v), dtype=bool)
        measures.append((x, v, (v, ok), (v, ok)))
    return _combine(batch[key_col], bucket, None, measures, key_col)


def cascade_batch(batch: pa.Table, unit_s: int,
                  measures: tuple[str, ...] | None = None,
                  key_col: str = "source") -> pa.Table:
    """Re-bucket a finer tier's aggregate rows to a coarser tier (partial).

    count/sum/min/max re-aggregate exactly; mean is re-derived after the
    merge (north rule: tier[k+1] = re-aggregation of tier[k], no re-shuffle
    of raw). Gap rows (count=0, null min/max) pass through harmlessly.
    ``measures``: multi-measure tier columns (see measure_suffixes).
    """
    bucket = floor_bucket(batch["bucket"].to_numpy(zero_copy_only=False), unit_s)
    cols = [(x, int64s(batch[f"sum{x}"]), masked_ints(batch[f"min{x}"]),
             masked_ints(batch[f"max{x}"]))
            for x in measure_suffixes(measures)]
    return _combine(batch[key_col], bucket, int64s(batch["count"]), cols,
                    key_col)
