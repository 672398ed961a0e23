"""Gorilla / delta-of-delta encode of rolled-up point columns -> binary blobs.

Segments are addressed by bucket id: segment = bucket // (segment_points *
unit_s), so blob boundaries are a pure function of the data — deterministic,
parallel, and resumable regardless of block boundaries (SURVEY.md §7.3
"Gorilla state across block boundaries"). The encoder is a callable CLASS
(actor pool): per-partition compressor state (scratch buffers, window
state) lives in the actor across batches, per the north rule's stateful
actor pools.

Output: one row per (source, tier, segment) with
  n_points, first_bucket, bucket_blob (delta-of-delta; ~1 bit/pt on
  gap-filled regular series), count_blob, sum_blob (dod ints),
  min_blob / max_blob (validity bitmap + dod int64s),
  mean_blob (validity bitmap + Gorilla XOR floats).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..codecs import (
    decode_ints,
    decode_nullable_floats,
    decode_nullable_ints,
    encode_ints,
    encode_nullable_floats,
    encode_nullable_ints,
)
from ..config import SEGMENT_POINTS
from .rollup import int64s, masked_ints, measure_suffixes


class SegmentEncoder:
    """Actor-pool kernel: encode one (source, segment) group per call."""

    def __init__(self, tier_name: str, key_col: str = "source"):
        self.tier_name = tier_name
        self.key_col = key_col

    def __call__(self, group: pa.Table) -> pa.Table:
        b = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="mergesort")
        buckets = np.asarray(b, dtype=np.int64)[order]
        row = {
            self.key_col: group[self.key_col].slice(0, 1),
            "tier": pa.array([self.tier_name]),
            "segment": group["segment"].slice(0, 1),
            "n_points": pa.array([len(group)], type=pa.int64()),
            "first_bucket": pa.array([int(buckets[0])], type=pa.int64()),
            "bucket_blob": pa.array([encode_ints(buckets)],
                                    type=pa.binary()),
        }
        for c in ("count", "sum"):
            row[f"{c}_blob"] = pa.array([encode_ints(int64s(group[c])[order])],
                                        type=pa.binary())
        for c in ("min", "max"):
            v, ok = masked_ints(group[c])
            row[f"{c}_blob"] = pa.array(
                [encode_nullable_ints(v[order], ok[order])], type=pa.binary())
        mean = np.asarray(group["mean"].to_numpy(zero_copy_only=False),
                          dtype=np.float64)[order]
        row["mean_blob"] = pa.array(
            [encode_nullable_floats(mean, ~np.isnan(mean))], type=pa.binary())
        return pa.table(row)


def encode_tier(
    ds: "ray.data.Dataset",
    unit_s: int,
    tier_name: str,
    key_col: str = "source",
    segment_points: int = SEGMENT_POINTS,
) -> "ray.data.Dataset":
    seg_span = segment_points * unit_s

    def _add_segment(batch: pa.Table) -> pa.Table:
        seg = batch["bucket"].to_numpy(zero_copy_only=False) // seg_span
        return batch.append_column("segment", pa.array(seg, type=pa.int64()))

    with_seg = ds.map_batches(_add_segment, batch_format="pyarrow")
    return with_seg.groupby([key_col, "segment"]).map_groups(
        SegmentEncoder,
        fn_constructor_args=(tier_name, key_col),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def decode_segments(blob_rows: pa.Table | pd.DataFrame, key_col: str = "source",
                    measures: tuple[str, ...] | None = None) -> pd.DataFrame:
    """Decode blob rows back to long (source, bucket, count, sum, min, max,
    mean) form — used for the bit-exactness invariant and as a reader.
    min/max come back exact, as pandas nullable Int64 (NA on gap rows).

    ``measures``: decode a multi-measure blob (tier_kernel._write_blob
    with measures set) — per measure the columns are sum_<m>/min_<m>/
    max_<m>/mean_<m>, count is shared."""
    if isinstance(blob_rows, pa.Table):
        blob_rows = blob_rows.to_pandas()
    sfx = measure_suffixes(measures)
    int_cols = ["count"] + [f"sum{x}" for x in sfx]
    nint_cols = [f"{c}{x}" for x in sfx for c in ("min", "max")]
    nflt_cols = [f"mean{x}" for x in sfx]
    # row loop is fine here: one iteration decodes a whole 4096-point
    # segment (vectorized inside the codecs), so Python overhead is
    # ~0.02% of the work; the lockstep batch decoder (codecs.intcodec.
    # decode_ints_batch) is used where rows are per-doc sized.
    parts = []
    cols = blob_rows[key_col].to_numpy()
    for i in range(len(blob_rows)):
        buckets = decode_ints(blob_rows["bucket_blob"].iat[i])
        d = {key_col: cols[i], "bucket": buckets}
        for c in int_cols:
            d[c] = decode_ints(blob_rows[f"{c}_blob"].iat[i])
        for c in nint_cols:
            vals, valid = decode_nullable_ints(blob_rows[f"{c}_blob"].iat[i])
            d[c] = pd.arrays.IntegerArray(vals, ~valid)
        for c in nflt_cols:
            vals, _ = decode_nullable_floats(blob_rows[f"{c}_blob"].iat[i])
            d[c] = vals
        parts.append(pd.DataFrame(d))
    if not parts:
        return pd.DataFrame(
            columns=[key_col, "bucket", *int_cols, *nint_cols, *nflt_cols])
    return pd.concat(parts, ignore_index=True).sort_values(
        [key_col, "bucket"], ignore_index=True
    )
