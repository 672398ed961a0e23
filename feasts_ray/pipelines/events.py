"""Generic continuous-aggregate rollups over real-timestamp tables.

Same dataflow as the flagship token rollup (SURVEY.md §7.1) but for any
table with a ``timestamp[us]`` column and a float value column (the
driver's ``events`` / ``lineitem`` tables):

  read_parquet(cols pruned)                     # streaming scan
    -> MB: ts -> epoch-second, value -> exact integer cents,
       per-batch combine to one partial row per (key, bucket)
    -> AGG merge partials (the one wide shuffle, over combined rows)
    -> [optional cascade to a coarser tier = re-aggregation of partials]
    -> [optional distributed gap-fill]
    -> derived float columns (mean) from exact integer sums

Sums/counts are int64 cents, so every aggregate is bit-exact regardless
of reduction order — the ANSI-SQL oracle in ``__ray_entry__.oracle_sql``
computes the identical integers, and derived doubles mirror the oracle's
expression tree exactly (same IEEE ops on identical ints).

Reference semantics mirrored: numeric bucket flooring
(/root/reference/R/utils.R:134-139 ``(x %/% unit) * unit``); explicit
gap rows (tsibble::fill_gaps contract, /root/reference/R/dcmp_checks.R:1-5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..stages.rollup import _combine, cascade_batch, no_nulls


def _partial_batch(
    batch: pa.Table, unit_s: int, key_col: str, ts_col: str,
    measures: tuple[tuple[str, str, float], ...],
) -> pa.Table:
    """Combiner: one partial row per (key, bucket) with
    sum_<m>/min_<m>/max_<m> per measure and ONE shared count. Each
    measure is (name, source_column, scale) — values are converted to
    exact int64 at ``round(v * scale)`` so every aggregate is bit-exact
    regardless of reduction order (scale=100 for 2-decimal currency,
    1 for integral quantities). An empty name keeps the bare
    sum/min/max columns."""
    us = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    cols = []
    for name, col, scale in measures:
        v = no_nulls(batch, col).to_numpy(zero_copy_only=False)
        iv = np.rint(v * scale if scale != 1 else v).astype(np.int64)
        ok = np.ones(len(iv), dtype=bool)
        cols.append((f"_{name}" if name else "", iv, (iv, ok), (iv, ok)))
    return _combine(batch[key_col], (us // 1_000_000) // unit_s * unit_s,
                    None, cols, key_col)


def rollup_table(
    path: str,
    unit_s: int,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    cascade_from_s: int | None = None,
    fill_gaps: bool = False,
    batch_size: int = 32768,
    segment_points: int = 4096,
) -> "ray.data.Dataset":
    """Continuous aggregate of ``value`` (as cents) per (key, bucket).

    ``cascade_from_s``: first roll up at that finer unit, then derive the
    requested tier purely by re-aggregating the finer tier's output —
    exercising the retention-cascade path (tier[k+1] from tier[k]).
    Output: key_col, bucket:int64, count:int64, sum_cents:int64,
    min_cents:int64, max_cents:int64, mean_val:float64 (null on gap rows).

    Merge/gap-fill run through the fused segment kernel (ONE bounded-group
    shuffle per tier — see stages/tier_kernel.py); results are integer-
    exact so the fused path is bit-identical to a naive groupby.
    """
    from ..stages.tier_kernel import run_tier, spans_from_partials

    ds = ray.data.read_parquet(path, columns=[key_col, ts_col, value_col])
    first_unit = cascade_from_s or unit_s
    ds = ds.map_batches(
        _partial_batch, batch_format="pyarrow", batch_size=batch_size,
        fn_kwargs={"unit_s": first_unit, "key_col": key_col,
                   "ts_col": ts_col, "measures": (("", value_col, 100.0),)},
    )
    if cascade_from_s is not None:
        # Cascade fusion: the finer tier's merge is a plain integer
        # aggregation (no gap-fill, no blobs), and integer partial
        # aggregation is associative — re-bucketing the fine-tier
        # PARTIALS straight to the coarser unit is byte-identical to
        # materializing the fine tier first, and skips one full shuffle.
        # (Buckets still floor through the fine unit: ts -> 60s -> 3600s.)
        ds = ds.map_batches(
            cascade_batch, batch_format="pyarrow",
            fn_kwargs={"unit_s": unit_s, "key_col": key_col},
        )
    spans: dict = {}
    if fill_gaps:
        ds = ds.materialize()  # partials: tier-sized, enables span reduce
        spans = spans_from_partials(ds, key_col=key_col)
    ds = run_tier(ds, f"u{unit_s}", unit_s, segment_points, spans,
                  gap_fill=fill_gaps, blobs_dir=None, key_col=key_col)
    return ds.map_batches(_derive_batch, batch_format="pyarrow",
                          fn_kwargs={"key_col": key_col})


def _derive_batch(batch: pa.Table, key_col: str) -> pa.Table:
    """Final tier rows: derive mean from the exact integer sums."""
    cnt = batch["count"].to_numpy(zero_copy_only=False)
    s = batch["sum"].to_numpy(zero_copy_only=False)
    cf = cnt.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        # mirror the oracle expression: (CAST(sum AS DOUBLE)/count)/100.0
        mean = (s.astype(np.float64) / cf) / 100.0
    mean_col = pa.array(mean, type=pa.float64(), mask=cnt == 0)
    t = pa.table({
        key_col: batch[key_col],
        "bucket": batch["bucket"].cast(pa.int64()),
        "count": batch["count"].cast(pa.int64()),
        "sum_cents": batch["sum"].cast(pa.int64()),
        "min_cents": batch["min"],
        "max_cents": batch["max"],
    })
    return t.append_column("mean_val", mean_col)


def rollup_table_multi(
    path: str,
    unit_s: int,
    key_col: str,
    ts_col: str,
    measures: tuple[tuple[str, str, float], ...],
    batch_size: int = 32768,
    segment_points: int = 4096,
    fill_gaps: bool = False,
    blobs_dir: str | None = None,
) -> "ray.data.Dataset":
    """Multi-measure continuous aggregate: same ONE-shuffle dataflow as
    ``rollup_table`` but every measure rolls up in the same pass —
    real tables carry several measures per scan (VERDICT r04 missing
    #3), and scanning once per measure would multiply the read AND the
    shuffle by #measures. Output: key, bucket, count, then per measure
    sum_<m>:int64, min_<m>:int64, max_<m>:int64, mean_<m>:float64
    (mean = CAST(sum AS DOUBLE) / count / scale, null on gap rows —
    the exact oracle expression tree)."""
    from ..stages.tier_kernel import run_tier, spans_from_partials

    names = tuple(m[0] for m in measures)
    ds = ray.data.read_parquet(
        path, columns=[key_col, ts_col, *dict.fromkeys(m[1] for m in measures)])
    ds = ds.map_batches(
        _partial_batch, batch_format="pyarrow", batch_size=batch_size,
        fn_kwargs={"unit_s": unit_s, "key_col": key_col,
                   "ts_col": ts_col, "measures": measures})
    spans: dict = {}
    if fill_gaps:
        ds = ds.materialize()
        spans = spans_from_partials(ds, key_col=key_col)
    ds = run_tier(ds, f"u{unit_s}", unit_s, segment_points, spans,
                  gap_fill=fill_gaps, blobs_dir=blobs_dir, key_col=key_col,
                  measures=names)

    scales = {m[0]: m[2] for m in measures}

    def _derive(batch: pa.Table) -> pa.Table:
        cnt = batch["count"].to_numpy(zero_copy_only=False)
        cf = cnt.astype(np.float64)
        cols = {key_col: batch[key_col],
                "bucket": batch["bucket"].cast(pa.int64()),
                "count": batch["count"].cast(pa.int64())}
        for n in names:
            cols[f"sum_{n}"] = batch[f"sum_{n}"].cast(pa.int64())
            cols[f"min_{n}"] = batch[f"min_{n}"]
            cols[f"max_{n}"] = batch[f"max_{n}"]
            s = batch[f"sum_{n}"].to_numpy(zero_copy_only=False)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean = (s.astype(np.float64) / cf) / float(scales[n])
            cols[f"mean_{n}"] = pa.array(mean, type=pa.float64(),
                                         mask=cnt == 0)
        return pa.table(cols)

    return ds.map_batches(_derive, batch_format="pyarrow")


def _points_to_partials_batch(batch: pa.Table, key_col: str) -> pa.Table:
    """Rolled tier rows re-enter the kernel as partials: exact-integer
    (count,sum,min,max) per (key,bucket); derived mean dropped, gap rows
    (count==0, null min/max) dropped."""
    import pyarrow.compute as pc

    t = pa.table({
        key_col: batch[key_col],
        "bucket": batch["bucket"],
        "count": batch["count"],
        "sum": batch["sum_cents"],
        "min": batch["min_cents"],
        "max": batch["max_cents"],
    })
    return t.filter(pc.greater(t["count"], 0))


def rollup_table_ingest(
    old_points: "ray.data.Dataset",
    new_path: str,
    unit_s: int,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
    batch_size: int = 32768,
    segment_points: int = 4096,
) -> "ray.data.Dataset":
    """Continuous-aggregate INGEST: fold new event files into an already
    rolled tier WITHOUT re-reading old events — the existing points
    re-enter the tier kernel as partials (their count/sum/min/max are
    exact integers, and integer merges are order-independent), so the
    merged tier is bit-identical to ``rollup_table`` over the combined
    input. The scan covers only ``new_path``; the one shuffle moves
    O(existing points + new partials) rows. Same output schema as
    ``rollup_table``."""
    from ..stages.tier_kernel import run_tier

    # materialized (points-sized): a lazy ``old`` still holding its own
    # sort stalls Ray's executor on the union in a 1-CPU session
    old = old_points.map_batches(_points_to_partials_batch,
                                 batch_format="pyarrow",
                                 fn_kwargs={"key_col": key_col}).materialize()
    new = ray.data.read_parquet(
        new_path, columns=[key_col, ts_col, value_col]
    ).map_batches(
        _partial_batch, batch_format="pyarrow", batch_size=batch_size,
        fn_kwargs={"unit_s": unit_s, "key_col": key_col,
                   "ts_col": ts_col, "measures": (("", value_col, 100.0),)})
    ds = run_tier(old.union(new), f"u{unit_s}", unit_s, segment_points,
                  {}, gap_fill=False, blobs_dir=None, key_col=key_col)
    return ds.map_batches(_derive_batch, batch_format="pyarrow",
                          fn_kwargs={"key_col": key_col})


class _ExactACFKernel:
    """Per-key lag-k ACF from exact integer sums (map_groups kernel).

    r_k = sum_t (x_t - m)(x_{t+k} - m) / sum_t (x_t - m)^2   (R stats::acf,
    /root/reference/R/acf.R:61-102 semantics: denominator over the full
    series, lag 0 dropped). Expanded into integer power sums so the final
    doubles are a fixed expression over exact ints — bit-identical to the
    SQL oracle evaluating the same expression:

      num_k = (Sxy_k - m*(H_k + T_k)) + ((n-k)*m)*m
      den   = SS - S*m            with  m = S/n
    """

    def __init__(self, key_col: str, value_col: str, lag_max: int):
        self.key_col = key_col
        self.value_col = value_col
        self.lag_max = lag_max

    def __call__(self, group: pa.Table) -> pa.Table:
        b = group["bucket"].to_numpy(zero_copy_only=False)
        order = np.argsort(b, kind="mergesort")
        x = np.asarray(group[self.value_col].to_numpy(zero_copy_only=False),
                       dtype=np.int64)[order]
        n = len(x)
        S = int(x.sum())
        SS = int(np.dot(x, x))
        m = S / n
        den = SS - S * m
        lags, vals = [], []
        for k in range(1, min(self.lag_max, n - 1) + 1):
            sxy = int(np.dot(x[:-k], x[k:]))
            h = int(x[:-k].sum())
            t = int(x[k:].sum())
            num = (sxy - m * (h + t)) + ((n - k) * m) * m
            lags.append(k)
            vals.append(num / den if den != 0 else float("nan"))
        m_rows = len(lags)
        return pa.table({
            self.key_col: group[self.key_col].take(
                pa.array(np.zeros(m_rows, dtype=np.int64))),
            "lag": pa.array(np.array(lags, dtype=np.int64)),
            "acf": pa.array(np.array(vals, dtype=np.float64)),
        })


def acf_of_counts(
    rolled: "ray.data.Dataset",
    key_col: str = "event_type",
    value_col: str = "count",
    lag_max: int = 24,
) -> "ray.data.Dataset":
    """Lag-k ACF table of a rolled-up integer column per key (one shuffle)."""
    return rolled.groupby(key_col).map_groups(
        _ExactACFKernel,
        fn_constructor_args=(key_col, value_col, lag_max),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
