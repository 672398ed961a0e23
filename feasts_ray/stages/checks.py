"""Structural validation predicates (reference R/dcmp_checks.R:1-27).

The reference aborts on gaps / irregular / unordered input; our engine
checks distributively and either raises (strict=True) or reports. All are
single tiny aggregations — no data leaves the cluster except per-key
booleans.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


class GapCheckError(ValueError):
    pass


def check_gaps(ds: "ray.data.Dataset", key_col: str, bucket_col: str, unit_s: int,
               strict: bool = True) -> pd.DataFrame:
    """Per key: gaps exist iff count < (max-min)/unit + 1 (distributed AGG;
    reference check_gaps aborts — R/dcmp_checks.R:1-5)."""
    from ray.data.aggregate import Count, Max, Min

    agg = (
        ds.groupby(key_col)
        .aggregate(Count(alias_name="n"), Min(bucket_col, alias_name="lo"), Max(bucket_col, alias_name="hi"))
        .to_pandas()
    )
    agg["expected"] = (agg["hi"] - agg["lo"]) // unit_s + 1
    agg["has_gaps"] = agg["n"] < agg["expected"]
    if strict and agg["has_gaps"].any():
        bad = agg.loc[agg["has_gaps"], key_col].tolist()
        raise GapCheckError(
            f"keys {bad} contain implicit gaps in time; roll up with gap "
            "fill to convert implicit gaps into explicit missing values"
        )
    return agg[[key_col, "n", "has_gaps"]]


def check_regular(ds: "ray.data.Dataset", key_col: str, bucket_col: str,
                  strict: bool = True) -> pd.DataFrame:
    """Per key: interval is regular iff all sorted bucket deltas equal
    (reference check_regular — R/dcmp_checks.R:7-11)."""

    def _deltas(group: pd.DataFrame) -> pd.DataFrame:
        b = np.sort(group[bucket_col].to_numpy(dtype=np.int64))
        d = np.unique(np.diff(b)) if len(b) > 1 else np.array([], dtype=np.int64)
        return pd.DataFrame({key_col: [group[key_col].iloc[0]],
                             "regular": [bool(len(d) <= 1)]})

    out = ds.groupby(key_col).map_groups(_deltas, batch_format="pandas").to_pandas()
    if strict and not out["regular"].all():
        bad = out.loc[~out["regular"], key_col].tolist()
        raise GapCheckError(f"keys {bad} form an irregular time series")
    return out


def ensure_ordered(ds: "ray.data.Dataset", key_col: str, bucket_col: str) -> "ray.data.Dataset":
    """The reference aborts on unordered input (check_ordered,
    R/dcmp_checks.R:13-18); we sort instead — cheaper than a failed job.
    Per-series kernels also sort within group, so this is only needed when
    a globally ordered table is the contract."""
    return ds.sort([key_col, bucket_col])


def check_nonempty(ds: "ray.data.Dataset", strict: bool = True) -> int:
    n = ds.count()
    if strict and n == 0:
        raise ValueError("There is no data to decompose. Please provide a dataset "
                         "with at least one observation.")
    return n
