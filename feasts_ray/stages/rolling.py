"""Rolling-window aggregates over keyed series (the reference consumes
slider::slide_dbl for trailing windows, e.g. shift_level_max
/root/reference/R/features.R:395-417; this exposes the same trailing
windows as a first-class distributed stage).

One groupby(key) shuffle; inside the kernel every statistic is O(n) via
prefix sums (mean/sum/var) — no per-window loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def _trailing_windows(x: np.ndarray, size: int):
    """(sums, counts, sumsq) of the trailing window ending at each t
    (window = last `size` values, partial at the head)."""
    n = len(x)
    v = np.nan_to_num(x, nan=0.0)
    ok = (~np.isnan(x)).astype(np.float64)
    cs = np.concatenate([[0.0], np.cumsum(v)])
    cc = np.concatenate([[0.0], np.cumsum(ok)])
    cq = np.concatenate([[0.0], np.cumsum(v * v)])
    lo = np.maximum(np.arange(n) + 1 - size, 0)
    hi = np.arange(n) + 1
    return cs[hi] - cs[lo], cc[hi] - cc[lo], cq[hi] - cq[lo]


class _RollingKernel:
    def __init__(self, value_col, key_col, time_col, size, stats, min_periods):
        self.value_col = value_col
        self.key_col = key_col
        self.time_col = time_col
        self.size = size
        self.stats = tuple(stats)
        self.min_periods = min_periods

    def __call__(self, group: pa.Table) -> pa.Table:
        t = group[self.time_col].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="mergesort")
        x = np.asarray(group[self.value_col].to_numpy(zero_copy_only=False),
                       dtype=np.float64)[order]
        s, c, q = _trailing_windows(x, self.size)
        enough = c >= self.min_periods
        take = pa.array(order)
        out = {
            self.key_col: group[self.key_col].take(take),
            self.time_col: group[self.time_col].take(take),
            self.value_col: pa.array(x),
        }
        with np.errstate(invalid="ignore", divide="ignore"):
            if "mean" in self.stats:
                out["roll_mean"] = pa.array(np.where(enough, s / c, np.nan))
            if "sum" in self.stats:
                out["roll_sum"] = pa.array(np.where(enough, s, np.nan))
            if "var" in self.stats:
                mu = s / c
                var = np.where(c > 1, (q - c * mu * mu) / (c - 1), np.nan)
                out["roll_var"] = pa.array(np.where(enough, var, np.nan))
            if "count" in self.stats:
                out["roll_count"] = pa.array(c)
        return pa.table(out)


def rolling(
    ds: "ray.data.Dataset",
    value_col: str,
    key_col: str,
    time_col: str = "bucket",
    size: int = 10,
    stats=("mean", "var", "count"),
    min_periods: int = 1,
) -> "ray.data.Dataset":
    """Trailing rolling stats per key, O(n) prefix-sum kernels."""
    kernel = _RollingKernel(value_col, key_col, time_col, size, stats,
                            min_periods)
    return ds.groupby(key_col).map_groups(kernel.__call__,
                                          batch_format="pyarrow")


class _RollingQuantileKernel:
    """Trailing-window DISCRETE quantiles per key (rolling median /
    robust percentile bands). Selection only — the output is an ELEMENT
    of the window (DuckDB quantile_disc definition sorted[ceil(q*n)-1]),
    so there is no float arithmetic at all and the windowed
    quantile_disc SQL oracle matches bit-exactly for any dtype.

    Kernel: one sliding_window_view + per-row sort, O(n * w log w) per
    series — w is a small constant (24/168-style windows) and n is one
    series' bucket count, far off the corpus-scan hot path. Head
    windows are partial (ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW
    framing): the pad sentinel sorts last and the pick index uses the
    true count."""

    def __init__(self, value_col, key_col, time_col, size, qs):
        self.value_col = value_col
        self.key_col = key_col
        self.time_col = time_col
        self.size = int(size)
        self.qs = tuple(float(q) for q in qs)

    def __call__(self, group: pa.Table) -> pa.Table:
        t = group[self.time_col].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="mergesort")
        x = np.asarray(group[self.value_col].to_numpy(zero_copy_only=False)
                       )[order]
        n, w = len(x), self.size
        if np.issubdtype(x.dtype, np.integer):
            pad = np.iinfo(x.dtype).max
        else:
            pad = np.inf  # sorts last; never selected (index < count)
        padded = np.concatenate([np.full(w - 1, pad, dtype=x.dtype), x])
        win = np.sort(np.lib.stride_tricks.sliding_window_view(padded, w),
                      axis=1)
        c = np.minimum(np.arange(n) + 1, w)
        take = pa.array(order)
        out = {
            self.key_col: group[self.key_col].take(take),
            self.time_col: group[self.time_col].take(take),
            self.value_col: pa.array(x),
        }
        rows = np.arange(n)
        for q in self.qs:
            idx = np.ceil(q * c).astype(np.int64) - 1
            out[f"roll_p{round(q * 1000):03d}"] = pa.array(
                win[rows, np.maximum(idx, 0)])
        return pa.table(out)


def rolling_quantile(
    ds: "ray.data.Dataset",
    value_col: str,
    key_col: str,
    time_col: str = "bucket",
    size: int = 24,
    qs=(0.5,),
) -> "ray.data.Dataset":
    """Trailing rolling discrete quantiles (median by default) per key —
    one groupby(key) shuffle, selection-only kernel (bit-exact vs a
    windowed quantile_disc oracle for any dtype)."""
    kernel = _RollingQuantileKernel(value_col, key_col, time_col, size, qs)
    return ds.groupby(key_col).map_groups(kernel.__call__,
                                          batch_format="pyarrow")


class _RollingCorrKernel:
    """Trailing-window Pearson correlation of two integer series per
    key. All five window sums (count, Σx, Σy, Σxy, Σx², Σy²) are EXACT
    int64 prefix-sum differences; the correlation is ONE mirrored IEEE
    expression — num/(sqrt(d1)*sqrt(d2)) over the exact ints — so the
    window-SUM SQL oracle matches every double bitwise. Windows whose
    x or y variance term is <= 0 (fewer than 2 points, or constant)
    yield NULL, same as the SQL CASE. Values large enough to overflow
    the int64 window sums raise ValueError."""

    def __init__(self, x_col, y_col, key_col, time_col, size):
        self.x_col, self.y_col = x_col, y_col
        self.key_col, self.time_col = key_col, time_col
        self.size = int(size)

    def __call__(self, group: pa.Table) -> pa.Table:
        t = group[self.time_col].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="mergesort")
        x = group[self.x_col].to_numpy(zero_copy_only=False).astype(
            np.int64)[order]
        y = group[self.y_col].to_numpy(zero_copy_only=False).astype(
            np.int64)[order]
        n, w = len(x), self.size
        # every product below is bounded by w*w*M^2 (M = max |x|, |y|);
        # past int64 the sums would wrap, where the BIGINT oracle raises
        m = max(-int(x.min()), int(x.max()), -int(y.min()), int(y.max()))
        if min(w, n) ** 2 * m * m >= 2**63:
            raise ValueError(
                f"rolling_corr: window sums of {self.x_col!r}, {self.y_col!r} "
                f"overflow int64 (max |value| {m}, window {min(w, n)})")

        def win(v: np.ndarray) -> np.ndarray:
            cs = np.concatenate([[0], np.cumsum(v)])
            lo = np.maximum(np.arange(n) + 1 - w, 0)
            return cs[np.arange(n) + 1] - cs[lo]

        c = np.minimum(np.arange(n) + 1, w).astype(np.int64)
        sx, sy = win(x), win(y)
        sxy, sxx, syy = win(x * y), win(x * x), win(y * y)
        num = c * sxy - sx * sy
        d1 = c * sxx - sx * sx
        d2 = c * syy - sy * sy
        ok = (d1 > 0) & (d2 > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = num.astype(np.float64) / (
                np.sqrt(d1.astype(np.float64))
                * np.sqrt(d2.astype(np.float64)))
        take = pa.array(order)
        return pa.table({
            self.key_col: group[self.key_col].take(take),
            self.time_col: group[self.time_col].take(take),
            self.x_col: pa.array(x, type=pa.int64()),
            self.y_col: pa.array(y, type=pa.int64()),
            "roll_corr": pa.array(np.where(ok, corr, 0.0),
                                  type=pa.float64(), mask=~ok),
        })


def rolling_corr(
    ds: "ray.data.Dataset",
    x_col: str,
    y_col: str,
    key_col: str,
    time_col: str = "bucket",
    size: int = 24,
) -> "ray.data.Dataset":
    """Trailing rolling Pearson correlation of two integer columns per
    key: one groupby(key) shuffle, O(n) prefix-sum kernel, bit-exact vs
    a window-SUM SQL oracle (exact int sums, one mirrored float
    expression)."""
    kernel = _RollingCorrKernel(x_col, y_col, key_col, time_col, size)
    return ds.groupby(key_col).map_groups(kernel.__call__,
                                          batch_format="pyarrow")


class _EwmKernel:
    def __init__(self, value_col, key_col, time_col, alpha):
        self.value_col = value_col
        self.key_col = key_col
        self.time_col = time_col
        self.alpha = float(alpha)

    def __call__(self, group: pa.Table) -> pa.Table:
        t = group[self.time_col].to_numpy(zero_copy_only=False)
        order = np.argsort(t, kind="mergesort")
        x = np.asarray(group[self.value_col].to_numpy(zero_copy_only=False),
                       dtype=np.float64)[order]
        a, b = self.alpha, 1.0 - self.alpha
        s = np.empty(len(x))
        acc = x[0]
        s[0] = acc
        # strict order-dependent recurrence: one multiply-add per BUCKET
        # of one series (not per raw row) — a few thousand steps/key at
        # hourly grain, far off the corpus-scan hot path. The literal
        # a*x + b*acc expression tree is mirrored by the recursive-CTE
        # SQL oracle, so the doubles match bitwise.
        for i in range(1, len(x)):
            acc = a * x[i] + b * acc
            s[i] = acc
        take = pa.array(order)
        return pa.table({
            self.key_col: group[self.key_col].take(take),
            self.time_col: group[self.time_col].take(take),
            self.value_col: pa.array(x),
            "ewm_mean": pa.array(s),
        })


def ewm_mean(
    ds: "ray.data.Dataset",
    value_col: str,
    key_col: str,
    time_col: str = "bucket",
    alpha: float = 0.25,
) -> "ray.data.Dataset":
    """Exponentially weighted mean per key (adjust=False recursion
    s_t = alpha*x_t + (1-alpha)*s_{t-1}, seeded s_0 = x_0). Pick an
    alpha with an exact binary representation (0.25, 0.5, 0.125) when
    bit-exact SQL-oracle comparison matters: then 1-alpha is exact too
    and the kernel/SQL expression trees agree to the last ulp."""
    kernel = _EwmKernel(value_col, key_col, time_col, alpha)
    return ds.groupby(key_col).map_groups(kernel.__call__,
                                          batch_format="pyarrow")
