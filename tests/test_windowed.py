"""EWMA and exact per-key quantiles (windowed-aggregate family)."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from feasts_ray.stages.quantiles import group_quantiles
from feasts_ray.stages.rolling import ewm_mean


def test_ewm_matches_scalar_recursion(ray_session):
    rng = np.random.default_rng(3)
    rows = []
    for key in ("a", "b"):
        x = rng.integers(0, 50, size=300)
        rows.append(pd.DataFrame({
            "k": key, "t": np.arange(300, dtype=np.int64), "v": x}))
    df = pd.concat(rows, ignore_index=True).sample(frac=1.0, random_state=0)
    got = ewm_mean(ray.data.from_pandas(df).repartition(4), value_col="v",
                   key_col="k", time_col="t", alpha=0.25).to_pandas()
    got = got.sort_values(["k", "t"], ignore_index=True)
    for key, g in got.groupby("k"):
        x = g["v"].to_numpy(dtype=np.float64)
        acc = x[0]
        want = [acc]
        for xi in x[1:]:
            acc = 0.25 * xi + 0.75 * acc
            want.append(acc)
        # bitwise: the kernel must run the identical recursion
        assert (g["ewm_mean"].to_numpy().view(np.int64)
                == np.array(want).view(np.int64)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 101, 1000])
def test_quantiles_match_duckdb_disc(ray_session, n):
    import duckdb

    rng = np.random.default_rng(n)
    v = rng.integers(-1000, 1000, size=n)
    df = pd.DataFrame({"k": "x", "v": v})
    got = group_quantiles(ray.data.from_pandas(df), value_col="v",
                          key_col="k", qs=(0.5, 0.9, 0.99)).to_pandas()
    con = duckdb.connect()
    want = con.execute(
        "SELECT COUNT(*) AS n_vals, quantile_disc(v, 0.5) AS p500, "
        "quantile_disc(v, 0.9) AS p900, quantile_disc(v, 0.99) AS p990 "
        "FROM df").df()
    assert int(got["n_vals"].iloc[0]) == n
    for c in ("p500", "p900", "p990"):
        assert int(got[c].iloc[0]) == int(want[c].iloc[0]), (c, n)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_rolling_quantile_matches_duckdb(ray_session, dtype):
    import duckdb

    from feasts_ray.stages.rolling import rolling_quantile

    rng = np.random.default_rng(11)
    rows = []
    for key in ("a", "b"):
        x = rng.integers(0, 40, size=200).astype(dtype)
        rows.append(pd.DataFrame({
            "k": key, "t": np.arange(200, dtype=np.int64), "v": x}))
    df = pd.concat(rows, ignore_index=True).sample(frac=1.0, random_state=1)
    got = rolling_quantile(ray.data.from_pandas(df).repartition(4),
                           value_col="v", key_col="k", time_col="t",
                           size=24, qs=(0.5, 0.9)).to_pandas()
    got = got.sort_values(["k", "t"], ignore_index=True)
    want = duckdb.connect().execute("""
        SELECT k, t, v,
          quantile_disc(v, 0.5) OVER w AS roll_p500,
          quantile_disc(v, 0.9) OVER w AS roll_p900
        FROM df WINDOW w AS (PARTITION BY k ORDER BY t
          ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
        ORDER BY k, t""").df()
    for c in ("v", "roll_p500", "roll_p900"):
        # selection-only: the output is an ELEMENT of the window, so
        # even the float case compares exactly
        assert (got[c].to_numpy().astype(dtype)
                == want[c].to_numpy().astype(dtype)).all(), c


def test_rolling_quantile_head_windows_and_q0(ray_session):
    """Partial head windows use the true count; q=0 picks the min."""
    from feasts_ray.stages.rolling import rolling_quantile

    df = pd.DataFrame({"k": "a", "t": np.arange(5, dtype=np.int64),
                       "v": np.array([5, 1, 9, 1, 3], dtype=np.int64)})
    got = rolling_quantile(ray.data.from_pandas(df), value_col="v",
                           key_col="k", time_col="t", size=3,
                           qs=(0.0, 0.5, 1.0)).to_pandas()
    got = got.sort_values("t", ignore_index=True)
    # windows: [5], [5,1], [5,1,9], [1,9,1], [9,1,3]
    assert got["roll_p000"].tolist() == [5, 1, 1, 1, 1]
    assert got["roll_p500"].tolist() == [5, 1, 5, 1, 3]
    assert got["roll_p1000"].tolist() == [5, 5, 9, 9, 9]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 101, 1000])
def test_quantiles_hist_identical_to_sort_kernel(ray_session, n):
    """The histogram scale path must emit the SAME rows as the
    sort-in-group kernel (and therefore stay quantile_disc-exact)."""
    from feasts_ray.stages.quantiles import (group_quantiles,
                                             group_quantiles_hist)

    rng = np.random.default_rng(n + 77)
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], size=n),
        "v": rng.integers(-50, 50, size=n).astype(np.int64)})
    ds = ray.data.from_pandas(df).repartition(3)
    a = group_quantiles(ds, "v", "k", qs=(0.5, 0.9, 0.99)).to_pandas()
    b = group_quantiles_hist(ds, "v", "k", qs=(0.5, 0.9, 0.99)).to_pandas()
    a = a.sort_values("k", ignore_index=True)
    b = b.sort_values("k", ignore_index=True)
    pd.testing.assert_frame_equal(a, b[a.columns])


def _corr_oracle(df, size):
    import duckdb

    return duckdb.connect().execute(f"""
        WITH w AS (SELECT t, x, y,
          CAST(COUNT(*) OVER win AS BIGINT) AS c,
          CAST(SUM(x) OVER win AS BIGINT) AS sx,
          CAST(SUM(y) OVER win AS BIGINT) AS sy,
          CAST(SUM(x*y) OVER win AS BIGINT) AS sxy,
          CAST(SUM(x*x) OVER win AS BIGINT) AS sxx,
          CAST(SUM(y*y) OVER win AS BIGINT) AS syy
          FROM df WINDOW win AS (ORDER BY t
            ROWS BETWEEN {size - 1} PRECEDING AND CURRENT ROW))
        SELECT t, CASE WHEN c*sxx - sx*sx > 0 AND c*syy - sy*sy > 0 THEN
          CAST(c*sxy - sx*sy AS DOUBLE) / (sqrt(CAST(c*sxx - sx*sx AS DOUBLE))
            * sqrt(CAST(c*syy - sy*sy AS DOUBLE))) END AS roll_corr
        FROM w ORDER BY t""").df()


def test_rolling_corr_matches_duckdb_and_numpy(ray_session):
    from feasts_ray.stages.rolling import rolling_corr

    rng = np.random.default_rng(23)
    n = 300
    x = rng.integers(0, 30, size=n)
    y = (x // 2 + rng.integers(0, 10, size=n))  # correlated + noise
    df = pd.DataFrame({"k": "p", "t": np.arange(n, dtype=np.int64),
                       "x": x.astype(np.int64), "y": y.astype(np.int64)})
    got = rolling_corr(ray.data.from_pandas(df).repartition(3),
                       "x", "y", key_col="k", time_col="t", size=12
                       ).to_pandas().sort_values("t", ignore_index=True)
    want = _corr_oracle(df, 12)
    g, e = got["roll_corr"], want["roll_corr"]
    assert (g.isna() == e.isna()).all()
    m = ~g.isna()
    # identical expression tree: bitwise equal
    assert (g[m].to_numpy().view(np.int64)
            == e[m].to_numpy().view(np.int64)).all()
    # and numerically the Pearson correlation (numpy reference)
    for i in (11, 50, 299):
        lo = max(0, i - 11)
        ref = np.corrcoef(x[lo:i + 1], y[lo:i + 1])[0, 1]
        assert abs(g.iloc[i] - ref) < 1e-12
    # head window of 1 point: NULL
    assert np.isnan(g.iloc[0])


def test_rolling_corr_int64_overflow_raises_named_error():
    """Values near 2^31 with w=24 push the window sums past int64, where
    the BIGINT oracle raises: the kernel raises a named ValueError
    instead of wrapping."""
    import pyarrow as pa

    from feasts_ray.stages.rolling import _RollingCorrKernel

    n = 60
    rng = np.random.default_rng(5)
    x = 2**31 - rng.integers(0, 1000, size=n)
    group = pa.table({"k": ["p"] * n, "t": np.arange(n, dtype=np.int64),
                      "x": x, "y": x[::-1].copy()})
    with pytest.raises(ValueError, match="overflow int64"):
        _RollingCorrKernel("x", "y", "k", "t", 24)(group)


def test_rolling_corr_just_under_overflow_bound_matches(ray_session):
    """Just under w*w*M^2 < 2^63 every window sum is exact and the
    result still matches the oracle bit for bit."""
    from feasts_ray.stages.rolling import rolling_corr

    m, n = 126_541_687, 60  # 24*24*m*m < 2^63 <= 24*24*(m+1)^2
    rng = np.random.default_rng(9)
    x = m - rng.integers(0, 50_000_000, size=n)
    y = -(m - rng.integers(0, 50_000_000, size=n))
    x[7], y[11] = m, -m
    df = pd.DataFrame({"k": "p", "t": np.arange(n, dtype=np.int64),
                       "x": x.astype(np.int64), "y": y.astype(np.int64)})
    got = rolling_corr(ray.data.from_pandas(df), "x", "y", key_col="k",
                       time_col="t", size=24
                       ).to_pandas().sort_values("t", ignore_index=True)
    want = _corr_oracle(df, 24)
    g, e = got["roll_corr"], want["roll_corr"]
    assert (g.isna() == e.isna()).all() and (~g.isna()).sum() > 40
    m_ = ~g.isna()
    assert (g[m_].to_numpy().view(np.int64)
            == e[m_].to_numpy().view(np.int64)).all()
