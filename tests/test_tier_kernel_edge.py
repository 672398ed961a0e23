"""Tier kernel edge cases: pathological skew, single-point sources,
all-gap segments, segment-boundary buckets — vs a pandas oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from feasts_ray.stages.tier_kernel import run_tier, spans_from_partials


def _partials_ds(df: pd.DataFrame, nblocks: int = 4):
    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False)
                               ).repartition(nblocks)


def _oracle(df: pd.DataFrame, unit_s: int, gap_fill: bool) -> pd.DataFrame:
    g = df.groupby(["source", "bucket"], sort=True).agg(
        count=("count", "sum"), sum=("sum", "sum"),
        min=("min", "min"), max=("max", "max")).reset_index()
    if gap_fill:
        out = []
        for src, sub in g.groupby("source"):
            lo = (sub["bucket"].min() // unit_s) * unit_s
            dense = np.arange(lo, sub["bucket"].max() + 1, unit_s)
            sub = sub.set_index("bucket").reindex(dense)
            sub["source"] = src
            sub["count"] = sub["count"].fillna(0).astype(np.int64)
            sub["sum"] = sub["sum"].fillna(0).astype(np.int64)
            out.append(sub.reset_index(names="bucket"))
        g = pd.concat(out, ignore_index=True)[["source", "bucket", "count",
                                               "sum", "min", "max"]]
    cnt = g["count"].to_numpy(np.int64)
    s = g["sum"].to_numpy(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        g["mean"] = np.where(cnt > 0, s / cnt.astype(np.float64), np.nan)
    return g.sort_values(["source", "bucket"], ignore_index=True)


def _run(df, unit_s, gap_fill, segment_points=64):
    ds = _partials_ds(df)
    spans = spans_from_partials(ds, key_col="source") if gap_fill else {}
    got = run_tier(ds, "t", unit_s, segment_points, spans, gap_fill=gap_fill,
                   blobs_dir=None, key_col="source").to_pandas()
    return got.sort_values(["source", "bucket"], ignore_index=True)


def _compare(got, exp):
    assert len(got) == len(exp)
    for c in ("source", "bucket", "count", "sum"):
        np.testing.assert_array_equal(got[c].to_numpy(), exp[c].to_numpy())
    for c in ("min", "max", "mean"):
        a = got[c].to_numpy(dtype=np.float64, na_value=np.nan)
        b = exp[c].to_numpy(dtype=np.float64, na_value=np.nan)
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        np.testing.assert_array_equal(a[~np.isnan(a)], b[~np.isnan(b)])


def test_zipf_skew_bounded_groups(ray_session):
    """One source holds ~95% of rows; segment grouping bounds the hot key."""
    rng = np.random.default_rng(0)
    n_hot, n_cold = 20000, 500
    df = pd.DataFrame({
        "source": ["hot"] * n_hot + ["cold"] * n_cold,
        "bucket": np.concatenate([rng.integers(0, 5000, n_hot),
                                  rng.integers(0, 300, n_cold)]),
        "count": 1,
        "sum": np.concatenate([rng.integers(1, 100, n_hot),
                               rng.integers(1, 100, n_cold)]),
    })
    df["min"] = df["sum"]
    df["max"] = df["sum"]
    _compare(_run(df, 1, gap_fill=True), _oracle(df, 1, gap_fill=True))


def test_single_point_source(ray_session):
    df = pd.DataFrame({"source": ["a", "b", "b"], "bucket": [7, 0, 120],
                       "count": [1, 1, 1], "sum": [10, 5, 6],
                       "min": [10, 5, 6], "max": [10, 5, 6]})
    got = _run(df, 60, gap_fill=True)
    exp = _oracle(df, 60, gap_fill=True)
    _compare(got, exp)
    # source b spans [0,120] at 1m -> buckets 0,60,120 with a gap at 60
    b = got[got["source"] == "b"]
    assert list(b["bucket"]) == [0, 60, 120]
    assert list(b["count"]) == [1, 0, 1]


def test_all_gap_middle_segment(ray_session):
    """A fully-empty segment inside the span must still emit gap rows
    (skeleton seeding)."""
    seg_pts = 16
    df = pd.DataFrame({"source": ["s", "s"], "bucket": [0, 100],
                       "count": [1, 1], "sum": [2, 3],
                       "min": [2, 3], "max": [2, 3]})
    got = _run(df, 1, gap_fill=True, segment_points=seg_pts)
    assert list(got["bucket"]) == list(range(101))
    assert got["count"].sum() == 2
    assert (got["count"] == 0).sum() == 99


def test_boundary_buckets_not_duplicated(ray_session):
    """Buckets exactly on segment boundaries land in exactly one group."""
    seg_pts = 8
    buckets = np.array([0, 7, 8, 15, 16, 16, 24])
    df = pd.DataFrame({"source": "s", "bucket": buckets, "count": 1,
                       "sum": buckets, "min": buckets, "max": buckets})
    got = _run(df, 1, gap_fill=False, segment_points=seg_pts)
    exp = _oracle(df, 1, gap_fill=False)
    _compare(got, exp)


def test_no_gap_fill_passthrough(ray_session):
    rng = np.random.default_rng(1)
    df = pd.DataFrame({
        "source": rng.choice(["x", "y"], 5000),
        "bucket": rng.integers(0, 1000, 5000) * 60,
        "count": 1, "sum": rng.integers(1, 50, 5000),
    })
    df["min"] = df["sum"]
    df["max"] = df["sum"]
    _compare(_run(df, 60, gap_fill=False), _oracle(df, 60, gap_fill=False))


def test_spans_broadcast_not_in_closure(ray_session):
    """With 10^5 sources the kernel submitted per task must stay tiny:
    the span table ships via ray.put (per-process cached resolve), so the
    pickled kernel is O(1), and the tier output over a 2-source subset is
    still correct against the oracle."""
    import pickle

    from feasts_ray.stages.tier_kernel import TierSegmentKernel, _put_once

    big_spans = {f"src{i:06d}": (0, 3600) for i in range(100_000)}
    kernel = TierSegmentKernel("t", 60, 60 * 64, _put_once(big_spans),
                               True, None, "source")
    assert len(pickle.dumps(kernel)) < 10_000  # ref, not the dict
    # resolves back to the real table inside a worker-like context
    assert kernel.spans["src000000"] == (0, 3600)
    # end-to-end correctness unaffected by the broadcast path
    df = pd.DataFrame({
        "source": ["a"] * 3 + ["b"] * 2,
        "bucket": [0, 120, 240, 60, 180],
        "count": 1, "sum": [5, 6, 7, 8, 9],
    })
    df["min"] = df["sum"]
    df["max"] = df["sum"]
    _compare(_run(df, 60, gap_fill=True), _oracle(df, 60, gap_fill=True))


def test_broadcast_cache_bounded(ray_session):
    """The per-process broadcast cache is a tiny LRU: long-lived Ray
    workers must not accumulate one spans dict per pipeline run."""
    import ray as _ray

    from feasts_ray.state import broadcast as bc

    refs = [_ray.put({"k": i}) for i in range(bc._BROADCAST_CACHE_MAX + 3)]
    for r in refs:
        assert bc.resolve_broadcast(r)["k"] is not None
    assert len(bc._BROADCAST_CACHE) <= bc._BROADCAST_CACHE_MAX
    # most-recent entry survives and still resolves from cache
    assert bc.resolve_broadcast(refs[-1])["k"] == len(refs) - 1


def test_single_block_path_matches_distributed(ray_session):
    """cascade_chain — the coarse tiers back to back in one task, zero
    shuffle — produces the IDENTICAL point set at every tier as the
    distributed groupby path run tier by tier (cascade_batch + run_tier,
    as run_rollup's shuffle path), gap-filled and not, including
    blob-free float semantics."""
    from feasts_ray.config import Tier
    from feasts_ray.stages.rollup import cascade_batch
    from feasts_ray.stages.tier_kernel import cascade_chain

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "source": rng.choice(["p", "q", "r"], 4000),
        "bucket": rng.integers(0, 2000, 4000) * 60,
        "count": 1, "sum": rng.integers(1, 90, 4000),
    })
    df["min"] = df["sum"]
    df["max"] = df["sum"]
    tiers = (Tier("t1", 60), Tier("t2", 600))

    def _sorted(t):
        return t.to_pandas().sort_values(["source", "bucket"],
                                         ignore_index=True)

    for gap_fill in (False, True):
        ds = _partials_ds(df)
        spans = spans_from_partials(ds, key_col="source") if gap_fill else {}
        chain = cascade_chain(pa.Table.from_pandas(df, preserve_index=False),
                              tiers, [None, None], 64, spans, gap_fill)
        prev = ds
        for tier, single in zip(tiers, chain):
            dist = run_tier(
                prev.map_batches(cascade_batch, batch_format="pyarrow",
                                 fn_kwargs={"unit_s": tier.unit_s}),
                tier.name, tier.unit_s, 64, spans, gap_fill=gap_fill,
                blobs_dir=None, key_col="source").materialize()
            _compare(_sorted(single), _sorted(dist))
            prev = dist


def test_min_max_exact_above_2_53():
    """min/max are int64 with a validity mask at every tier: a group with
    min = max = 2^53 + 1 keeps that value exactly (a float64 round trip
    would return 2^53), gap-filled or not, and through the cascade; a
    group with a gap row and one without share one schema."""
    from feasts_ray.stages.rollup import cascade_batch
    from feasts_ray.stages.tier_kernel import TierSegmentKernel

    big = 2**53 + 1
    group = pa.table({"source": ["s", "s"], "bucket": [0, 120],
                      "count": [1, 2], "sum": [big, 2 * big],
                      "min": [big, big], "max": [big, big]})
    spans = {"s": (0, 120)}
    outs = {}
    for gap_fill in (False, True):
        out = TierSegmentKernel("t", 60, 60 * 64, spans, gap_fill, None)(group)
        outs[gap_fill] = out
        assert out.schema.field("min").type == pa.int64()
        mn, mx = out["min"].to_pylist(), out["max"].to_pylist()
        assert [v for v in mn if v is not None] == [big, big]
        assert [v for v in mx if v is not None] == [big, big]
    # the gap-filled group has a null gap row at bucket 60; same schema
    assert outs[True]["min"].to_pylist() == [big, None, big]
    assert outs[True].schema == outs[False].schema
    up = cascade_batch(outs[True].select(
        ["source", "bucket", "count", "sum", "min", "max"]), 3600)
    assert up["min"].to_pylist() == [big] and up["max"].to_pylist() == [big]
    assert up["count"].to_pylist() == [3]


def test_masked_reduce_all_null_run_stays_null():
    """The masked reduce over sorted runs: nulls never win, and a run of
    only nulls (pure gap) stays null."""
    from feasts_ray.stages.rollup import masked_reduceat

    v = np.array([5, 0, 0, 0, -3, 2**62], dtype=np.int64)
    ok = np.array([True, False, False, False, True, True])
    starts = np.array([0, 2, 4])
    assert masked_reduceat(np.minimum, v, ok, starts)[1].tolist() == \
        [True, False, True]
    assert masked_reduceat(np.minimum, v, ok, starts)[0][[0, 2]].tolist() \
        == [5, -3]
    assert masked_reduceat(np.maximum, v, ok, starts)[0][[0, 2]].tolist() \
        == [5, 2**62]


def test_combiner_packs_any_bucket_range_or_raises():
    """The partials combiner packs (key, bucket - min bucket): negative
    and far-apart buckets group exactly, and a key x span product past
    int64 raises a named ValueError instead of colliding."""
    from feasts_ray.stages.rollup import partial_rollup_batch

    t = pa.table({"source": ["a", "b", "a", "a", "b"],
                  "ts_s": [-120, 2**40, -120, 2**41, 2**40],
                  "n_tok": [3, 4, 5, 6, 7]})
    got = partial_rollup_batch(t, unit_s=60).to_pandas().sort_values(
        ["source", "bucket"], ignore_index=True)
    df = t.to_pandas()
    df["bucket"] = (df["ts_s"] // 60) * 60
    exp = df.groupby(["source", "bucket"]).agg(
        count=("n_tok", "count"), sum=("n_tok", "sum"),
        min=("n_tok", "min"), max=("n_tok", "max")).reset_index()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    wide = pa.table({"source": ["a", "b", "c"], "ts_s": [0, 2**62, 1],
                     "n_tok": [1, 1, 1]})
    with pytest.raises(ValueError, match="overflow"):
        partial_rollup_batch(wide, unit_s=1)
