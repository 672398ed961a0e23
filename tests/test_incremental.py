"""Incremental ingest (continuous aggregates): folding files APPENDED to
the input directory into existing tier outputs must be bit-identical to
a full recompute over the whole input — points (incl. gap rows and
derived means), Gorilla/dod blobs (byte-for-byte), per-doc features and
verified token archive. Also pins the fallback ladder: pure resume when
nothing was added, full recompute when the prior state is unusable."""

import shutil
from pathlib import Path

import pandas as pd
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from feasts_ray.pipelines.incremental import (load_ingest_state,
                                              run_rollup_incremental)
from feasts_ray.pipelines.rollup_pipeline import run_rollup
from feasts_ray.synth import ensure_token_table

N_DOCS = 6000
SPLIT = 4000
BASE = Path("/tmp/feasts_ray_test/incremental")


def _split_input(src_rows, dst: Path, parts: list[tuple[int, int]]):
    dst.mkdir(parents=True, exist_ok=True)
    for i, (lo, hi) in enumerate(parts):
        pq.write_table(src_rows.slice(lo, hi - lo),
                       dst / f"part-{i:05d}.parquet", row_group_size=8192)


def _table(path) -> pd.DataFrame:
    return pads.dataset(str(path)).to_table().to_pandas()


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return (df[sorted(df.columns)]
            .sort_values(keys, ignore_index=True, kind="mergesort"))


def _assert_same(a_dir, b_dir, keys):
    a, b = _table(a_dir), _table(b_dir)
    pd.testing.assert_frame_equal(_sorted(a, keys), _sorted(b, keys),
                                  check_exact=True)


@pytest.fixture(scope="module")
def ingested(ray_session):
    """Run: full(part0) -> append part1 -> incremental; plus a
    from-scratch full run over both parts for comparison."""
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    shutil.rmtree(BASE, ignore_errors=True)
    in_dir = BASE / "in"
    _split_input(src, in_dir, [(0, SPLIT)])
    out_inc = str(BASE / "out_inc")
    m0 = run_rollup(str(in_dir), out_inc,
                    token_features=True, token_archive=True)
    # append the second slice as a NEW file, then ingest it
    _split_input(src, in_dir, [(0, SPLIT), (SPLIT, N_DOCS)])
    m1 = run_rollup_incremental(str(in_dir), out_inc,
                                token_features=True, token_archive=True)
    out_full = str(BASE / "out_full")
    m_full = run_rollup(str(in_dir), out_full,
                        token_features=True, token_archive=True)
    return in_dir, out_inc, out_full, m0, m1, m_full


def test_incremental_path_taken(ingested):
    _in, out_inc, _of, m0, m1, _mf = ingested
    raw = m1["raw"]
    assert raw.get("incremental") is True and raw["new_files"] == 1
    assert raw["rows_in"] == m0["raw"]["rows_out"] + (N_DOCS - SPLIT)
    # cascade tiers merged selectively too (no full re-derivation), in
    # the build's one chain task
    for tier in ("1m", "1h", "1d"):
        assert m1[tier].get("incremental") is True, tier
        assert m1[tier].get("chained") is True, tier
    st = load_ingest_state(out_inc)
    assert st is not None and len(st["inventory"]) == 2


@pytest.mark.parametrize("tier", ["raw", "1m", "1h", "1d"])
def test_tier_points_bit_identical(ingested, tier):
    _in, out_inc, out_full, *_ = ingested
    _assert_same(f"{out_inc}/tier={tier}/points",
                 f"{out_full}/tier={tier}/points", ["source", "bucket"])


@pytest.mark.parametrize("tier", ["raw", "1m", "1h", "1d"])
def test_tier_blobs_byte_identical(ingested, tier):
    """raw is the selective-merge tier: its blob files are updated IN
    PLACE (touched segments re-encoded, untouched files left from the
    prior run) — every file must still match a full recompute's bytes."""
    _in, out_inc, out_full, *_ = ingested
    _assert_same(f"{out_inc}/tier={tier}/blobs",
                 f"{out_full}/tier={tier}/blobs", ["source", "segment"])


def test_features_and_archive_bit_identical(ingested):
    _in, out_inc, out_full, *_ = ingested
    _assert_same(f"{out_inc}/features/points",
                 f"{out_full}/features/points", ["doc_id"])
    # blob_bytes / raw_bytes are PER-BATCH compression metrics broadcast
    # to rows (batch-composition-dependent by design; restore_tokens
    # drops them too) — the per-row invariant is the blob itself
    a = _table(f"{out_inc}/tokens_archive/blobs")
    b = _table(f"{out_full}/tokens_archive/blobs")
    cols = ["doc_id", "n_tok", "source", "tokens_blob"]
    pd.testing.assert_frame_equal(
        _sorted(a[cols], ["doc_id"]), _sorted(b[cols], ["doc_id"]),
        check_exact=True)


def test_second_ingest_is_pure_resume(ingested):
    """No new files -> every stage resumes from checkpoint untouched."""
    in_dir, out_inc, _of, _m0, m1, _mf = ingested
    m2 = run_rollup_incremental(str(in_dir), out_inc,
                                token_features=True, token_archive=True)
    for tier in m2:
        assert m2[tier]["completed_at"] == m1[tier]["completed_at"]


@pytest.mark.parametrize("splits", [
    # (initial file row-ranges, appended file row-ranges): uneven sizes,
    # multiple appended files, a tiny single-doc delta
    ([(0, 1000)], [(1000, 3500), (3500, 6000)]),
    ([(0, 2500), (2500, 5000)], [(5000, 5999), (5999, 6000)]),
])
def test_ingest_matches_full_any_split(ray_session, splits):
    """Property over file layouts: however the corpus is split between
    the initial build and the appended files, ingest == full recompute
    on the merged tiers (integer merges are order-independent)."""
    init, added = splits
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    base = BASE / f"prop_{init[0][1]}_{len(added)}"
    shutil.rmtree(base, ignore_errors=True)
    in_dir = base / "in"
    _split_input(src, in_dir, init)
    out = str(base / "out")
    run_rollup(str(in_dir), out)
    _split_input(src, in_dir, init + added)
    m = run_rollup_incremental(str(in_dir), out)
    assert m["raw"].get("incremental") is True
    assert m["raw"]["new_files"] == len(added)
    out_full = str(base / "out_full")
    run_rollup(str(in_dir), out_full)
    for tier in ("raw", "1m", "1h", "1d"):
        _assert_same(f"{out}/tier={tier}/points",
                     f"{out_full}/tier={tier}/points", ["source", "bucket"])
    _assert_same(f"{out}/tier=1m/blobs", f"{out_full}/tier=1m/blobs",
                 ["source", "segment"])


def test_selective_merge_leaves_untouched_partitions_on_disk(ray_session):
    """The raw points parquet is hive-partitioned by time range; an
    ingest must rewrite ONLY the seg_part dirs the delta touches. Pinned
    at the filesystem level: files in untouched partitions keep their
    inode and mtime (never rewritten), touched partitions change, and
    the merged content still equals a full recompute bit-for-bit."""
    import os

    from feasts_ray.config import RollupConfig

    # small segments/partitions so 6000 docs span several partition dirs
    cfg = RollupConfig(segment_points=64, points_partition_segs=4)
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    base = BASE / "parts"
    shutil.rmtree(base, ignore_errors=True)
    in_dir = base / "in"
    # initial build covers EARLY and LATE time; the delta is the MIDDLE
    # slice so the ingest must touch SEVERAL existing partition dirs
    # (a boundary-only delta touches one, which hid a Ray read_parquet
    # limitation: a list of >= 2 directory paths fails to expand)
    _split_input(src, in_dir, [(0, 2000), (4000, N_DOCS)])
    out = str(base / "out")
    run_rollup(str(in_dir), out, cfg=cfg)

    def _stat_map():
        return {
            str(f): (os.stat(f).st_ino, os.stat(f).st_mtime_ns)
            for f in Path(out, "tier=raw", "points").glob("seg_part=*/*")
        }

    before = _stat_map()
    parts_before = {Path(p).parent.name for p in before}
    assert len(parts_before) >= 4, "test needs several partition dirs"
    _split_input(src, in_dir, [(0, 2000), (4000, N_DOCS), (2000, 4000)])
    m = run_rollup_incremental(str(in_dir), out, cfg=cfg)
    assert m["raw"].get("incremental") is True
    after = _stat_map()
    preserved_parts = {
        Path(p).parent.name
        for p in before if p in after and after[p] == before[p]
    }
    rewritten = {Path(p).parent.name for p in before} - preserved_parts
    # middle-time delta: edge partitions survive untouched, the several
    # middle ones rewrite (>= 2 pins the multi-directory read path)
    assert len(preserved_parts) >= 2, (preserved_parts, rewritten)
    assert len(rewritten) >= 2, (preserved_parts, rewritten)
    assert preserved_parts.isdisjoint(rewritten)
    # and the merged tier still equals a from-scratch run over both parts
    out_full = str(base / "out_full")
    run_rollup(str(in_dir), out_full, cfg=cfg)
    for tier in ("raw", "1m"):
        _assert_same(f"{out}/tier={tier}/points",
                     f"{out_full}/tier={tier}/points", ["source", "bucket"])
    _assert_same(f"{out}/tier=raw/blobs", f"{out_full}/tier=raw/blobs",
                 ["source", "segment"])


def test_mutated_input_falls_back_to_full(ray_session):
    """If a previously processed file disappears, the prior set is not a
    subset of the current one: incremental must run the FULL path (and
    still match a clean full run)."""
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    base = BASE / "fallback"
    shutil.rmtree(base, ignore_errors=True)
    in_dir = base / "in"
    _split_input(src, in_dir, [(0, 2000), (2000, 4000)])
    out = str(base / "out")
    run_rollup(str(in_dir), out)
    # replace both files with ONE file covering different rows
    shutil.rmtree(in_dir)
    _split_input(src, in_dir, [(0, 3000)])
    m = run_rollup_incremental(str(in_dir), out)
    assert "incremental" not in m["raw"]
    out_clean = str(base / "out_clean")
    run_rollup(str(in_dir), out_clean)
    _assert_same(f"{out}/tier=1m/points", f"{out_clean}/tier=1m/points",
                 ["source", "bucket"])


def _build_append_ingest(base: Path, cfg, appended=((SPLIT, N_DOCS),),
                         before_ingest=None, **kw):
    """Build over the docs before the first ``appended`` slice, append
    each slice as a new file, ingest them (after ``before_ingest(out)``);
    then build the whole input from scratch. Returns the ingest's
    metrics and both output dirs."""
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    shutil.rmtree(base, ignore_errors=True)
    in_dir = base / "in"
    first = [(0, appended[0][0])]
    _split_input(src, in_dir, first)
    out, out_full = str(base / "out"), str(base / "out_full")
    run_rollup(str(in_dir), out, cfg=cfg, **kw)
    _split_input(src, in_dir, first + list(appended))
    if before_ingest is not None:
        before_ingest(out)
    m = run_rollup_incremental(str(in_dir), out, cfg=cfg, **kw)
    run_rollup(str(in_dir), out_full, cfg=cfg, **kw)
    return m, out, out_full


def _assert_tiers_same(out, out_full, tiers):
    for tier in tiers:
        _assert_same(f"{out}/tier={tier}/points",
                     f"{out_full}/tier={tier}/points", ["source", "bucket"])
        _assert_same(f"{out}/tier={tier}/blobs",
                     f"{out_full}/tier={tier}/blobs", ["source", "segment"])


def test_ingest_without_chain_merges_each_tier_by_shuffle(ray_session,
                                                          monkeypatch):
    """With no prior tier under CHAIN_BYTES, every coarse tier merges by
    its own selective shuffle (_selective_tier_merge, gap-filled with
    seeds for the touched groups only) and still equals a full
    recompute at every tier."""
    from feasts_ray.config import RollupConfig
    from feasts_ray.pipelines import rollup_pipeline

    monkeypatch.setattr(rollup_pipeline, "CHAIN_BYTES", 0)
    cfg = RollupConfig(segment_points=64, points_partition_segs=4)
    m, out, out_full = _build_append_ingest(BASE / "no_chain", cfg)
    for tier in ("raw", "1m", "1h", "1d"):
        assert m[tier].get("incremental") is True, tier
        assert "chained" not in m[tier], tier
    _assert_tiers_same(out, out_full, ("raw", "1m", "1h", "1d"))


def test_gap_filled_first_tier_recomputes(ray_session):
    """A gap-filled first tier is not merged: ingest falls back to the
    full recompute, which equals a from-scratch build."""
    from feasts_ray.config import TIERS, RollupConfig, Tier

    cfg = RollupConfig(tiers=(Tier("raw", 1, gap_fill=True), *TIERS[1:]))
    m, out, out_full = _build_append_ingest(BASE / "gap_raw", cfg)
    for tier in ("raw", "1m", "1h", "1d"):
        assert "incremental" not in m[tier], tier
    _assert_tiers_same(out, out_full, ("raw", "1m", "1h", "1d"))


@pytest.mark.parametrize("appended, merged", [
    ([(N_DOCS, N_DOCS)], False),
    ([(SPLIT, SPLIT), (SPLIT, N_DOCS)], True),
], ids=["only_empty", "empty_beside_rows"])
def test_appended_empty_file(ray_session, appended, merged):
    """An appended file with no rows adds no partials. Alone, it leaves
    nothing to merge: ingest falls back to the full recompute instead of
    failing on the empty delta. Beside a non-empty file, the ingest
    merges that one. Either way every tier equals a from-scratch build."""
    m, out, out_full = _build_append_ingest(
        BASE / f"empty{len(appended)}", None, appended=appended)
    for tier in ("raw", "1m", "1h", "1d"):
        assert (m[tier].get("incremental") is True) == merged, tier
    _assert_tiers_same(out, out_full, ("raw", "1m", "1h", "1d"))


def test_delta_larger_than_stored_tiers_merges_by_shuffle(ray_session,
                                                          monkeypatch):
    """The ingest's chain-or-shuffle test weighs what the chain would
    load (the re-bucketed delta plus the touched partitions), not the
    stored tier: with every stored tier under CHAIN_BYTES but a delta
    far larger than the store, no coarse tier chains, and every tier
    still equals a full recompute."""
    from feasts_ray.pipelines import rollup_pipeline
    from feasts_ray.state.checkpoint import dir_bytes

    def fit_store(out):
        monkeypatch.setattr(rollup_pipeline, "CHAIN_BYTES", 1 + max(
            dir_bytes(Path(out) / f"tier={t}" / "points")
            for t in ("raw", "1m", "1h", "1d")))

    m, out, out_full = _build_append_ingest(
        BASE / "big_delta", None, appended=[(300, N_DOCS)],
        before_ingest=fit_store)
    for tier in ("raw", "1m", "1h", "1d"):
        assert m[tier].get("incremental") is True, tier
        assert "chained" not in m[tier], tier
    _assert_tiers_same(out, out_full, ("raw", "1m", "1h", "1d"))
