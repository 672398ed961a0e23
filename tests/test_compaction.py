"""Small-file compaction (feasts_ray/pipelines/compaction.py): the
point set is preserved bit-exactly, a second pass is a no-op, the tier
manifest survives (resume still sees the tier complete), a crash
mid-compaction falls back to a full tier recompute, and an incremental
ingest over a compacted store is byte-identical to one over the
fragmented store."""

import shutil
from pathlib import Path

import pandas as pd
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from feasts_ray.config import RollupConfig
from feasts_ray.pipelines.compaction import (compact_all, compact_points,
                                             plan_partitions)
from feasts_ray.pipelines.incremental import run_rollup_incremental
from feasts_ray.pipelines.rollup_pipeline import _tier_dirs, run_rollup
from feasts_ray.state import checkpoint as ckpt
from feasts_ray.synth import ensure_token_table

N_DOCS = 80000
BASE = Path("/tmp/feasts_ray_test/compaction")
CFG = RollupConfig(segment_points=64, points_partition_segs=2)


def _points_df(out_dir, tier) -> pd.DataFrame:
    points_dir, _ = _tier_dirs(str(out_dir), tier)
    df = pads.dataset(str(points_dir)).to_table().to_pandas()
    df = df.drop(columns=[c for c in df.columns if c == "seg_part"])
    return df.sort_values(["source", "bucket"], ignore_index=True,
                          kind="mergesort")


def _blob_bytes(out_dir, tier):
    _, blobs_dir = _tier_dirs(str(out_dir), tier)
    return {str(f.relative_to(blobs_dir)): f.read_bytes()
            for f in sorted(blobs_dir.glob("shard=*/blob-*.parquet"))}


def _n_files(out_dir, tier) -> int:
    points_dir, _ = _tier_dirs(str(out_dir), tier)
    return sum(1 for _ in points_dir.glob("seg_part=*/*.parquet"))


def _fragment(out_dir, tier, pieces: int = 4) -> None:
    """Simulate many ingests: split every partition file into N small
    files (same rows, same schema)."""
    points_dir, _ = _tier_dirs(str(out_dir), tier)
    for d in sorted(points_dir.glob("seg_part=*")):
        for f in sorted(d.glob("*.parquet")):
            t = pq.read_table(f)
            per = max(1, -(-t.num_rows // pieces))
            f.unlink()
            for i in range(pieces):
                chunk = t.slice(i * per, per)
                if chunk.num_rows:
                    pq.write_table(chunk, d / f"{f.stem}-frag{i}.parquet")


@pytest.fixture(scope="module")
def built(ray_session):
    """One full build (3/4 of the synth table) shared by the tests; the
    held-out 1/4 is the ingest delta."""
    shutil.rmtree(BASE, ignore_errors=True)
    src = pq.read_table(f"{ensure_token_table(N_DOCS)}/part-00000.parquet")
    split = src.num_rows * 3 // 4
    in_dir = BASE / "in"
    in_dir.mkdir(parents=True)
    pq.write_table(src.slice(0, split), in_dir / "part-00000.parquet",
                   row_group_size=8192)
    out = BASE / "out"
    metrics = run_rollup(str(in_dir), str(out), cfg=CFG)
    return src, split, in_dir, out, metrics


def _copy(built, tmp_path):
    src, split, in_dir0, out0, metrics = built
    work = tmp_path / "work"
    work.mkdir()
    in_dir = work / "in"
    shutil.copytree(in_dir0, in_dir)
    out = work / "out"
    shutil.copytree(out0, out)
    return src, split, in_dir, out, metrics


class TestCompaction:
    def test_point_set_preserved_files_reduced_idempotent(self, built,
                                                          tmp_path):
        _src, _split, _in, out, _m = _copy(built, tmp_path)
        before = {t: _points_df(out, t) for t in ("raw", "1m")}
        man_before = {t: ckpt.load_manifest(
            _tier_dirs(str(out), t)[0].parent) for t in ("raw", "1m")}
        for t in ("raw", "1m"):
            _fragment(out, t)
        assert _n_files(out, "raw") > len(list(
            _tier_dirs(str(out), "raw")[0].glob("seg_part=*")))
        reports = compact_all(out, CFG)
        for t in ("raw", "1m"):
            pd.testing.assert_frame_equal(_points_df(out, t), before[t])
            # one file per partition at the default (huge) target
            assert _n_files(out, t) == len(list(
                _tier_dirs(str(out), t)[0].glob("seg_part=*")))
            assert reports[t]["partitions_compacted"] > 0
            assert reports[t]["files_after"] < reports[t]["files_before"]
            # manifest restored: resume still sees the tier complete
            assert ckpt.load_manifest(
                _tier_dirs(str(out), t)[0].parent) == man_before[t]
        # idempotent: nothing left to rewrite
        again = compact_all(out, CFG)
        assert all(r["partitions_compacted"] == 0 for r in again.values())

    def test_plan_skips_already_compact(self, built, tmp_path):
        _src, _split, _in, out, _m = _copy(built, tmp_path)
        points_dir, _ = _tier_dirs(str(out), "1m")
        compact_points(out, "1m", CFG)
        assert plan_partitions(points_dir) == []

    def test_crash_mid_compaction_recomputes_tier(self, built, tmp_path):
        """A crash between manifest-invalidate and restore leaves the
        tier manifest missing; the next run_rollup must rebuild the tier
        from scratch to the same points."""
        _src, _split, in_dir, out, _m = _copy(built, tmp_path)
        before = _points_df(out, "raw")
        _fragment(out, "raw")
        tier_dir = _tier_dirs(str(out), "raw")[0].parent
        mpath = ckpt.manifest_path(tier_dir)
        mpath.unlink()  # the crash window state
        # leftover tmp dir from the interrupted pass must be ignored /
        # cleaned by the rebuild
        (tier_dir / "points" / "_compact_tmp_0").mkdir()
        run_rollup(str(in_dir), str(out), cfg=CFG)
        pd.testing.assert_frame_equal(_points_df(out, "raw"), before)
        assert ckpt.load_manifest(tier_dir) is not None
        assert not (tier_dir / "points" / "_compact_tmp_0").exists()

    def test_ingest_after_compaction_identical(self, built, tmp_path):
        """Fragment + compact, then ingest a delta: points AND blobs must
        be byte-identical to ingesting over the untouched store."""
        src, split, in_a, out_a, _m = _copy(built, tmp_path)

        work_b = tmp_path / "work_b"
        work_b.mkdir()
        in_b = work_b / "in"
        shutil.copytree(in_a, in_b)
        out_b = work_b / "out"
        shutil.copytree(out_a, out_b)

        for t in ("raw", "1m"):
            _fragment(out_b, t)
        compact_all(out_b, CFG)

        delta = src.slice(split)
        for in_dir in (in_a, in_b):
            pq.write_table(delta, in_dir / "part-00001.parquet",
                           row_group_size=8192)
        run_rollup_incremental(str(in_a), str(out_a), cfg=CFG)
        run_rollup_incremental(str(in_b), str(out_b), cfg=CFG)
        for t in ("raw", "1m", "1h", "1d"):
            pd.testing.assert_frame_equal(_points_df(out_a, t),
                                          _points_df(out_b, t))
        for t in ("raw", "1m"):
            assert _blob_bytes(out_a, t) == _blob_bytes(out_b, t)

    def test_retention_after_compaction_partition_exact(self, built,
                                                        tmp_path):
        """Compaction preserves partition boundaries, so retention expiry
        over a compacted store stays partition-exact."""
        from feasts_ray.pipelines.retention import (enforce_retention,
                                                    retention_cutoff)
        from feasts_ray.pipelines.rollup_pipeline import _points_part_span

        _src, _split, _in, out, metrics = _copy(built, tmp_path)
        _fragment(out, "raw")
        compact_points(out, "raw", CFG)
        full = _points_df(out, "raw")
        points_dir, _ = _tier_dirs(str(out), "raw")
        wm = max(m["watermark"] for m in metrics.values()
                 if isinstance(m, dict) and m.get("watermark") is not None)
        span = _points_part_span(CFG, 1)
        first = min(int(d.name.split("=", 1)[1])
                    for d in points_dir.glob("seg_part=*"))
        horizon = wm - (first + 1) * span
        rep = enforce_retention(out, {"raw": horizon}, cfg=CFG)
        cutoff = retention_cutoff(wm, horizon, span)
        assert rep["raw"]["expired_parts"] > 0
        kept = _points_df(out, "raw")
        exp = full[full["bucket"] >= cutoff].reset_index(drop=True)
        pd.testing.assert_frame_equal(kept, exp)


class TestCompactFlat:
    """Flat per-doc stage compaction (features/points and
    tokens_archive/blobs): row-set identity, manifest restore, resume
    still skips the completed stages."""

    @pytest.fixture(scope="class")
    def built_docs(self, ray_session, tmp_path_factory):
        out = tmp_path_factory.mktemp("flat") / "out"
        in_dir = ensure_token_table(20000)
        run_rollup(str(in_dir), str(out), cfg=RollupConfig(),
                   token_features=True, token_archive=True)
        return in_dir, out

    @staticmethod
    def _stage_df(out, stage, sub):
        df = pads.dataset(str(Path(out) / stage / sub)).to_table().to_pandas()
        return df.sort_values("doc_id", ignore_index=True, kind="mergesort")

    def test_row_set_identity_and_resume(self, built_docs, tmp_path):
        from feasts_ray.pipelines.compaction import compact_flat

        in_dir, out0 = built_docs
        out = tmp_path / "out"
        shutil.copytree(out0, out)
        before = {s: self._stage_df(out, s, sub)
                  for s, sub in (("features", "points"),
                                 ("tokens_archive", "blobs"))}
        mans = {s: ckpt.load_manifest(out / s)
                for s in ("features", "tokens_archive")}
        reps = {}
        for s, sub in (("features", "points"), ("tokens_archive", "blobs")):
            reps[s] = compact_flat(out / s, sub)
            assert reps[s]["bins"] >= 1
            assert reps[s]["files_after"] < reps[s]["files_before"]
            pd.testing.assert_frame_equal(
                self._stage_df(out, s, sub), before[s])
            assert ckpt.load_manifest(out / s) == mans[s]
        # a repeat pass finds nothing (single file per bin now)
        for s, sub in (("features", "points"), ("tokens_archive", "blobs")):
            assert compact_flat(out / s, sub)["bins"] == 0
        # resume: the completed stages are skipped, files untouched
        files_now = sorted(str(p) for p in (out / "features").rglob("*.parquet"))
        run_rollup(str(in_dir), str(out), cfg=RollupConfig(),
                   token_features=True, token_archive=True)
        assert sorted(str(p) for p in (out / "features").rglob("*.parquet")) \
            == files_now

    def test_subdirs_compact_independently(self, built_docs, tmp_path):
        """Rows never cross directories: an ingest-<lineage> subdir keeps
        its own files."""
        from feasts_ray.pipelines.compaction import compact_flat

        _in, out0 = built_docs
        out = tmp_path / "out"
        shutil.copytree(out0, out)
        pdir = out / "features" / "points"
        sub = pdir / "ingest-deadbeef"
        sub.mkdir()
        # split one top-level file into two inside the subdir
        f = sorted(pdir.glob("*.parquet"))[0]
        t = pq.read_table(f)
        half = t.num_rows // 2
        pq.write_table(t.slice(0, half), sub / "a.parquet")
        pq.write_table(t.slice(half), sub / "b.parquet")
        f.unlink()
        before = self._stage_df(out, "features", "points")
        compact_flat(out / "features", "points")
        pd.testing.assert_frame_equal(
            self._stage_df(out, "features", "points"), before)
        merged = list(sub.glob("*.parquet"))
        assert len(merged) == 1 and merged[0].name.startswith("compact-")


def test_compacts_partition_mixing_gap_and_no_gap_groups(ray_session,
                                                        tmp_path):
    """A seg_part holding one file from a group with a gap row and one
    from a group without compacts (both files carry int64 min/max with
    a validity mask) and keeps the point set."""
    import pyarrow as pa

    from feasts_ray.stages.tier_kernel import TierSegmentKernel

    def group(src, buckets):
        v = [7 * (i + 1) for i in range(len(buckets))]
        return pa.table({"source": [src] * len(buckets), "bucket": buckets,
                         "count": [1] * len(buckets), "sum": v, "min": v,
                         "max": v})

    spans = {"a": (0, 180), "b": (0, 120)}
    kernel = TierSegmentKernel("1m", 60, 60 * 64, spans, True, None)
    gap = kernel(group("a", [0, 180]))       # gap rows at 60 and 120
    dense = kernel(group("b", [0, 60, 120]))  # no gap row
    assert gap["min"].null_count == 2 and dense["min"].null_count == 0
    points_dir, _ = _tier_dirs(str(tmp_path), "1m")
    part = points_dir / "seg_part=0"
    part.mkdir(parents=True)
    pq.write_table(gap, part / "gap.parquet")
    pq.write_table(dense, part / "dense.parquet")
    before = _points_df(tmp_path, "1m")
    report = compact_points(tmp_path, "1m")
    assert report["partitions_compacted"] == 1
    assert _n_files(tmp_path, "1m") == 1
    pd.testing.assert_frame_equal(_points_df(tmp_path, "1m"), before)
