"""End-to-end rollup pipeline vs the single-process oracle (bit-exact),
blob decode round-trip, and checkpoint/resume behavior."""

import shutil

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest

from feasts_ray.config import RollupConfig, TIERS
from feasts_ray.oracle.rollup import rollup_all_tiers
from feasts_ray.pipelines.rollup_pipeline import run_rollup
from feasts_ray.stages.encode import decode_segments
from feasts_ray.synth import ensure_token_table

N_DOCS = 8000
OUT = "/tmp/feasts_ray_test/rollup_out"


@pytest.fixture(scope="module")
def rolled():
    path = ensure_token_table(N_DOCS)
    shutil.rmtree(OUT, ignore_errors=True)
    metrics = run_rollup(path, OUT)
    oracle = rollup_all_tiers(N_DOCS)
    return metrics, oracle


def _read_points(tier: str) -> pd.DataFrame:
    t = pads.dataset(f"{OUT}/tier={tier}/points").to_table()
    df = t.to_pandas().sort_values(["source", "bucket"], ignore_index=True)
    return df


@pytest.mark.parametrize("tier", [t.name for t in TIERS])
def test_tier_bit_exact_vs_oracle(rolled, tier):
    _, oracle = rolled
    got = _read_points(tier)
    exp = oracle[tier]
    assert len(got) == len(exp), f"{tier}: row count {len(got)} != {len(exp)}"
    np.testing.assert_array_equal(got["source"].to_numpy(), exp["source"].to_numpy())
    np.testing.assert_array_equal(got["bucket"].to_numpy(), exp["bucket"].to_numpy())
    np.testing.assert_array_equal(got["count"].to_numpy(), exp["count"].to_numpy())
    np.testing.assert_array_equal(got["sum"].to_numpy(), exp["sum"].to_numpy())
    for c in ("min", "max"):
        g = got[c].to_numpy(dtype=np.float64, na_value=np.nan)
        e = exp[c].to_numpy(dtype=np.float64, na_value=np.nan)
        np.testing.assert_array_equal(g, e)
    # bit-exact means (sum/count of exact ints)
    g = got["mean"].to_numpy(dtype=np.float64, na_value=np.nan)
    e = exp["mean"].to_numpy(dtype=np.float64, na_value=np.nan)
    assert g.view(np.uint64).tolist() == e.view(np.uint64).tolist()


@pytest.mark.parametrize("tier", ["1m", "1h"])
def test_blob_decode_matches_points(rolled, tier):
    blobs = pads.dataset(f"{OUT}/tier={tier}/blobs").to_table()
    decoded = decode_segments(blobs)
    pts = _read_points(tier)
    np.testing.assert_array_equal(decoded["bucket"].to_numpy(), pts["bucket"].to_numpy())
    np.testing.assert_array_equal(decoded["count"].to_numpy(), pts["count"].to_numpy())
    np.testing.assert_array_equal(decoded["sum"].to_numpy(), pts["sum"].to_numpy())
    for c in ("min", "max", "mean"):
        d = decoded[c].to_numpy()
        p = pts[c].to_numpy(dtype=np.float64, na_value=np.nan)
        np.testing.assert_array_equal(np.isnan(d), np.isnan(p))
        np.testing.assert_array_equal(d[~np.isnan(d)], p[~np.isnan(p)])


def test_gap_fill_dense_domain(rolled):
    got = _read_points("1m")
    for src, sub in got.groupby("source"):
        b = sub["bucket"].to_numpy()
        assert (np.diff(b) == 60).all(), f"{src}: 1m buckets not dense"
    assert (got["count"] == 0).any(), "synthetic blackouts should produce gap rows"


def test_fused_doc_stage_matches_standalone(tmp_path):
    """run_rollup(token_features=True, token_archive=True) takes the
    fused single-scan path; its feature table must be bit-identical to
    the standalone stage and its archive must restore exactly."""
    import pyarrow.dataset as pads
    import ray.data

    from feasts_ray.stages.token_archive import restore_tokens
    from feasts_ray.stages.token_features import token_feature_table

    path = ensure_token_table(3000)
    out = str(tmp_path / "fused")
    metrics = run_rollup(path, out, token_features=True, token_archive=True)
    assert metrics["features"].get("fused_scan") is True
    assert metrics["tokens_archive"].get("fused_scan") is True
    assert metrics["features"]["points"] == 3000
    assert metrics["tokens_archive"]["points"] == 3000
    # the one fused wall is recorded once, marked as overlapping the tiers
    assert metrics["features"]["overlapped_tiers"] is True
    assert "wall_s" not in metrics["tokens_archive"]

    got = (pads.dataset(f"{out}/features/points").to_table().to_pandas()
           .sort_values("doc_id", ignore_index=True))
    ds = ray.data.read_parquet(path, columns=["doc_id", "tokens", "source"])
    exp = (token_feature_table(ds).to_pandas()
           .sort_values("doc_id", ignore_index=True))
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_exact=True)

    arch = ray.data.read_parquet(f"{out}/tokens_archive/blobs")
    restored = restore_tokens(arch).to_pandas().set_index("doc_id")
    orig = ray.data.read_parquet(path, columns=["doc_id", "tokens"]
                                 ).to_pandas().set_index("doc_id")
    assert len(restored) == len(orig) == 3000
    for did in orig.index[:100]:
        np.testing.assert_array_equal(np.asarray(restored.loc[did, "tokens"]),
                                      np.asarray(orig.loc[did, "tokens"]))

    # resume: a second call must skip both (manifests untouched)
    metrics2 = run_rollup(path, out, token_features=True, token_archive=True)
    for k in ("features", "tokens_archive"):
        assert metrics2[k]["completed_at"] == metrics[k]["completed_at"]

    # partial resume: drop the archive manifest — only the archive reruns,
    # the features manifest is untouched
    import os

    os.remove(f"{out}/tokens_archive/_CHECKPOINT.json")
    metrics3 = run_rollup(path, out, token_features=True, token_archive=True)
    assert (metrics3["features"]["completed_at"]
            == metrics["features"]["completed_at"])
    assert metrics3["tokens_archive"]["points"] == 3000
    assert metrics3["tokens_archive"].get("fused_scan") is None


def test_tier_failure_joins_doc_stage(tmp_path, monkeypatch):
    """The fused doc stage writes beside the tiers; when a tier raises,
    run_rollup waits for that write before the error surfaces, so nothing
    keeps writing into features/ or tokens_archive/ afterwards."""
    from feasts_ray.pipelines import rollup_pipeline
    from feasts_ray.state import checkpoint as ckpt

    def _tier_fails(*_a, **_k):
        raise RuntimeError("tier failed")

    monkeypatch.setattr(rollup_pipeline, "_run_tiers", _tier_fails)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="tier failed"):
        run_rollup(ensure_token_table(3000), str(out), token_features=True,
                   token_archive=True)
    for stage in ("features", "tokens_archive"):
        assert ckpt.load_manifest(out / stage)["points"] == 3000


def test_spans_sidecar_roundtrip_1e6_sources(tmp_path):
    """Resume metadata stays bounded at many sources: the spans table is
    a run-level parquet sidecar (written once), not JSON inlined into
    every manifest. Roundtrip 10^6 keys; lineage mismatch returns None."""
    import time

    from feasts_ray.state import checkpoint as ckpt

    spans = {f"src{i:07d}": (i * 60, i * 60 + 86400) for i in range(1_000_000)}
    t0 = time.perf_counter()
    ckpt.save_spans(tmp_path, spans, "abc123")
    got = ckpt.load_spans(tmp_path, "abc123")
    wall = time.perf_counter() - t0
    assert got == spans
    assert wall < 30.0
    assert ckpt.load_spans(tmp_path, "other") is None
    assert ckpt.load_spans(tmp_path / "missing", "abc123") is None


def test_manifest_lineage_metrics(rolled):
    """North-rule manifest fields: every tier checkpoint records rows
    in/out, watermark and lineage; rows_in of the raw tier is the input
    doc count and each cascade tier's rows_in is the prior tier's
    rows_out."""
    metrics1, _ = rolled
    order = ["raw", "1m", "1h", "1d"]
    for tier in order:
        m = metrics1[tier]
        for field in ("rows_in", "rows_out", "watermark", "lineage", "wall_s"):
            assert field in m, f"{tier} missing {field}"
    assert metrics1["raw"]["rows_in"] == N_DOCS
    for prev, cur in zip(order, order[1:]):
        assert metrics1[cur]["rows_in"] == metrics1[prev]["rows_out"]


def test_resume_skips_completed_tiers(rolled):
    metrics1, _ = rolled
    path = ensure_token_table(N_DOCS)
    metrics2 = run_rollup(path, OUT)  # second run: everything checkpointed
    for tier in metrics2:
        assert metrics2[tier]["completed_at"] == metrics1[tier]["completed_at"]
        assert metrics2[tier]["points"] == metrics1[tier]["points"]
        assert metrics2[tier]["watermark"] == metrics1[tier]["watermark"]


def test_resume_uses_spans_sidecar(rolled):
    """A resumed run whose later gap-filled tier must re-run picks the
    spans up from the parquet sidecar and produces identical points.
    (Runs LAST in this module: it mutates the shared OUT fixture.)"""
    import os

    path = ensure_token_table(N_DOCS)
    assert os.path.exists(f"{OUT}/_SPANS.parquet")
    before = _read_points("1m")
    # simulate a crash after the raw tier: wipe the 1m manifest
    os.remove(f"{OUT}/tier=1m/_CHECKPOINT.json")
    run_rollup(path, OUT)
    pd.testing.assert_frame_equal(_read_points("1m"), before, check_exact=True)


def test_read_token_table_coalesces_blocks():
    """The raw read must size blocks for the downstream shuffle: block
    count is bounded by max(cpus, file_bytes/128MB), never Ray's ~200
    read-task default (200 map blocks x 200 reduce partitions of sort
    slices dominated the raw tier wall at 24M docs)."""
    import ray

    from feasts_ray.pipelines.rollup_pipeline import read_token_table

    path = ensure_token_table(N_DOCS)
    cpus = int(ray.cluster_resources().get("CPU", 8))
    got = read_token_table(path).materialize().num_blocks()
    # tiny input: bytes/128MB == 0, so the floor (one block per CPU) rules
    assert got <= cpus


def test_read_points_range_prunes_partitions(tmp_path, ray_session):
    """Time-range reads over the partitioned raw tier: whole seg_part
    dirs outside [lo, hi) are pruned before any file opens, and the
    result equals a full scan filtered on bucket."""
    import pyarrow.compute as pc

    from feasts_ray.pipelines.rollup_pipeline import (_points_part_span,
                                                      _range_part_dirs,
                                                      read_points_range)
    from feasts_ray.timebase import T0

    cfg = RollupConfig(segment_points=64, points_partition_segs=4)
    path = ensure_token_table(6000)
    out = str(tmp_path / "out")
    run_rollup(path, out, cfg=cfg, encode=False)
    from pathlib import Path

    points_dir = Path(out, "tier=raw", "points")
    span = _points_part_span(cfg, 1)  # 256 s per raw partition dir
    n_parts = len(list(points_dir.glob("seg_part=*")))
    assert n_parts >= 4
    lo, hi = T0 + 300, T0 + 700  # interior window spanning ~2 partitions
    pruned = _range_part_dirs(points_dir, lo, hi, span)
    assert 0 < len(pruned) < n_parts, (len(pruned), n_parts)
    got = (read_points_range(out, "raw", lo, hi, cfg=cfg)
           .to_pandas().sort_values(["source", "bucket"], ignore_index=True))
    full = pads.dataset(str(points_dir)).to_table().filter(
        (pc.field("bucket") >= lo) & (pc.field("bucket") < hi)
    ).to_pandas().sort_values(["source", "bucket"], ignore_index=True)
    pd.testing.assert_frame_equal(got[sorted(got.columns)],
                                  full[sorted(full.columns)], check_exact=True)
    assert len(got) > 0
    # coarser (flat-dir) tier path and the empty-range schema contract
    got_1m = read_points_range(out, "1m", lo, hi, cfg=cfg).to_pandas()
    assert (got_1m["bucket"] >= lo).all() and (got_1m["bucket"] < hi).all()
    empty = read_points_range(out, "raw", T0 - 10_000, T0 - 5_000, cfg=cfg)
    assert empty.count() == 0
    assert set(empty.schema().names) >= {"source", "bucket", "count"}
