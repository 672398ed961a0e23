"""Small-file compaction for the partitioned tier points store — the
maintenance leg of a continuous-aggregate engine (north rule: rollup +
downsample + retention over 10^12 sequences; the reference is a
single-process package with no storage layer, /root/reference/R).

Why it exists: incremental ingest appends new seg_part partitions and
rewrites delta-touched ones per run (pipelines/incremental.py) — after
many daily ingests a hot partition accumulates many small parquet
files, and small files tax every later scan (file-open and footer
overhead per file, poor row-group locality). Compaction rewrites each
fragmented partition into the minimal file count while preserving the
point SET bit-exactly. Correctness does not depend on row order —
points are unique per (key, bucket) and every downstream consumer
(cascade re-bucketing, incremental partial reconstruction, range reads)
groups or sorts before folding — but the rewrite still sorts by
(key, bucket) so compacted files are deterministic and range-read
row-group stats stay tight.

Scale shape: each partition compacts INDEPENDENTLY inside one task
(partitions are bounded — segment span x points_partition_segs), fanned
out as a Dataset of partition paths; there is no shuffle and untouched
partitions are never opened (fragmentation is judged from file sizes
alone). A pass over a 10^12-sequence store is O(bytes of fragmented
partitions).

Crash safety follows the selective-merge protocol
(pipelines/incremental.py::_selective_merge_tier): the tier manifest is
invalidated FIRST, each partition swaps through an underscore-prefixed
tmp dir (invisible to pyarrow dataset discovery) + os.replace, and the
manifest is restored at the end — a crash anywhere leaves the next
run_rollup falling back to a full recompute instead of trusting a
half-compacted tier.

Maintenance passes are serial by contract: compaction, retention and
ingest all use the manifest as their crash fence, so run them one at a
time against a store (the CLI composes them in order: run → retain →
compact).

Blob files are deliberately NOT compacted: the tier kernel names them
``blob-<crc>-<segment>.parquet`` so retention expiry and resume can
address them by segment without opening them (pipelines/retention.py);
merging blob files would destroy that addressing, and the kernel
already writes one bounded file per (shard, segment).
"""

from __future__ import annotations

import math
import os
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import RollupConfig
from ..state import checkpoint as ckpt
from .rollup_pipeline import _tier_dirs

TARGET_BYTES = 128 << 20


def plan_partitions(points_dir: Path,
                    target_bytes: int = TARGET_BYTES) -> list[str]:
    """Partition dirs worth rewriting: more files than the byte-derived
    minimum. Judged from the directory listing only — no file is
    opened."""
    out = []
    for d in sorted(points_dir.glob("seg_part=*")):
        files = [f for f in d.rglob("*.parquet")]
        n_min = max(1, math.ceil(sum(f.stat().st_size for f in files)
                                 / target_bytes))
        if len(files) > n_min:
            out.append(str(d))
    return out


def _compact_one(part_dir: Path, key_col: str, target_bytes: int) -> dict:
    files = sorted(part_dir.rglob("*.parquet"))
    in_bytes = sum(f.stat().st_size for f in files)
    table = pa.concat_tables([pq.read_table(f) for f in files])
    table = table.sort_by([(key_col, "ascending"), ("bucket", "ascending")])
    n_out = max(1, math.ceil(in_bytes / target_bytes))
    rows_per = math.ceil(table.num_rows / n_out) if table.num_rows else 1
    tmp = part_dir.parent / f"_compact_tmp_{part_dir.name.split('=', 1)[1]}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    for i in range(n_out):
        chunk = table.slice(i * rows_per, rows_per)
        if chunk.num_rows or i == 0:
            pq.write_table(chunk, tmp / f"compact-{i:05d}.parquet",
                           row_group_size=128 * 1024)
    # swap: the tier manifest is already invalidated by the caller, so
    # the crash window between rmtree and replace degrades to a full
    # tier recompute, never a half-compacted read
    shutil.rmtree(part_dir)
    os.replace(tmp, part_dir)
    return {"partition": part_dir.name, "files_before": len(files),
            "files_after": n_out, "bytes": in_bytes}


def compact_points(out_dir: str | Path, tier_name: str,
                   cfg: RollupConfig | None = None,
                   target_bytes: int = TARGET_BYTES) -> dict:
    """Compact one tier's fragmented points partitions. Returns a report
    {partitions_scanned, partitions_compacted, files_before,
    files_after, bytes_rewritten}. Idempotent: a second pass finds
    nothing to rewrite."""
    cfg = cfg or RollupConfig()
    points_dir, _ = _tier_dirs(str(out_dir), tier_name)
    tier_dir = points_dir.parent
    # stray tmp dirs from a crashed pass (the missing manifest already
    # forces a tier recompute, which clears them — this just keeps a
    # later compaction of a REBUILT tier from tripping over leftovers)
    for stray in points_dir.glob("_compact_tmp_*"):
        shutil.rmtree(stray, ignore_errors=True)
    todo = plan_partitions(points_dir, target_bytes)
    n_parts = len(list(points_dir.glob("seg_part=*")))
    report = {"tier": tier_name, "partitions_scanned": n_parts,
              "partitions_compacted": 0, "files_before": 0,
              "files_after": 0, "bytes_rewritten": 0}
    if not todo:
        return report
    manifest = ckpt.load_manifest(tier_dir)
    mpath = ckpt.manifest_path(tier_dir)
    if mpath.exists():
        mpath.unlink()

    key_col = cfg.series_key

    def _run(batch: pa.Table) -> pa.Table:
        rows = [_compact_one(Path(p), key_col, target_bytes)
                for p in batch["path"].to_pylist()]
        return pa.table({
            "files_before": pa.array(
                [r["files_before"] for r in rows], pa.int64()),
            "files_after": pa.array(
                [r["files_after"] for r in rows], pa.int64()),
            "bytes": pa.array([r["bytes"] for r in rows], pa.int64()),
        })

    # fan partitions out over the task pool — one bounded partition per
    # row, no shuffle, untouched partitions never opened
    stats = (ray.data.from_items([{"path": p} for p in todo])
             .map_batches(_run, batch_format="pyarrow", batch_size=1)
             .to_pandas())
    report["partitions_compacted"] = len(stats)
    report["files_before"] = int(stats["files_before"].sum())
    report["files_after"] = int(stats["files_after"].sum())
    report["bytes_rewritten"] = int(stats["bytes"].sum())
    if manifest is not None:
        # restore VERBATIM (atomic tmp+rename): compaction is not a new
        # completion, so completed_at / lineage must not change
        import json

        tmp = str(mpath) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, default=str)
        os.replace(tmp, mpath)
    return report


def _flat_bins(files: list[Path], target_bytes: int) -> list[list[str]]:
    """Greedy consecutive bin-pack of a sorted file list; only bins that
    would actually merge (>= 2 files) are returned."""
    bins: list[list[str]] = []
    cur: list[str] = []
    cur_b = 0
    for f in files:
        sz = f.stat().st_size
        if cur and cur_b + sz > target_bytes:
            bins.append(cur)
            cur, cur_b = [], 0
        cur.append(str(f))
        cur_b += sz
    if cur:
        bins.append(cur)
    return [b for b in bins if len(b) > 1]


def compact_flat(stage_dir: str | Path, data_subdir: str,
                 sort_key: str = "doc_id",
                 target_bytes: int = TARGET_BYTES) -> dict:
    """Compact a flat per-doc stage output (``features/points``,
    ``tokens_archive/blobs``) — these stages write one small parquet
    file per map batch for retry idempotence (same batch → same stem →
    overwrite), so a completed stage holds corpus_rows / batch_size
    files. After completion the
    retry concern is gone and consecutive files bin-pack into
    ``target_bytes`` outputs, one bin per task.

    Rows never move across directories (ingest-<lineage> subdirs keep
    their provenance — each directory compacts independently), the row
    SET is preserved exactly (merged files re-sort by ``sort_key`` for
    determinism), and the same manifest-invalidate protocol makes a
    crash fall back to a stage recompute."""
    stage_dir = Path(stage_dir)
    data_dir = stage_dir / data_subdir
    report = {"stage": stage_dir.name, "bins": 0, "files_before": 0,
              "files_after": 0, "bytes_rewritten": 0}
    if not data_dir.exists():
        return report
    for stray in data_dir.rglob("_flatcompact-*"):
        stray.unlink()
    dirs = [data_dir] + sorted(d for d in data_dir.rglob("*") if d.is_dir())
    bins = []
    for d in dirs:
        files = sorted(f for f in d.glob("*.parquet"))
        bins.extend(_flat_bins(files, target_bytes))
    if not bins:
        return report
    manifest = ckpt.load_manifest(stage_dir)
    mpath = ckpt.manifest_path(stage_dir)
    if mpath.exists():
        mpath.unlink()

    def _merge_bin(paths: list[str]) -> dict:
        files = [Path(p) for p in paths]
        in_bytes = sum(f.stat().st_size for f in files)
        table = pa.concat_tables([pq.read_table(f) for f in files])
        table = table.sort_by([(sort_key, "ascending")])
        d = files[0].parent
        import zlib

        tag = format(zlib.crc32("\x1f".join(paths).encode()), "08x")
        tmp = d / f"_flatcompact-{tag}.parquet"
        pq.write_table(table, tmp, row_group_size=128 * 1024)
        final = d / f"compact-{tag}-{len(files)}.parquet"
        os.replace(tmp, final)
        for f in files:
            f.unlink()
        return {"files": len(files), "bytes": in_bytes}

    def _run(batch: pa.Table) -> pa.Table:
        rows = [_merge_bin(list(p)) for p in batch["paths"].to_pylist()]
        return pa.table({
            "files": pa.array([r["files"] for r in rows], pa.int64()),
            "bytes": pa.array([r["bytes"] for r in rows], pa.int64()),
        })

    stats = (ray.data.from_items([{"paths": b} for b in bins])
             .map_batches(_run, batch_format="pyarrow", batch_size=1)
             .to_pandas())
    report["bins"] = len(stats)
    report["files_before"] = int(stats["files"].sum())
    report["files_after"] = len(stats)
    report["bytes_rewritten"] = int(stats["bytes"].sum())
    if manifest is not None:
        import json

        tmp = str(mpath) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, default=str)
        os.replace(tmp, mpath)
    return report


def compact_all(out_dir: str | Path, cfg: RollupConfig | None = None,
                target_bytes: int = TARGET_BYTES) -> dict[str, dict]:
    """Compaction pass over every tier points dir plus the flat per-doc
    stage outputs (features, verified token archive) when present."""
    cfg = cfg or RollupConfig()
    out = {}
    for tier in cfg.tiers:
        points_dir, _ = _tier_dirs(str(out_dir), tier.name)
        if points_dir.exists():
            out[tier.name] = compact_points(out_dir, tier.name, cfg,
                                            target_bytes)
    for stage, sub in (("features", "points"), ("tokens_archive", "blobs")):
        stage_dir = Path(out_dir) / stage
        if (stage_dir / sub).exists():
            out[stage] = compact_flat(stage_dir, sub,
                                      target_bytes=target_bytes)
    return out
