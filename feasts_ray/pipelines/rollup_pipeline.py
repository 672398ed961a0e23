"""Flagship pipeline: token table -> cascading retention tiers -> blobs.

Dataflow (SURVEY.md §7.1, north rule):

  raw tier (and any tier whose prior tier is >= CHAIN_BYTES), one shuffle:
    read_parquet(doc_id, n_tok, source) | prior tier's points
    -> MB derive ts + partial rollup | cascade re-bucket  # combine
    -> groupby(source, segment).map_groups fused TierSegmentKernel:
         merge partials + LOCAL gap-fill + mean + time sort + Gorilla
         encode (blobs written to partition-addressed files in-kernel)
    -> write points parquet; per-source [lo, hi] spans from raw points
  remaining coarse tiers (1m -> 1h -> 1d): ONE task (_coarse_chain)
    reads the prior tier's points once and runs cascade + seeds + the
    same kernel tier after tier in memory, each tier re-bucketing the
    previous tier's input, writing each tier's points and blobs. Ingest
    runs the same task over the delta re-bucketed to 1m, merging into
    the stored points of the touched (key, segment) groups, when the
    delta plus those partitions are under CHAIN_BYTES (incremental.py)
  _CHECKPOINT.json per tier, in tier order: a resume restarts the chain
  at the first incomplete tier
  fused doc stage (features + archive) runs BESIDE the tiers: built on
    the calling thread, written on a background thread, joined at the end

Why fused: Ray's groupby costs ~0.3 ms/group in Python, so grouping by
(source, bucket) is quadratic-feeling at scale; grouping by (source,
segment) bounds group size at SEGMENT_POINTS (also the anti-skew salt)
and cuts group count 4096x. See stages/tier_kernel.py.
"""

from __future__ import annotations

import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray
import ray.data

from ..config import RollupConfig
from ..stages.bucketize import add_time_columns
from ..stages.rollup import cascade_batch, partial_rollup_batch
from ..stages.tier_kernel import cascade_chain, run_tier, spans_from_partials
from ..state import checkpoint as ckpt

# prior-tier size under which the rest of the cascade runs in one task:
# below it the groupby's all-to-all is pure fixed latency (~1 s/tier)
CHAIN_BYTES = 32 << 20


def _input_bytes(input_path: str) -> int:
    return sum(max(size, 0) for _, size in _file_inventory(input_path))


def _input_rows(input_path) -> int:
    """Row count from parquet footers only — no data scan."""
    try:
        return pads.dataset(input_path).count_rows()
    except Exception:
        return -1


def _file_inventory(input_path: str) -> list[list]:
    """Sorted [name, size] of the input's parquet files. Part of the
    lineage hash, so appending files invalidates stale checkpoints (a
    resumed run recomputes instead of silently skipping); the incremental
    path diffs inventories to find the files added since the last run."""
    try:
        return sorted(
            [f, os.path.getsize(os.path.join(input_path, f))]
            for f in os.listdir(input_path) if f.endswith(".parquet"))
    except (OSError, NotADirectoryError):
        return [[input_path, -1]]


def _cfg_dict(cfg: RollupConfig, encode: bool) -> dict:
    return {
        "tiers": [t.name for t in cfg.tiers],
        "value_col": cfg.value_col,
        "gap_fill": cfg.gap_fill,
        "segment_points": cfg.segment_points,
        "encode": encode,
        # points layout is part of lineage: outputs written under a
        # different partition span must not be selectively merged into
        "points_partition_segs": cfg.points_partition_segs,
        # points schema: a store written with float min/max recomputes
        # instead of being merged into
        "points_format": "int64-minmax",
    }


def _points_part_span(cfg: RollupConfig, unit_s: int) -> int:
    """Seconds per points partition dir (seg_part = bucket // this);
    floor-div composition makes it equal (bucket // seg_span) //
    points_partition_segs, i.e. whole segments never straddle parts."""
    return cfg.segment_points * unit_s * cfg.points_partition_segs


def _add_seg_part(batch, part_span: int):
    """Append the hive partition column for the points write."""
    seg_part = batch["bucket"].to_numpy(zero_copy_only=False) // part_span
    return batch.append_column("seg_part", pa.array(seg_part, type=pa.int64()))


def write_tier_points(points: "ray.data.Dataset", points_dir,
                      cfg: RollupConfig, unit_s: int) -> None:
    """Tier points sink: hive-partitioned by time range so the selective
    incremental merge can leave untouched partition dirs in place
    (pyarrow drops the partition column from the file contents, so plain
    readers see the original schema)."""
    span = _points_part_span(cfg, unit_s)
    points.map_batches(
        _add_seg_part, batch_format="pyarrow", fn_kwargs={"part_span": span}
    ).write_parquet(str(points_dir), partition_cols=["seg_part"])


def _range_part_dirs(points_dir: Path, lo: int, hi: int, span: int) -> list[str]:
    """seg_part dirs intersecting [lo, hi) — the partition-prune set."""
    p_lo, p_hi = lo // span, (hi - 1) // span
    return [str(d) for d in sorted(points_dir.glob("seg_part=*"))
            if p_lo <= int(d.name.split("=", 1)[1]) <= p_hi]


def read_points_range(
    out_dir: str,
    tier_name: str,
    lo: int,
    hi: int,
    cfg: RollupConfig | None = None,
    columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """Rolled points of one tier with ``lo <= bucket < hi``.

    Every tier's points are time-partitioned, so range scans are cheap
    at both ends: whole seg_part dirs outside the range are pruned
    before any file is opened, and the residual predicate pushes into
    parquet row-group statistics. A dashboard query for one day over a
    10^12-sequence archive therefore opens O(day) partitions, not the
    whole tier.
    """
    cfg = cfg or RollupConfig()
    points_dir, _ = _tier_dirs(out_dir, tier_name)
    if columns is None:
        # pin to the FILE schema: Ray's hive inference would otherwise
        # append path-derived columns (tier=..., seg_part=...) on reads
        # without an explicit projection
        columns = list(pads.dataset(str(points_dir)).schema.names)
    tier = next(t for t in cfg.tiers if t.name == tier_name)
    pruned = _range_part_dirs(points_dir, lo, hi,
                              _points_part_span(cfg, tier.unit_s))
    if not pruned:
        return ray.data.from_arrow(
            pads.dataset(str(points_dir)).schema.empty_table().select(columns))
    # expand to files: Ray 2.49 read_parquet rejects a LIST of
    # directories (single dir paths are expanded, lists are not)
    paths = [str(f) for d in pruned
             for f in sorted(Path(d).glob("*.parquet"))]
    expr = (pc.field("bucket") >= lo) & (pc.field("bucket") < hi)
    return ray.data.read_parquet(paths, columns=columns, filter=expr)


def _cluster_cpus() -> int:
    return (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)


def read_token_table(input_path: str, columns=("doc_id", "n_tok", "source")) -> "ray.data.Dataset":
    """Read the token table with blocks sized for the downstream shuffle.

    Ray's default read task count (~200) is fine for a pure map pipeline
    but poisons the raw tier's groupby: the sort all-to-all creates
    O(map_blocks x reduce_partitions) block slices, so 200 input blocks
    cost ~40k slice objects of pure scheduling overhead. Coalescing to
    max(cpus, file_bytes/128MB) blocks cut the 24M-doc raw tier from
    35.5 s to 15.6 s at 16 CPUs (sort wall 32 s -> ~6 s); the same
    sizing rule the cascade tiers already use on their re-reads.
    """
    return _sized_read(input_path, list(columns), _input_bytes(input_path))


def _sized_read(paths: list[str] | str, columns: list[str],
                nbytes: int) -> "ray.data.Dataset":
    """Read parquet in ~128 MB blocks, at least one per CPU."""
    return ray.data.read_parquet(
        paths, columns=columns,
        override_num_blocks=max(_cluster_cpus(), nbytes // (128 << 20)))


def raw_partials(docs: "ray.data.Dataset", cfg: RollupConfig) -> "ray.data.Dataset":
    """Token rows -> the first tier's (key, bucket) partials."""
    return docs.map_batches(add_time_columns, batch_format="pyarrow").map_batches(
        partial_rollup_batch, batch_format="pyarrow", batch_size=cfg.batch_size,
        fn_kwargs={"unit_s": cfg.tiers[0].unit_s, "value_col": cfg.value_col,
                   "key_col": cfg.series_key})


def _tier_dirs(out_dir: str, tier_name: str) -> tuple[Path, Path]:
    base = Path(out_dir) / f"tier={tier_name}"
    return base / "points", base / "blobs"


def _clear(*dirs: Path) -> None:
    """Remove a crashed attempt's partial output before a stage reruns."""
    for d in dirs:
        if d.exists():
            shutil.rmtree(d)


def _points_stats(points_dir: Path) -> tuple[int, int]:
    """(rows, watermark=max bucket) from parquet row-group stats — no scan."""
    dset = pads.dataset(str(points_dir))
    rows, wm = 0, None
    for frag in dset.get_fragments():
        md = frag.metadata
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            for ci in range(md.num_columns):
                col = md.row_group(rg).column(ci)
                if col.path_in_schema == "bucket" and col.statistics is not None:
                    mx = col.statistics.max
                    wm = mx if wm is None else max(wm, mx)
    return rows, (wm if wm is not None else -1)


def _run_doc_stage(name: str, data: str, stage, columns: list[str],
                   input_path: str, out_dir: str, lineage: str,
                   rows_in: int) -> dict:
    """One per-doc stage alone (the other is checkpointed or not asked
    for): ``stage`` maps the input's ``columns`` to ``<name>/<data>``."""
    stage_dir = Path(out_dir) / name
    if ckpt.is_complete(stage_dir, lineage):
        return ckpt.load_manifest(stage_dir)
    _clear(stage_dir / data)
    t0 = time.perf_counter()
    stage(ray.data.read_parquet(input_path, columns=columns)
          ).write_parquet(str(stage_dir / data))
    return _save_doc_manifest(out_dir, name, data, lineage=lineage,
                              rows_in=rows_in, input=input_path,
                              wall_s=time.perf_counter() - t0)


def _save_doc_manifest(out_dir: str, name: str, data: str, **fields) -> dict:
    """Checkpoint a written per-doc stage: ``fields``, rows and bytes."""
    stage_dir = Path(out_dir) / name
    rows = pads.dataset(str(stage_dir / data)).count_rows()
    ckpt.save_manifest(stage_dir, dict(
        fields, tier=name, rows_out=rows, points=rows,
        bytes_blobs=ckpt.dir_bytes(stage_dir / data)))
    return ckpt.load_manifest(stage_dir)


def _fused_doc_dataset(input_path: str, out_dir: str) -> "ray.data.Dataset":
    """Features + archive in one scan of the tokens column, as a lazy
    Dataset of archive blobs; features are side-written by the kernel
    (see stages/doc_fused.py)."""
    from ..stages.doc_fused import fused_doc_batch

    points_dir = Path(out_dir) / "features" / "points"
    _clear(points_dir, Path(out_dir) / "tokens_archive" / "blobs")
    ds = ray.data.read_parquet(input_path, columns=["doc_id", "tokens",
                                                    "n_tok", "source"])
    # batch_size: BEFORE the kernels tiled internally, big batches
    # thrashed the shared L3 (16384 measured 0.6x at 32-way) and the
    # interleaved sweep picked 2048. With the feature kernel in 512 KB
    # row tiles and the dod encoder in 256-doc tiles, the cache penalty
    # is gone and bigger batches amortize per-batch costs + widen the
    # lockstep verify-decoder's vectors: 3-round alternating 32-way
    # sweep on 12M docs: 2048 32.0/33.5/33.9 s, 4096 28.8/30.4/31.7 s,
    # 8192 25.7/31.7/26.7 s (fastest or tied every round); 16384 was
    # no better than 8192 in the wider sweep.
    return ds.map_batches(
        fused_doc_batch, batch_format="pyarrow", batch_size=8192,
        fn_kwargs={"features_dir": str(points_dir)})


def run_token_features_and_archive(docs: "ray.data.Dataset", input_path: str,
                                   out_dir: str, lineage: str,
                                   rows_in: int) -> dict[str, dict]:
    """Write the fused doc stage ``docs`` (``_fused_doc_dataset``) and save
    both manifests. It runs beside the tiers, so its one wall is recorded
    once, in the features manifest, marked as overlapping them."""
    t0 = time.perf_counter()
    docs.write_parquet(str(Path(out_dir) / "tokens_archive" / "blobs"))
    common = {"lineage": lineage, "rows_in": rows_in, "fused_scan": True,
              "input": input_path}
    return {"features": _save_doc_manifest(
                out_dir, "features", "points", **common,
                wall_s=time.perf_counter() - t0, overlapped_tiers=True),
            "tokens_archive": _save_doc_manifest(
                out_dir, "tokens_archive", "blobs", **common,
                wall_s_in="features")}


def _chain_fits(nbytes: int) -> bool:
    """Whether the tiers from here on run as one ``_coarse_chain`` task:
    the ``nbytes`` it loads (a build: the prior tier's points; an
    ingest: the delta plus the touched partitions) are under CHAIN_BYTES."""
    return nbytes < CHAIN_BYTES


def _touched_files(points_dir: Path, touched: pa.Array,
                   cfg: RollupConfig) -> list[str]:
    """Parquet files of the seg_part dirs holding the ``touched`` (key,
    segment) groups. Files, not dirs: Ray 2.49 read_parquet expands ONE
    directory path, but a LIST of directories raises "Cannot open for
    reading: ... is a directory"."""
    parts = {int(g.rsplit("\x1f", 1)[1]) // cfg.points_partition_segs
             for g in touched.to_pylist()}
    return [str(f) for d in sorted(points_dir.glob("seg_part=*"))
            if int(d.name.split("=", 1)[1]) in parts
            for f in sorted(d.glob("*.parquet"))]


def _read_partials(points_dir: str, cfg: RollupConfig) -> pa.Table:
    """A tier's stored points, as the next tier's partials."""
    return pads.dataset(points_dir).to_table(
        columns=[cfg.series_key, "bucket", "count", *cfg.partial_cols])


def _swap_parts(tmp_points: Path, points_dir: Path) -> None:
    """Move each seg_part dir of a rewrite into ``points_dir``, replacing
    the one it rewrote; every other partition stays in place."""
    points_dir.mkdir(parents=True, exist_ok=True)
    for src in sorted(tmp_points.glob("seg_part=*")):
        dst = points_dir / src.name
        if dst.exists():
            shutil.rmtree(dst)
        os.replace(src, dst)
    # a zero-row rewrite writes nothing and creates no tmp dir at all
    shutil.rmtree(tmp_points, ignore_errors=True)


@ray.remote
def _coarse_chain(load, out_dir: str, tiers, cfg: RollupConfig,
                  spans: dict, encode: bool, stored=None) -> list[float]:
    """Every remaining coarse tier in one task: run ``cascade_chain`` over
    the partials ``load()`` returns and write each tier's points (the
    seg_part layout of ``write_tier_points``) and blobs. A build
    (``stored`` None) rewrites the tiers whole. An ingest passes, per
    tier, the touched group ids and the files of the partitions holding
    them: those partitions are rebuilt in a tmp dir and swapped in,
    touched blob files overwritten in place. Returns each tier's wall;
    the driver saves the manifests, in tier order."""
    dirs = [_tier_dirs(out_dir, t.name) for t in tiers]
    if stored is None:
        _clear(*(d for pair in dirs for d in pair))
    chain = cascade_chain(
        load(), tiers, [str(b) if encode else None for _, b in dirs],
        cfg.segment_points, spans, cfg.gap_fill, cfg.series_key,
        cfg.measures, None if stored is None else (
            (touched, pads.dataset(files).to_table() if files else None)
            for touched, files in stored))
    walls, t0 = [], time.perf_counter()
    for tier, (points_dir, _), out in zip(tiers, dirs, chain):
        tmp = points_dir.parent / "points.tmp"
        _clear(tmp)
        if out is not None:
            pads.write_dataset(
                _add_seg_part(out, _points_part_span(cfg, tier.unit_s)),
                tmp, format="parquet", partitioning=["seg_part"],
                partitioning_flavor="hive", use_threads=False)
        _swap_parts(tmp, points_dir)
        walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
    return walls


def _run_chain(load, out_dir: str, cfg: RollupConfig, tiers, prev: str,
               spans: dict, encode: bool, lineage: str, stored=None,
               **fields) -> dict[str, dict]:
    """Run ``tiers`` (the ones after tier ``prev``) as one
    ``_coarse_chain`` task. Their manifests are invalidated before and
    saved after, in tier order, so a crash re-derives the rest."""
    for t in tiers:
        ckpt.manifest_path(_tier_dirs(out_dir, t.name)[0].parent).unlink(
            missing_ok=True)
    walls = ray.get(_coarse_chain.remote(load, out_dir, tiers, cfg, spans,
                                         encode, stored))
    metrics = {}
    for t, wall in zip(tiers, walls):
        prev_dir = _tier_dirs(out_dir, prev)[0]
        metrics[t.name] = _save_tier_manifest(
            out_dir, t.name, lineage=lineage, wall_s=wall,
            rows_in=ckpt.load_manifest(prev_dir.parent)["rows_out"],
            chained=True, input=str(prev_dir), n_sources=len(spans),
            **fields)
        prev = t.name
    return metrics


def _save_tier_manifest(out_dir: str, tier_name: str, **fields) -> dict:
    """Checkpoint a written tier: ``fields``, points, watermark, bytes."""
    points_dir, blobs_dir = _tier_dirs(out_dir, tier_name)
    rows, watermark = _points_stats(points_dir)
    ckpt.save_manifest(points_dir.parent, dict(
        fields, tier=tier_name, rows_out=rows, points=rows,
        watermark=watermark, bytes_blobs=ckpt.dir_bytes(blobs_dir)))
    return ckpt.load_manifest(points_dir.parent)


def _run_tiers(input_path: str, out_dir: str, cfg: RollupConfig,
               encode: bool, lineage: str, rows_in: int) -> dict[str, dict]:
    """Build (or resume) every tier; returns each tier's manifest."""
    metrics: dict[str, dict] = {}
    prev_points: Path | None = None
    spans: dict | None = None
    for k, tier in enumerate(cfg.tiers):
        points_dir, blobs_dir = _tier_dirs(out_dir, tier.name)
        if ckpt.is_complete(points_dir.parent, lineage):
            metrics[tier.name] = ckpt.load_manifest(points_dir.parent)
            if spans is None:
                # run-level parquet sidecar (written once per run) — NOT
                # inlined into each manifest: at 10^7 sources the inline
                # JSON dict made every manifest a huge driver-side parse
                spans = ckpt.load_spans(out_dir, lineage)
            prev_points = points_dir
            continue
        if prev_points is not None and _chain_fits(
                ckpt.dir_bytes(prev_points)):
            metrics.update(_run_chain(
                partial(_read_partials, str(prev_points), cfg), out_dir,
                cfg, cfg.tiers[k:], cfg.tiers[k - 1].name, spans or {},
                encode, lineage))
            break
        _clear(points_dir, blobs_dir)
        t0 = time.perf_counter()
        if k == 0:
            ds = raw_partials(read_token_table(
                input_path, columns=("doc_id", *cfg.value_cols,
                                     cfg.series_key)), cfg)
            # Coalesce the partials before the sort: read blocks scale
            # with INPUT bytes (good for read/agg parallelism) but the
            # sort's block-slice count is O(blocks^2) pure scheduling —
            # at 192M docs (224 read blocks) that term alone was ~100 s
            # of the raw tier's wall at 16 CPUs. The partials are ~3x
            # smaller than the token table, so re-blocking them to
            # ~128 MB (floor 2/CPU) costs one cheap split-concat pass
            # and shrinks the sort matrix ~25x. Kernel output is
            # order-independent (integer-sum merges), so points are
            # bit-identical (pinned by the oracle suite).
            cpus = _cluster_cpus()
            tbytes = _input_bytes(input_path)
            read_nblk = max(cpus, tbytes // (128 << 20))
            sort_nblk = max(2 * cpus, tbytes // (384 << 20))
            if sort_nblk < read_nblk:
                ds = ds.repartition(sort_nblk)
        else:
            # Size read blocks to ~128 MB (floor: one per CPU): the finer
            # tier wrote one small file per kernel task, and inheriting
            # 100+ KB-sized blocks makes the next shuffle pure scheduling
            # overhead (measured: 1m tier sort 17.7 s for 11 MB of rows).
            ds = _sized_read(
                str(prev_points),
                [cfg.series_key, "bucket", "count", *cfg.partial_cols],
                ckpt.dir_bytes(prev_points),
            ).map_batches(
                cascade_batch, batch_format="pyarrow",
                fn_kwargs={"unit_s": tier.unit_s, "measures": cfg.measures}
            )
        # Spans (per-key bucket domain) are only needed for gap-filled
        # tiers. The raw tier is not gap-filled, so it streams straight
        # through (read -> combine -> shuffle -> kernel -> write in ONE
        # pipeline, no input-sized materialization); spans are then
        # derived from its small points parquet. Materialize partials
        # only when the FIRST tier itself needs gap-fill.
        tier_gap_fill = cfg.gap_fill and tier.gap_fill
        if spans is None and tier_gap_fill:
            partials = ds.materialize()
            spans = spans_from_partials(partials, key_col=cfg.series_key)
            ckpt.save_spans(out_dir, spans, lineage)
        else:
            partials = ds
        points = run_tier(
            partials, tier.name, tier.unit_s, cfg.segment_points,
            spans or {}, gap_fill=tier_gap_fill,
            blobs_dir=str(blobs_dir) if encode else None,
            key_col=cfg.series_key,
            measures=cfg.measures,
        )
        # The next tier re-reads this tier's parquet. Measured:
        # materializing points for in-memory reuse UN-fuses the write
        # from the tier kernel (extra barrier + second pass), ~5 s/tier
        # at 12M docs, while the parquet read-back of a post-raw tier is
        # ~1 s — streaming write + re-read wins (and is the resume path
        # anyway). Every tier is time-partitioned (seg_part dirs) so the
        # selective ingest rewrites O(touched) partitions at every tier
        # and range reads prune whole dirs.
        write_tier_points(points, points_dir, cfg, tier.unit_s)
        if spans is None:
            # first (non-gap-filled) tier just wrote: derive spans from
            # its points parquet — a 2-column scan of the rolled output,
            # tiny next to the input the old materialize() path held
            spans = spans_from_partials(
                ray.data.read_parquet(str(points_dir),
                                      columns=[cfg.series_key, "bucket"]),
                key_col=cfg.series_key)
            ckpt.save_spans(out_dir, spans, lineage)
        metrics[tier.name] = _save_tier_manifest(
            out_dir, tier.name, lineage=lineage,
            wall_s=time.perf_counter() - t0,
            rows_in=(rows_in if k == 0
                     else metrics[cfg.tiers[k - 1].name]["rows_out"]),
            input=input_path if k == 0 else str(prev_points),
            n_sources=len(spans))
        prev_points = points_dir
    return metrics


def run_rollup(
    input_path: str,
    out_dir: str,
    cfg: RollupConfig | None = None,
    encode: bool = True,
    token_features: bool = False,
    token_archive: bool = False,
) -> dict[str, dict]:
    """Run (or resume) the full tier cascade. Returns per-tier metrics."""
    cfg = cfg or RollupConfig()
    cfg_dict = _cfg_dict(cfg, encode)
    inventory = _file_inventory(input_path)
    lineage = ckpt.lineage_hash(input_path, cfg_dict, inventory=inventory)
    rows_in = _input_rows(input_path)
    fused = token_features and token_archive and not any(
        ckpt.is_complete(Path(out_dir) / d, lineage)
        for d in ("features", "tokens_archive"))
    with ThreadPoolExecutor(max_workers=1) as pool:
        # A fresh fused doc stage runs beside the tiers; both threads
        # resolve paths, which the package's fsspec pin (feasts_ray/
        # __init__.py) keeps safe. Leaving the `with` joins the write,
        # also when a tier raises.
        doc_stage = pool.submit(
            run_token_features_and_archive,
            _fused_doc_dataset(input_path, out_dir), input_path, out_dir,
            lineage, rows_in) if fused else None
        metrics = _run_tiers(input_path, out_dir, cfg, encode, lineage,
                             rows_in)
    if doc_stage is not None:
        metrics.update(doc_stage.result())
    # per-doc stages not run above: token-stream features and the
    # verified token archive (decode(encode(tokens)) == tokens per row)
    from ..stages.token_archive import archive_tokens
    from ..stages.token_features import token_feature_table

    for name, data, stage, cols, wanted in (
            ("features", "points", token_feature_table,
             ["doc_id", "tokens", "source"], token_features),
            ("tokens_archive", "blobs", archive_tokens,
             ["doc_id", "tokens", "n_tok", "source"], token_archive)):
        if wanted and name not in metrics:
            metrics[name] = _run_doc_stage(name, data, stage, cols,
                                           input_path, out_dir, lineage,
                                           rows_in)
    # record the processed file set so a later run_rollup_incremental can
    # diff inventories and fold in only the files added since this run
    from .incremental import save_ingest_state

    save_ingest_state(out_dir, inventory, lineage)
    # retention follows the watermark: horizons recorded by a prior
    # enforce_retention re-apply at the NEW watermark, so neither a full
    # rebuild nor an ingest resurrects expired partitions. Runs after the
    # cascade so every coarser tier derives from the full finer tier
    # before that tier is pruned by its own (shorter) horizon.
    from .retention import reenforce_retention

    for name, r in reenforce_retention(out_dir, cfg).items():
        if name in metrics:
            metrics[name] = dict(metrics[name], retention=r)
    return metrics
