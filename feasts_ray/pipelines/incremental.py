"""Incremental ingest (continuous aggregates): fold parquet files ADDED
to the input directory since the last completed run into the existing
tier outputs without rescanning old input.

Design: a completed raw tier's points ARE partials — per (source,bucket)
exact-integer (count, sum, min, max) rows. Newly added files map through
the same bucketize + partial combiner, and the delta-touched points
re-enter the identical tier kernel. Integer merges are
order-independent, so every merged tier is BIT-IDENTICAL to a full
recompute over the whole input (pinned by tests/test_incremental.py).
Every merge is SELECTIVE: only the (key, segment) groups the delta
touches (``tier_kernel.touched_groups``) are re-derived and re-encoded
— untouched points are copied through and untouched
partition-addressed blob files stay in place. Every tier's points
parquet is hive-partitioned by time range (seg_part dirs), so the
point-file rewrite and the read feeding it are O(touched partitions)
as well: untouched partition dirs are never opened, and the per-key
span table updates from the prior run's sidecar plus the delta. A
gap-filled first tier is not merged: appended data moves its dense
domain, so it takes the full-recompute path.

The raw tier merges with one Ray shuffle (``_selective_tier_merge``).
The coarse tiers (1m -> 1h -> 1d) merge in the build's engine: one
``_coarse_chain`` task runs ``cascade_chain`` over the delta re-bucketed
to 1m, reading the stored points of the touched partitions, when that
input is under CHAIN_BYTES; a larger one (a big delta, or a store whose
touched partitions are big) merges tier by tier with the selective
shuffle, as the build keeps ``run_tier`` for a big prior tier. Only
the delta's footprint (per key and first-tier segment: min and max
bucket) reaches the driver.
Coarse merges are exact because integer aggregation is associative:
old-tier-points-as-partials + the delta's re-bucketed raw partials ==
re-derivation from the merged raw tier, bit-for-bit. Gap-filled tiers
additionally touch the (key, segment) groups whose dense domain
changes — the segments between a key's old and new span bounds,
inclusive of the old boundary segment whose domain clip moves — and
seed the touched groups with count-0 partials so pure-gap groups still
form (the build's seed generator, restricted to the touched groups).

Per-doc stages (token features, verified token archive) run over the
NEW files only and append under an ``ingest-<lineage>`` subdirectory —
the per-doc kernels are batch-shape-independent, so appended rows are
bit-identical to the rows a full run would produce.

Scale shape of one ingest: the input scan covers only the new files,
each tier's merge moves O(touched points + delta) rows, and NO stage
scans or rewrites anything proportional to the old corpus or the total
rolled-point count. At 10^12 sequences with daily ingest batches this
is the difference between rescanning the full corpus and scanning one
day's slice — the "continuous aggregate" contract of the north star.
Measured (BASELINE.md): ingesting a 1M-doc delta costs the same wall
into a 95M-doc corpus as into a 23M-doc one.

Crash safety: a tier's manifest is invalidated before its blob files
or points change (the chain's tiers all at once, before the task), its
merged points are built in a sibling ``points.tmp`` dir, the touched
partition dirs swap in by ``os.replace``, and the manifests/spans are
rewritten under the NEW lineage (file-inventory hash), in tier order.
A crash anywhere in between leaves no lineage-valid checkpoint for that
tier, so the next run re-derives it — never a silent partial merge.
Inputs are append-only and never touched.
"""

from __future__ import annotations

import os
import time
from functools import partial
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads

import ray.data

from ..config import RollupConfig
from ..stages.rollup import cascade_batch, int64s
from ..stages.tier_kernel import filter_touched, run_tier, touched_groups
from ..state import checkpoint as ckpt
from ..state.broadcast import put_once
from .rollup_pipeline import (_cfg_dict, _chain_fits, _clear,
                              _file_inventory, _input_rows, _run_chain,
                              _save_tier_manifest, _sized_read, _tier_dirs,
                              _touched_files, raw_partials, run_rollup)

INGEST_STATE_NAME = "_INGEST.json"


def load_ingest_state(out_dir: str | Path) -> dict | None:
    return ckpt._read_json(Path(out_dir) / INGEST_STATE_NAME)


def save_ingest_state(out_dir: str | Path, inventory: list, lineage: str) -> None:
    ckpt._write_json(Path(out_dir) / INGEST_STATE_NAME, {
        "inventory": inventory, "lineage": lineage, "saved_at": time.time()})


@ray.remote(num_returns=2)
def _delta_block(block: pa.Table, cfg: RollupConfig, unit_s: int):
    """One block of the delta's raw partials -> ((footprint, bytes), the
    block re-bucketed to ``unit_s``), or (None, None) for a block with
    no rows. The footprint holds each (key, first-tier segment)'s min
    (``bucket``) and max (``hi``) bucket: the per-key spans, and the
    touched groups of every tier, whose segments nest whole first-tier
    segments."""
    if not block.num_rows:
        return None, None
    key = cfg.series_key
    seg = int64s(block["bucket"]) // (cfg.segment_points * cfg.tiers[0].unit_s)
    foot = (block.select([key, "bucket"]).append_column("seg", pa.array(seg))
            .group_by([key, "seg"]).aggregate([("bucket", "min"),
                                               ("bucket", "max")])
            .rename_columns([key, "seg", "bucket", "hi"]))
    coarse = cascade_batch(block, unit_s, cfg.measures, key)
    return (foot, coarse.nbytes), coarse


def _concat_blocks(refs: list) -> pa.Table:
    return pa.concat_tables(ray.get(refs))


def _selective_tier_merge(
    points_dir: Path,
    blobs_dir: Path,
    tier,
    cfg: RollupConfig,
    delta_partials: "ray.data.Dataset",
    touched: pa.Array,
    *,
    encode: bool,
    spans: dict | None = None,
) -> bool:
    """Merge delta partials into one tier's partitioned points + blobs
    with one Ray shuffle, rewriting only the ``touched`` (key, segment)
    groups and the seg_part dirs that contain them; a gap-filled tier
    seeds the touched groups over ``spans``. Returns False (nothing
    mutated) when the tier's on-disk layout is not partitioned — the
    caller falls back to a full re-derivation of that tier."""
    from .rollup_pipeline import _swap_parts, write_tier_points

    if not any(points_dir.glob("seg_part=*")):
        return False
    tpaths = _touched_files(points_dir, touched, cfg)
    touched_bytes = sum(os.path.getsize(f) for f in tpaths)
    fk = {"key_col": cfg.series_key, "touched": put_once(touched),
          "seg_span": cfg.segment_points * tier.unit_s}
    part_cols = [cfg.series_key, "bucket", "count", *cfg.partial_cols]
    merge_in = delta_partials
    untouched = None
    if tpaths:
        old_touched = (_sized_read(tpaths, part_cols, touched_bytes)
                       .map_batches(filter_touched,
                                    batch_format="pyarrow",
                                    fn_kwargs=dict(fk, keep_touched=True)))
        # rows in touched partitions whose (key, segment) group the
        # delta does NOT touch: stream through to the rewrite of their
        # partition, bypassing the shuffle
        untouched = (_sized_read(tpaths, part_cols + list(cfg.mean_cols),
                                 touched_bytes)
                     .map_batches(filter_touched,
                                  batch_format="pyarrow",
                                  fn_kwargs=dict(fk, keep_touched=False)))
        merge_in = old_touched.union(merge_in)
    gap_fill = cfg.gap_fill and tier.gap_fill
    merged = run_tier(
        merge_in, tier.name, tier.unit_s, cfg.segment_points,
        spans if gap_fill else {}, gap_fill=gap_fill,
        blobs_dir=str(blobs_dir) if encode else None,
        key_col=cfg.series_key, measures=cfg.measures, touched=touched)
    out = merged if untouched is None else untouched.union(merged)
    # touched blob files mutate in place while this executes: invalidate
    # the manifest FIRST so a crash anywhere falls back to a full
    # recompute of the tier instead of trusting a half-merged one
    ckpt.manifest_path(points_dir.parent).unlink(missing_ok=True)
    tmp_points = points_dir.parent / "points.tmp"
    _clear(tmp_points)
    write_tier_points(out, tmp_points, cfg, tier.unit_s)
    # swap ONLY the partitions the rewrite produced (touched +
    # delta-created); every other seg_part dir stays in place
    _swap_parts(tmp_points, points_dir)
    return True


def _doc_delta(name: str, data: str, stage, columns: list[str],
               new_paths: list[str], out_dir: str, lineage: str,
               rows_new: int) -> None:
    """Append one per-doc stage's rows for the new files only, under
    ``<name>/<data>/ingest-<lineage>`` (the kernels are batch-shape
    independent -> rows identical to a full run's)."""
    stage_dir = Path(out_dir) / name
    sub = stage_dir / data / f"ingest-{lineage}"
    _clear(sub)
    t0 = time.perf_counter()
    stage(ray.data.read_parquet(new_paths, columns=columns)
          ).write_parquet(str(sub))
    # the prior counts plus the new subdir's: no read of the store (a
    # features manifest without bytes_blobs, from an older store: one walk)
    prior = ckpt.load_manifest(stage_dir)
    rows = prior["rows_out"] + pads.dataset(str(sub)).count_rows()
    ckpt.save_manifest(stage_dir, {
        "tier": name, "lineage": lineage, "rows_in": rows_new,
        "rows_out": rows, "points": rows,
        "bytes_blobs": (prior["bytes_blobs"] + ckpt.dir_bytes(sub)
                        if "bytes_blobs" in prior
                        else ckpt.dir_bytes(stage_dir / data)),
        "wall_s": time.perf_counter() - t0, "incremental": True})


def _features_delta(new_paths: list[str], out_dir: str, lineage: str,
                    rows_new: int) -> None:
    from ..stages.token_features import token_feature_table

    _doc_delta("features", "points", token_feature_table,
               ["doc_id", "tokens", "source"], new_paths, out_dir, lineage,
               rows_new)


def _archive_delta(new_paths: list[str], out_dir: str, lineage: str,
                   rows_new: int) -> None:
    from ..stages.token_archive import archive_tokens

    _doc_delta("tokens_archive", "blobs", archive_tokens,
               ["doc_id", "tokens", "n_tok", "source"], new_paths, out_dir,
               lineage, rows_new)


def run_rollup_incremental(
    input_path: str,
    out_dir: str,
    cfg: RollupConfig | None = None,
    encode: bool = True,
    token_features: bool = False,
    token_archive: bool = False,
) -> dict[str, dict]:
    """Ingest files added to ``input_path`` since the last completed run.

    Falls back to a plain ``run_rollup`` (full recompute / pure resume)
    whenever an incremental merge is not provably safe: no prior ingest
    state, the prior file set is not a strict subset of the current one,
    the prior raw checkpoint is missing or lineage-stale, the first tier
    is gap-filled, or a per-doc stage is requested that the prior run
    did not produce. Returns the same per-tier metrics dict as
    ``run_rollup``; every merged tier's manifest carries ``incremental:
    true`` (the raw one also ``new_files``, the chain's ``chained:
    true``).
    """
    cfg = cfg or RollupConfig()
    cfg_dict = _cfg_dict(cfg, encode)
    inv_now = _file_inventory(input_path)
    new_lineage = ckpt.lineage_hash(input_path, cfg_dict, inventory=inv_now)
    raw_tier = cfg.tiers[0]
    raw_points_dir, raw_blobs_dir = _tier_dirs(out_dir, raw_tier.name)
    state = load_ingest_state(out_dir)

    def _full() -> dict[str, dict]:
        return run_rollup(input_path, out_dir, cfg=cfg, encode=encode,
                          token_features=token_features,
                          token_archive=token_archive)

    # pure resume (same inventory) or nothing to merge against
    if ckpt.is_complete(raw_points_dir.parent, new_lineage) or state is None:
        return _full()
    prior_files = {tuple(x) for x in state["inventory"]}
    now_files = {tuple(x) for x in inv_now}
    # recompute the prior lineage from the prior inventory + CURRENT
    # config: any config drift (tiers, value col, encode, ...) since the
    # last run makes this mismatch and forces the full path
    prior_lineage = ckpt.lineage_hash(input_path, cfg_dict,
                                      inventory=state["inventory"])
    prior_spans = ckpt.load_spans(out_dir, prior_lineage)
    safe = (state.get("lineage") == prior_lineage
            and prior_files < now_files
            and ckpt.is_complete(raw_points_dir.parent, prior_lineage)
            and prior_spans is not None
            # a gap-filled first tier's dense domain moves with every
            # append: it re-derives whole
            and not (cfg.gap_fill and raw_tier.gap_fill))
    if token_features:
        safe = safe and ckpt.is_complete(Path(out_dir) / "features",
                                         prior_lineage)
    if token_archive:
        safe = safe and ckpt.is_complete(Path(out_dir) / "tokens_archive",
                                         prior_lineage)
    if not safe:
        return _full()

    new_paths = [os.path.join(input_path, n)
                 for n, _s in sorted(now_files - prior_files)]
    new_bytes = sum(s for (_n, s) in now_files - prior_files)
    t0 = time.perf_counter()

    # ---- scan ONLY the new files: the delta's raw partials, and per
    # block its footprint and its partials re-bucketed to the first
    # coarse tier; only the footprints reach the driver
    ds_new = raw_partials(_sized_read(
        new_paths, ["doc_id", *cfg.value_cols, cfg.series_key], new_bytes),
        cfg).materialize()  # delta-sized
    unit_s = (cfg.tiers[1:] or cfg.tiers)[0].unit_s
    blocks = [_delta_block.remote(b, cfg, unit_s)
              for b in ds_new.to_arrow_refs()]
    heads = ray.get([h for h, _ in blocks])
    coarse = [c for h, (_, c) in zip(heads, blocks) if h is not None]
    if not coarse:  # appended files with no rows: nothing to merge
        return _full()
    foot = pa.concat_tables([h[0] for h in heads if h is not None])
    delta_bytes = sum(h[1] for h in heads if h is not None)
    # spans update is O(delta) too: merge the prior run's sidecar with
    # the delta's per-key spans instead of rescanning all points
    spans = dict(prior_spans)
    d = foot.group_by(cfg.series_key).aggregate([("bucket", "min"),
                                                 ("hi", "max")])
    for sk, lo, hi in zip(*(d[c].to_pylist() for c in
                            (cfg.series_key, "bucket_min", "hi_max"))):
        cur = spans.get(sk)
        spans[sk] = (min(cur[0], lo), max(cur[1], hi)) if cur else (lo, hi)
    ckpt.save_spans(out_dir, spans, new_lineage)
    rows_new = _input_rows(new_paths[0] if len(new_paths) == 1 else new_paths)
    rows_in = ckpt.load_manifest(raw_points_dir.parent)["rows_out"] + rows_new

    # ---- every tier merges the delta's raw partials, re-bucketed to it
    # (integer aggregation is associative, so old-tier-points +
    # delta-partials == re-derivation from the merged raw tier
    # bit-for-bit). Only the (key, segment) groups the delta touches
    # re-enter the kernel. The raw tier merges by its own selective
    # shuffle; from the first coarse tier on whose chain input (the
    # re-bucketed delta plus the touched partitions of it and the tiers
    # after it) fits, one ``_coarse_chain`` task merges the rest, and a
    # coarse tier before that point shuffles too. Merging stops at the
    # first tier without a lineage-valid prior checkpoint or with an
    # unpartitioned layout (nothing mutated): it and the tiers after it
    # are left lineage-stale and re-derive in the final run_rollup pass
    # below — never a silent partial merge.
    merge = [raw_tier]
    for tier in cfg.tiers[1:]:
        if not ckpt.is_complete(_tier_dirs(out_dir, tier.name)[0].parent,
                                prior_lineage):
            break
        merge.append(tier)
    parts = []  # per tier: touched group ids, files of their partitions
    for tier in merge:
        touched = touched_groups(
            foot, cfg.series_key, cfg.segment_points * tier.unit_s,
            prior_spans if cfg.gap_fill and tier.gap_fill else None, spans)
        parts.append((touched, _touched_files(
            _tier_dirs(out_dir, tier.name)[0], touched, cfg)))
    prev_dir = input_path
    for k, tier in enumerate(merge):
        if k and _chain_fits(delta_bytes + sum(
                os.path.getsize(f) for _, files in parts[k:] for f in files)):
            _run_chain(partial(_concat_blocks, coarse), out_dir, cfg,
                       merge[k:], merge[k - 1].name, spans, encode,
                       new_lineage, parts[k:], incremental=True)
            break
        p_dir, b_dir = _tier_dirs(out_dir, tier.name)
        part = ds_new if not k else ray.data.from_arrow_refs(
            coarse).map_batches(
            cascade_batch, batch_format="pyarrow",
            fn_kwargs={"unit_s": tier.unit_s, "measures": cfg.measures,
                       "key_col": cfg.series_key})
        if not _selective_tier_merge(p_dir, b_dir, tier, cfg, part,
                                     parts[k][0], encode=encode, spans=spans):
            break
        m = _save_tier_manifest(
            out_dir, tier.name, lineage=new_lineage, rows_in=rows_in,
            wall_s=time.perf_counter() - t0, input=str(prev_dir),
            n_sources=len(spans), incremental=True,
            **({} if k else {"new_files": len(new_paths)}))
        prev_dir, rows_in, t0 = p_dir, m["rows_out"], time.perf_counter()

    # ---- per-doc stages: delta over the new files only
    if token_features:
        _features_delta(new_paths, out_dir, new_lineage, rows_new)
    if token_archive:
        _archive_delta(new_paths, out_dir, new_lineage, rows_new)

    # ---- tiers left stale re-derive from the merged ones; completed
    # tiers and per-doc stages are skipped
    return _full()
