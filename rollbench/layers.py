"""Per-layer measurement for traced runs.

Nothing here changes ``feasts_ray``: ``Tracer`` wraps the driver-side
entry points of each layer (module attributes) while a traced round
runs and restores them afterwards; the probes call the layers' public
batch functions single-process on one fixed batch; the store helpers
read parquet footers and the directory tree.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

from feasts_ray.config import TIERS

TIER_BY_UNIT = {t.unit_s: t.name for t in TIERS}
TIER_NAMES = tuple(TIER_BY_UNIT.values())
POINT_COLS = ("bucket", "count", "sum", "min", "max", "mean")
BITS_TIERS = ("raw", "1m")
RP = "pipelines.rollup_pipeline"
INC = "pipelines.incremental"


def per_layer_units(query_names: list[str]) -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    u = {}
    for t in TIER_NAMES:
        u[f"{RP}.tier.{t}.s"] = "s"
    for k in ("doc_stage", "spans", "retention", "self"):
        u[f"{RP}.{k}.s"] = "s"
    for k in ("read", "encode", "verify_decode", "features", "write"):
        u[f"stages.doc_fused.{k}.mtok_s"] = "Mtok/s"
    u["stages.doc_fused.overhead_ratio"] = "ratio"
    u["stages.rollup.partial.mrows_s"] = "Mrows/s"
    u["stages.rollup.cascade.mrows_s"] = "Mrows/s"
    for t in TIER_NAMES:
        u[f"stages.tier_kernel.blob_files.{t}"] = "count"
    u["stages.tier_kernel.blob_file_overhead"] = "ratio"
    for c in ("gorilla", "intcodec"):
        for d in ("encode", "decode"):
            u[f"codecs.{c}.{d}.mvals_s"] = "Mvals/s"
    for t in BITS_TIERS:
        for c in POINT_COLS:
            for form in ("blob", "parquet"):
                u[f"codecs.bits_per_point.{t}.{c}.{form}"] = "bits"
    u["codecs.archive_bits_per_token"] = "bits"
    for k in ("raw_merge", "cascade_merge", "doc_delta", "final_pass"):
        u[f"{INC}.{k}.s"] = "s"
    u[f"{INC}.bytes_written_per_input_byte"] = "ratio"
    u[f"{INC}.files_untouched"] = "count"
    u["pipelines.compaction.s"] = "s"
    for k in ("files_before", "files_after", "bytes_rewritten"):
        u[f"pipelines.compaction.{k}"] = "B" if k.startswith("bytes") else "count"
    u["read.plan_ms"] = "ms"
    u["read.exec_ms"] = "ms"
    u["read.files_opened"] = "count"
    u["read.rows_examined_per_row"] = "ratio"
    for q in query_names:
        u[f"pipelines.queries.{q}.s"] = "s"
    u["trace.overhead_frac"] = "ratio"
    return u


class Tracer:
    """Sums wall time per layer span while installed. ``ops`` counts
    traced ops so the report gives seconds per op."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._patches: list[tuple[object, str, object]] = []
        self._rollup_depth = 0
        self._marks: dict[str, float] = {}

    # -- wrapping -----------------------------------------------------
    def _wrap(self, module, attr: str, before=None, after=None) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if before:
                before(args, kwargs)
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
            if after:
                after(args, kwargs, out, dt)
            return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def _child(self, name: str):
        def after(_a, _k, _out, dt):
            self.sums[name] += dt
            if self._rollup_depth:
                self.sums["_rollup_children"] += dt
        return after

    def install(self) -> None:
        from feasts_ray.pipelines import (compaction, incremental,
                                          retention, rollup_pipeline)

        def tier_after(args, kwargs, _out, dt):
            unit_s = kwargs.get("unit_s", args[3] if len(args) > 3 else None)
            self._child(f"tier.{TIER_BY_UNIT.get(unit_s, 'other')}.s")(
                args, kwargs, None, dt)

        self._wrap(rollup_pipeline, "write_tier_points", after=tier_after)
        self._wrap(rollup_pipeline, "run_token_features_and_archive",
                   after=self._child("doc_stage.s"))
        self._wrap(rollup_pipeline, "spans_from_partials",
                   after=self._child("spans.s"))
        self._wrap(retention, "reenforce_retention",
                   after=self._child("retention.s"))

        def rollup_before(_a, _k):
            self._rollup_depth += 1

        def rollup_after(_a, _k, _out, dt):
            self._rollup_depth -= 1
            self.sums["run_rollup.s"] += dt

        self._wrap(rollup_pipeline, "run_rollup", rollup_before, rollup_after)

        # incremental phases, from boundary marks inside one ingest call
        def inc_before(_a, _k):
            self._marks = {"start": time.perf_counter()}

        def inc_after(_a, _k, _out, _dt):
            m, end = self._marks, time.perf_counter()
            raw_end = m.get("raw_end", m["start"])
            doc_start = m.get("doc_start", m.get("final_start", end))
            final_start = m.get("final_start", end)
            if "raw_end" in m:
                self.sums["raw_merge.s"] += raw_end - m["start"]
                self.sums["cascade_merge.s"] += doc_start - raw_end
            self.sums["doc_delta.s"] += final_start - doc_start
            self.sums["final_pass.s"] += end - final_start

        self._wrap(incremental, "run_rollup_incremental", inc_before, inc_after)

        def merge_after(args, kwargs, _out, _dt):
            tier = kwargs.get("tier", args[2] if len(args) > 2 else None)
            if getattr(tier, "unit_s", None) == 1:
                self._marks.setdefault("raw_end", time.perf_counter())

        self._wrap(incremental, "_selective_tier_merge", after=merge_after)

        def doc_before(_a, _k):
            self._marks.setdefault("doc_start", time.perf_counter())

        self._wrap(incremental, "_features_delta", before=doc_before)
        self._wrap(incremental, "_archive_delta", before=doc_before)

        def final_before(_a, _k):
            self._marks.setdefault("final_start", time.perf_counter())
            rollup_before(_a, _k)

        self._wrap(incremental, "run_rollup", final_before, rollup_after)

        def compact_after(_a, _k, out, dt):
            self.sums["compaction.s"] += dt
            for rep in out.values():
                for k in ("files_before", "files_after", "bytes_rewritten"):
                    self.sums[f"compaction.{k}"] += rep.get(k, 0)

        self._wrap(compaction, "compact_all", after=compact_after)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def per_op(self, key: str) -> float:
        return self.sums.get(key, 0.0) / max(self.ops, 1)


def range_read(plan, record: dict | None = None) -> int:
    """Run one range read to completion with ``count()``; the row count.
    With a record (traced rounds), the same call is also split into plan
    (until the lazy Dataset is returned) and execution, and the files the
    plan opens are counted from a spy on ``ray.data.read_parquet``."""
    if record is None:
        return plan().count()
    import ray.data

    opened: list[str] = []
    orig = ray.data.read_parquet

    def spy(paths, *args, **kwargs):
        opened.extend([paths] if isinstance(paths, str) else list(paths))
        return orig(paths, *args, **kwargs)

    ray.data.read_parquet = spy
    try:
        t0 = time.perf_counter()
        ds = plan()
    finally:
        ray.data.read_parquet = orig
    t1 = time.perf_counter()
    rows = ds.count()
    t2 = time.perf_counter()
    record.setdefault("plan_ms", []).append((t1 - t0) * 1e3)
    record.setdefault("exec_ms", []).append((t2 - t1) * 1e3)
    record.setdefault("files", []).append(len(opened))
    record.setdefault("returned", []).append(rows)
    record.setdefault("pending", []).append(opened)
    return rows


def settle_reads(record: dict) -> None:
    """Count the rows in the files the op's reads opened, from their
    footers. Called after the op's timer stops, before the files change."""
    for paths in record.pop("pending", []):
        n = 0
        for p in paths:
            for f in ([p] if p.endswith(".parquet") else Path(p).rglob("*.parquet")):
                n += pq.ParquetFile(f).metadata.num_rows
        record.setdefault("examined", []).append(n)


def read_layer_metrics(record: dict) -> dict[str, float]:
    if not record.get("plan_ms"):
        return {"read.plan_ms": 0.0, "read.exec_ms": 0.0,
                "read.files_opened": 0.0, "read.rows_examined_per_row": 0.0}
    return {
        "read.plan_ms": statistics.median(record["plan_ms"]),
        "read.exec_ms": statistics.median(record["exec_ms"]),
        "read.files_opened": statistics.mean(record["files"]),
        "read.rows_examined_per_row":
            sum(record["examined"]) / max(1, sum(record["returned"])),
    }


# -- directory accounting ---------------------------------------------

def tree_state(root: Path) -> dict[str, tuple[int, int, int]]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.join(dirpath, f)] = (st.st_ino, st.st_size,
                                             st.st_mtime_ns)
    return out


def tree_diff(before: dict, after: dict) -> tuple[int, int]:
    """(bytes in new or rewritten files, files left untouched)."""
    written = sum(v[1] for k, v in after.items() if before.get(k) != v)
    untouched = sum(1 for k, v in after.items() if before.get(k) == v)
    return written, untouched


def dir_bytes(d: Path) -> int:
    return sum(f.stat().st_size for f in Path(d).rglob("*") if f.is_file())


# -- store accounting from parquet footers ----------------------------

def store_metrics(store: Path, n_tokens: int) -> dict[str, float]:
    out: dict[str, float] = {}
    payload = disk = 0
    for t in TIER_NAMES:
        blobs = sorted((store / f"tier={t}" / "blobs").rglob("blob-*.parquet"))
        out[f"stages.tier_kernel.blob_files.{t}"] = float(len(blobs))
        blob_col_bytes: dict[str, int] = defaultdict(int)
        n_points = 0
        for f in blobs:
            disk += f.stat().st_size
            tab = pq.read_table(f)
            n_points += int(sum(tab["n_points"].to_pylist()))
            for c in tab.column_names:
                if c.endswith("_blob"):
                    payload += sum(len(b) for b in tab[c].to_pylist())
            md = pq.ParquetFile(f).metadata
            for rg in range(md.num_row_groups):
                for ci in range(md.num_columns):
                    col = md.row_group(rg).column(ci)
                    blob_col_bytes[col.path_in_schema] += col.total_compressed_size
        if t not in BITS_TIERS:
            continue
        pts_col_bytes: dict[str, int] = defaultdict(int)
        rows = 0
        for f in (store / f"tier={t}" / "points").rglob("*.parquet"):
            md = pq.ParquetFile(f).metadata
            rows += md.num_rows
            for rg in range(md.num_row_groups):
                for ci in range(md.num_columns):
                    col = md.row_group(rg).column(ci)
                    pts_col_bytes[col.path_in_schema] += col.total_compressed_size
        for c in POINT_COLS:
            key = f"codecs.bits_per_point.{t}.{c}"
            out[f"{key}.blob"] = 8.0 * blob_col_bytes[f"{c}_blob"] / max(n_points, 1)
            out[f"{key}.parquet"] = 8.0 * pts_col_bytes[c] / max(rows, 1)
    out["stages.tier_kernel.blob_file_overhead"] = disk / max(payload, 1)
    arch = store / "tokens_archive" / "blobs"
    if arch.exists():
        out["codecs.archive_bits_per_token"] = 8.0 * dir_bytes(arch) / max(n_tokens, 1)
    return out


# -- single-process probes on one fixed batch -------------------------

def _rate(fn, units: float, reps: int = 3) -> float:
    """Units per second (in millions) of the median of ``reps`` calls."""
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return units / statistics.median(walls) / 1e6


def kernel_probes(batch_path: Path, work_dir: Path) -> tuple[dict[str, float], float]:
    """Doc-stage, rollup and codec kernels on one fixed batch. Returns the
    metrics and the doc-stage kernel seconds per token (encode +
    verify-decode + features) used by ``overhead_ratio``."""
    import pyarrow as pa

    from feasts_ray.codecs import (decode_floats, decode_ints, encode_floats,
                                   encode_ints)
    from feasts_ray.stages.bucketize import add_time_columns
    from feasts_ray.stages.rollup import cascade_batch, partial_rollup_batch
    from feasts_ray.stages.token_archive import (archive_tokens_batch,
                                                 restore_tokens_batch)
    from feasts_ray.stages.token_features import token_feature_batch

    work_dir.mkdir(parents=True, exist_ok=True)
    cols = ["doc_id", "tokens", "n_tok", "source"]
    batch = pq.read_table(batch_path, columns=cols).combine_chunks()
    n_tok = float(pa.compute.sum(batch["n_tok"]).as_py())
    arch = archive_tokens_batch(batch, verify=False)
    feats = token_feature_batch(batch)
    out = {
        "stages.doc_fused.read.mtok_s":
            _rate(lambda: pq.read_table(batch_path, columns=cols), n_tok),
        "stages.doc_fused.encode.mtok_s":
            _rate(lambda: archive_tokens_batch(batch, verify=False), n_tok),
        "stages.doc_fused.verify_decode.mtok_s":
            _rate(lambda: restore_tokens_batch(arch), n_tok),
        "stages.doc_fused.features.mtok_s":
            _rate(lambda: token_feature_batch(batch), n_tok),
        "stages.doc_fused.write.mtok_s":
            _rate(lambda: (pq.write_table(arch, work_dir / "arch.parquet"),
                                pq.write_table(feats, work_dir / "feat.parquet")),
                       n_tok),
    }
    kernel_s_per_tok = sum(1.0 / (out[f"stages.doc_fused.{k}.mtok_s"] * 1e6)
                           for k in ("encode", "verify_decode", "features"))
    timed = add_time_columns(batch.select(["doc_id", "n_tok", "source"]))
    partial = partial_rollup_batch(timed, unit_s=1)
    out["stages.rollup.partial.mrows_s"] = _rate(
        lambda: partial_rollup_batch(timed, unit_s=1), len(timed), reps=5)
    out["stages.rollup.cascade.mrows_s"] = _rate(
        lambda: cascade_batch(partial, unit_s=60), len(partial), reps=5)
    ints = batch["tokens"].combine_chunks().values.to_numpy().astype(np.int64)
    floats = ints.astype(np.float64) / 7.0
    iblob, fblob = encode_ints(ints), encode_floats(floats)
    out["codecs.intcodec.encode.mvals_s"] = _rate(lambda: encode_ints(ints), len(ints))
    out["codecs.intcodec.decode.mvals_s"] = _rate(lambda: decode_ints(iblob), len(ints))
    out["codecs.gorilla.encode.mvals_s"] = _rate(lambda: encode_floats(floats), len(floats))
    out["codecs.gorilla.decode.mvals_s"] = _rate(lambda: decode_floats(fblob), len(floats))
    return out, kernel_s_per_tok
