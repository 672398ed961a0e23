"""Output checks. They run outside the timed ops; each returns a list of
problems, empty when the output is right."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from feasts_ray.config import TIERS
from feasts_ray.oracle.rollup import rollup_tier
from feasts_ray.synth import doc_lengths
from feasts_ray.timebase import derive_ts_seconds, source_index_for_doc

POINT_COLS = ["source", "bucket", "count", "sum", "min", "max", "mean"]


def oracle_tiers(lo: int, hi: int) -> dict[str, pd.DataFrame]:
    """``oracle/rollup.py`` over docs [lo, hi) instead of [0, n)."""
    i = np.arange(lo, hi, dtype=np.int64)
    src = source_index_for_doc(i)
    df = pd.DataFrame({"i": i, "source_idx": src,
                       "ts_s": derive_ts_seconds(i, src),
                       "n_tok": doc_lengths(i).astype(np.int64)})
    return {t.name: rollup_tier(df, t.unit_s, t.gap_fill) for t in TIERS}


def read_points(out_dir: Path, tier: str) -> pd.DataFrame:
    t = pads.dataset(str(out_dir / f"tier={tier}" / "points"),
                     partitioning="hive").to_table(columns=POINT_COLS)
    return t.to_pandas().sort_values(["source", "bucket"], ignore_index=True)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        a, b = a.astype(np.float64), b.astype(np.float64)
        return bool(((a.view(np.int64) == b.view(np.int64))
                     | (np.isnan(a) & np.isnan(b))).all())
    return bool((a == b).all())


def check_tiers(out_dir: Path, oracle: dict[str, pd.DataFrame]) -> list[str]:
    """Tier points equal the oracle bit for bit (floats compared as bits,
    gap rows' null min/max compared as NaN)."""
    problems = []
    for name, want in oracle.items():
        got = read_points(out_dir, name)
        if len(got) != len(want):
            problems.append(f"tier {name}: {len(got)} rows, oracle {len(want)}")
            continue
        for c in POINT_COLS:
            g, w = got[c].to_numpy(), want[c].to_numpy()
            if c in ("min", "max"):
                g = pd.to_numeric(got[c]).to_numpy(np.float64)
                w = pd.to_numeric(want[c]).to_numpy(np.float64)
            if not _same(g, w):
                problems.append(f"tier {name}: column {c} differs from oracle")
    return problems


def count_in_window(oracle: pd.DataFrame, lo: int, hi: int) -> int:
    b = oracle["bucket"].to_numpy()
    return int(((b >= lo) & (b < hi)).sum())


def check_doc_outputs(out_dir: Path, input_paths: list[Path],
                      min_doc: str | None = None) -> list[str]:
    """Features hold one row per input doc; the token archive restores
    to the input tokens. ``min_doc`` restricts the archive restore to the
    docs at or after that id (the docs an ingest appended)."""
    from feasts_ray.stages.token_archive import restore_tokens_batch

    problems = []
    inp = pa.concat_tables(pq.read_table(p, columns=["doc_id", "tokens"])
                           for p in input_paths)
    feats = pads.dataset(str(out_dir / "features" / "points")).to_table(
        columns=["doc_id"])
    if (len(feats) != len(inp)
            or pc.count_distinct(feats["doc_id"]).as_py() != len(inp)
            or not pc.all(pc.is_in(feats["doc_id"], inp["doc_id"])).as_py()):
        problems.append(f"features: {len(feats)} rows for {len(inp)} docs")
    arch = pads.dataset(str(out_dir / "tokens_archive" / "blobs")).to_table(
        columns=["doc_id", "tokens_blob"])
    if len(arch) != len(inp):
        problems.append(f"archive: {len(arch)} rows for {len(inp)} docs")
        return problems
    if min_doc is not None:
        arch = arch.filter(pc.greater_equal(arch["doc_id"], min_doc))
        inp = inp.filter(pc.greater_equal(inp["doc_id"], min_doc))
    arch = arch.sort_by("doc_id").combine_chunks()
    inp = inp.sort_by("doc_id").combine_chunks()
    restored = restore_tokens_batch(arch)
    if (not restored["doc_id"].equals(inp["doc_id"])
            or not restored["tokens"].equals(inp["tokens"])):
        problems.append("archive does not restore to the input tokens")
    return problems


def check_query(name: str, result: pd.DataFrame, oracle: pd.DataFrame | None,
                compare) -> list[str]:
    """``scripts/check_contract.compare`` against the DuckDB oracle; a
    query without an oracle must still return rows."""
    if oracle is None:
        return [] if len(result) else [f"{name}: no rows"]
    problems = compare(name, result, oracle)
    return [f"{name}: " + "; ".join(problems)] if problems else []
