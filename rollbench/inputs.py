"""Seeded benchmark inputs, written under one run root.

Token tables reuse the library's own deterministic generator
(``feasts_ray.synth.token_chunk``) at a seed-chosen doc-index offset, so
the oracle in ``feasts_ray.oracle.rollup`` can recompute every tier from
the doc range alone. The query tables mimic the schemas of the driver's
TPC-H-ish test data (``TESTDATA.md``) at its smallest scale; they are
generated here because a benchmark run may read only its own checkout.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# doc-index offsets stay below 10^8 so doc ids keep their 8-digit form
OFFSET_STRIDE = 100_003
OFFSET_SLOTS = 900


def doc_offset(seed: int) -> int:
    return (seed % OFFSET_SLOTS) * OFFSET_STRIDE


def write_token_part(path: Path, lo: int, hi: int) -> int:
    """Docs [lo, hi) as one parquet part (the synth layout: 8192-row
    row groups); returns the file size in bytes."""
    from feasts_ray.synth import token_chunk

    path.parent.mkdir(parents=True, exist_ok=True)
    pq.write_table(token_chunk(lo, hi), path, row_group_size=8192)
    return path.stat().st_size


def write_token_table(out_dir: Path, lo: int, n_docs: int,
                      docs_per_file: int) -> list[Path]:
    paths = []
    for k, s in enumerate(range(lo, lo + n_docs, docs_per_file)):
        p = out_dir / f"part-{k:05d}.parquet"
        write_token_part(p, s, min(s + docs_per_file, lo + n_docs))
        paths.append(p)
    return paths


_WORDS = ("scan column window order sort part agg value line key join merge "
          "group query a vector hash slow stream filter fast the batch spark "
          "table small data big customer row").split()
_LANGS = np.array(["en", "fr", "es", "zh", "de"])
_LANG_P = np.array([0.39, 0.16, 0.16, 0.15, 0.14])
_EVENT_TYPES = np.array(["click", "purchase", "error", "signup", "view"])
_T0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
_DAY_US = 86_400_000_000


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    texts: list[str] = []
    for i in range(n):
        if i > 10 and rng.random() < 0.06:
            # near-duplicate of an earlier doc, like the driver data's
            # trailing "dup" marker
            texts.append(texts[int(rng.integers(0, i))] + " dup")
            continue
        k = int(rng.integers(8, 90))
        texts.append(" ".join(np.asarray(_WORDS)[rng.integers(0, len(_WORDS), k)]))
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(_LANGS[rng.choice(len(_LANGS), n, p=_LANG_P)]),
        "source": pa.array([f"src{i % 20}" for i in range(n)]),
        "n_chars": pa.array(np.array([len(t) for t in texts], dtype=np.int64)),
    })


def _events(rng: np.random.Generator, n: int) -> pa.Table:
    ts = np.sort(_T0_US + rng.integers(0, 30 * _DAY_US, n))
    cents = np.maximum(1, np.rint(rng.exponential(5000.0, n))).astype(np.int64)
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 15, n).astype(np.int64)),
        "event_type": pa.array(_EVENT_TYPES[rng.integers(0, 5, n)]),
        "value": pa.array(cents / 100.0),
        "props": pa.array([json.dumps({"k": int(k)})
                           for k in rng.integers(0, 100, n)]),
    })


def _embeddings(rng: np.random.Generator, n: int, dim: int = 64) -> pa.Table:
    label = rng.integers(0, 10, n).astype(np.int32)
    centers = rng.normal(size=(10, dim))
    v = centers[label] + 0.8 * rng.normal(size=(n, dim))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(list(v), type=pa.list_(pa.float32())),
        "label": pa.array(label),
    })


def _lineitem(rng: np.random.Generator, n: int) -> pa.Table:
    day0 = 9131  # 1995-01-01 in days since the epoch
    qty = rng.integers(1, 51, n).astype(np.float64)
    price = np.rint(qty * rng.uniform(900.0, 2100.0, n) * 100) / 100
    return pa.table({
        "l_orderkey": pa.array(rng.integers(0, 1500, n).astype(np.int64)),
        "l_partkey": pa.array(rng.integers(0, 200, n).astype(np.int64)),
        "l_suppkey": pa.array(rng.integers(0, 10, n).astype(np.int64)),
        "l_linenumber": pa.array(rng.integers(1, 8, n).astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(price),
        "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n)]),
        "l_shipdate": pa.array((day0 + rng.integers(0, 2500, n)) * _DAY_US,
                               type=pa.timestamp("us")),
    })


QUERY_TABLES = {"documents": _documents, "events": _events,
                "embeddings": _embeddings, "lineitem": _lineitem}


def write_query_tables(out_dir: Path, seed: int, scale: float = 1.0) -> dict[str, int]:
    """The query workload's tables (the driver's sf0.001 row counts times
    ``scale``); returns table -> rows."""
    rows = {"documents": 500, "events": 1000, "embeddings": 500,
            "lineitem": 6000}
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, (name, gen) in enumerate(QUERY_TABLES.items()):
        rng = np.random.default_rng([seed, k])
        rows[name] = max(20, int(rows[name] * scale))
        pq.write_table(gen(rng, rows[name]), out_dir / f"{name}.parquet")
    return rows
