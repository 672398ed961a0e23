"""Per-tier checkpoint manifests: lineage + metrics, resume support.

The reference has no persistence at all (SURVEY.md §4.1); resumability is
a north-rule addition. Each completed tier directory gets a
``_CHECKPOINT.json`` recording lineage (input path, config hash) and
metrics (rows in/out, compressed bytes, watermark = max completed bucket,
wall seconds). On restart, a tier whose manifest matches the lineage hash
is skipped and its parquet output is reused by the cascade — a killed run
resumes without recomputing completed tiers.

Writes are atomic (tmp file + os.replace) so a crash mid-write never
leaves a valid-looking manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any

MANIFEST_NAME = "_CHECKPOINT.json"


def lineage_hash(input_path: str, config: dict[str, Any],
                 inventory: list | None = None) -> str:
    """``inventory`` (the input's [file, size] listing) makes the hash
    input-content-sensitive: appending files to the input directory
    invalidates prior checkpoints instead of silently resuming over a
    stale result — and gives the incremental-ingest path its identity."""
    payload = json.dumps({"input": input_path, "config": config,
                          "inventory": inventory}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def manifest_path(tier_dir: str | Path) -> Path:
    return Path(tier_dir) / MANIFEST_NAME


def _read_json(p: Path) -> dict[str, Any] | None:
    if not p.exists():
        return None
    try:
        return json.loads(p.read_text())
    except (json.JSONDecodeError, OSError):
        return None


def _write_json(p: Path, payload: dict[str, Any]) -> None:
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = str(p) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, default=str)
    os.replace(tmp, p)


def load_manifest(tier_dir: str | Path) -> dict[str, Any] | None:
    return _read_json(manifest_path(tier_dir))


def is_complete(tier_dir: str | Path, lineage: str) -> bool:
    m = load_manifest(tier_dir)
    return bool(m) and m.get("lineage") == lineage and m.get("status") == "complete"


def save_manifest(tier_dir: str | Path, payload: dict[str, Any]) -> None:
    _write_json(manifest_path(tier_dir),
                dict(payload, completed_at=time.time(), status="complete"))


SPANS_NAME = "_SPANS.parquet"


def save_spans(out_dir: str | Path, spans: dict[str, tuple[int, int]],
               lineage: str) -> None:
    """Run-level spans sidecar: per-key (lo, hi) bucket domain as a
    columnar parquet file instead of JSON inlined into every tier
    manifest — at 10^7 sources the inline dict made each manifest a
    hundreds-of-MB driver-side JSON parse; the sidecar is one compact
    binary file written ONCE per run. Atomic (tmp + os.replace);
    lineage rides the parquet schema metadata."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = Path(out_dir) / SPANS_NAME
    p.parent.mkdir(parents=True, exist_ok=True)
    keys = list(spans.keys())
    t = pa.table({
        "key": pa.array(keys),
        "lo": pa.array([spans[k][0] for k in keys], type=pa.int64()),
        "hi": pa.array([spans[k][1] for k in keys], type=pa.int64()),
    }).replace_schema_metadata({"lineage": lineage})
    tmp = str(p) + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, p)


def load_spans(out_dir: str | Path,
               lineage: str) -> dict[str, tuple[int, int]] | None:
    import pyarrow.parquet as pq

    p = Path(out_dir) / SPANS_NAME
    if not p.exists():
        return None
    try:
        t = pq.read_table(p)
    except OSError:
        return None
    meta = t.schema.metadata or {}
    if meta.get(b"lineage", b"").decode() != lineage:
        return None
    lo = t["lo"].to_numpy(zero_copy_only=False)
    hi = t["hi"].to_numpy(zero_copy_only=False)
    return {k: (int(lo[i]), int(hi[i]))
            for i, k in enumerate(t["key"].to_pylist())}


def dir_bytes(d: str | Path) -> int:
    total = 0
    for root, _dirs, files in os.walk(d):
        for fn in files:
            total += os.path.getsize(os.path.join(root, fn))
    return total
