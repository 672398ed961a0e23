"""Kill-mid-run resume: a SIGKILLed rollup job must resume from its
per-tier checkpoints and produce byte-identical final output (north rule:
"resumable from checkpoint with per-partition lineage + metrics")."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pandas as pd
import pyarrow.dataset as pads
import pytest

REPO = Path(__file__).resolve().parent.parent

JOB = """
import ray, sys
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
sys.path.insert(0, {repo!r})
from feasts_ray.synth import ensure_token_table
from feasts_ray.pipelines.incremental import run_rollup_incremental
from feasts_ray.pipelines.rollup_pipeline import run_rollup
{hook}
{call}
print("DONE")
ray.shutdown()
"""


# job hook: the driver SIGKILLs itself right after saving the 1m manifest
KILL_AFTER_1M = """
import os, signal
from feasts_ray.state import checkpoint as ckpt
_save = ckpt.save_manifest
def _save_then_die(tier_dir, payload):
    _save(tier_dir, payload)
    if payload.get("tier") == "1m":
        os.kill(os.getpid(), signal.SIGKILL)
ckpt.save_manifest = _save_then_die
"""


def _run_job(out: str, kill_after: float | None = None,
             feats: bool = False, hook: str = "", fn: str = "run_rollup",
             input_path: str | None = None) -> bool:
    """Run ``fn`` (run_rollup or run_rollup_incremental) over the 12k-doc
    synth table or ``input_path`` in a subprocess; optionally SIGKILL
    it. Returns True if the job completed."""
    path = ("ensure_token_table(12000)" if input_path is None
            else repr(input_path))
    call = (f"{fn}({path}, {out!r}, token_features={feats}, "
            f"token_archive={feats})")
    p = subprocess.Popen([sys.executable, "-c",
                          JOB.format(repo=str(REPO), hook=hook, call=call)],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if kill_after is None:
        out_text, _ = p.communicate(timeout=600)
        return "DONE" in out_text
    time.sleep(kill_after)
    if p.poll() is None:
        p.kill()
        p.wait()
        return False
    return True


def _points(out: str) -> dict[str, pd.DataFrame]:
    res = {}
    for tier_dir in sorted(Path(out).glob("tier=*")):
        t = pads.dataset(str(tier_dir / "points")).to_table().to_pandas()
        res[tier_dir.name] = t.sort_values(["source", "bucket"], ignore_index=True)
    return res


@pytest.mark.slow
def test_kill_resume_byte_identical(tmp_path):
    ref_out = str(tmp_path / "ref")
    resumed_out = str(tmp_path / "resumed")

    assert _run_job(ref_out), "uninterrupted run failed"

    # interrupted attempt: SIGKILL mid-run (some tiers may have completed)
    completed_first_try = _run_job(resumed_out, kill_after=6.0)
    manifests_after_kill = {
        str(m): json.loads(m.read_text())
        for m in Path(resumed_out).glob("tier=*/_CHECKPOINT.json")
    }
    # resume to completion
    assert _run_job(resumed_out), "resume run failed"

    ref = _points(ref_out)
    got = _points(resumed_out)
    assert set(ref) == set(got) == {"tier=raw", "tier=1m", "tier=1h", "tier=1d"}
    for tier in ref:
        pd.testing.assert_frame_equal(got[tier], ref[tier], check_exact=True)

    # tiers completed before the kill must NOT have been recomputed
    if not completed_first_try:
        for path_str, before in manifests_after_kill.items():
            after = json.loads(Path(path_str).read_text())
            assert after["completed_at"] == before["completed_at"]


def _points_bytes(out: str, tier: str) -> dict[str, bytes]:
    d = Path(out) / tier / "points"
    return {str(f.relative_to(d)): f.read_bytes()
            for f in sorted(d.rglob("*.parquet"))}


@pytest.mark.slow
def test_kill_after_1m_restarts_chain_at_1h(tmp_path):
    """The coarse tiers run as one chain task with one manifest per
    tier. A run killed right after the 1m manifest resumes the chain at
    1h: 1m is not recomputed, the chain reads 1m's points back, and
    1h/1d points are byte-identical to an uninterrupted run."""
    ref_out = str(tmp_path / "ref")
    out = str(tmp_path / "resumed")
    assert _run_job(ref_out), "uninterrupted run failed"
    assert not _run_job(out, hook=KILL_AFTER_1M), "kill hook did not fire"
    m1 = json.loads((Path(out) / "tier=1m" / "_CHECKPOINT.json").read_text())
    assert m1["chained"] is True
    assert not (Path(out) / "tier=1h" / "_CHECKPOINT.json").exists()

    assert _run_job(out), "resume run failed"
    after = json.loads((Path(out) / "tier=1m" / "_CHECKPOINT.json").read_text())
    assert after["completed_at"] == m1["completed_at"]
    m1h = json.loads((Path(out) / "tier=1h" / "_CHECKPOINT.json").read_text())
    assert m1h["input"] == str(Path(out) / "tier=1m" / "points")
    for tier in ("tier=1h", "tier=1d"):
        got = _points_bytes(out, tier)
        assert got and got == _points_bytes(ref_out, tier), tier


def _manifest(out: str, tier: str) -> dict:
    return json.loads((Path(out) / f"tier={tier}" / "_CHECKPOINT.json")
                      .read_text())


@pytest.mark.slow
def test_kill_ingest_after_1m_rederives_1h_and_1d(tmp_path):
    """Ingest merges 1m, 1h and 1d in one chain task and saves their
    manifests after it, in tier order. An ingest killed right after the
    1m manifest resumes with raw and 1m as they are (not recomputed) and
    re-derives 1h and 1d from the merged 1m; every tier then equals a
    full recompute over the whole input."""
    import pyarrow.parquet as pq

    from feasts_ray.synth import ensure_token_table

    src = pq.read_table(f"{ensure_token_table(12000)}/part-00000.parquet")
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pq.write_table(src.slice(0, 8000), in_dir / "part-00000.parquet")
    out, ref_out = str(tmp_path / "out"), str(tmp_path / "ref")
    assert _run_job(out, input_path=str(in_dir)), "initial build failed"
    pq.write_table(src.slice(8000), in_dir / "part-00001.parquet")
    assert not _run_job(out, hook=KILL_AFTER_1M, fn="run_rollup_incremental",
                        input_path=str(in_dir)), "kill hook did not fire"
    killed = {t: _manifest(out, t) for t in ("raw", "1m")}
    assert killed["raw"]["incremental"] is True
    assert killed["1m"]["incremental"] is True and killed["1m"]["chained"]
    assert not (Path(out) / "tier=1h" / "_CHECKPOINT.json").exists()

    assert _run_job(out, fn="run_rollup_incremental",
                    input_path=str(in_dir)), "resumed ingest failed"
    for t in ("raw", "1m"):
        assert _manifest(out, t)["completed_at"] == killed[t]["completed_at"]
    for t in ("1h", "1d"):
        m = _manifest(out, t)
        assert m["chained"] is True and "incremental" not in m, t
    assert _run_job(ref_out, input_path=str(in_dir)), "reference build failed"
    ref, got = _points(ref_out), _points(out)
    assert set(ref) == set(got) == {"tier=raw", "tier=1m", "tier=1h", "tier=1d"}
    for tier in ref:
        pd.testing.assert_frame_equal(got[tier], ref[tier], check_exact=True)


@pytest.mark.slow
def test_kill_resume_fused_features_archive(tmp_path):
    """Kill mid-run with the FUSED features+archive scan on: the resume
    must converge to the same feature table and the same restorable
    token archive as an uninterrupted run (partial side-written feature
    files from the killed attempt must not leak duplicate rows)."""
    ref_out = str(tmp_path / "ref")
    resumed_out = str(tmp_path / "resumed")
    assert _run_job(ref_out, feats=True), "uninterrupted run failed"
    _run_job(resumed_out, kill_after=8.0, feats=True)
    assert _run_job(resumed_out, feats=True), "resume run failed"

    for sub, sort_cols in (("features/points", ["doc_id"]),
                           ("tokens_archive/blobs", ["doc_id"])):
        ref = (pads.dataset(str(Path(ref_out) / sub)).to_table()
               .to_pandas().sort_values(sort_cols, ignore_index=True))
        got = (pads.dataset(str(Path(resumed_out) / sub)).to_table()
               .to_pandas().sort_values(sort_cols, ignore_index=True))
        assert len(got) == len(ref) == 12000
        pd.testing.assert_frame_equal(
            got.sort_index(axis=1), ref.sort_index(axis=1),
            check_exact=True)
    for tier in ("tier=raw", "tier=1m", "tier=1h", "tier=1d"):
        assert (Path(resumed_out) / tier / "points").exists()


def test_spans_sidecar_million_keys(tmp_path):
    """Resume metadata must stay manageable at 10^6 sources (VERDICT r03
    item 7): the parquet sidecar round-trips a million-key span table
    byte-identically and stays compact on disk (no inline-JSON blowup)."""
    from feasts_ray.state import checkpoint as ckpt

    n = 1_000_000
    spans = {f"src{i:07d}": (i * 3600, i * 3600 + 86_400) for i in range(n)}
    ckpt.save_spans(tmp_path, spans, "lineage-v1")
    p = tmp_path / ckpt.SPANS_NAME
    assert p.stat().st_size < 20 << 20  # compact columnar, not JSON
    back = ckpt.load_spans(tmp_path, "lineage-v1")
    assert back == spans
    assert ckpt.load_spans(tmp_path, "other-lineage") is None  # stale guard
