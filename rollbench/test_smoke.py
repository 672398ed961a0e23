"""Tiny-size smoke test of the benchmark command.

    python3 -m pytest rollbench/test_smoke.py -q

Launches every workload from a working directory outside the checkout
and checks the exit code, that the result line names every metric in
BENCHMARK.json, that no Ray process is left running, and that nothing
was written outside the run root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
RAY_PROCS = ("raylet", "gcs_server", "ray::", "default_worker.py")


def _ray_pids() -> set[int]:
    pids = set()
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                cmd = Path(f"/proc/{d}/cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if any(p in cmd for p in RAY_PROCS):
                pids.add(int(d))
    return pids


def _files(root: Path) -> set[str]:
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    out = set()
    for dirpath, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in skip]
        out.update(os.path.join(dirpath, f) for f in files)
    return out


@pytest.mark.parametrize("workload,trace", [
    *[(w["name"], 0) for w in SPEC["workloads"]], (SPEC["workloads"][0]["name"], 1)])
def test_run_from_outside_checkout(tmp_path, workload, trace):
    ray_before = _ray_pids()
    files_before = _files(CHECKOUT)
    tmp_before = {p for p in os.listdir("/tmp") if p.startswith(("ray", "rb"))}
    proc = subprocess.run(
        [sys.executable, str(CHECKOUT / SPEC["command"][1]),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    # clean-up first: it must hold on every exit path, failed runs too
    assert not (_ray_pids() - ray_before), "Ray processes left running"
    assert _files(CHECKOUT) == files_before, "files left in the checkout"
    assert not list(tmp_path.iterdir()), "files left in the working directory"
    tmp_after = {p for p in os.listdir("/tmp") if p.startswith(("ray", "rb"))}
    assert tmp_after <= tmp_before, "files left in /tmp"
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} <= set(result["metrics"])
