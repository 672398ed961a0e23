"""Benchmark entry point.

    python3 rollbench/run.py --workload build|ingest|queries --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Runs ``harness.py`` in a new session under a fresh run root
(``.rb/<pid>`` in the checkout), relays
its output, then kills whatever the run left running (Ray's GCS, raylet
and workers outlive a driver that dies) and deletes the run root. The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUNS_DIR = ".rb"
HARD_LIMIT_S = 175.0
# Ray puts AF_UNIX sockets at <temp dir>/session_<date>_<time>_<us>_<pid>/
# sockets/plasma_store; Linux caps such a path at 107 bytes
SOCKET_SUFFIX_LEN = 62


def _die_with_parent() -> None:
    """Child pre-exec: SIGTERM the harness if this supervisor dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM, 0, 0, 0)
    except OSError:
        pass


def session_pids(sid: int) -> list[int]:
    """Live processes of session ``sid`` (the harness and everything it
    started, including processes re-parented after their parent died)."""
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            out.append(int(d))
    return out


def kill_session(sid: int, timeout_s: float = 15.0) -> None:
    deadline = time.monotonic() + timeout_s
    while (pids := session_pids(sid)) and time.monotonic() < deadline:
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("build", "ingest", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if not (CHECKOUT / "feasts_ray" / "__init__.py").is_file():
        print(f"feasts_ray not found next to {HERE.name}/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    root = CHECKOUT / RUNS_DIR / str(os.getpid())
    ray_dir = root / "r"
    if len(str(ray_dir)) + SOCKET_SUFFIX_LEN > 107:
        # checkout path too long for Ray's sockets: the only files a run
        # writes outside the checkout, removed with the run root
        ray_dir = Path("/tmp") / f"rb{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    (root / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        # Ray workers import feasts_ray from the checkout, whatever the cwd
        "PYTHONPATH": os.pathsep.join(
            [str(CHECKOUT)] + [p for p in [env.get("PYTHONPATH")] if p]),
        # library temp files land in the run root
        "TMPDIR": str(root / "tmp"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "RAY_USAGE_STATS_ENABLED": "0",
    })
    cmd = [sys.executable, str(HERE / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--root", str(root), "--ray-dir", str(ray_dir)]
    child = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True,
                             preexec_fn=_die_with_parent)

    def forward(sig, _frame):
        child.send_signal(signal.SIGTERM)
        raise SystemExit(128 + sig)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGALRM, lambda *_: child.kill())
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    last = ""
    code = 1
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        code = child.wait()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        kill_session(child.pid)
        child.wait()
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)
        try:
            (CHECKOUT / RUNS_DIR).rmdir()
        except OSError:
            pass
    if not last.startswith("{"):
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
