"""One benchmark run inside its own run root (started by ``run.py``).

Closed loop: one process, one thread, each op starts after the previous
one returned. Prints one JSON result line last on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
NUM_CPUS = 2
RSS_SAMPLE_S = 0.1
# the timed loop stops starting rounds after this, leaving time for the
# checks and probes before run.py kills the run at 175 s
LOOP_DEADLINE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s", "op_s_p50": "s", "op_s_p90": "s",
    "points_per_s": "points/s", "tokens_per_s": "tok/s",
    "read_ms_p50": "ms", "read_ms_p90": "ms",
    "stored_bytes_per_input_byte": "ratio", "peak_rss_mb": "MB",
}


def _on_term(sig, _frame):
    raise SystemExit(128 + sig)


def _proc_tree(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(d))
    out, todo = [], [root_pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


class PeakRss(threading.Thread):
    """Largest VmHWM of this process or any process it started (Ray's
    raylet, GCS and workers), sampled every ``RSS_SAMPLE_S`` from a
    daemon thread. A worker that exits between ops still counts: only
    what it grew in its last sample interval is missed.

    Creating it resets this process's VmHWM, so that the memory the
    benchmark used to make its inputs and oracles does not count."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        self.peak_kb = 0
        self.stopped = threading.Event()

    def sample(self) -> None:
        for pid in _proc_tree(os.getpid()):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except (OSError, ValueError):
                pass

    def run(self) -> None:
        while not self.stopped.wait(RSS_SAMPLE_S):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; the peak in MB."""
        self.stopped.set()
        self.join()
        self.sample()
        return self.peak_kb / 1024.0


class Result:
    """The one result line and the report above it."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}
        self.notes: list[str] = []
        self.samples = ""

    def emit(self) -> None:
        for n in self.notes:
            print(f"# {n}", file=sys.stderr)
        if self.samples:
            print(self.samples)
        for k, v in self.metrics.items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
        print(json.dumps({"correct": self.correct,
                          "attempted": max(1, self.attempted),
                          "failed": self.failed if self.attempted
                          else max(1, self.failed),
                          "metrics": self.metrics}), flush=True)


def start_ray(ray_dir: Path) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=768 << 20, _temp_dir=str(ray_dir))
    import logging

    logging.getLogger("ray").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def run(args, result: Result) -> None:
    from rollbench.layers import per_layer_units
    from rollbench.workloads import QUERIES, SIZES, WORKLOADS

    t_start = time.perf_counter()
    start_ray(Path(args.ray_dir))
    wl = WORKLOADS[args.workload](Path(args.root), args.seed, SIZES[args.size])
    wl.prepare()
    rss = PeakRss()
    rss.start()
    wl.setup()
    setup_s = time.perf_counter() - t_start

    # a traced run alternates traced and untraced rounds, >= 1 of each
    round_walls: dict[bool, list[float]] = {True: [], False: []}
    min_rounds = max(wl.min_rounds, 2 if args.trace else 1)
    t_measure = time.perf_counter()
    rounds = 0
    while (rounds < min_rounds
           or time.perf_counter() - t_measure < args.seconds):
        if time.perf_counter() - t_start > LOOP_DEADLINE_S:
            result.notes.append("stopped early: run deadline near")
            break
        traced = bool(args.trace) and rounds % 2 == 0
        if traced:
            wl.tracer.install()
        n_walls, n_problems = len(wl.op_walls), len(wl.problems)
        try:
            n = wl.round()
        except Exception as ex:  # a raising or timed-out op ends the run
            result.attempted += 1
            result.failed += 1
            result.correct = False
            result.notes.append(f"op failed: {type(ex).__name__}: {ex}")
            return
        finally:
            wl.tracer.uninstall()
        wl.check(final=False)
        result.attempted += n
        result.failed += min(n, len(wl.problems) - n_problems)
        round_walls[traced].append(sum(wl.op_walls[n_walls:]))
        if traced:
            wl.tracer.ops += n
        rounds += 1
    peak_rss_mb = rss.stop()
    n_problems = len(wl.problems)
    wl.check(final=True)
    result.failed += min(1, len(wl.problems) - n_problems)
    if wl.problems:
        result.correct = False
        result.notes += wl.problems[:20]

    if args.trace:
        units = per_layer_units(list(QUERIES))
        values = dict.fromkeys(units, 0.0)
        values.update(layer_report(wl))
        values["trace.overhead_frac"] = (statistics.median(round_walls[True])
                                         / statistics.median(round_walls[False]) - 1)
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": setup_s, **wl.end_to_end(),
                  "peak_rss_mb": peak_rss_mb}
    result.metrics = {k: {"value": float(values[k]), "unit": units[k]}
                      for k in units}
    result.samples = (f"samples: {len(wl.op_walls)} ops of {len(wl.samples)} "
                      f"kinds, {sum(map(len, wl.read_ms.values()))} reads, "
                      f"{rounds} rounds")


def layer_report(wl) -> dict[str, float]:
    """Kernel probes on one fixed batch, the workload's spans, and the
    byte accounting of its store (of a probe-batch store for a workload
    without one)."""
    import pyarrow.parquet as pq

    from feasts_ray.pipelines.rollup_pipeline import run_rollup
    from rollbench.inputs import write_token_part
    from rollbench.layers import kernel_probes, store_metrics
    from rollbench.workloads import PROBE_DOCS

    batch = wl.root / "probe_in" / "batch.parquet"
    lo = getattr(wl, "offset", 0)
    write_token_part(batch, lo, lo + PROBE_DOCS)
    values, kernel_s_per_tok = kernel_probes(batch, wl.root / "probe_out")
    values.update(wl.layers(kernel_s_per_tok, NUM_CPUS))
    store, inputs = wl.store, getattr(wl, "in_dir", None)
    if store is None:
        store, inputs = wl.root / "probe_store", batch.parent
        run_rollup(str(inputs), str(store), token_archive=True)
    n_tokens = sum(sum(pq.read_table(p, columns=["n_tok"])["n_tok"].to_pylist())
                   for p in inputs.glob("*.parquet"))
    values.update(store_metrics(store, n_tokens))
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--root", required=True)
    ap.add_argument("--ray-dir", required=True)
    args = ap.parse_args()
    sys.path[:0] = [str(CHECKOUT), str(CHECKOUT / "scripts")]
    signal.signal(signal.SIGTERM, _on_term)
    supervisor = os.getppid()
    result = Result()
    try:
        run(args, result)
    except BaseException as ex:  # noqa: BLE001 - every exit path reports
        result.correct = False
        result.failed = max(result.failed, 1)
        result.notes.append(f"run aborted: {type(ex).__name__}: {ex}")
    finally:
        try:
            import ray

            ray.shutdown()
        except Exception:  # noqa: BLE001
            pass
        if os.getppid() != supervisor:
            # run.py died and cannot clean up after this run
            for d in (args.root, args.ray_dir):
                shutil.rmtree(d, ignore_errors=True)
            try:
                os.rmdir(Path(args.root).parent)
            except OSError:
                pass
    if result.correct and not result.metrics:
        result.correct = False
    result.emit()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
