"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "rollup_points": P, "rollup_points_per_sec": R}

Modes:
  python bench.py                      # full bench (owns ray.init)
  python bench.py --scaling            # flagship at 4 vs 16 CPUs (set by
                                       # GRAFT_SCALING_CPUS) in fresh
                                       # processes; prints both throughputs
                                       # + scaling efficiency
  python bench.py --ab GITREF          # same-day A/B: flagship points/sec
                                       # for GITREF (temp worktree) vs the
                                       # current tree, interleaved runs —
                                       # the ONLY fair perf comparison on
                                       # this noisy shared host
  python bench.py --worker CPUS        # internal: one scaling datapoint
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# default: the CPUs this process may run on
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
# flagship token-table size: 1.6M docs (~230M tokens, ~230MB parquet).
# Large enough that per-stage fixed costs are amortized (points/sec is
# the headline metric); the deterministic table is generated once and
# cached under /tmp/feasts_ray_synth.
N_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "1600000"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")


def run_flagship(num_cpus: int, tag: str, archive: bool = True) -> dict:
    """Token rollup across all retention tiers; returns timing + points.

    ``archive=False`` for the scaling runs: the north-rule scaling metric
    is rolled-up points/sec across retention tiers (+ the feature stage);
    the verified token archive is a separate deliverable measured in the
    full bench."""
    _init_ray(num_cpus)
    import shutil

    from feasts_ray.pipelines.rollup_pipeline import run_rollup
    from feasts_ray.synth import ensure_token_table

    path = ensure_token_table(N_DOCS)
    out = f"/tmp/feasts_ray_bench/{tag}_c{num_cpus}"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    metrics = run_rollup(path, out, token_features=True, token_archive=archive)
    wall = time.perf_counter() - t0
    points = sum(m["points"] for m in metrics.values())
    return {"wall_s": wall, "points": points,
            "points_per_sec": points / wall, "n_docs": N_DOCS}


def run_queries() -> dict[str, float]:
    """Representative operator pipelines over the sf dir."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from feasts_ray.pipelines import queries as q

    def _consume(res):
        import ray.data

        if isinstance(res, ray.data.Dataset):
            # stream to completion without collecting on the driver
            n = 0
            for b in res.iter_batches(batch_size=8192, batch_format="pyarrow"):
                n += b.num_rows
            return n
        return len(res)

    names = ["rollup_1m", "rollup_1m_incremental", "rollup_1h_cascade",
             "gapfill_1h", "acf_1h_counts",
             "rollup_1h_blobs_roundtrip", "lineitem_daily", "dedup_exact",
             "minhash_dup_pairs", "simhash_dup_pairs", "dedup_keep_best",
             "word_freq_topk", "decontaminate", "sample_stratified",
             "asof_join_1h", "sessionize", "range_join_anomalies",
             "asof_join_grouped_1h", "range_join_grouped",
             "rollup_daily_multi",
             "quality_topk_per_lang", "distinct_users_by_type",
             "dup_span_stats", "repetition_signals", "tfidf_top_terms",
             "quality_filter_by_lang",
             "percent_rank_by_lang", "chunk_words_64",
             "ngram_decontaminate", "rolling_median_24h",
             "pack_stream_512", "shuffle_rank", "pii_scrub", "line_dedup",
             "line_dedup_corpus", "line_dedup_corpus_grouped",
             "split_assign", "langid_confusion",
             "sample_k_per_lang", "winsorize_by_lang", "rolling_corr_24h",
             "robust_z_by_lang", "revenue_q6",
             "ann_topk", "features_1h", "stl_1h"]
    out: dict[str, float] = {}
    for name in names:
        t0 = time.perf_counter()
        _consume(q.ALL_QUERIES[name](SF_DIR))
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main_bench():
    _init_ray(NUM_CPUS)
    flag = run_flagship(NUM_CPUS, "bench")
    qs = run_queries()
    total = round(flag["wall_s"] + sum(qs.values()), 3)
    qs = {"flagship_token_rollup": round(flag["wall_s"], 3), **qs}
    print(json.dumps({
        "metric": "rolled-up points/sec across all retention tiers + operator suite wall time",
        "value": total,
        "unit": "sec",
        "queries": qs,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "rollup_points": flag["points"],
        "rollup_points_per_sec": round(flag["points_per_sec"], 1),
        "rollup_n_docs": flag["n_docs"],
    }))
    import ray

    ray.shutdown()


def main_worker(num_cpus: int):
    # GRAFT_AB_ARCHIVE=1 includes the verified token archive in the
    # measured job (for A/B runs targeting codec/archive changes)
    flag = run_flagship(num_cpus, "scaling",
                        archive=os.environ.get("GRAFT_AB_ARCHIVE") == "1")
    print(json.dumps(flag))
    import ray

    ray.shutdown()


def _scaling_worker_cmd(cpus: int) -> list[str]:
    """Worker command for one scaling leg; GRAFT_SCALING_PIN=1 prefixes
    taskset so the leg's Ray workers run on a FIXED core set (affinity is
    inherited by raylet children) — removes OS thread migration as a noise
    source between repeats."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", str(cpus)]
    if os.environ.get("GRAFT_SCALING_PIN") == "1":
        cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
    return cmd


def main_scaling():
    """Same job, same input, two parallelism levels in fresh processes
    (sandbox evidence for the N -> 4N cluster-size scaling criterion).

    Uses a larger input than the plain bench: scaling efficiency is only
    meaningful when per-stage fixed costs are amortized by real work
    (24M docs ~ 3.4 GB parquet; round-2 kernels are fast enough that the
    12M input left ~6 s of fixed Ray stage setup visible per tier).
    NOTE: run on an otherwise-idle machine — this host shows ~10%
    run-to-run noise and any concurrent Ray session poisons the split.

    GRAFT_SCALING_INTERLEAVED=1 runs lo,hi,hi,lo (plus one discarded
    warmup) instead of lo,hi: the two (lo,hi) pairs bracket host phase
    drift symmetrically, and the reported efficiency is the mean of the
    per-pair efficiencies (pair spread shown so drift is visible).
    GRAFT_SCALING_PIN=1 taskset-pins each leg to cores 0..cpus-1."""
    n_docs = int(os.environ.get("GRAFT_SCALING_DOCS", "24000000"))
    c_lo, c_hi = (int(c) for c in
                  os.environ.get("GRAFT_SCALING_CPUS", "4,16").split(","))
    interleaved = os.environ.get("GRAFT_SCALING_INTERLEAVED") == "1"
    from feasts_ray.synth import ensure_token_table

    ensure_token_table(n_docs)
    env = dict(os.environ)
    env["GRAFT_BENCH_DOCS"] = str(n_docs)

    def _leg(cpus: int) -> dict:
        out = subprocess.run(_scaling_worker_cmd(cpus), capture_output=True,
                             text=True, env=env, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    order = (c_lo, c_hi, c_hi, c_lo) if interleaved else (c_lo, c_hi)
    if interleaved:
        _leg(c_hi)  # discarded warmup: page cache + object-store spinup
    runs: dict[int, list[dict]] = {c_lo: [], c_hi: []}
    for cpus in order:
        runs[cpus].append(_leg(cpus))
    tps = {c: [r["points_per_sec"] for r in runs[c]] for c in (c_lo, c_hi)}
    # pairwise efficiency: pair i = (lo_i, hi_i); mean over pairs
    n_pairs = len(tps[c_lo])
    effs = [(tps[c_hi][i] / tps[c_lo][i]) / (c_hi / c_lo)
            for i in range(n_pairs)]
    tp_lo = sum(tps[c_lo]) / n_pairs
    tp_hi = sum(tps[c_hi]) / n_pairs
    rec = {
        "metric": f"scaling efficiency (points/sec at {c_lo} vs {c_hi} CPUs, same input)",
        "num_cpus": [c_lo, c_hi],
        "points_per_sec": [round(tp_lo, 1), round(tp_hi, 1)],
        "wall_s": [round(sum(r["wall_s"] for r in runs[c]) / n_pairs, 3)
                   for c in (c_lo, c_hi)],
        "speedup": round(tp_hi / tp_lo, 3),
        "scaling_efficiency": round(sum(effs) / len(effs), 3),
        "rollup_n_docs": n_docs,
    }
    if interleaved:
        rec["per_pair_efficiency"] = [round(e, 3) for e in effs]
        rec["points_per_sec_all"] = {str(c): [round(v, 1) for v in tps[c]]
                                     for c in (c_lo, c_hi)}
    if os.environ.get("GRAFT_SCALING_PIN") == "1":
        rec["pinned"] = True
    print(json.dumps(rec))


def _run_worker_in(tree: str, cpus: int, n_docs: int) -> dict:
    env = dict(os.environ)
    env["GRAFT_BENCH_DOCS"] = str(n_docs)
    out = subprocess.run([sys.executable, "bench.py", "--worker", str(cpus)],
                         capture_output=True, text=True, env=env, check=True,
                         cwd=tree)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main_ab(ref: str):
    """Same-day A/B: flagship (tiers+gap-fill+blobs+features, no archive)
    points/sec for ``ref`` — checked out into a temp git worktree — vs
    the CURRENT tree, interleaved ref,cur,cur,ref in fresh processes so
    host phase drift cancels. BASELINE.md protocol: absolute BENCH_r{N}
    numbers are phase-dependent on this shared host; only this A/B is a
    fair code-vs-code comparison. Set GRAFT_AB_ARCHIVE=1 to include the
    verified token archive in both sides (codec-change A/Bs)."""
    import tempfile

    repo = os.path.dirname(os.path.abspath(__file__))
    n_docs = int(os.environ.get("GRAFT_AB_DOCS", str(N_DOCS)))
    from feasts_ray.synth import ensure_token_table

    ensure_token_table(n_docs)
    wt = tempfile.mkdtemp(prefix="feasts_ray_ab_")
    subprocess.run(["git", "-C", repo, "worktree", "add", "--force",
                    "--detach", wt, ref], check=True, capture_output=True)
    # the A/B measures the LIBRARY, not the harness: both sides run the
    # CURRENT harness (older trees hardcode archive=False in --worker)
    import shutil

    shutil.copy2(os.path.join(repo, "bench.py"), os.path.join(wt, "bench.py"))
    try:
        # one discarded warmup run: the first fresh process after a quiet
        # period pays one-time costs (page cache, object-store spinup)
        # that would otherwise land entirely on whichever side goes first
        _run_worker_in(repo, NUM_CPUS, n_docs)
        runs: dict[str, list[float]] = {"ref": [], "cur": []}
        for tag, tree in (("ref", wt), ("cur", repo), ("cur", repo), ("ref", wt)):
            runs[tag].append(_run_worker_in(tree, NUM_CPUS, n_docs)["points_per_sec"])
        mean = lambda v: sum(v) / len(v)  # noqa: E731
        print(json.dumps({
            "metric": "same-day A/B flagship points/sec (interleaved fresh processes)",
            "ref": ref,
            "num_cpus": NUM_CPUS,
            "n_docs": n_docs,
            "ref_points_per_sec": [round(v, 1) for v in runs["ref"]],
            "cur_points_per_sec": [round(v, 1) for v in runs["cur"]],
            "speedup_cur_over_ref": round(mean(runs["cur"]) / mean(runs["ref"]), 3),
        }))
    finally:
        subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", wt],
                       capture_output=True)


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        main_scaling()
    elif "--ab" in sys.argv:
        main_ab(sys.argv[sys.argv.index("--ab") + 1])
    elif "--worker" in sys.argv:
        main_worker(int(sys.argv[sys.argv.index("--worker") + 1]))
    else:
        main_bench()
