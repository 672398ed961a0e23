"""The three workloads. Each makes its inputs from the seed under the run
root, runs one untimed warm-up op in ``setup``, and then runs timed
rounds of ops until the harness stops it. A round is the unit after
which outputs are checked: one op for ``build``, one append cycle for
``ingest``, one pass over the query set for ``queries``."""

from __future__ import annotations

import shutil
import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import checks, inputs
from .layers import (TIER_NAMES, Tracer, dir_bytes, read_layer_metrics,
                     range_read, settle_reads, tree_diff, tree_state)

SIZES = {
    # build: docs per op; ingest: base docs, docs per appended part;
    # queries: multiple of the driver's sf0.001 row counts
    "full": {"build_docs": 40_000, "ingest_base": 40_000,
             "ingest_part": 5_000, "query_scale": 1.0},
    "tiny": {"build_docs": 2_000, "ingest_base": 2_000,
             "ingest_part": 500, "query_scale": 0.2},
}
PROBE_DOCS = 8192
READ_WINDOW_S = 3600
INGEST_OPS_PER_CYCLE = 4  # the last op of every cycle also compacts
OP_TIMEOUT_S = 60.0
QUERY_TABLE_SEED = 42

# bench.py queries that run the plan, dedup, text and join layers, minus
# those that write to fixed paths under /tmp (rollup_1m_incremental,
# rollup_daily_multi); value = tables the query reads
QUERIES = {
    "dedup_exact": ("documents",),
    "minhash_dup_pairs": ("documents",),
    "simhash_dup_pairs": ("documents",),
    "dedup_keep_best": ("documents",),
    "word_freq_topk": ("documents",),
    "ngram_decontaminate": ("documents",),
    "quality_topk_per_lang": ("documents",),
    "tfidf_top_terms": ("documents",),
    "gapfill_1h": ("events",),
    "asof_join_1h": ("events",),
    "asof_join_grouped_1h": ("events",),
    "range_join_anomalies": ("events",),
    "range_join_grouped": ("events",),
    "revenue_q6": ("lineitem",),
}


class OpTimeout(Exception):
    pass


def _on_alarm(_sig, _frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


@contextmanager
def op_guard():
    """Per-op watchdog: SIGALRM raises OpTimeout inside the op."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _n_tokens(path: Path) -> int:
    return int(pc.sum(pq.read_table(path, columns=["n_tok"])["n_tok"]).as_py())


def quantile_by_kind(by_kind: dict[str, list[float]], q: float) -> float:
    """The q-th percentile over the kinds' medians; over the samples
    themselves when there is one kind. Every kind weighs the same however
    many rounds fitted in the run, and one sample slowed by the host does
    not move the result."""
    if len(by_kind) == 1:
        values = next(iter(by_kind.values()))
    else:
        values = [statistics.median(v) for v in by_kind.values()]
    return float(np.percentile(values, q))


class Workload:
    """Op samples and the end-to-end metrics computed from them.

    ``prepare`` makes the inputs and the oracles (benchmark work, which
    ``peak_rss_mb`` leaves out); ``setup`` runs the program up to the
    timed loop, ending with one untimed warm-up op.

    Ops and reads are keyed by kind: the op for ``build``, the position
    in the cycle for ``ingest``, the query for ``queries``; reads by tier.
    Rates divide the units of one op of each kind by the median wall of
    that kind."""

    # whole rounds a run measures even when --seconds is shorter: a kind's
    # median needs 2 samples to be a mean (ingest) and 3 to drop an outlier
    # (queries, whose second call is sometimes still cold)
    min_rounds = 1

    def __init__(self, root: Path, seed: int, size: dict):
        self.root, self.seed, self.size = root, seed, size
        self.op_walls: list[float] = []
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self.read_ms: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.tracer = Tracer()
        self.store: Path | None = None

    def record(self, kind: str, wall: float, points: float, tokens: float) -> None:
        self.op_walls.append(wall)
        self.samples[kind].append((wall, points, tokens))

    def rate(self, col: int) -> float:
        units = sum(statistics.median(s[col] for s in v) for v in self.samples.values())
        wall = sum(statistics.median(s[0] for s in v) for v in self.samples.values())
        return units / wall

    def end_to_end(self) -> dict[str, float]:
        walls = {k: [s[0] for s in v] for k, v in self.samples.items()}
        return {
            "op_s_p50": quantile_by_kind(walls, 50),
            "op_s_p90": quantile_by_kind(walls, 90),
            "points_per_s": self.rate(1),
            "tokens_per_s": self.rate(2),
            "read_ms_p50": quantile_by_kind(self.read_ms, 50),
            "read_ms_p90": quantile_by_kind(self.read_ms, 90),
            "stored_bytes_per_input_byte": self.stored_ratio(),
        }


class TokenWorkload(Workload):
    """Shared parts of ``build`` and ``ingest``: a token store, range
    reads of its newest window and the store checks."""

    def __init__(self, root: Path, seed: int, size: dict):
        super().__init__(root, seed, size)
        self.offset = inputs.doc_offset(seed)
        self.in_dir = root / "input"
        self.read_record: dict = {}

    def read_tiers(self, oracle: dict | None = None) -> None:
        """Range-read the newest window of every tier to completion; with
        an oracle, check the row counts instead of timing the reads."""
        from feasts_ray.config import TIERS
        from feasts_ray.pipelines import rollup_pipeline
        from feasts_ray.pipelines.rollup_pipeline import _points_stats

        store = self.store
        for t in TIERS:
            _rows, wm = _points_stats(store / f"tier={t.name}" / "points")
            hi = wm + t.unit_s
            lo = max(0, hi - max(READ_WINDOW_S, t.unit_s))

            def plan(t=t, lo=lo, hi=hi):
                return rollup_pipeline.read_points_range(str(store), t.name, lo, hi)

            traced = self.tracer.installed and oracle is None
            t0 = time.perf_counter()
            rows = range_read(plan, self.read_record if traced else None)
            if oracle is None:
                self.read_ms[t.name].append((time.perf_counter() - t0) * 1e3)
                continue
            want = checks.count_in_window(oracle[t.name], lo, hi)
            if rows != want:
                self.problems.append(
                    f"read {t.name} [{lo},{hi}): {rows} rows, oracle {want}")

    def forget_reads(self) -> None:
        """Drop the warm-up op's reads: they are cold."""
        self.read_ms.clear()
        self.read_record.clear()

    def tier_points(self) -> int:
        from feasts_ray.pipelines.rollup_pipeline import _points_stats

        return sum(_points_stats(self.store / f"tier={t}" / "points")[0]
                   for t in TIER_NAMES)

    def stored_ratio(self) -> float:
        return dir_bytes(self.store) / dir_bytes(self.in_dir)

    def layer_metrics(self, kernel_s_per_tok: float, cpus: int,
                      doc_s_per_op: float, tokens_per_op: float) -> dict:
        tr = self.tracer
        rp = "pipelines.rollup_pipeline"
        out = {f"{rp}.{k}": tr.per_op(k) for k in
               [f"tier.{t}.s" for t in TIER_NAMES]
               + ["doc_stage.s", "spans.s", "retention.s"]}
        out[f"{rp}.self.s"] = max(
            0.0, tr.per_op("run_rollup.s") - tr.per_op("_rollup_children"))
        ideal = tokens_per_op * kernel_s_per_tok / cpus
        out["stages.doc_fused.overhead_ratio"] = doc_s_per_op / ideal
        out.update(read_layer_metrics(self.read_record))
        return out


class Build(TokenWorkload):
    """Each op: one fresh ``run_rollup`` with features and archive over
    the whole table, then range reads of the newest window."""

    name = "build"

    def prepare(self) -> None:
        n = self.size["build_docs"]
        self.paths = inputs.write_token_table(self.in_dir, self.offset, n, 50_000)
        self.oracle = checks.oracle_tiers(self.offset, self.offset + n)
        self.n_points = sum(len(v) for v in self.oracle.values())
        self.n_tokens = sum(_n_tokens(p) for p in self.paths)

    def setup(self) -> None:
        self._op(record=False)  # warm-up
        self.forget_reads()

    def _op(self, record: bool = True) -> None:
        from feasts_ray.pipelines import rollup_pipeline

        if self.store is not None:
            shutil.rmtree(self.store)
        self.store = self.root / "store"
        with op_guard():
            t0 = time.perf_counter()
            metrics = rollup_pipeline.run_rollup(str(self.in_dir), str(self.store),
                                                 token_features=True,
                                                 token_archive=True)
            self.read_tiers()
            wall = time.perf_counter() - t0
        settle_reads(self.read_record)
        points = sum(metrics[t]["points"] for t in TIER_NAMES)
        if points != self.n_points:
            self.problems.append(f"op wrote {points} tier points, "
                                 f"oracle {self.n_points}")
        if record:
            self.record("op", wall, points, self.n_tokens)

    def round(self) -> int:
        self._op()
        return 1

    def check(self, final: bool) -> None:
        """Every op writes the same store; the last one is checked in full."""
        if final:
            self.problems += checks.check_tiers(self.store, self.oracle)
            self.problems += checks.check_doc_outputs(self.store, self.paths)
            self.read_tiers(self.oracle)

    def layers(self, kernel_s_per_tok: float, cpus: int) -> dict:
        return self.layer_metrics(kernel_s_per_tok, cpus,
                                  self.tracer.per_op("doc_stage.s"), self.n_tokens)


class Ingest(TokenWorkload):
    """A base store, then cycles of appended parts: each op appends one
    part, runs ``run_rollup_incremental`` and range-reads every tier; the
    last op of a cycle also runs ``compact_all``. Every cycle starts from
    the same base, so each ends in the same state."""

    name = "ingest"
    min_rounds = 2

    def prepare(self) -> None:
        base, part = self.size["ingest_base"], self.size["ingest_part"]
        self.paths = inputs.write_token_table(self.in_dir, self.offset, base, part)
        lo = self.offset + base
        self.parts = []
        for k in range(INGEST_OPS_PER_CYCLE):
            p = self.root / "parts" / f"part-{len(self.paths) + k:05d}.parquet"
            inputs.write_token_part(p, lo + k * part, lo + (k + 1) * part)
            self.parts.append(p)
        self.first_new_doc = f"doc-{lo:08d}"
        self.oracle = checks.oracle_tiers(
            self.offset, lo + INGEST_OPS_PER_CYCLE * part)
        self.part_tokens = [_n_tokens(p) for p in self.parts]

    def setup(self) -> None:
        from feasts_ray.pipelines.rollup_pipeline import run_rollup

        self.base_store = self.root / "store_base"
        self.store = self.root / "store"
        run_rollup(str(self.in_dir), str(self.base_store),
                   token_features=True, token_archive=True)
        self._reset()
        self._op(0, record=False)  # warm-up
        self.forget_reads()
        self.write_ratio: list[float] = []
        self.untouched: list[int] = []

    def _reset(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.base_store, self.store)
        for p in self.parts:
            (self.in_dir / p.name).unlink(missing_ok=True)

    def _op(self, k: int, record: bool = True) -> None:
        from feasts_ray.pipelines import compaction, incremental

        before = tree_state(self.store) if self.tracer.installed else None
        points_before = self.tier_points()
        with op_guard():
            t0 = time.perf_counter()
            shutil.copyfile(self.parts[k], self.in_dir / self.parts[k].name)
            incremental.run_rollup_incremental(str(self.in_dir), str(self.store),
                                               token_features=True,
                                               token_archive=True)
            if k == INGEST_OPS_PER_CYCLE - 1:
                compaction.compact_all(self.store)
            self.read_tiers()
            wall = time.perf_counter() - t0
        settle_reads(self.read_record)
        if record:
            self.record(f"append{k}", wall, self.tier_points() - points_before,
                        self.part_tokens[k])
        if before is not None:
            written, untouched = tree_diff(before, tree_state(self.store))
            self.write_ratio.append(written / self.parts[k].stat().st_size)
            self.untouched.append(untouched)

    def round(self) -> int:
        self._reset()
        for k in range(INGEST_OPS_PER_CYCLE):
            self._op(k)
        return INGEST_OPS_PER_CYCLE

    def check(self, final: bool) -> None:
        self.problems += checks.check_tiers(self.store, self.oracle)
        if final:
            self.problems += checks.check_doc_outputs(
                self.store, self.paths + self.parts, self.first_new_doc)
            self.read_tiers(self.oracle)

    def layers(self, kernel_s_per_tok: float, cpus: int) -> dict:
        tr = self.tracer
        out = self.layer_metrics(kernel_s_per_tok, cpus, tr.per_op("doc_delta.s"),
                                 statistics.mean(self.part_tokens))
        inc = "pipelines.incremental"
        for k in ("raw_merge", "cascade_merge", "doc_delta", "final_pass"):
            out[f"{inc}.{k}.s"] = tr.per_op(f"{k}.s")
        out[f"{inc}.bytes_written_per_input_byte"] = statistics.median(self.write_ratio)
        out[f"{inc}.files_untouched"] = statistics.median(self.untouched)
        n_compactions = max(1, tr.ops // INGEST_OPS_PER_CYCLE)
        for k in ("s", "files_before", "files_after", "bytes_rewritten"):
            out[f"pipelines.compaction.{k}"] = (
                tr.sums.get(f"compaction.{k}", 0.0) / n_compactions)
        return out


class Queries(Workload):
    """Each op runs one query of ``QUERIES`` to completion; a round is one
    pass over all of them in a seed-permuted order, over fixed tables.
    Points are result
    rows, tokens are input-table rows, the read latency is the time to
    the first result batch."""

    name = "queries"
    min_rounds = 3

    def __init__(self, root: Path, seed: int, size: dict):
        super().__init__(root, seed, size)
        self.data = root / "tables"
        self.rng = np.random.default_rng(seed)
        self.bytes_out: dict[str, int] = {}

    def prepare(self) -> None:
        import duckdb

        import __ray_entry__
        from check_contract import compare

        # like the driver's fixed test data, the tables do not change with
        # the seed; the seed permutes the order of the queries
        self.rows = inputs.write_query_tables(self.data, QUERY_TABLE_SEED,
                                              self.size["query_scale"])
        self.fns = __ray_entry__.queries()
        self.compare = compare
        con = duckdb.connect()
        for t in inputs.QUERY_TABLES:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{self.data / (t + '.parquet')}'")
        sql = __ray_entry__.oracle_sql()
        self.oracles = {q: (con.sql(sql[q]).df() if q in sql else None)
                        for q in QUERIES}
        con.close()
        self.bytes_in = {q: sum((self.data / f"{t}.parquet").stat().st_size
                                for t in ts) for q, ts in QUERIES.items()}

    def setup(self) -> None:
        for q in QUERIES:  # warm-up: one untimed call of every query
            self._op(q, record=False)

    def _run(self, q: str) -> tuple[pa.Table | None, object, float]:
        """Run one query to completion; returns (Arrow result of a
        Dataset, or the eager result as is; ms until the first batch)."""
        import ray.data

        t0 = time.perf_counter()
        res = self.fns[q](str(self.data))
        if not isinstance(res, ray.data.Dataset):
            return None, res, (time.perf_counter() - t0) * 1e3
        batches, first = [], None
        for b in res.iter_batches(batch_format="pyarrow", batch_size=None):
            first = first or time.perf_counter()
            batches.append(b)
        first = first or time.perf_counter()
        table = (pa.concat_tables(batches) if batches
                 else res.schema().base_schema.empty_table())
        return table, None, (first - t0) * 1e3

    def _op(self, q: str, record: bool = True) -> None:
        with op_guard():
            t0 = time.perf_counter()
            table, eager, first_ms = self._run(q)
            wall = time.perf_counter() - t0
        if table is None:
            table = eager if isinstance(eager, pa.Table) else pa.Table.from_pandas(
                eager, preserve_index=False)
        if record:
            in_rows = sum(self.rows[t] for t in QUERIES[q])
            self.record(q, wall, len(table), in_rows)
            self.read_ms[q].append(first_ms)
            self.bytes_out[q] = table.nbytes
        result = eager if eager is not None and not isinstance(eager, pa.Table) \
            else table.to_pandas()
        self.problems += checks.check_query(q, result, self.oracles[q], self.compare)

    def round(self) -> int:
        names = list(QUERIES)
        for i in self.rng.permutation(len(names)):
            self._op(names[i])
        return len(names)

    def check(self, final: bool) -> None:
        """Queries are checked as they run, outside their timed span."""

    def stored_ratio(self) -> float:
        return sum(self.bytes_out.values()) / sum(self.bytes_in.values())

    def layers(self, kernel_s_per_tok: float, cpus: int) -> dict:
        return {f"pipelines.queries.{q}.s": statistics.median(s[0] for s in v)
                for q, v in self.samples.items()}


WORKLOADS = {w.name: w for w in (Build, Ingest, Queries)}
