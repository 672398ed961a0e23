"""Corpus-level text operators for large-scale training-data pipelines:
global word-frequency top-k, blocklist decontamination, and
deterministic hash-based stratified sampling.

These are north-rule additions (no feasts counterpart — the reference
computes per-series features only, /root/reference/R/features.R); each
is designed for the 100 TB regime:

- ``word_freq_topk``: map-side combine (per-batch Arrow ``value_counts``
  — each batch emits at most its distinct-word count, not its token
  count) → ONE bounded shuffle keyed by word (vocabulary-sized, not
  corpus-sized) → distributed partial top-k (each block keeps <= k
  rows) → tiny driver merge. No stage materializes the corpus.
- ``decontaminate``: the blocklist is a bounded small side broadcast
  once via ``ray.put`` and matched per batch with Arrow's C substring
  kernel; the corpus is scanned exactly once, never shuffled.
- ``sample_stratified``: a pure per-batch filter on an md5-derived
  uint64 of the doc id — deterministic (re-runs and retries keep the
  same sample), seekable (membership is a pure function of the row, no
  global state), and exactly mirrored in SQL via the same md5
  little-endian fold the SimHash oracle uses
  (feasts_ray/oracle/simhash_sql.py::word_hash_expr).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Sum


def _split_words(text_arr: pa.Array) -> pa.Array:
    """Flat array of whitespace-split words with empties dropped —
    exactly ``str.split()`` semantics (see dedup/hashing.tokenize_arrow,
    verified over every BMP codepoint)."""
    if isinstance(text_arr, pa.ChunkedArray):
        text_arr = text_arr.combine_chunks()
    if text_arr.null_count:
        text_arr = text_arr.fill_null("")
    from ..dedup.hashing import split_whitespace_safe

    flat = pc.list_flatten(split_whitespace_safe(text_arr))
    return flat.filter(pc.not_equal(flat, ""))


def word_freq_topk(ds: "ray.data.Dataset", k: int = 50,
                   text_col: str = "text") -> pd.DataFrame:
    """Global top-k most frequent words: (word, total), ordered by
    (total DESC, word ASC) — the deterministic tie-break makes the
    result set unique, so the DuckDB oracle matches bit-for-bit."""

    def _partial(batch: pa.Table) -> pa.Table:
        vc = _split_words(batch[text_col]).value_counts()
        return pa.table({"word": vc.field("values"),
                         "partial": vc.field("counts").cast(pa.int64())})

    totals = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "word").aggregate(Sum("partial", alias_name="total"))

    def _topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["total", "word"], ascending=[False, True],
                              kind="mergesort").head(k)

    # distributed partial top-k: a global top-k row always survives its
    # own block's top-k, so the driver merge sees <= k * #blocks rows —
    # never O(vocabulary)
    part = totals.map_batches(_topk, batch_format="pandas")
    out = _topk(part.to_pandas()).reset_index(drop=True)
    out["total"] = out["total"].astype(np.int64)
    return out[["word", "total"]]


def word_freq_topk_heavy(ds: "ray.data.Dataset", k: int = 50,
                         capacity: int = 4096, text_col: str = "text",
                         ) -> pd.DataFrame:
    """EXACT global top-k words via two-pass Misra–Gries heavy hitters
    (Misra & Gries 1982) — the bounded-memory scale path for
    ``word_freq_topk`` when the vocabulary itself is too large to
    shuffle (a 100 TB crawl's vocabulary): the full (word, count)
    exchange disappears; only ≤ ``capacity`` survivors per batch plus
    the bounded candidate recount move.

    Pass 1: each batch keeps its local MG sketch's survivors. By the
    averaging argument, ANY word with global count > N/capacity
    survives in at least one batch (if count(x) > N/cap then some
    batch has count_b(x) > N_b/cap), so the survivor UNION is a
    superset of every such word. Pass 2: broadcast the candidate set
    and recount EXACTLY in one scan. The result is certified exact iff
    the k-th candidate count > N/capacity — checked, and a
    ValueError asks for more capacity otherwise (exactness never
    silently degrades, same contract as dedup/ngram's bucket mode)."""
    import ray as _ray

    def _mg_survivors(batch: pa.Table) -> pa.Table:
        words = _split_words(batch[text_col])
        vc = words.value_counts()
        w = vc.field("values")
        c = vc.field("counts").to_numpy(zero_copy_only=False)
        pruned = len(c) > capacity
        if pruned:
            # Misra-Gries decrement: keep items whose count exceeds the
            # (capacity+1)-th largest (all retained counters stay
            # >= count - threshold > 0); survivor bound still holds
            # because local count > N_b/capacity implies survival
            thr = np.partition(c, len(c) - capacity - 1)[len(c) - capacity - 1]
            w = w.filter(pa.array(c > thr))
        # a null word marks a batch that pruned (it may keep no survivor)
        return pa.table({"word": pa.concat_arrays(
            [w.cast(pa.string()), pa.nulls(int(pruned), pa.string())])})

    surv = ds.map_batches(_mg_survivors, batch_format="pyarrow").to_pandas()
    # N (total tokens) is recomputed exactly in the recount pass
    candidates = sorted(set(surv["word"].dropna()))
    if surv["word"].isna().any() and len(candidates) < k:
        # pruned words may belong in the top-k, and fewer than k
        # candidates leave no k-th count to certify against
        raise ValueError(
            f"top-{k} not certified exact: only {len(candidates)} "
            f"candidates survived pruning; raise capacity")
    cand_ref = _ray.put(candidates)

    def _recount(batch: pa.Table) -> pa.Table:
        cand = _ray.get(cand_ref)
        words = _split_words(batch[text_col])
        vc = words.value_counts()
        w = vc.field("values")
        c = vc.field("counts").to_numpy(zero_copy_only=False)
        idx = pc.index_in(w, pa.array(cand, type=pa.string())).fill_null(-1)
        m = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        hit = m >= 0
        part = np.zeros(len(cand) + 1, dtype=np.int64)
        np.add.at(part, m[hit], c[hit])
        part[len(cand)] = int(c.sum())  # last slot: batch token total
        return pa.table({"slot": pa.array(np.arange(len(cand) + 1),
                                          type=pa.int64()),
                         "partial": pa.array(part, type=pa.int64())})

    from ray.data.aggregate import Sum as _Sum

    totals = ds.map_batches(_recount, batch_format="pyarrow").groupby(
        "slot").aggregate(_Sum("partial", alias_name="total")).to_pandas()
    totals = totals.sort_values("slot", ignore_index=True)
    n_tokens = int(totals["total"].iloc[-1])
    counts = totals["total"].to_numpy()[:-1]
    out = pd.DataFrame({"word": candidates, "total": counts})
    out = out.sort_values(["total", "word"], ascending=[False, True],
                          kind="mergesort", ignore_index=True).head(k)
    if len(out) and capacity > 0:
        kth = int(out["total"].iloc[-1])
        if kth * capacity <= n_tokens:
            raise ValueError(
                f"top-{k} not certified exact: k-th count {kth} <= "
                f"N/capacity = {n_tokens}/{capacity}; raise capacity")
    out["total"] = out["total"].astype(np.int64)
    return out[["word", "total"]]


def build_blocklist(ds: "ray.data.Dataset", every: int = 101,
                    n_words: int = 8, id_col: str = "doc_id",
                    text_col: str = "text") -> list[str]:
    """Deterministic stand-in for an external decontamination blocklist
    (benchmark prompts, eval answers...): the first ``n_words`` words of
    every ``every``-th document. In production the blocklist is a fixed
    small artifact; deriving it from the corpus keeps this self-contained
    and oracle-checkable. The selection is O(corpus/every) but each entry
    is a tiny prefix — the collected list stays a bounded small side."""

    def _phrases(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(ids % every == 0)
        out = []
        for i in keep:
            ws = batch[text_col][int(i)].as_py().split()
            if len(ws) >= n_words:
                out.append(" ".join(ws[:n_words]))
        return pa.table({"phrase": pa.array(out, type=pa.string())})

    rows = ds.map_batches(_phrases, batch_format="pyarrow").take_all()
    return sorted({r["phrase"] for r in rows})


def decontaminate(ds: "ray.data.Dataset", every: int = 101,
                  n_words: int = 8, id_col: str = "doc_id",
                  text_col: str = "text") -> "ray.data.Dataset":
    """Per-doc contamination score: ``n_hits`` = number of distinct
    blocklist phrases contained verbatim in the document. The blocklist
    is broadcast once (``ray.put``); each batch runs one Arrow
    ``match_substring`` C kernel per phrase — the corpus is scanned once
    and never shuffled."""
    bl_ref = ray.put(build_blocklist(ds, every, n_words, id_col, text_col))

    def _score(batch: pa.Table) -> pa.Table:
        phrases = ray.get(bl_ref)
        text = batch[text_col]
        hits = np.zeros(len(batch), dtype=np.int64)
        for p in phrases:
            hits += pc.match_substring(text, p).to_numpy(
                zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "n_hits": pa.array(hits, type=pa.int64())})

    return ds.map_batches(_score, batch_format="pyarrow")


def _id_hash64(ids: pa.Array) -> np.ndarray:
    """md5-LE uint64 of the decimal string of each id — the same word
    hash the dedup/text kernels use (dedup/hashing.hash_words), applied
    to CAST(id AS VARCHAR) so SQL mirrors it exactly."""
    from ..dedup.hashing import hash_words_arrow

    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    return hash_words_arrow(pc.cast(ids, pa.string()))


_MIX64 = np.uint64(0x9E3779B97F4A7C15)


def topk_per_group(ds: "ray.data.Dataset", group_col: str,
                   sort_cols: list[str], ascending: list[bool],
                   k: int) -> "ray.data.Dataset":
    """Per-group top-k selection (e.g. "keep the k best documents per
    language" — the data-selection step of a curation pipeline). Each
    input block first keeps its own per-group top-k (a global top-k row
    always survives its block's top-k), so the single ``groupby`` shuffle
    moves <= k * #groups * #blocks rows — never O(corpus); the final
    per-group head runs over <= k * #blocks rows. Ties are broken by the
    caller's trailing sort columns, so with a unique id in ``sort_cols``
    the result set is deterministic and SQL ROW_NUMBER-mirrorable."""

    def _head(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(sort_cols, ascending=ascending,
                              kind="mergesort").groupby(
            group_col, sort=False).head(k)

    part = ds.map_batches(_head, batch_format="pandas")
    # per-group finalize: #groups bounded (strata), each group <= k*#blocks
    return part.groupby(group_col).map_groups(_head, batch_format="pandas")


def count_distinct(ds: "ray.data.Dataset", key_col: str, value_col: str,
                   num_groups: int = 64,
                   alias: str = "n_distinct") -> "ray.data.Dataset":
    """Exact per-key COUNT(DISTINCT value) for an integer value column.

    Map-side dedup (per-batch Arrow ``group_by`` keeps each (key, value)
    combination once, so the shuffle moves distinct pairs, not rows) →
    ONE bounded shuffle into ``num_groups`` hash groups salted by the
    VALUE (all copies of a value land in one group, so the within-group
    lexsort dedup is globally exact and every pair contributes to exactly
    one group's per-key partial) → a tiny per-key Sum of the partials.
    No stage holds more than a block of distinct pairs."""

    def _local(batch: pa.Table) -> pa.Table:
        if not pa.types.is_integer(batch.schema.field(value_col).type):
            raise TypeError(
                f"count_distinct value column {value_col!r} must be an "
                "integer type (the group salt is an integer mix); hash "
                "string values to int64 upstream")
        u = pa.table({key_col: batch[key_col], value_col: batch[value_col]}
                     ).group_by([key_col, value_col]).aggregate([])
        v = u[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        g = ((v.view(np.uint64) * _MIX64) % np.uint64(num_groups)
             ).astype(np.int64)
        return u.append_column("_g", pa.array(g, type=pa.int64()))

    def _per_group(group: pa.Table) -> pa.Table:
        enc = group[key_col].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, codes))
        c_s, v_s = codes[order], v[order]
        first = np.ones(len(c_s), dtype=bool)
        first[1:] = (c_s[1:] != c_s[:-1]) | (v_s[1:] != v_s[:-1])
        c_u = c_s[first]
        kb = np.flatnonzero(np.concatenate(
            [[True], c_u[1:] != c_u[:-1]])) if len(c_u) else np.array([], np.int64)
        n = np.diff(np.append(kb, len(c_u))).astype(np.int64)
        return pa.table({key_col: enc.dictionary.take(pa.array(c_u[kb])),
                         "partial": pa.array(n, type=pa.int64())})

    partials = ds.map_batches(_local, batch_format="pyarrow").groupby(
        "_g").map_groups(_per_group, batch_format="pyarrow")
    return partials.groupby(key_col).aggregate(
        Sum("partial", alias_name=alias))


def dup_span_stats(ds: "ray.data.Dataset", k: int = 3,
                   num_groups: int = 64, id_col: str = "doc_id",
                   text_col: str = "text") -> "ray.data.Dataset":
    """Per-document duplicated-span statistics: for every document with
    >= k words, ``n_spans`` = its number of DISTINCT word k-grams and
    ``n_dup_spans`` = how many of those occur in at least one other
    document — the per-doc duplication signal behind substring-level
    training-data dedup (Lee et al., "Deduplicating Training Data Makes
    Language Models Better", ACL 2022; the reference computes per-series
    features only, /root/reference/R/features.R).

    Scale shape: ONE corpus scan emits (span-hash, doc) pairs, distinct
    per doc (each doc lives in one batch, so per-batch dedup is global);
    pairs shuffle ONCE into ``num_groups`` hash groups salted by the
    span hash — every occurrence of a span lands in one group, so the
    within-group run length IS the span's global doc count — and the
    vectorized group kernel folds per-doc partials; a final per-doc Sum
    (second, partial-sized shuffle) assembles the counts. Span identity
    is the same 64-bit polynomial shingle hash the MinHash path uses
    (collision-free at this scale — the exact-Jaccard oracle already
    relies on that equivalence, dedup/minhash.py)."""
    from ..dedup.hashing import shingle_hashes_batch, tokenize_arrow

    def _spans(batch: pa.Table) -> pa.Table:
        whash, offsets, counts = tokenize_arrow(batch[text_col])
        flat, out_offs = shingle_hashes_batch(whash, offsets, k)
        out_counts = np.diff(out_offs)
        doc_of = np.repeat(np.arange(len(out_counts)), out_counts)
        # docs with < k words get shingle_hashes_batch's short fold —
        # drop them to match the oracle's k-gram-only definition
        keep = counts[doc_of] >= k
        sh = flat[keep].view(np.int64)
        did = batch[id_col].to_numpy(zero_copy_only=False)[doc_of[keep]]
        order = np.lexsort((sh, did))
        sh, did = sh[order], did[order]
        if len(sh):
            first = np.ones(len(sh), dtype=bool)
            first[1:] = (did[1:] != did[:-1]) | (sh[1:] != sh[:-1])
            sh, did = sh[first], did[first]
        g = ((sh.view(np.uint64) * _MIX64) % np.uint64(num_groups)
             ).astype(np.int64)
        return pa.table({"sh": pa.array(sh, type=pa.int64()),
                         id_col: pa.array(did, type=pa.int64()),
                         "_g": pa.array(g, type=pa.int64())})

    def _per_group(group: pa.Table) -> pa.Table:
        sh = group["sh"].to_numpy(zero_copy_only=False)
        did = group[id_col].to_numpy(zero_copy_only=False)
        if len(sh) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "ns": pa.array([], type=pa.int64()),
                             "nd": pa.array([], type=pa.int64())})
        order = np.argsort(sh, kind="stable")
        sh_s, did_s = sh[order], did[order]
        runs = np.flatnonzero(np.concatenate([[True], sh_s[1:] != sh_s[:-1]]))
        run_len = np.diff(np.append(runs, len(sh_s)))
        dup_row = np.repeat((run_len >= 2).astype(np.int64), run_len)
        o2 = np.argsort(did_s, kind="stable")
        d2, dupv = did_s[o2], dup_row[o2]
        db = np.flatnonzero(np.concatenate([[True], d2[1:] != d2[:-1]]))
        return pa.table({
            id_col: pa.array(d2[db], type=pa.int64()),
            "ns": pa.array(np.diff(np.append(db, len(d2))), type=pa.int64()),
            "nd": pa.array(np.add.reduceat(dupv, db), type=pa.int64()),
        })

    partials = ds.map_batches(_spans, batch_format="pyarrow").groupby(
        "_g").map_groups(_per_group, batch_format="pyarrow")
    return partials.groupby(id_col).aggregate(
        Sum("ns", alias_name="n_spans"), Sum("nd", alias_name="n_dup_spans"))


def sample_stratified(ds: "ray.data.Dataset", rates: dict[str, int],
                      default_rate: int, mod: int = 100,
                      strat_col: str = "lang", id_col: str = "doc_id",
                      ) -> "ray.data.Dataset":
    """Deterministic stratified sampling: keep a row iff
    ``md5_le64(str(doc_id)) % mod < rate(stratum)`` — per-stratum
    sampling rates (``rates`` in units of 1/mod) with no RNG state, so
    the sample is reproducible across runs, retries, and cluster sizes,
    and membership can be tested for a single row without a scan."""

    def _keep(batch: pa.Table) -> pa.Table:
        h = _id_hash64(batch[id_col]) % np.uint64(mod)
        # only the (few) distinct strata cross into Python
        enc = batch[strat_col].combine_chunks().dictionary_encode()
        thr_by_code = np.array(
            [rates.get(v, default_rate) for v in enc.dictionary.to_pylist()],
            dtype=np.uint64)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(h < thr_by_code[codes]))

    return ds.map_batches(_keep, batch_format="pyarrow")


_MIX64_REP = np.uint64(0x9E3779B97F4A7C15)


def repetition_signals(ds: "ray.data.Dataset", top_n: int = 2,
                       dup_n: int = 3, id_col: str = "doc_id",
                       text_col: str = "text") -> "ray.data.Dataset":
    """Per-document repetition signals in the style of the Gopher
    quality filters (Rae et al. 2021, "Scaling Language Models", §A1.1;
    no feasts counterpart — the reference computes per-series features
    only, /root/reference/R/features.R). For each doc:

    - ``word_chars``: total codepoints across whitespace words.
    - ``top_ngram_chars``: occurrences x joined-string length of the
      most frequent word ``top_n``-gram (ties by count broken by the
      LONGER gram — any residual tie yields the same product, so the
      value is uniquely defined); 0 for docs with < top_n words.
    - ``top_ngram_frac`` = top_ngram_chars / word_chars (IEEE double).
    - ``dup_ngram_chars``: codepoints of words covered by the UNION of
      positions of ``dup_n``-grams occurring >= 2 times within the doc
      (each character counted once however many dup grams cover it).
    - ``dup_ngram_frac`` = dup_ngram_chars / word_chars.

    Scale shape: a pure per-document operator — ONE corpus scan, zero
    shuffles, nothing leaves the workers but the per-doc stat rows.
    N-gram identity is the 64-bit polynomial shingle hash the MinHash
    path uses (collision-free at this scale; the exact-Jaccard oracle
    already relies on that equivalence). Joined-string length counts
    words + (n-1) single spaces, mirroring the oracle's
    ``length(a || ' ' || b)``.
    """
    from ..dedup.hashing import shingle_hashes_batch, \
        tokenize_arrow_with_lengths

    def _batch(batch: pa.Table) -> pa.Table:
        whash, offsets, counts, wlen, _ = tokenize_arrow_with_lengths(
            batch[text_col])
        nd = len(counts)
        cs = np.concatenate([[0], np.cumsum(wlen)])
        total_chars = cs[offsets[1:]] - cs[offsets[:-1]]

        def occurrences(n: int):
            """(hash, doc, start-word-global-idx) of every n-gram
            occurrence; docs with < n words emit none (the batched
            shingle fold's short-doc fallback rows are masked out)."""
            flat_h, out_offs = shingle_hashes_batch(whash, offsets, n)
            occ_counts = np.diff(out_offs)
            doc_of = np.repeat(np.arange(nd), occ_counts)
            valid = counts[doc_of] >= n
            pos = np.arange(len(flat_h)) - out_offs[:-1][doc_of]
            gidx = offsets[:-1][doc_of] + pos
            return (flat_h[valid].view(np.int64), doc_of[valid],
                    gidx[valid])

        # most frequent top_n-gram: chars = count * joined length
        top_chars = np.zeros(nd, dtype=np.int64)
        h, d, g = occurrences(top_n)
        if len(h):
            clen = cs[g + top_n] - cs[g] + (top_n - 1)
            order = np.lexsort((h, d))
            hs, ds_, cls = h[order], d[order], clen[order]
            runs = np.flatnonzero(np.concatenate(
                [[True], (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])]))
            rcount = np.diff(np.append(runs, len(hs)))
            rdoc, rcl = ds_[runs], cls[runs]
            o2 = np.lexsort((rcl, rcount, rdoc))
            rd2 = rdoc[o2]
            last = np.flatnonzero(np.concatenate(
                [rd2[1:] != rd2[:-1], [True]]))
            top_chars[rd2[last]] = rcount[o2][last] * rcl[o2][last]

        # positional coverage union of duplicated dup_n-grams
        dup_chars = np.zeros(nd, dtype=np.int64)
        h, d, g = occurrences(dup_n)
        if len(h):
            order = np.lexsort((h, d))
            hs, ds_, gs = h[order], d[order], g[order]
            runs = np.flatnonzero(np.concatenate(
                [[True], (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])]))
            run_len = np.diff(np.append(runs, len(hs)))
            is_dup = np.repeat(run_len >= 2, run_len)
            gd = gs[is_dup]
            if len(gd):
                m = len(wlen) + 1
                delta = (np.bincount(gd, minlength=m)
                         - np.bincount(gd + dup_n, minlength=m))
                covered = np.cumsum(delta[:-1]) > 0
                covc = np.concatenate(
                    [[0], np.cumsum(np.where(covered, wlen, 0))])
                dup_chars = covc[offsets[1:]] - covc[offsets[:-1]]

        tc = total_chars.astype(np.float64)
        nz = total_chars > 0
        top_frac = np.divide(top_chars, tc, out=np.zeros(nd), where=nz)
        dup_frac = np.divide(dup_chars, tc, out=np.zeros(nd), where=nz)
        return pa.table({
            id_col: batch[id_col],
            "word_chars": pa.array(total_chars, type=pa.int64()),
            "top_ngram_chars": pa.array(top_chars, type=pa.int64()),
            "top_ngram_frac": pa.array(top_frac, type=pa.float64()),
            "dup_ngram_chars": pa.array(dup_chars, type=pa.int64()),
            "dup_ngram_frac": pa.array(dup_frac, type=pa.float64()),
        })

    return ds.map_batches(_batch, batch_format="pyarrow")


def tfidf_top_terms(ds: "ray.data.Dataset", num_groups: int = 64,
                    id_col: str = "doc_id", text_col: str = "text",
                    ) -> "ray.data.Dataset":
    """Per-document top tf-idf term under the RATIONAL scoring
    ``score = tf / df`` (tf = the term's occurrence count in the doc,
    df = the number of docs containing the term). Ranking by tf/df is
    the rational-idf variant of tf-idf (idf = 1/df; N is constant per
    corpus): chosen over tf*ln(N/df) because the division is exactly
    reproducible in IEEE doubles on both engines, while a libm log's
    last ulp is implementation-defined. Ties break on the
    lexicographically SMALLEST term (binary collation == Python str
    order for UTF-8). Output: (doc_id, term, tf, df, score).

    Scale shape (no driver state, no broadcast — the corpus vocabulary
    of a 100 TB crawl does not fit a broadcast side): one corpus scan
    emits per-doc (term, tf) pairs (a doc is one row, so per-batch tf
    is global); pairs shuffle ONCE into term-hash-salted bounded groups
    where the within-group run length per term IS its global df (every
    doc of a term lands in one group — the dup_span_stats pattern);
    df-attached pairs shuffle a second time into doc-salted groups for
    the vectorized per-doc argmax. Both shuffles move O(distinct
    (doc, term) pairs), never the text."""
    from ..dedup.hashing import tokenize_arrow_with_lengths

    def _pairs(batch: pa.Table) -> pa.Table:
        whash, offsets, counts, _, flat = tokenize_arrow_with_lengths(
            batch[text_col])
        nd = len(counts)
        if len(whash) == 0:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "wh": pa.array([], type=pa.int64()),
                "tf": pa.array([], type=pa.int64()),
                "_g": pa.array([], type=pa.int64())})
        doc_of = np.repeat(np.arange(nd), counts)
        h = whash.view(np.int64)
        order = np.lexsort((h, doc_of))
        hs, ds_ = h[order], doc_of[order]
        runs = np.flatnonzero(np.concatenate(
            [[True], (ds_[1:] != ds_[:-1]) | (hs[1:] != hs[:-1])]))
        tf = np.diff(np.append(runs, len(hs)))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        rh = hs[runs]
        g = ((rh.view(np.uint64) * _MIX64_REP) % np.uint64(num_groups)
             ).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids[ds_[runs]], type=pa.int64()),
            "term": flat.take(pa.array(order[runs], type=pa.int64())),
            "wh": pa.array(rh, type=pa.int64()),
            "tf": pa.array(tf, type=pa.int64()),
            "_g": pa.array(g, type=pa.int64())})

    def _attach_df(group: pa.Table) -> pa.Table:
        wh = group["wh"].to_numpy(zero_copy_only=False)
        if len(wh) == 0:
            return group.drop_columns(["wh", "_g"]).append_column(
                "df", pa.array([], type=pa.int64()))
        order = np.argsort(wh, kind="stable")
        runs = np.flatnonzero(np.concatenate(
            [[True], wh[order][1:] != wh[order][:-1]]))
        run_len = np.diff(np.append(runs, len(wh)))
        df = np.empty(len(wh), dtype=np.int64)
        df[order] = np.repeat(run_len, run_len)
        ids = group[id_col].to_numpy(zero_copy_only=False)
        g2 = ((ids.astype(np.uint64) * _MIX64_REP)
              % np.uint64(num_groups)).astype(np.int64)
        return pa.table({
            id_col: group[id_col], "term": group["term"],
            "tf": group["tf"], "df": pa.array(df, type=pa.int64()),
            "_g2": pa.array(g2, type=pa.int64())})

    def _pick(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "term": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
                "df": pa.array([], type=pa.int64()),
                "score": pa.array([], type=pa.float64())})
        tf = group["tf"].to_numpy(zero_copy_only=False)
        df = group["df"].to_numpy(zero_copy_only=False)
        score = tf / df.astype(np.float64)
        terms = np.asarray(group["term"].to_pylist(), dtype=object)
        # doc asc, then -score asc (= score desc), then term asc;
        # the FIRST row of each doc segment is the winner
        order = np.lexsort((terms, -score, ids))
        ido = ids[order]
        first = np.flatnonzero(np.concatenate(
            [[True], ido[1:] != ido[:-1]]))
        w = order[first]
        return pa.table({
            id_col: pa.array(ids[w], type=pa.int64()),
            "term": group["term"].take(pa.array(w, type=pa.int64())),
            "tf": pa.array(tf[w], type=pa.int64()),
            "df": pa.array(df[w], type=pa.int64()),
            "score": pa.array(score[w], type=pa.float64())})

    pairs = ds.map_batches(_pairs, batch_format="pyarrow")
    with_df = pairs.groupby("_g").map_groups(
        _attach_df, batch_format="pyarrow")
    return with_df.groupby("_g2").map_groups(_pick, batch_format="pyarrow")


def sample_k_per_group(ds: "ray.data.Dataset", group_col: str, k: int,
                       id_col: str = "doc_id", salt: str = "samplek",
                       ) -> "ray.data.Dataset":
    """EXACTLY-k deterministic uniform sample per stratum (vs
    ``sample_stratified``'s rate-based expected share): rank rows by
    md5(id#salt) within the stratum and keep the k smallest — a pure
    function of (id, salt), so the sample is stable across
    runs/retries/cluster sizes and composes with the other hash ops
    (different salt ⇒ independent choices). Implementation = the
    existing per-group partial top-k (`topk_per_group`): each block
    keeps its own k-smallest per group, ONE bounded shuffle of
    ≤ k rows/group/block, per-group head. Oracle: ROW_NUMBER over the
    same md5-LE expression."""
    from ..dedup.hashing import hash_words_arrow

    def _key(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        s = pc.binary_join_element_wise(
            pc.cast(ids, pa.string()), pa.scalar(f"#{salt}"), "")
        h = hash_words_arrow(s)
        return batch.append_column("_h", pa.array(h, type=pa.uint64()))

    keyed = ds.map_batches(_key, batch_format="pyarrow")
    out = topk_per_group(keyed, group_col, ["_h", id_col], [True, True], k)
    return out.drop_columns(["_h"])


def winsorize_by_group(ds: "ray.data.Dataset", value_col: str,
                       key_col: str, q_lo: float = 0.05,
                       q_hi: float = 0.95) -> "ray.data.Dataset":
    """Per-stratum winsorization (outlier clipping for score columns):
    clip ``value_col`` into [q_lo, q_hi] discrete quantiles of its
    stratum. Thresholds from the histogram exact-quantile path (one
    bounded shuffle of distinct (key, value) pairs), broadcast once;
    the corpus is scanned once with two vectorized compares — never
    shuffled. Clipping SELECTS existing values (no arithmetic), so the
    LEAST/GREATEST SQL oracle matches bit-exactly for any dtype."""
    from ..stages.quantiles import group_quantiles_hist
    from ..state.broadcast import put_once

    lo_col = f"p{round(q_lo * 1000):03d}"
    hi_col = f"p{round(q_hi * 1000):03d}"
    thr = group_quantiles_hist(ds.select_columns([key_col, value_col]),
                               value_col, key_col,
                               qs=(q_lo, q_hi)).to_pandas()
    ref = put_once({k: (lo, hi) for k, lo, hi in
                    zip(thr[key_col], thr[lo_col], thr[hi_col])})

    return ds.map_batches(_winsor_clip, batch_format="pyarrow", fn_kwargs={
        "bounds": ref, "key_col": key_col, "value_col": value_col})


def _winsor_clip(batch: pa.Table, bounds, key_col: str,
                 value_col: str) -> pa.Table:
    """``winsorize_by_group``'s per-batch clip; ``bounds`` maps each
    stratum to its (lo, hi) (a broadcast ref or a plain dict)."""
    from ..state.broadcast import resolve_broadcast

    by_key = resolve_broadcast(bounds)
    enc = batch[key_col].combine_chunks().dictionary_encode()
    # only the (few) distinct strata cross into Python; reshape keeps a
    # zero-row batch's empty bounds 2-D
    lohi = np.array([by_key[v] for v in enc.dictionary.to_pylist()]
                    ).reshape(-1, 2)
    codes = enc.indices.to_numpy(zero_copy_only=False)
    v = batch[value_col].to_numpy(zero_copy_only=False)
    clipped = np.minimum(np.maximum(v, lohi[codes, 0]), lohi[codes, 1])
    return batch.append_column(
        f"{value_col}_winsor",
        pa.array(clipped, type=batch.schema.field(value_col).type))


def robust_zscore_by_group(ds: "ray.data.Dataset", value_col: str,
                           key_col: str) -> "ray.data.Dataset":
    """Per-row robust z-score within a stratum: (x - median) / MAD,
    with median and MAD = median(|x - median|) both DISCRETE quantiles
    (quantile_disc semantics) — the outlier score quality filters use
    when means/stddevs are skew-poisoned. Rows in zero-MAD strata get
    NULL (a constant stratum has no outlier scale).

    Scale shape: two histogram exact-quantile passes (each shuffles
    distinct (key, value) pairs, never rows — stages/quantiles.py
    ::group_quantiles_hist), thresholds broadcast once each; the
    corpus is scanned twice, never shuffled. For integer metrics both
    quantiles are exact ints, so the score is one IEEE division and
    the SQL oracle matches bitwise."""
    from ..stages.quantiles import group_quantiles_hist
    from ..state.broadcast import put_once, resolve_broadcast

    med = group_quantiles_hist(ds.select_columns([key_col, value_col]),
                               value_col, key_col, qs=(0.5,)).to_pandas()
    med_ref = put_once(dict(zip(med[key_col], med["p500"])))

    def _absdev(batch: pa.Table) -> pa.Table:
        m = resolve_broadcast(med_ref)
        enc = batch[key_col].combine_chunks().dictionary_encode()
        meds = np.array([m[v] for v in enc.dictionary.to_pylist()])
        codes = enc.indices.to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        return pa.table({key_col: batch[key_col],
                         "_absdev": pa.array(np.abs(v - meds[codes]))})

    mad = group_quantiles_hist(
        ds.map_batches(_absdev, batch_format="pyarrow"),
        "_absdev", key_col, qs=(0.5,)).to_pandas()
    both_ref = put_once({k: (m, d) for k, m, d in zip(
        mad[key_col], [dict(zip(med[key_col], med["p500"]))[k]
                       for k in mad[key_col]], mad["p500"])})

    def _score(batch: pa.Table) -> pa.Table:
        table = resolve_broadcast(both_ref)
        enc = batch[key_col].combine_chunks().dictionary_encode()
        pairs = np.array([table[v] for v in enc.dictionary.to_pylist()],
                         dtype=np.float64).reshape(-1, 2)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        meds, mads = pairs[codes, 0], pairs[codes, 1]
        ok = mads > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (v - meds) / mads
        return batch.append_column(
            "robust_z", pa.array(np.where(ok, z, 0.0),
                                 type=pa.float64(), mask=~ok))

    return ds.map_batches(_score, batch_format="pyarrow")


def percent_rank_by_group(ds: "ray.data.Dataset", value_col: str,
                          key_col: str, out_col: str = "pct_rank",
                          ) -> "ray.data.Dataset":
    """Per-row PERCENT_RANK of ``value_col`` within its ``key_col``
    stratum — the quality-percentile score behind "keep the top X% of
    each language" selection (the filtering sibling is
    ``filter_by_group_quantile``; this one emits the per-doc score).
    Definition matches SQL PERCENT_RANK: ``(rank - 1) / (n - 1)`` with
    rank = 1 + count of STRICTLY smaller values in the stratum (ties
    share the min rank); a single-row stratum scores 0.0.

    Scale shape: one bounded groupby(key) shuffle of per-batch
    (key, value) COUNT partials builds the per-stratum value histogram
    (bounded: #strata x #distinct integer metric values — use the
    quantile-threshold operator for continuous scores); cumulative
    strictly-less counts broadcast once via ray.put; the corpus is
    scanned once with a vectorized searchsorted — never shuffled. The
    only float op is one IEEE division of two exact ints, so the SQL
    window-function oracle matches bitwise."""
    from ..state.broadcast import put_once, resolve_broadcast

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch[key_col], value_col: batch[value_col]})
        g = t.group_by([key_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([key_col, value_col, "partial"])

    def _per_key(group: pa.Table) -> pa.Table:
        v = group[value_col].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({
                key_col: group[key_col].combine_chunks(),
                "value": group[value_col].combine_chunks(),
                "n_less": pa.array([], type=pa.int64()),
                "n_total": pa.array([], type=pa.int64())})
        c = group["partial"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(v, kind="stable")
        v_s, c_s = v[order], c[order]
        bnd = np.flatnonzero(np.concatenate([[True], v_s[1:] != v_s[:-1]]))
        vals = v_s[bnd]
        per_val = np.add.reduceat(c_s, bnd)
        n_less = np.concatenate([[0], np.cumsum(per_val)[:-1]])
        return pa.table({
            key_col: group[key_col].take(pa.array([0] * len(vals))),
            "value": pa.array(vals, type=group.schema.field(value_col).type),
            "n_less": pa.array(n_less, type=pa.int64()),
            "n_total": pa.array(np.full(len(vals), int(per_val.sum())),
                                type=pa.int64()),
        })

    # one shuffle: partial (key, value) counts -> per-key histogram
    hist = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        key_col).map_groups(_per_key, batch_format="pyarrow").to_pandas()
    table = {
        k: (sub["value"].to_numpy(), sub["n_less"].to_numpy(),
            int(sub["n_total"].iloc[0]))
        for k, sub in hist.groupby(key_col, sort=False)
    }
    ref = put_once(table)

    def _score(batch: pa.Table) -> pa.Table:
        by_key = resolve_broadcast(ref)
        enc = batch[key_col].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        pr = np.zeros(len(batch), dtype=np.float64)
        # only the (few) distinct strata cross into Python
        for code, key in enumerate(enc.dictionary.to_pylist()):
            vals, n_less, n = by_key[key]
            m = codes == code
            if n > 1:
                idx = np.searchsorted(vals, v[m], side="left")
                pr[m] = n_less[idx] / np.float64(n - 1)
        return batch.append_column(out_col, pa.array(pr, type=pa.float64()))

    return ds.map_batches(_score, batch_format="pyarrow")


def _rebuild_without_lines(texts: pa.Array, ids: np.ndarray,
                           drop_doc: np.ndarray, drop_idx: np.ndarray):
    """Vectorized per-batch rebuild: remove line ``drop_idx`` of doc
    ``drop_doc`` (0-based) from each doc's newline-joined text. Returns
    (n_lines, n_removed, text_clean arrays)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lines = pc.split_pattern(texts, "\n")
    offsets = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(offsets)
    flat = lines.values
    nd = len(counts)
    order = np.argsort(ids, kind="mergesort")
    pos = np.minimum(np.searchsorted(ids[order], drop_doc),
                     max(len(ids) - 1, 0))
    if len(drop_doc) and not np.array_equal(ids[order][pos], drop_doc):
        raise KeyError("drop row references a doc id absent from its "
                       "co-located batch/group — partitioning violated")
    row = order[pos]
    keep = np.ones(len(flat), dtype=bool)
    keep[offsets[:-1][row] + drop_idx] = False
    removed = np.bincount(row, minlength=nd).astype(np.int64)
    kept = flat.filter(pa.array(keep))
    new_off = np.concatenate([[0], np.cumsum(counts - removed)])
    rebuilt = pa.ListArray.from_arrays(pa.array(new_off, type=pa.int32()),
                                       kept)
    return counts.astype(np.int64), removed, pc.binary_join(rebuilt, "\n")


def dedup_lines_corpus(ds: "ray.data.Dataset", id_col: str = "doc_id",
                       text_col: str = "text", num_groups: int = 64,
                       broadcast_budget: int = 256 << 20,
                       plan: str = "auto") -> "ray.data.Dataset":
    """CORPUS-WIDE duplicated-line removal (the removal step of
    substring-level dedup, Lee et al. ACL 2022, applied at line
    granularity — C4's cross-document boilerplate rule): every exact
    line occurring >= 2 times anywhere keeps only its FIRST global
    occurrence (min (doc_id, line_idx)); all other occurrences are cut.
    Output: (doc_id, n_lines, n_lines_removed, text_clean). The sibling
    ``dup_span_stats`` measures duplication; this one removes it.

    Scale shape: one corpus scan emits (line-hash, doc, idx) int
    triples (line text itself never enters the first exchange); ONE
    bounded-group shuffle salted by line hash — the global occurrence
    list of a line lands in one group, so the non-first occurrences ARE
    the drop set. Drops return to documents by an adaptive second step
    (the keep_best pattern): measured drop bytes x5 within
    ``broadcast_budget`` -> ray.put once + zero-shuffle rebuild scan;
    past the budget (or plan='grouped') -> tag+union+one doc-salted
    groupby co-group, the only plan that shuffles text, once. Plans
    pinned identical in tests. Line identity is the md5-LE line hash
    (collision-free at this scale; every dedup oracle relies on the
    same equivalence)."""
    from ..dedup.hashing import hash_words_arrow
    from ..state.broadcast import put_once, resolve_broadcast

    def _occurrences(batch: pa.Table) -> pa.Table:
        t = batch[text_col]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        lines = pc.split_pattern(t, "\n")
        offs = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        h = hash_words_arrow(lines.values).view(np.int64)
        doc_of = np.repeat(np.arange(len(counts)), counts)
        ids = batch[id_col].to_numpy(zero_copy_only=False)[doc_of]
        idx = np.arange(len(h)) - offs[:-1][doc_of]
        g = ((h.view(np.uint64) * _MIX64) % np.uint64(num_groups)
             ).astype(np.int64)
        return pa.table({"lh": pa.array(h, type=pa.int64()),
                         id_col: pa.array(ids, type=pa.int64()),
                         "idx": pa.array(idx, type=pa.int64()),
                         "_g": pa.array(g, type=pa.int64())})

    def _drops(group: pa.Table) -> pa.Table:
        lh = group["lh"].to_numpy(zero_copy_only=False)
        did = group[id_col].to_numpy(zero_copy_only=False)
        idx = group["idx"].to_numpy(zero_copy_only=False)
        if len(lh) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "idx": pa.array([], type=pa.int64())})
        order = np.lexsort((idx, did, lh))
        lh_s = lh[order]
        first = np.ones(len(lh_s), dtype=bool)
        first[1:] = lh_s[1:] != lh_s[:-1]
        dropped = order[~first]  # every occurrence but the global first
        return pa.table({id_col: pa.array(did[dropped], type=pa.int64()),
                         "idx": pa.array(idx[dropped], type=pa.int64())})

    drops = ds.map_batches(_occurrences, batch_format="pyarrow").groupby(
        "_g").map_groups(_drops, batch_format="pyarrow").materialize()

    use_broadcast = plan == "broadcast" or (
        plan == "auto" and drops.size_bytes() * 5 <= broadcast_budget)
    if use_broadcast:
        ddf = drops.to_pandas()
        if len(ddf) == 0:  # empty Datasets lose their schema in pandas
            dd = np.array([], dtype=np.int64)
            di = np.array([], dtype=np.int64)
        else:
            dd = ddf[id_col].to_numpy()
            di = ddf["idx"].to_numpy()
        order = np.lexsort((di, dd))
        lut_ref = put_once((dd[order], di[order]))

        def _apply(batch: pa.Table) -> pa.Table:
            dd, di = resolve_broadcast(lut_ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(dd, ids, side="left")
            hi = np.searchsorted(dd, ids, side="right")
            span = hi - lo
            take = np.repeat(lo, span) + (
                np.arange(int(span.sum()))
                - np.repeat(np.concatenate([[0], np.cumsum(span)[:-1]]),
                            span))
            n, rem, clean = _rebuild_without_lines(
                batch[text_col], ids, dd[take], di[take])
            return pa.table({id_col: batch[id_col],
                             "n_lines": pa.array(n, type=pa.int64()),
                             "n_lines_removed": pa.array(rem, pa.int64()),
                             "text_clean": clean})

        return ds.map_batches(_apply, batch_format="pyarrow")

    # grouped co-group: tag + union + ONE doc-salted bounded-group
    # shuffle (the only plan that moves text, exactly once)
    def _tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        g2 = ((ids.astype(np.uint64) * _MIX64) % np.uint64(num_groups)
              ).astype(np.int64)
        return pa.table({id_col: batch[id_col], "_text": batch[text_col],
                         "idx": pa.array(np.full(len(ids), -1), pa.int64()),
                         "_g2": pa.array(g2, type=pa.int64())})

    def _tag_drops(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        g2 = ((ids.astype(np.uint64) * _MIX64) % np.uint64(num_groups)
              ).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "_text": pa.nulls(len(ids), type=pa.string()),
                         "idx": batch["idx"],
                         "_g2": pa.array(g2, type=pa.int64())})

    union = ds.map_batches(_tag_docs, batch_format="pyarrow").union(
        drops.map_batches(_tag_drops, batch_format="pyarrow"))

    def _co_group(group: pa.Table) -> pa.Table:
        idx = group["idx"].to_numpy(zero_copy_only=False)
        is_doc = idx == -1
        docs = group.filter(pa.array(is_doc))
        dr = group.filter(pa.array(~is_doc))
        ids = docs[id_col].to_numpy(zero_copy_only=False)
        n, rem, clean = _rebuild_without_lines(
            docs["_text"], ids,
            dr[id_col].to_numpy(zero_copy_only=False),
            dr["idx"].to_numpy(zero_copy_only=False))
        return pa.table({id_col: docs[id_col],
                         "n_lines": pa.array(n, type=pa.int64()),
                         "n_lines_removed": pa.array(rem, pa.int64()),
                         "text_clean": clean})

    return union.groupby("_g2").map_groups(_co_group,
                                           batch_format="pyarrow")


def deterministic_shuffle_rank(ds: "ray.data.Dataset",
                               id_col: str = "doc_id", seed: int = 7,
                               out_col: str = "shuffle_rank",
                               ) -> "ray.data.Dataset":
    """Reproducible epoch shuffle for training-data ordering: assign
    every row its position in the total order of
    ``md5_le64(str(id) || '#' || str(seed))`` (ties — impossible at
    realistic scale but defined anyway — break on the id). The order is
    a pure function of (id, seed): identical across runs, retries, and
    cluster sizes, and a different permutation per epoch seed — the
    property an RNG-state shuffle cannot give a distributed retryable
    pipeline.

    Scale shape: one hash map_batches + one sort(hash) shuffle
    (range-partitioned, internally sorted blocks), then the same
    O(#blocks)-driver-rows offset table the prefix-sum op uses
    (text/chunking.py::pack_stream_assign) turns per-block positions
    into global ranks. SQL mirror: ROW_NUMBER() OVER (ORDER BY
    <md5-LE expr>, id) - 1."""
    from ..dedup.hashing import hash_words_arrow
    from .chunking import block_offset

    def _key(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        s = pc.binary_join_element_wise(
            pc.cast(ids, pa.string()), pa.scalar(f"#{seed}"), "")
        h = hash_words_arrow(s)
        return pa.table({id_col: ids,
                         "_sk": pa.array(h, type=pa.uint64())})

    keyed = ds.select_columns([id_col]).map_batches(
        _key, batch_format="pyarrow").sort(["_sk", id_col]).materialize()

    def _partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"min_sk": pa.array([], type=pa.uint64()),
                             "min_id": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        return pa.table({
            "min_sk": batch["_sk"].take(pa.array([0])),
            "min_id": batch[id_col].take(pa.array([0])).cast(pa.int64()),
            "n": pa.array([len(batch)], type=pa.int64())})

    parts = keyed.map_batches(_partial, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    parts = parts.sort_values(["min_sk", "min_id"], ignore_index=True)
    offs = np.concatenate([[0], np.cumsum(parts["n"].to_numpy())[:-1]])
    key_arr = parts["min_sk"].to_numpy().astype(np.uint64)
    ref = ray.put((key_arr, offs.astype(np.int64)))

    def _rank(batch: pa.Table) -> pa.Table:
        keys, offsets = ray.get(ref)
        n = len(batch)
        if n == 0:
            return pa.table({id_col: batch[id_col],
                             out_col: pa.array([], type=pa.int64())})
        # block identity: sorted blocks have unique (min_sk, min_id);
        # min_sk alone suffices unless two blocks share their first
        # hash, which needs a 64-bit collision AND a block split there
        off = block_offset(keys, offsets, np.uint64(batch["_sk"][0].as_py()))
        return pa.table({
            id_col: batch[id_col],
            out_col: pa.array(off + np.arange(n, dtype=np.int64),
                              type=pa.int64())})

    return keyed.map_batches(_rank, batch_format="pyarrow",
                             batch_size=None)


def assign_splits(ds: "ray.data.Dataset",
                  fractions: dict[str, int] | None = None,
                  mod: int = 100, salt: str = "split",
                  id_col: str = "doc_id") -> "ray.data.Dataset":
    """Deterministic train/val/test split assignment: split =
    first bucket whose cumulative share exceeds
    ``md5_le64(str(id) || '#' || salt) % mod`` (fractions in units of
    1/mod, in dict order). A pure function of (id, salt): stable across
    runs/retries/cluster sizes, membership testable per row with no
    scan, and independent of the sampling/shuffle hashes (different
    salt). One corpus scan, zero shuffles; the CASE-chain SQL oracle
    uses the same md5-LE fold."""
    from ..dedup.hashing import hash_words_arrow

    fractions = fractions or {"train": 90, "val": 5, "test": 5}
    if sum(fractions.values()) != mod:
        raise ValueError("fractions must sum to mod")
    names = list(fractions)
    cuts = np.cumsum([fractions[n] for n in names]).astype(np.uint64)

    def _assign(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks()
        s = pc.binary_join_element_wise(
            pc.cast(ids, pa.string()), pa.scalar(f"#{salt}"), "")
        h = hash_words_arrow(s) % np.uint64(mod)
        which = np.searchsorted(cuts, h, side="right")
        split = np.array(names, dtype=object)[which]
        return pa.table({id_col: ids,
                         "split": pa.array(split, type=pa.string())})

    return ds.map_batches(_assign, batch_format="pyarrow")


def langid_confusion(ds: "ray.data.Dataset", lang_col: str = "lang",
                     text_col: str = "text") -> "ray.data.Dataset":
    """Dataset composition report: confusion counts between the labeled
    language column and the n-gram-heuristic prediction
    (text/analysis.add_langid) — the QA table behind "how much of each
    labeled language does the classifier agree with". Per-batch Arrow
    pair-count partials (≤ #langs² rows/batch) → one tiny groupby Sum;
    the corpus is never shuffled."""
    from .analysis import add_langid

    def _partial(batch: pa.Table) -> pa.Table:
        batch = add_langid(batch, text_col=text_col)
        t = pa.table({lang_col: batch[lang_col],
                      "lang_pred": batch["lang_pred"]})
        g = t.group_by([lang_col, "lang_pred"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([lang_col, "lang_pred", "partial"])

    def _split_key(batch: pa.Table) -> pa.Table:
        parts = pc.split_pattern(batch["_k"], "\x1f")
        return pa.table({
            lang_col: pc.list_element(parts, 0),
            "lang_pred": pc.list_element(parts, 1),
            "n": batch["n"]})

    def _join_key(batch: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            batch[lang_col].combine_chunks().cast(pa.string()),
            batch["lang_pred"].combine_chunks().cast(pa.string()), "\x1f")
        return pa.table({"_k": k, "partial": batch["partial"]})

    partials = ds.map_batches(_partial, batch_format="pyarrow").map_batches(
        _join_key, batch_format="pyarrow")
    summed = partials.groupby("_k").aggregate(Sum("partial", alias_name="n"))
    return summed.map_batches(_split_key, batch_format="pyarrow")


def histogram_int(ds: "ray.data.Dataset", value_col: str,
                  bins: int = 20) -> "ray.data.Dataset":
    """Equal-width histogram of an integer column (the corpus-stats
    op behind length/quality distribution dashboards): bin width =
    ceil((max - min + 1) / bins), bin = (v - min) // width; emits
    (bin, bin_lo, bin_hi, n) for every NON-EMPTY bin — exact integers
    throughout, so the SQL floor-division oracle matches bit-exactly.

    Scale shape: one Min/Max aggregate fixes the edges; one corpus scan
    emits per-batch bincount partials (<= ``bins`` rows per batch); a
    ``bins``-sized groupby Sum finalizes. The corpus is never
    shuffled. Null values are skipped. An empty input or an all-null
    column has no edges and raises ValueError."""
    from ray.data.aggregate import Max, Min

    mm = ds.aggregate(Min(value_col), Max(value_col))
    if mm[f"min({value_col})"] is None:
        raise ValueError(f"histogram_int: {value_col!r} has no non-null "
                         "value (empty input or all-null column)")
    lo = int(mm[f"min({value_col})"])
    hi = int(mm[f"max({value_col})"])
    width = max((hi - lo + bins) // bins, 1)

    def _partial(batch: pa.Table) -> pa.Table:
        # nulls are not counted, as SQL COUNT(v) skips them
        v = pc.drop_null(batch[value_col]).to_numpy(
            zero_copy_only=False).astype(np.int64)
        bc = np.bincount((v - lo) // width)
        nzb = np.flatnonzero(bc)
        return pa.table({"bin": pa.array(nzb, type=pa.int64()),
                         "partial": pa.array(bc[nzb], type=pa.int64())})

    agg = ds.map_batches(_partial, batch_format="pyarrow").groupby(
        "bin").aggregate(Sum("partial", alias_name="n"))

    def _edges(batch: pa.Table) -> pa.Table:
        b = batch["bin"].to_numpy(zero_copy_only=False)
        return pa.table({
            "bin": batch["bin"],
            "bin_lo": pa.array(lo + b * width, type=pa.int64()),
            "bin_hi": pa.array(lo + (b + 1) * width - 1, type=pa.int64()),
            "n": batch["n"],
        })

    return agg.map_batches(_edges, batch_format="pyarrow")


def build_ngram_blocklist(ds: "ray.data.Dataset", n: int = 5,
                          every: int = 101, id_col: str = "doc_id",
                          text_col: str = "text") -> np.ndarray:
    """Sorted distinct 64-bit word-``n``-gram hashes of every
    ``every``-th document — the deterministic stand-in for an external
    eval-set n-gram table (in production the eval corpus is a fixed
    bounded artifact; deriving it from the corpus keeps this
    self-contained and oracle-checkable). N-gram identity is the same
    polynomial shingle hash the MinHash path uses (collision-free at
    this scale — dedup/minhash.py's exact-Jaccard oracle already relies
    on that equivalence)."""
    from ..dedup.hashing import shingle_hashes_batch, tokenize_arrow

    def _grams(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sel = batch.filter(pa.array(ids % every == 0))
        if len(sel) == 0:
            return pa.table({"gh": pa.array([], type=pa.int64())})
        whash, offsets, counts = tokenize_arrow(sel[text_col])
        flat, out_offs = shingle_hashes_batch(whash, offsets, n)
        doc_of = np.repeat(np.arange(len(counts)), np.diff(out_offs))
        # docs with < n words contribute no n-grams (mask the short fold)
        gh = np.unique(flat[counts[doc_of] >= n].view(np.int64))
        return pa.table({"gh": pa.array(gh, type=pa.int64())})

    rows = ds.map_batches(_grams, batch_format="pyarrow").take_all()
    return np.unique(np.array([r["gh"] for r in rows], dtype=np.int64))


def ngram_decontaminate(ds: "ray.data.Dataset", n: int = 5,
                        every: int = 101, id_col: str = "doc_id",
                        text_col: str = "text") -> "ray.data.Dataset":
    """Eval-set n-gram decontamination (the GPT-3 appendix-C method,
    Brown et al. 2020: flag training docs sharing any word n-gram with
    an eval set; 13-grams there, parameterized here): per doc,
    ``n_gram_hits`` = number of DISTINCT eval n-grams it contains.
    Unlike ``decontaminate`` (verbatim phrase substrings), membership
    is at the tokenized n-gram level — robust to surrounding text.

    Scale shape: the eval n-gram hash table is a bounded small side
    broadcast once via ``ray.put``; each batch computes its docs'
    distinct n-gram hashes (one vectorized shingle fold) and counts
    membership with a searchsorted against the sorted blocklist — the
    corpus is scanned once and never shuffled."""
    from ..dedup.hashing import shingle_hashes_batch, tokenize_arrow

    bl = build_ngram_blocklist(ds, n, every, id_col, text_col)
    bl_ref = ray.put(bl)

    def _score(batch: pa.Table) -> pa.Table:
        grams = ray.get(bl_ref)
        whash, offsets, counts = tokenize_arrow(batch[text_col])
        nd = len(counts)
        flat, out_offs = shingle_hashes_batch(whash, offsets, n)
        doc_of = np.repeat(np.arange(nd), np.diff(out_offs))
        valid = counts[doc_of] >= n
        sh, d = flat[valid].view(np.int64), doc_of[valid]
        # distinct per doc (each doc lives in one batch)
        order = np.lexsort((sh, d))
        sh, d = sh[order], d[order]
        if len(sh):
            first = np.ones(len(sh), dtype=bool)
            first[1:] = (d[1:] != d[:-1]) | (sh[1:] != sh[:-1])
            sh, d = sh[first], d[first]
        if len(grams) == 0:
            hits = np.zeros(nd, dtype=np.int64)
        else:
            idx = np.searchsorted(grams, sh)
            hit = (idx < len(grams)) & (
                grams[np.minimum(idx, len(grams) - 1)] == sh)
            hits = np.bincount(d[hit], minlength=nd).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "n_gram_hits": pa.array(hits, type=pa.int64())})

    return ds.map_batches(_score, batch_format="pyarrow")


def filter_by_group_quantile(ds: "ray.data.Dataset", value_col: str,
                             key_col: str, q: float = 0.5,
                             ) -> "ray.data.Dataset":
    """Quality-threshold data selection: keep rows whose ``value_col``
    is >= their group's q-th DISCRETE quantile (DuckDB quantile_disc
    definition — sorted[ceil(q*n) - 1] — so integer thresholds compare
    bit-exactly; see stages/quantiles.py). The canonical curation step
    "keep the top half of each language by quality score".

    Scale shape: thresholds come from ONE bounded groupby(key) shuffle
    (stages/quantiles.group_quantiles — the group key is a stratum:
    language / domain / source, a small dimension); the per-stratum
    threshold table is broadcast once via ray.put and the corpus is
    scanned exactly once with a vectorized compare — never shuffled.
    For an unbounded key this would become a hash join on the key; the
    stratum contract keeps it a broadcast. Thresholds come from the
    histogram exact-quantile path (group_quantiles_hist), so a stratum
    of any row count still fits its task."""
    from ..stages.quantiles import group_quantiles_hist
    from ..state.broadcast import put_once, resolve_broadcast

    col = f"p{round(q * 1000):03d}"
    thr = group_quantiles_hist(ds.select_columns([key_col, value_col]),
                               value_col, key_col, qs=(q,)).to_pandas()
    thr_ref = put_once(dict(zip(thr[key_col], thr[col])))

    def _keep(batch: pa.Table) -> pa.Table:
        thr_by_key = resolve_broadcast(thr_ref)
        enc = batch[key_col].combine_chunks().dictionary_encode()
        # only the (few) distinct strata cross into Python
        tvals = np.array([thr_by_key[v] for v in enc.dictionary.to_pylist()],
                         dtype=np.int64)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(v >= tvals[codes]))

    return ds.map_batches(_keep, batch_format="pyarrow")
