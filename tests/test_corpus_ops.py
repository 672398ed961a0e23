"""Corpus-level text operators (feasts_ray/text/corpus.py): word-freq
top-k, blocklist decontamination, deterministic stratified sampling —
each checked bitwise against an in-suite DuckDB oracle on a synthetic
frame with deliberate edge cases (ties, multi-space text, empty docs,
short docs, unknown strata)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray

from feasts_ray.text.corpus import (build_blocklist, decontaminate,
                                    sample_stratified, word_freq_topk)

DOCS = pd.DataFrame({
    "doc_id": np.arange(606, dtype=np.int64),
    "text": (
        # doc 0: a blocklist source (>= 8 words); appears verbatim in 3, 5
        ["alpha beta gamma delta epsilon zeta eta theta tail0"]
        + ["  multi   space\tand\nnewline words here  "]      # 1: odd ws
        + [""]                                                 # 2: empty
        + ["x alpha beta gamma delta epsilon zeta eta theta y"]  # 3: hit
        + ["short doc"]                                        # 4: <8 words
        + ["alpha beta gamma delta epsilon zeta eta theta"]    # 5: hit
        + [f"filler common word{u % 7} unique{u}" for u in range(600)]
    ),
    "lang": (["en", "en", "de", "fr", "zz", "es"]
             + ["en" if u % 2 == 0 else "fr" for u in range(600)]),
    "source": ["s0"] * 606,
})
# doc 101, 202, ...: more blocklist sources (only those with >= 8 words
# qualify; the filler docs have 5 words so they do NOT)


@pytest.fixture()
def docs_ds(ray_session):
    return ray.data.from_pandas(DOCS.copy()).repartition(4)


def _con():
    con = duckdb.connect()
    con.register("documents", DOCS)
    return con


class TestWordFreqTopK:
    def test_matches_duckdb(self, docs_ds):
        got = word_freq_topk(docs_ds, k=20)
        exp = _con().execute("""
            WITH words AS (SELECT unnest(list_filter(
              string_split_regex(text, '\\s+'), w -> w <> '')) AS word
              FROM documents)
            SELECT word, CAST(COUNT(*) AS BIGINT) AS total FROM words
            GROUP BY word ORDER BY total DESC, word ASC LIMIT 20
        """).df()
        pd.testing.assert_frame_equal(got.reset_index(drop=True), exp)

    def test_tie_break_deterministic(self, docs_ds):
        # word0..word6 all appear ~86 times — ties must break on word ASC
        got = word_freq_topk(docs_ds, k=10)
        totals = got["total"].to_numpy()
        assert (totals[:-1] >= totals[1:]).all()
        for t in np.unique(totals):
            ws = got.loc[got["total"] == t, "word"].tolist()
            assert ws == sorted(ws)


class TestDecontaminate:
    def test_blocklist_contents(self, docs_ds):
        bl = build_blocklist(docs_ds, every=101, n_words=8)
        # docs 0, 101, 202, 303, 404, 505 selected; filler docs have
        # 5 words so only doc 0 qualifies
        assert bl == ["alpha beta gamma delta epsilon zeta eta theta"]

    def test_matches_duckdb(self, docs_ds):
        got = (decontaminate(docs_ds, every=101, n_words=8)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        exp = _con().execute("""
            WITH ws AS (SELECT doc_id, list_filter(
                string_split_regex(text, '\\s+'), w -> w <> '') AS ws
              FROM documents),
            bl AS (SELECT DISTINCT array_to_string(ws[1:8], ' ') AS phrase
                   FROM ws WHERE doc_id % 101 = 0 AND len(ws) >= 8)
            SELECT d.doc_id, CAST((SELECT COUNT(*) FROM bl
              WHERE strpos(d.text, bl.phrase) > 0) AS BIGINT) AS n_hits
            FROM documents d ORDER BY d.doc_id
        """).df()
        pd.testing.assert_frame_equal(got, exp)
        hits = got.set_index("doc_id")["n_hits"]
        assert hits[0] == 1 and hits[3] == 1 and hits[5] == 1  # planted
        assert hits[4] == 0 and hits[2] == 0


class TestSampleStratified:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.oracle.simhash_sql import word_hash_expr

        got = (sample_stratified(docs_ds, rates={"en": 5}, default_rate=25)
               .to_pandas().sort_values("doc_id").reset_index(drop=True)
               [["doc_id", "lang", "source"]])
        exp = _con().execute(f"""
            SELECT doc_id, lang, source FROM documents
            WHERE {word_hash_expr("CAST(doc_id AS VARCHAR)")} % 100 <
              CASE WHEN lang = 'en' THEN 5 ELSE 25 END
            ORDER BY doc_id
        """).df()
        pd.testing.assert_frame_equal(got, exp)

    def test_rates_and_determinism(self, docs_ds):
        s1 = sample_stratified(docs_ds, rates={"en": 5}, default_rate=25
                               ).to_pandas().sort_values("doc_id")
        s2 = sample_stratified(docs_ds, rates={"en": 5}, default_rate=25
                               ).to_pandas().sort_values("doc_id")
        pd.testing.assert_frame_equal(s1.reset_index(drop=True),
                                      s2.reset_index(drop=True))
        n_en = len(DOCS[DOCS.lang == "en"])
        n_rest = len(DOCS) - n_en
        k_en = (s1.lang == "en").sum()
        k_rest = len(s1) - k_en
        # loose binomial bounds — deterministic, so these never flake
        assert 0 < k_en < 0.15 * n_en
        assert 0.12 * n_rest < k_rest < 0.40 * n_rest


class TestTopkPerGroup:
    def test_matches_duckdb_row_number(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import topk_per_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow"
        ).select_columns(["lang", "doc_id", "n_words"])
        got = (topk_per_group(scored, "lang", ["n_words", "doc_id"],
                              [False, True], k=3)
               .to_pandas().sort_values(["lang", "doc_id"])
               .reset_index(drop=True)[["lang", "doc_id", "n_words"]])
        exp = _con().execute("""
            WITH nw AS (SELECT lang, doc_id,
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS n_words FROM documents),
            r AS (SELECT lang, doc_id, n_words, ROW_NUMBER() OVER (
              PARTITION BY lang ORDER BY n_words DESC, doc_id ASC) AS rn
              FROM nw)
            SELECT lang, doc_id, n_words FROM r WHERE rn <= 3
            ORDER BY lang, doc_id
        """).df()
        pd.testing.assert_frame_equal(got, exp)

    def test_small_group_returns_all(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import topk_per_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow"
        ).select_columns(["lang", "doc_id", "n_words"])
        got = topk_per_group(scored, "lang", ["n_words", "doc_id"],
                             [False, True], k=1000).to_pandas()
        # k exceeds every group: the op must return the whole input
        assert len(got) == len(DOCS)


class TestCountDistinct:
    def test_matches_duckdb(self, ray_session):
        from feasts_ray.text.corpus import count_distinct

        rng = np.random.default_rng(7)
        ev = pd.DataFrame({
            "event_type": rng.choice(["a", "b", "c"], size=5000),
            "user_id": rng.integers(0, 200, size=5000).astype(np.int64),
        })
        got = (count_distinct(ray.data.from_pandas(ev).repartition(8),
                              "event_type", "user_id", alias="n_users")
               .to_pandas().sort_values("event_type")
               .reset_index(drop=True))
        con = duckdb.connect()
        con.register("events", ev)
        exp = con.execute(
            "SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) "
            "AS n_users FROM events GROUP BY event_type "
            "ORDER BY event_type").df()
        pd.testing.assert_frame_equal(got, exp)

    def test_single_key_single_value(self, ray_session):
        from feasts_ray.text.corpus import count_distinct

        ev = pd.DataFrame({"k": ["x"] * 100,
                           "v": np.zeros(100, dtype=np.int64)})
        got = count_distinct(ray.data.from_pandas(ev).repartition(4),
                             "k", "v").to_pandas()
        assert got["n_distinct"].tolist() == [1]


class TestDupSpanStats:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.corpus import dup_span_stats

        got = (dup_span_stats(docs_ds, k=3).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        exp = _con().execute("""
            WITH w AS (SELECT doc_id, list_filter(
                string_split_regex(text, '\\s+'), x -> x <> '') AS ws
              FROM documents),
            tok AS (SELECT doc_id, unnest(ws) AS tkn,
                    generate_subscripts(ws, 1) AS i FROM w),
            tri AS (SELECT DISTINCT a.doc_id,
                    a.tkn || ' ' || b.tkn || ' ' || c.tkn AS sh FROM tok a
              JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
              JOIN tok c ON c.doc_id = a.doc_id AND c.i = a.i + 2),
            nd AS (SELECT sh, COUNT(*) AS n FROM tri GROUP BY sh)
            SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
              CAST(SUM(CASE WHEN nd.n >= 2 THEN 1 ELSE 0 END) AS BIGINT)
              AS n_dup_spans FROM tri t JOIN nd ON nd.sh = t.sh
            GROUP BY t.doc_id ORDER BY t.doc_id
        """).df()
        pd.testing.assert_frame_equal(got, exp)
        # short (<3 words) and empty docs are excluded by definition
        assert not set(got["doc_id"]) & {2, 4}
        # planted near-dups: docs 0/3/5 share the 8-word phrase's 3-grams
        row0 = got.set_index("doc_id").loc[0]
        assert row0["n_dup_spans"] >= 6

    def test_disjoint_corpus_has_no_dups(self, ray_session):
        from feasts_ray.text.corpus import dup_span_stats

        docs = pd.DataFrame({
            "doc_id": np.arange(50, dtype=np.int64),
            "text": [f"w{3*i} w{3*i+1} w{3*i+2} tail{i}" for i in range(50)],
        })
        got = dup_span_stats(ray.data.from_pandas(docs).repartition(4),
                             k=3).to_pandas()
        assert (got["n_dup_spans"] == 0).all()
        assert (got["n_spans"] == 2).all()


class TestCorpusOpsProperties:
    """Hypothesis property tests: the distributed kernels vs pure-Python
    brute force on arbitrary small corpora (ray_session is
    session-scoped, so per-example reuse is safe)."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.lists(st.lists(st.integers(0, 30), max_size=12),
                         min_size=1, max_size=30))
    def test_dup_span_stats_matches_bruteforce(self, ray_session, data):
        from collections import Counter

        from feasts_ray.text.corpus import dup_span_stats

        docs = pd.DataFrame({
            "doc_id": np.arange(len(data), dtype=np.int64),
            "text": [" ".join(f"w{t}" for t in toks) for toks in data],
        })
        got = dup_span_stats(ray.data.from_pandas(docs).repartition(3),
                             k=3).to_pandas()
        spans = {i: {tuple(toks[j:j + 3]) for j in range(len(toks) - 2)}
                 for i, toks in enumerate(data) if len(toks) >= 3}
        cnt = Counter(s for ss in spans.values() for s in ss)
        exp = {i: (len(ss), sum(1 for s in ss if cnt[s] >= 2))
               for i, ss in spans.items()}
        got_d = {int(r.doc_id): (int(r.n_spans), int(r.n_dup_spans))
                 for r in got.itertuples()}
        assert got_d == exp

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                                   st.integers(-5, 5)),
                         min_size=1, max_size=200))
    def test_count_distinct_matches_pandas(self, ray_session, rows):
        from feasts_ray.text.corpus import count_distinct

        df = pd.DataFrame(rows, columns=["k", "v"])
        df["v"] = df["v"].astype(np.int64)
        got = (count_distinct(ray.data.from_pandas(df).repartition(3),
                              "k", "v").to_pandas()
               .set_index("k")["n_distinct"].to_dict())
        exp = df.groupby("k")["v"].nunique().to_dict()
        assert got == exp

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["g1", "g2"]),
                                   st.integers(0, 9)),
                         min_size=1, max_size=100),
           k=st.integers(1, 5))
    def test_topk_per_group_matches_pandas(self, ray_session, rows, k):
        from feasts_ray.text.corpus import topk_per_group

        df = pd.DataFrame(rows, columns=["g", "score"])
        df["score"] = df["score"].astype(np.int64)
        df["rid"] = np.arange(len(df), dtype=np.int64)  # unique tiebreak
        got = topk_per_group(
            ray.data.from_pandas(df).repartition(3), "g",
            ["score", "rid"], [False, True], k=k).to_pandas()
        exp = df.sort_values(["score", "rid"], ascending=[False, True],
                             kind="mergesort").groupby("g", sort=False).head(k)
        key = ["g", "score", "rid"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True)[key],
            exp.sort_values(key).reset_index(drop=True)[key])


class TestRepetitionSignals:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.corpus import repetition_signals

        got = (repetition_signals(docs_ds, top_n=2, dup_n=3).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        exp = _con().execute(r"""
            WITH w AS (SELECT doc_id, list_filter(
                string_split_regex(text, '\s+'), x -> x <> '') AS ws
              FROM documents),
            tok AS (SELECT doc_id, unnest(ws) AS tkn,
                    generate_subscripts(ws, 1) AS i FROM w),
            tot AS (SELECT doc_id, CAST(SUM(length(tkn)) AS BIGINT) AS tc
                    FROM tok GROUP BY doc_id),
            bi AS (SELECT a.doc_id, a.i, a.tkn || ' ' || b.tkn AS g,
                          length(a.tkn) + length(b.tkn) + 1 AS cl
                   FROM tok a JOIN tok b
                   ON b.doc_id = a.doc_id AND b.i = a.i + 1),
            bc AS (SELECT doc_id, g, CAST(COUNT(*) AS BIGINT) AS n,
                   MAX(cl) AS cl FROM bi GROUP BY doc_id, g),
            bmax AS (SELECT doc_id, MAX(n) AS nmax FROM bc GROUP BY doc_id),
            topc AS (SELECT bc.doc_id,
                     CAST(bmax.nmax * MAX(bc.cl) AS BIGINT) AS top_chars
                     FROM bc JOIN bmax ON bmax.doc_id = bc.doc_id
                     AND bc.n = bmax.nmax GROUP BY bc.doc_id, bmax.nmax),
            tri AS (SELECT a.doc_id, a.i,
                    a.tkn || ' ' || b.tkn || ' ' || c.tkn AS g
                    FROM tok a
                    JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
                    JOIN tok c ON c.doc_id = a.doc_id AND c.i = a.i + 2),
            dupg AS (SELECT doc_id, g FROM tri GROUP BY doc_id, g
                     HAVING COUNT(*) >= 2),
            dpos AS (SELECT DISTINCT t.doc_id, t.i + u.o AS j
                     FROM tri t JOIN dupg d
                     ON d.doc_id = t.doc_id AND d.g = t.g
                     CROSS JOIN generate_series(0, 2) AS u(o)),
            cov AS (SELECT p.doc_id, CAST(SUM(length(k.tkn)) AS BIGINT)
                    AS cc FROM dpos p JOIN tok k
                    ON k.doc_id = p.doc_id AND k.i = p.j GROUP BY p.doc_id)
            SELECT d.doc_id, COALESCE(tot.tc, 0) AS word_chars,
              COALESCE(topc.top_chars, 0) AS top_ngram_chars,
              CASE WHEN COALESCE(tot.tc, 0) > 0 THEN
                CAST(COALESCE(topc.top_chars, 0) AS DOUBLE) /
                CAST(tot.tc AS DOUBLE) ELSE 0.0 END AS top_ngram_frac,
              COALESCE(cov.cc, 0) AS dup_ngram_chars,
              CASE WHEN COALESCE(tot.tc, 0) > 0 THEN
                CAST(COALESCE(cov.cc, 0) AS DOUBLE) /
                CAST(tot.tc AS DOUBLE) ELSE 0.0 END AS dup_ngram_frac
            FROM documents d
            LEFT JOIN tot ON tot.doc_id = d.doc_id
            LEFT JOIN topc ON topc.doc_id = d.doc_id
            LEFT JOIN cov ON cov.doc_id = d.doc_id
            ORDER BY d.doc_id
        """).df()
        exp["doc_id"] = exp["doc_id"].astype("int64")
        pd.testing.assert_frame_equal(got, exp)
        # empty and 1-word docs: all zeros
        z = got.set_index("doc_id")
        assert z.loc[2, "word_chars"] == 0 and z.loc[2, "top_ngram_frac"] == 0.0

    def test_bruteforce_semantics(self, ray_session):
        from feasts_ray.text.corpus import repetition_signals

        # "a b a b a b c": top bigram ("a","b") occurs 3x, joined len 3;
        # every trigram ("a b a", "b a b") duplicated -> full coverage
        df = pd.DataFrame({"doc_id": np.array([0], dtype=np.int64),
                           "text": ["a b a b a b c"]})
        got = repetition_signals(
            ray.data.from_pandas(df), top_n=2, dup_n=3).to_pandas()
        r = got.iloc[0]
        assert r["word_chars"] == 7
        assert r["top_ngram_chars"] == 9          # 3 occurrences x len 3
        assert r["top_ngram_frac"] == 9 / 7.0     # overlaps double-count
        assert r["dup_ngram_chars"] == 6          # words 0..5 covered, not "c"
        assert r["dup_ngram_frac"] == 6 / 7.0

    @settings(max_examples=15, deadline=None)
    @given(data=st.lists(st.lists(st.integers(0, 6), max_size=12),
                         min_size=1, max_size=25))
    def test_matches_bruteforce(self, ray_session, data):
        from collections import Counter

        from feasts_ray.text.corpus import repetition_signals

        docs = pd.DataFrame({
            "doc_id": np.arange(len(data), dtype=np.int64),
            "text": [" ".join(f"w{t}" for t in toks) for toks in data],
        })
        got = repetition_signals(
            ray.data.from_pandas(docs).repartition(3),
            top_n=2, dup_n=3).to_pandas().set_index("doc_id")
        for i, toks in enumerate(data):
            words = [f"w{t}" for t in toks]
            tc = sum(len(w) for w in words)
            bigrams = [tuple(words[j:j + 2]) for j in range(len(words) - 1)]
            top = 0
            if bigrams:
                cnt = Counter(bigrams)
                nmax = max(cnt.values())
                cl = max(len(" ".join(g)) for g, n in cnt.items()
                         if n == nmax)
                top = nmax * cl
            tris = [tuple(words[j:j + 3]) for j in range(len(words) - 2)]
            covered = set()
            cnt3 = Counter(tris)
            for j, g in enumerate(tris):
                if cnt3[g] >= 2:
                    covered.update(range(j, j + 3))
            cc = sum(len(words[j]) for j in covered)
            row = got.loc[i]
            assert int(row["word_chars"]) == tc
            assert int(row["top_ngram_chars"]) == top
            assert int(row["dup_ngram_chars"]) == cc
            assert row["top_ngram_frac"] == (top / float(tc) if tc else 0.0)
            assert row["dup_ngram_frac"] == (cc / float(tc) if tc else 0.0)


class TestTfidfTopTerms:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.corpus import tfidf_top_terms

        got = (tfidf_top_terms(docs_ds, num_groups=8).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        exp = _con().execute(r"""
            WITH w AS (SELECT doc_id, list_filter(
                string_split_regex(text, '\s+'), x -> x <> '') AS ws
              FROM documents),
            tok AS (SELECT doc_id, unnest(ws) AS tkn FROM w),
            tf AS (SELECT doc_id, tkn, CAST(COUNT(*) AS BIGINT) AS tf
                   FROM tok GROUP BY doc_id, tkn),
            df AS (SELECT tkn, CAST(COUNT(*) AS BIGINT) AS df FROM
                   (SELECT DISTINCT doc_id, tkn FROM tok) GROUP BY tkn),
            s AS (SELECT tf.doc_id, tf.tkn AS term, tf.tf, df.df,
                  CAST(tf.tf AS DOUBLE) / CAST(df.df AS DOUBLE) AS score,
                  ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                    ORDER BY CAST(tf.tf AS DOUBLE) / CAST(df.df AS DOUBLE)
                    DESC, tf.tkn ASC) AS rn
                  FROM tf JOIN df ON df.tkn = tf.tkn)
            SELECT doc_id, term, tf, df, score FROM s WHERE rn = 1
            ORDER BY doc_id
        """).df()
        exp["doc_id"] = exp["doc_id"].astype("int64")
        pd.testing.assert_frame_equal(got, exp)
        # empty doc 2 contributes no row; unique{u} terms (df=1) win
        assert 2 not in set(got["doc_id"])
        filler = got.set_index("doc_id").loc[6]
        assert filler["term"] == "unique0" and filler["df"] == 1

    @settings(max_examples=15, deadline=None)
    @given(data=st.lists(st.lists(st.integers(0, 6), min_size=0,
                                  max_size=10),
                         min_size=1, max_size=25))
    def test_matches_bruteforce(self, ray_session, data):
        from collections import Counter

        from feasts_ray.text.corpus import tfidf_top_terms

        docs = pd.DataFrame({
            "doc_id": np.arange(len(data), dtype=np.int64),
            "text": [" ".join(f"w{t}" for t in toks) for toks in data],
        })
        got = tfidf_top_terms(
            ray.data.from_pandas(docs).repartition(3),
            num_groups=4).to_pandas()
        if "doc_id" not in got.columns:
            # all-empty corpus: Ray drops the schema of an empty grouped
            # dataset — nothing to compare beyond "no rows"
            assert len(got) == 0 and all(len(t) == 0 for t in data)
            return
        got = got.set_index("doc_id")
        dfc = Counter()
        for toks in data:
            dfc.update({f"w{t}" for t in toks})
        for i, toks in enumerate(data):
            words = [f"w{t}" for t in toks]
            if not words:
                assert i not in got.index
                continue
            tfs = Counter(words)
            best = min(tfs, key=lambda w: (-(tfs[w] / dfc[w]), w))
            row = got.loc[i]
            assert row["term"] == best
            assert int(row["tf"]) == tfs[best]
            assert int(row["df"]) == dfc[best]
            assert row["score"] == tfs[best] / float(dfc[best])


class TestFilterByGroupQuantile:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import filter_by_group_quantile

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "lang", "n_words"])
        got = (filter_by_group_quantile(scored, "n_words", "lang", q=0.5)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        exp = _con().execute(r"""
            WITH nw AS (SELECT doc_id, lang,
              CAST(CASE WHEN regexp_replace(text, '^\s+|\s+$', '', 'g') = ''
                THEN 0 ELSE len(regexp_split_to_array(
                regexp_replace(text, '^\s+|\s+$', '', 'g'), '\s+')) END
                AS BIGINT) AS n_words FROM documents),
            t AS (SELECT lang, quantile_disc(n_words, 0.5) AS thr
                  FROM nw GROUP BY lang)
            SELECT nw.doc_id, nw.lang, nw.n_words FROM nw
            JOIN t ON t.lang = nw.lang WHERE nw.n_words >= t.thr
            ORDER BY nw.doc_id
        """).df()
        exp["doc_id"] = exp["doc_id"].astype("int64")
        pd.testing.assert_frame_equal(got, exp)
        assert len(got) > 0

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["g1", "g2", "g3"]),
                                   st.integers(0, 20)),
                         min_size=1, max_size=120),
           q=st.sampled_from([0.25, 0.5, 0.9]))
    def test_matches_bruteforce(self, ray_session, rows, q):
        import math

        from feasts_ray.text.corpus import filter_by_group_quantile

        df = pd.DataFrame(rows, columns=["g", "v"])
        df["v"] = df["v"].astype(np.int64)
        df["rid"] = np.arange(len(df), dtype=np.int64)
        got = (filter_by_group_quantile(
            ray.data.from_pandas(df).repartition(3), "v", "g", q=q)
            .to_pandas().sort_values("rid").reset_index(drop=True))
        thr = {g: sorted(s)[max(math.ceil(q * len(s)) - 1, 0)]
               for g, s in df.groupby("g")["v"]}
        exp = df[df.apply(lambda r: r["v"] >= thr[r["g"]], axis=1)
                 ].sort_values("rid").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["g", "v", "rid"]], exp[["g", "v", "rid"]])


class TestPercentRankByGroup:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import percent_rank_by_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "lang", "n_words"])
        got = percent_rank_by_group(scored, "n_words", "lang").to_pandas()
        got = got.sort_values("doc_id", ignore_index=True)
        exp = _con().execute("""
            WITH nw AS (SELECT doc_id, lang,
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS n_words FROM documents)
            SELECT doc_id, lang, n_words, PERCENT_RANK() OVER (
              PARTITION BY lang ORDER BY n_words) AS pct_rank FROM nw
            ORDER BY doc_id""").df()
        assert (got["n_words"].to_numpy() == exp["n_words"].to_numpy()).all()
        # one IEEE division of exact ints on both sides: bitwise equal
        assert (got["pct_rank"].to_numpy().view(np.int64)
                == exp["pct_rank"].to_numpy().view(np.int64)).all()

    def test_single_row_stratum_scores_zero(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import percent_rank_by_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "lang", "n_words"])
        got = percent_rank_by_group(scored, "n_words", "lang").to_pandas()
        # 'zz' and 'es' each have exactly one doc
        for lang in ("zz", "es"):
            assert (got.loc[got["lang"] == lang, "pct_rank"] == 0.0).all()

    @given(vals=st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_brute_force_property(self, vals):
        """pct_rank == count(strictly less)/(n-1); heavy ties on purpose."""
        from feasts_ray.text.corpus import percent_rank_by_group

        df = pd.DataFrame({"doc_id": np.arange(len(vals), dtype=np.int64),
                           "lang": "en",
                           "n_words": np.array(vals, dtype=np.int64)})
        got = percent_rank_by_group(
            ray.data.from_pandas(df).repartition(3), "n_words", "lang"
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        v = np.array(vals, dtype=np.int64)
        n = len(v)
        want = np.zeros(n) if n == 1 else np.array(
            [(v < x).sum() / np.float64(n - 1) for x in v])
        assert (got["pct_rank"].to_numpy().view(np.int64)
                == want.view(np.int64)).all()


class TestNgramDecontaminate:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.corpus import ngram_decontaminate

        got = ngram_decontaminate(docs_ds, n=5, every=101).to_pandas()
        got = got.sort_values("doc_id", ignore_index=True)
        exp = _con().execute("""
            WITH w AS (SELECT doc_id, list_filter(
              string_split_regex(text, '\\s+'), x -> x <> '') AS ws
              FROM documents),
            g AS (SELECT DISTINCT doc_id, gram FROM (
              SELECT doc_id, unnest(list_transform(
                generate_series(1, len(ws) - 4),
                i -> array_to_string(ws[i:i+4], ' '))) AS gram
              FROM w WHERE len(ws) >= 5)),
            bl AS (SELECT DISTINCT gram FROM g WHERE doc_id % 101 = 0),
            h AS (SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n
              FROM g JOIN bl USING (gram) GROUP BY g.doc_id)
            SELECT d.doc_id, COALESCE(h.n, 0) AS n_gram_hits
            FROM documents d LEFT JOIN h ON h.doc_id = d.doc_id
            ORDER BY d.doc_id""").df()
        assert (got["n_gram_hits"].to_numpy()
                == exp["n_gram_hits"].to_numpy()).all()

    def test_planted_overlap_detected(self, docs_ds):
        from feasts_ray.text.corpus import ngram_decontaminate

        got = ngram_decontaminate(docs_ds, n=5, every=101).to_pandas()
        hits = dict(zip(got["doc_id"], got["n_gram_hits"]))
        # doc 0 IS the eval doc (9 words -> 5 distinct 5-grams, all hit)
        assert hits[0] == 5
        # doc 5 = doc 0's first 8 words -> 4 of its 5-grams are eval grams
        assert hits[5] == 4
        # doc 3 embeds those 8 words mid-string -> same 4 hits
        assert hits[3] == 4
        # short/filler docs (< 5 words) and empty docs: zero
        assert hits[2] == 0 and hits[4] == 0 and hits[100] == 0


class TestChunking:
    def test_chunk_words_matches_duckdb(self, docs_ds):
        from feasts_ray.text.chunking import chunk_words

        got = chunk_words(docs_ds, size=3).to_pandas().sort_values(
            ["doc_id", "chunk_idx"], ignore_index=True)
        exp = _con().execute("""
            WITH w AS (SELECT doc_id, list_filter(
              string_split_regex(text, '\\s+'), x -> x <> '') AS ws
              FROM documents),
            tok AS (SELECT doc_id, unnest(ws) AS tkn,
              generate_subscripts(ws, 1) AS i FROM w)
            SELECT doc_id, CAST((i - 1) // 3 AS BIGINT) AS chunk_idx,
              CAST(COUNT(*) AS BIGINT) AS n_words_chunk,
              CAST(SUM(length(tkn)) AS BIGINT) AS chunk_chars,
              arg_min(tkn, i) AS first_word, arg_max(tkn, i) AS last_word
            FROM tok GROUP BY doc_id, (i - 1) // 3
            ORDER BY doc_id, chunk_idx""").df()
        for c in ("doc_id", "chunk_idx", "n_words_chunk", "chunk_chars"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        for c in ("first_word", "last_word"):
            assert got[c].tolist() == exp[c].tolist(), c

    def test_chunk_list_roundtrip(self, ray_session):
        """No-drop chunks reassemble to the input lists exactly
        (zero-copy offsets path); drop_remainder drops only tails."""
        from feasts_ray.text.chunking import chunk_list_column

        rng = np.random.default_rng(7)
        lens = [0, 1, 4, 8, 9, 16, 17, 0, 5]
        toks = [rng.integers(0, 1000, size=n).astype(np.int32)
                for n in lens]
        tbl = pa.table({
            "doc_id": pa.array(np.arange(len(lens)), type=pa.int64()),
            "tokens": pa.array([t.tolist() for t in toks],
                               type=pa.list_(pa.int32()))})
        ds = ray.data.from_arrow(tbl)
        out = chunk_list_column(ds, "tokens", size=8).to_pandas()
        out = out.sort_values(["doc_id", "chunk_idx"], ignore_index=True)
        for d, sub in out.groupby("doc_id"):
            joined = np.concatenate([np.asarray(c) for c in sub["chunk"]])
            assert (joined == toks[d]).all()
            assert all(len(c) <= 8 for c in sub["chunk"])
        # empty docs emit no chunks
        assert set(out["doc_id"]) == {i for i, n in enumerate(lens) if n}

        dropped = chunk_list_column(ds, "tokens", size=8,
                                    drop_remainder=True).to_pandas()
        dropped = dropped.sort_values(["doc_id", "chunk_idx"],
                                      ignore_index=True)
        for d, sub in dropped.groupby("doc_id"):
            joined = np.concatenate([np.asarray(c) for c in sub["chunk"]])
            keep = (len(toks[d]) // 8) * 8
            assert (joined == toks[d][:keep]).all()
            assert all(len(c) == 8 for c in sub["chunk"])


class TestPackStreamAssign:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.chunking import pack_stream_assign

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "n_words"])
        got = pack_stream_assign(scored, "n_words", seq_len=7).to_pandas()
        got = got.sort_values("doc_id", ignore_index=True)
        exp = _con().execute("""
            WITH nw AS (SELECT doc_id,
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS n_words FROM documents),
            c AS (SELECT doc_id, n_words, CAST(SUM(n_words) OVER (
              ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum
              FROM nw)
            SELECT doc_id, n_words, cum - n_words AS cum_before,
              CASE WHEN n_words > 0 THEN (cum - n_words) // 7 END AS first_seq,
              CASE WHEN n_words > 0 THEN (cum - 1) // 7 END AS last_seq,
              CASE WHEN n_words > 0 THEN
                (cum - 1) // 7 - (cum - n_words) // 7 + 1
              ELSE 0 END AS n_seqs
            FROM c ORDER BY doc_id""").df()
        for c in ("n_words", "cum_before", "n_seqs"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        for c in ("first_seq", "last_seq"):
            g, e = got[c], exp[c]
            assert (g.isna() == e.isna()).all(), c
            m = ~g.isna()
            assert (g[m].to_numpy(np.int64) == e[m].to_numpy(np.int64)).all()

    @given(counts=st.lists(st.integers(0, 9), min_size=1, max_size=60),
           nblocks=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_prefix_sum_property(self, counts, nblocks):
        """The distributed prefix sum equals np.cumsum regardless of
        block count (empty docs included)."""
        from feasts_ray.text.chunking import pack_stream_assign

        df = pd.DataFrame({"doc_id": np.arange(len(counts), dtype=np.int64),
                           "n": np.array(counts, dtype=np.int64)})
        got = pack_stream_assign(
            ray.data.from_pandas(df.sample(frac=1.0, random_state=2)
                                 ).repartition(nblocks),
            "n", seq_len=5).to_pandas().sort_values(
            "doc_id", ignore_index=True)
        want = np.cumsum(counts) - np.array(counts)
        assert (got["cum_before"].to_numpy() == want).all()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64],
                             ids=["min_id", "min_sk"])
    def test_split_block_raises(self, dtype):
        """The offset lookup of pack_stream_assign and
        deterministic_shuffle_rank keys on a batch's first key: a whole
        sorted block finds its offset, and a batch that is the tail of a
        split block raises instead of taking its block's offset."""
        from feasts_ray.text.chunking import block_offset

        blocks = [np.arange(0, 5, dtype=dtype), np.arange(5, 12, dtype=dtype)]
        starts = np.array([b[0] for b in blocks], dtype=dtype)
        offsets = np.array([0, 5], dtype=np.int64)
        assert [block_offset(starts, offsets, b[0]) for b in blocks] == [0, 5]
        for tail in (blocks[0][3:], blocks[1][1:]):
            with pytest.raises(ValueError, match="not a whole sorted block"):
                block_offset(starts, offsets, tail[0])


class TestHistogramInt:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import histogram_int

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["n_words"])
        got = histogram_int(scored, "n_words", bins=10).to_pandas()
        got = got.sort_values("bin", ignore_index=True)
        exp = _con().execute("""
            WITH nw AS (SELECT
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS v FROM documents),
            w AS (SELECT MIN(v) AS lo,
              GREATEST((MAX(v) - MIN(v) + 10) // 10, 1) AS width FROM nw)
            SELECT CAST((v - lo) // width AS BIGINT) AS bin,
              CAST(lo + ((v - lo) // width) * width AS BIGINT) AS bin_lo,
              CAST(lo + ((v - lo) // width + 1) * width - 1 AS BIGINT) AS bin_hi,
              CAST(COUNT(*) AS BIGINT) AS n
            FROM nw, w GROUP BY (v - lo) // width, lo, width
            ORDER BY bin""").df()
        for c in ("bin", "bin_lo", "bin_hi", "n"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_constant_column_single_bin(self, ray_session):
        from feasts_ray.text.corpus import histogram_int

        df = pd.DataFrame({"v": np.full(50, 7, dtype=np.int64)})
        got = histogram_int(ray.data.from_pandas(df).repartition(3),
                            "v", bins=20).to_pandas()
        assert len(got) == 1
        assert got["bin"].iloc[0] == 0 and got["n"].iloc[0] == 50
        assert got["bin_lo"].iloc[0] == 7 and got["bin_hi"].iloc[0] == 7

    def test_empty_and_all_null_raise(self, ray_session):
        from feasts_ray.text.corpus import histogram_int

        for v in (pa.array([], pa.int64()), pa.nulls(5, pa.int64())):
            with pytest.raises(ValueError, match="no non-null value"):
                histogram_int(ray.data.from_arrow(pa.table({"v": v})), "v")


    def test_partly_null_skips_nulls_like_sql_count(self, ray_session):
        """Nulls are not binned: the counts match SQL COUNT(v), which
        skips them."""
        from feasts_ray.text.corpus import histogram_int

        t = pa.table({"v": pa.array([1, 2, None, 9], pa.int64())})
        got = histogram_int(ray.data.from_arrow(t), "v", bins=4).to_pandas()
        got = got.sort_values("bin", ignore_index=True)
        con = duckdb.connect()
        con.register("t", t)
        exp = con.execute("""
            WITH w AS (SELECT MIN(v) AS lo,
              GREATEST((MAX(v) - MIN(v) + 4) // 4, 1) AS width FROM t)
            SELECT CAST((v - lo) // width AS BIGINT) AS bin,
              CAST(lo + ((v - lo) // width) * width AS BIGINT) AS bin_lo,
              CAST(lo + ((v - lo) // width + 1) * width - 1 AS BIGINT) AS bin_hi,
              CAST(COUNT(v) AS BIGINT) AS n
            FROM t, w WHERE v IS NOT NULL GROUP BY (v - lo) // width, lo, width
            ORDER BY bin""").df()
        assert len(got) == len(exp) == 2
        for c in ("bin", "bin_lo", "bin_hi", "n"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


class TestDeterministicShuffleRank:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.oracle.simhash_sql import word_hash_expr
        from feasts_ray.text.corpus import deterministic_shuffle_rank

        got = deterministic_shuffle_rank(docs_ds, seed=7).to_pandas()
        got = got.sort_values("doc_id", ignore_index=True)
        exp = _con().execute(
            "SELECT doc_id, ROW_NUMBER() OVER (ORDER BY "
            + word_hash_expr("CAST(doc_id AS VARCHAR) || '#7'")
            + ", doc_id) - 1 AS shuffle_rank FROM documents "
            "ORDER BY doc_id").df()
        assert (got["shuffle_rank"].to_numpy()
                == exp["shuffle_rank"].to_numpy()).all()

    def test_permutation_and_seed_sensitivity(self, ray_session):
        from feasts_ray.text.corpus import deterministic_shuffle_rank

        df = pd.DataFrame({"doc_id": np.arange(777, dtype=np.int64)})
        a = deterministic_shuffle_rank(
            ray.data.from_pandas(df).repartition(5), seed=1).to_pandas()
        b = deterministic_shuffle_rank(
            ray.data.from_pandas(df).repartition(2), seed=1).to_pandas()
        c = deterministic_shuffle_rank(
            ray.data.from_pandas(df).repartition(5), seed=2).to_pandas()
        a = a.sort_values("doc_id", ignore_index=True)
        b = b.sort_values("doc_id", ignore_index=True)
        c = c.sort_values("doc_id", ignore_index=True)
        # a true permutation of 0..n-1
        assert sorted(a["shuffle_rank"]) == list(range(777))
        # block-count invariant (cluster-size reproducibility)
        assert (a["shuffle_rank"].to_numpy()
                == b["shuffle_rank"].to_numpy()).all()
        # a different seed gives a different permutation
        assert (a["shuffle_rank"].to_numpy()
                != c["shuffle_rank"].to_numpy()).any()


PII_DOCS = pd.DataFrame({
    "doc_id": np.arange(6, dtype=np.int64),
    "text": [
        "contact bob.smith+tag@test-site.org and alice@x.io today",
        "server at 10.0.0.1 and 192.168.255.3, port 8080",
        "mixed carol@a.b.co from 127.0.0.1\nsecond line",
        "no pii here at all",
        "",
        "a@b.cc a@b.cc 1.2.3.4",   # repeated matches
    ],
})

LINE_DOCS = pd.DataFrame({
    "doc_id": np.arange(5, dtype=np.int64),
    "text": [
        "a\nb\na\nc\nb\na",        # dups preserved-order -> a,b,c
        "single line",
        "",                         # one empty line
        "x\nx\nx",                  # all same -> x
        "\n\na\n\n",                # empty lines dedup too -> '',a
    ],
})


class TestPiiScrub:
    def test_matches_duckdb_on_planted_pii(self, ray_session):
        from feasts_ray.text.analysis import add_pii_scrub

        ds = ray.data.from_pandas(PII_DOCS.copy()).repartition(2)
        got = ds.map_batches(add_pii_scrub, batch_format="pyarrow"
                             ).to_pandas().sort_values("doc_id",
                                                       ignore_index=True)
        con = duckdb.connect()
        con.register("documents", PII_DOCS)
        exp = con.execute(r"""
            SELECT doc_id,
              CAST(len(regexp_extract_all(text,
                '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}'))
                AS BIGINT) AS n_emails,
              CAST(len(regexp_extract_all(text,
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))
                AS BIGINT) AS n_ipv4,
              regexp_replace(regexp_replace(text,
                '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}',
                '<EMAIL>', 'g'),
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                '<IP>', 'g') AS text_redacted
            FROM documents ORDER BY doc_id""").df()
        assert got["n_emails"].tolist() == exp["n_emails"].tolist()
        assert got["n_ipv4"].tolist() == exp["n_ipv4"].tolist()
        assert got["text_redacted"].tolist() == exp["text_redacted"].tolist()
        # the planted counts, explicitly
        assert got["n_emails"].tolist() == [2, 0, 1, 0, 0, 2]
        assert got["n_ipv4"].tolist() == [0, 2, 1, 0, 0, 1]
        assert got["text_redacted"].iloc[5] == "<EMAIL> <EMAIL> <IP>"


class TestLineDedup:
    def test_matches_duckdb_on_planted_lines(self, ray_session):
        from feasts_ray.text.analysis import dedup_lines

        ds = ray.data.from_pandas(LINE_DOCS.copy()).repartition(2)
        got = ds.map_batches(dedup_lines, batch_format="pyarrow"
                             ).to_pandas().sort_values("doc_id",
                                                       ignore_index=True)
        con = duckdb.connect()
        con.register("documents", LINE_DOCS)
        exp = con.execute("""
            WITH l AS (SELECT doc_id,
              unnest(string_split(text, chr(10))) AS line,
              generate_subscripts(string_split(text, chr(10)), 1) AS i
              FROM documents),
            f AS (SELECT doc_id, line, MIN(i) AS fi FROM l
              GROUP BY doc_id, line),
            c AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_lines
              FROM l GROUP BY doc_id),
            d AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY fi)
              AS text_dedup, CAST(COUNT(*) AS BIGINT) AS n_kept
              FROM f GROUP BY doc_id)
            SELECT c.doc_id, c.n_lines, c.n_lines - d.n_kept
              AS n_lines_removed, d.text_dedup
            FROM c JOIN d ON d.doc_id = c.doc_id
            ORDER BY c.doc_id""").df()
        for col in ("n_lines", "n_lines_removed"):
            assert got[col].tolist() == exp[col].tolist(), col
        assert got["text_dedup"].tolist() == exp["text_dedup"].tolist()
        assert got["text_dedup"].tolist() == [
            "a\nb\nc", "single line", "", "x", "\na"]

    @given(docs=st.lists(st.lists(
        st.sampled_from(["", "a", "b", "line x", "  "]), min_size=0,
        max_size=8), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_first_occurrence_property(self, docs):
        from feasts_ray.text.analysis import dedup_lines

        texts = ["\n".join(d) for d in docs]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        got = dedup_lines(t).to_pandas()
        for i, text in enumerate(texts):
            lines = text.split("\n")
            want, seen = [], set()
            for ln in lines:
                if ln not in seen:
                    seen.add(ln)
                    want.append(ln)
            assert got["text_dedup"].iloc[i] == "\n".join(want)
            assert got["n_lines"].iloc[i] == len(lines)
            assert got["n_lines_removed"].iloc[i] == len(lines) - len(want)


CORPUS_LINE_DOCS = pd.DataFrame({
    "doc_id": np.arange(8, dtype=np.int64),
    "text": [
        "boiler\nunique a\nboiler",   # 0: within-doc dup too
        "boiler\nunique b",           # 1: cross-doc dup (0 keeps it)
        "unique c",
        "",                           # 3: first '' -> kept
        "",                           # 4: '' removed -> 0 lines
        "x\n\ny",                     # 5: its '' removed
        "unique b",                   # 6: whole-line dup of doc 1's line 2?
        "boiler",                     # 7: dup again
    ],
})


class TestDedupLinesCorpus:
    def _expected(self):
        con = duckdb.connect()
        con.register("documents", CORPUS_LINE_DOCS)
        return con.execute("""
            WITH l AS (SELECT doc_id,
              unnest(string_split(text, chr(10))) AS line,
              generate_subscripts(string_split(text, chr(10)), 1) AS i
              FROM documents),
            r AS (SELECT doc_id, line, i, ROW_NUMBER() OVER (
              PARTITION BY line ORDER BY doc_id, i) AS rn FROM l),
            c AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_lines,
              CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
              AS n_removed FROM r GROUP BY doc_id),
            k AS (SELECT doc_id, string_agg(line, chr(10) ORDER BY i)
              AS text_clean FROM r WHERE rn = 1 GROUP BY doc_id)
            SELECT c.doc_id, c.n_lines, c.n_removed AS n_lines_removed,
              COALESCE(k.text_clean, '') AS text_clean
            FROM c LEFT JOIN k ON k.doc_id = c.doc_id
            ORDER BY c.doc_id""").df()

    @pytest.mark.parametrize("plan", ["broadcast", "grouped"])
    def test_both_plans_match_duckdb(self, ray_session, plan):
        from feasts_ray.text.corpus import dedup_lines_corpus

        ds = ray.data.from_pandas(CORPUS_LINE_DOCS.copy()).repartition(3)
        got = dedup_lines_corpus(ds, plan=plan).to_pandas().sort_values(
            "doc_id", ignore_index=True)
        exp = self._expected()
        for c in ("n_lines", "n_lines_removed"):
            assert got[c].tolist() == exp[c].tolist(), (plan, c)
        assert got["text_clean"].tolist() == exp["text_clean"].tolist(), plan
        # explicit pins: global-first keeps doc 0's boiler, doc 1 keeps
        # 'unique b', docs 6/7 lose their only line entirely
        assert got.loc[6, "text_clean"] == "" and got.loc[6, "n_lines_removed"] == 1
        assert got.loc[7, "text_clean"] == ""
        assert got.loc[0, "text_clean"] == "boiler\nunique a"

    def test_plans_identical_and_no_dup_noop(self, ray_session):
        from feasts_ray.text.corpus import dedup_lines_corpus

        ds = ray.data.from_pandas(CORPUS_LINE_DOCS.copy()).repartition(3)
        a = dedup_lines_corpus(ds, plan="broadcast").to_pandas(
            ).sort_values("doc_id", ignore_index=True)
        b = dedup_lines_corpus(ds, plan="grouped").to_pandas(
            ).sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(a, b)
        # an all-unique corpus passes through untouched (and exercises
        # the empty-drop-set broadcast guard)
        clean = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                              "text": ["only one", "two\nhere", "three"]})
        out = dedup_lines_corpus(ray.data.from_pandas(clean),
                                 plan="broadcast").to_pandas().sort_values(
            "doc_id", ignore_index=True)
        assert out["text_clean"].tolist() == clean["text"].tolist()
        assert out["n_lines_removed"].sum() == 0


def test_pyarrow_sliced_list_offsets_contract():
    """chunk_list_column and the line-dedup kernels rely on pyarrow's
    sliced-ListArray contract: .offsets is slice-aware while .values
    stays the full child buffer, so offsets index into values directly.
    Pin it so a pyarrow upgrade that changes either side fails loudly."""
    a = pa.array([[1, 2, 3], [4, 5], [6], [7, 8, 9, 10]],
                 type=pa.list_(pa.int32()))
    s = a.slice(1, 2)
    off = s.offsets.to_numpy().astype(np.int64)
    vals = s.values.to_numpy()
    assert off.tolist() == [3, 5, 6]
    assert len(vals) == 10
    assert vals[off[0]:off[1]].tolist() == [4, 5]
    assert vals[off[1]:off[2]].tolist() == [6]


class TestAssignSplits:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.oracle.simhash_sql import word_hash_expr
        from feasts_ray.text.corpus import assign_splits

        got = assign_splits(docs_ds, {"train": 90, "val": 5, "test": 5}
                            ).to_pandas().sort_values("doc_id",
                                                      ignore_index=True)
        h = word_hash_expr("CAST(doc_id AS VARCHAR) || '#split'")
        exp = _con().execute(
            f"SELECT doc_id, CASE WHEN {h} % 100 < 90 THEN 'train' "
            f"WHEN {h} % 100 < 95 THEN 'val' ELSE 'test' END AS split "
            "FROM documents ORDER BY doc_id").df()
        assert got["split"].tolist() == exp["split"].tolist()

    def test_partition_properties(self, docs_ds):
        from feasts_ray.text.corpus import assign_splits

        got = assign_splits(docs_ds, {"train": 90, "val": 5, "test": 5}
                            ).to_pandas()
        # every doc in exactly one split; shares roughly honored
        assert len(got) == len(DOCS)
        counts = got["split"].value_counts()
        assert counts["train"] > 0.8 * len(DOCS)
        assert 0 < counts.get("val", 0) < 0.15 * len(DOCS)
        # deterministic across block counts
        got2 = assign_splits(
            ray.data.from_pandas(DOCS.copy()).repartition(7),
            {"train": 90, "val": 5, "test": 5}).to_pandas()
        m1 = dict(zip(got["doc_id"], got["split"]))
        m2 = dict(zip(got2["doc_id"], got2["split"]))
        assert m1 == m2

    def test_fractions_must_sum(self, docs_ds):
        from feasts_ray.text.corpus import assign_splits

        with pytest.raises(ValueError):
            assign_splits(docs_ds, {"train": 90, "val": 5})


class TestLangidConfusion:
    def test_matches_brute_force(self, docs_ds):
        from feasts_ray.text.analysis import add_langid
        from feasts_ray.text.corpus import langid_confusion

        got = langid_confusion(docs_ds).to_pandas().sort_values(
            ["lang", "lang_pred"], ignore_index=True)
        # brute force: run the same kernel once, pandas-count the pairs
        pred = docs_ds.map_batches(add_langid, batch_format="pyarrow"
                                   ).to_pandas()
        exp = (pred.groupby(["lang", "lang_pred"]).size().rename("n")
               .reset_index().sort_values(["lang", "lang_pred"],
                                          ignore_index=True))
        assert got["lang"].tolist() == exp["lang"].tolist()
        assert got["lang_pred"].tolist() == exp["lang_pred"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()
        assert got["n"].sum() == len(DOCS)


class TestSampleKPerGroup:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.oracle.simhash_sql import word_hash_expr
        from feasts_ray.text.corpus import sample_k_per_group

        got = sample_k_per_group(docs_ds.select_columns(
            ["doc_id", "lang"]), "lang", k=5).to_pandas().sort_values(
            "doc_id", ignore_index=True)
        h = word_hash_expr("CAST(doc_id AS VARCHAR) || '#samplek'")
        exp = _con().execute(
            f"WITH r AS (SELECT doc_id, lang, ROW_NUMBER() OVER ("
            f"PARTITION BY lang ORDER BY {h}, doc_id) AS rn "
            "FROM documents) SELECT doc_id, lang FROM r WHERE rn <= 5 "
            "ORDER BY doc_id").df()
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        # exactly min(k, group size) per stratum; stable across blocks
        sizes = DOCS.groupby("lang").size()
        counts = got.groupby("lang").size()
        for lang, n in sizes.items():
            assert counts.get(lang, 0) == min(5, n), lang
        got2 = sample_k_per_group(
            ray.data.from_pandas(DOCS[["doc_id", "lang"]].copy()
                                 ).repartition(7), "lang", k=5
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        assert got["doc_id"].tolist() == got2["doc_id"].tolist()


class TestWinsorizeByGroup:
    def test_zero_row_batch_passes_through(self):
        from feasts_ray.text.corpus import _winsor_clip

        batch = pa.table({"lang": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        got = _winsor_clip(batch, {"en": (1, 5)}, "lang", "n")
        assert got.num_rows == 0
        assert got.schema.field("n_winsor").type == pa.int64()

    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import winsorize_by_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "lang", "n_words"])
        got = winsorize_by_group(scored, "n_words", "lang", 0.05, 0.95
                                 ).to_pandas().sort_values(
            "doc_id", ignore_index=True)
        exp = _con().execute("""
            WITH nw AS (SELECT doc_id, lang,
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS n_words FROM documents),
            t AS (SELECT lang, quantile_disc(n_words, 0.05) AS lo,
              quantile_disc(n_words, 0.95) AS hi FROM nw GROUP BY lang)
            SELECT nw.doc_id, LEAST(GREATEST(nw.n_words, t.lo), t.hi)
              AS n_words_winsor
            FROM nw JOIN t ON t.lang = nw.lang ORDER BY nw.doc_id""").df()
        assert got["n_words_winsor"].tolist() == exp["n_words_winsor"].tolist()
        # clipped values are always existing-order-preserving bounds
        assert (got["n_words_winsor"] <= got["n_words"].max()).all()


class TestChunkingProperties:
    @given(lens=st.lists(st.integers(0, 30), min_size=1, max_size=20),
           size=st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_chunk_words_brute_force(self, lens, size):
        """Chunk scalars == a per-doc Python brute force for arbitrary
        doc lengths and chunk sizes."""
        from feasts_ray.text.chunking import chunk_words

        texts = [" ".join(f"w{d}x{i}" for i in range(n))
                 for d, n in enumerate(lens)]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        got = chunk_words(ray.data.from_arrow(t), size=size).to_pandas()
        if len(got):  # all-empty corpora lose schema in empty to_pandas
            got = got.sort_values(["doc_id", "chunk_idx"],
                                  ignore_index=True)
        rows = []
        for d, n in enumerate(lens):
            words = texts[d].split()
            for ci in range((n + size - 1) // size):
                w = words[ci * size:(ci + 1) * size]
                rows.append((d, ci, len(w), sum(len(x) for x in w),
                             w[0], w[-1]))
        assert len(got) == len(rows)
        for i, (d, ci, nw, cc, fw, lw) in enumerate(rows):
            r = got.iloc[i]
            assert (r["doc_id"], r["chunk_idx"], r["n_words_chunk"],
                    r["chunk_chars"], r["first_word"], r["last_word"]) \
                == (d, ci, nw, cc, fw, lw)


class TestNgramDecontaminateProperty:
    @given(docs=st.lists(st.lists(st.sampled_from("abcde"), min_size=0,
                                  max_size=8), min_size=2, max_size=14))
    @settings(max_examples=25, deadline=None)
    def test_brute_force(self, docs):
        """Hit counts == Python-set brute force (n=2, every=2) over a
        tiny alphabet that forces heavy n-gram collisions."""
        from feasts_ray.text.corpus import ngram_decontaminate

        texts = [" ".join(d) for d in docs]
        t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        got = ngram_decontaminate(ray.data.from_arrow(t), n=2, every=2
                                  ).to_pandas().sort_values(
            "doc_id", ignore_index=True)

        def grams(words):
            return {tuple(words[i:i + 2]) for i in range(len(words) - 1)}

        bl = set()
        for d, words in enumerate(docs):
            if d % 2 == 0:
                bl |= grams(words)
        for d, words in enumerate(docs):
            assert got["n_gram_hits"].iloc[d] == len(grams(words) & bl), d


class TestRobustZscoreByGroup:
    def test_matches_duckdb(self, docs_ds):
        from feasts_ray.text.analysis import add_token_counts
        from feasts_ray.text.corpus import robust_zscore_by_group

        scored = docs_ds.map_batches(
            add_token_counts, batch_format="pyarrow").select_columns(
            ["doc_id", "lang", "n_words"])
        got = robust_zscore_by_group(scored, "n_words", "lang"
                                     ).to_pandas().sort_values(
            "doc_id", ignore_index=True)
        exp = _con().execute("""
            WITH nw AS (SELECT doc_id, lang,
              CAST(CASE WHEN regexp_replace(text, '^\\s+|\\s+$', '', 'g') = ''
              THEN 0 ELSE len(regexp_split_to_array(
              regexp_replace(text, '^\\s+|\\s+$', '', 'g'), '\\s+')) END
              AS BIGINT) AS n_words FROM documents),
            m AS (SELECT lang, quantile_disc(n_words, 0.5) AS med
              FROM nw GROUP BY lang),
            a AS (SELECT nw.doc_id, nw.lang, nw.n_words,
              nw.n_words - m.med AS dev FROM nw JOIN m ON m.lang = nw.lang),
            d AS (SELECT lang, quantile_disc(abs(dev), 0.5) AS mad
              FROM a GROUP BY lang)
            SELECT a.doc_id, CASE WHEN d.mad > 0 THEN
              CAST(a.dev AS DOUBLE) / CAST(d.mad AS DOUBLE) END AS robust_z
            FROM a JOIN d ON d.lang = a.lang ORDER BY a.doc_id""").df()
        g, e = got["robust_z"], exp["robust_z"]
        assert (g.isna() == e.isna()).all()
        m = ~g.isna()
        assert (g[m].to_numpy().view(np.int64)
                == e[m].to_numpy().view(np.int64)).all()

    def test_zero_mad_stratum_is_null(self, ray_session):
        from feasts_ray.text.corpus import robust_zscore_by_group

        # a constant stratum (zero MAD) and a normal one
        df = pd.DataFrame({
            "doc_id": np.arange(8, dtype=np.int64),
            "lang": ["c"] * 4 + ["v"] * 4,
            "n_words": np.array([7, 7, 7, 7, 1, 2, 3, 9], dtype=np.int64)})
        got = robust_zscore_by_group(
            ray.data.from_pandas(df).repartition(2), "n_words", "lang"
        ).to_pandas().sort_values("doc_id", ignore_index=True)
        assert got.loc[got["lang"] == "c", "robust_z"].isna().all()
        v = got.loc[got["lang"] == "v", "robust_z"]
        # med=2 (disc), absdevs {1,0,1,7} -> MAD=1; z = dev/1
        assert v.tolist() == [-1.0, 0.0, 1.0, 7.0]


class TestWordFreqTopkHeavy:
    def test_certified_exact_equals_full_topk(self, docs_ds):
        from feasts_ray.text.corpus import word_freq_topk, \
            word_freq_topk_heavy

        exact = word_freq_topk(docs_ds, k=20)
        heavy = word_freq_topk_heavy(docs_ds, k=20, capacity=4096)
        pd.testing.assert_frame_equal(heavy.reset_index(drop=True),
                                      exact.reset_index(drop=True))

    def test_pruned_with_fewer_than_k_candidates_refuses(self, ray_session):
        """One doc 'a' x10, 'b', 'c' with k=3, capacity=2: the batch
        prunes b and c, leaving one candidate. A top-3 of one row is not
        the exact top-3, so the certificate must refuse it."""
        from feasts_ray.text.corpus import word_freq_topk_heavy

        ds = ray.data.from_items([{"text": "a " * 10 + "b c"}])
        with pytest.raises(ValueError, match="not certified exact"):
            word_freq_topk_heavy(ds, k=3, capacity=2)

    def test_small_capacity_refuses_instead_of_degrading(self, docs_ds):
        from feasts_ray.text.corpus import word_freq_topk_heavy

        # capacity far below the vocabulary: the k-th candidate cannot
        # clear the N/capacity certificate -> hard error, never a
        # silently-approximate result
        with pytest.raises(ValueError, match="not certified exact"):
            word_freq_topk_heavy(docs_ds, k=20, capacity=4)

    def test_survivor_bound_holds_under_pruning(self, ray_session):
        """With capacity < per-batch vocabulary the MG prune kicks in,
        yet every word whose global count clears N/capacity must still
        reach the exact recount (certified equality with the brute
        force)."""
        from feasts_ray.text.corpus import word_freq_topk, \
            word_freq_topk_heavy

        rng = np.random.default_rng(3)
        # heavy head + long tail: 3 hot words + 400 singletons
        texts = []
        for i in range(200):
            words = ["hot1", "hot2"] + (["hot3"] if i % 2 == 0 else []) \
                + [f"tail{i}a", f"tail{i}b"]
            rng.shuffle(words)
            texts.append(" ".join(words))
        df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                           "text": texts})
        ds = ray.data.from_pandas(df).repartition(4)
        heavy = word_freq_topk_heavy(ds, k=3, capacity=64)
        exact = word_freq_topk(ds, k=3)
        pd.testing.assert_frame_equal(heavy.reset_index(drop=True),
                                      exact.reset_index(drop=True))
