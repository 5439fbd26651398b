import pytest

from formations.errors import CorpusParseError
from formations.formation import BUILTINS
from formations.harness import DEFAULT_SEED, RunConfig, lemma_instances, run_corpus
from formations.storage import CorpusEntry, builtin_corpus_path, load_corpus, report_dumps
from formations.structure import profile
from formations.theorems import all_n_maximal_f_subnormal


SMALL = [CorpusEntry("S4", "S4", ("soluble",)),
         CorpusEntry("SL23", "SL23", ("soluble",)),
         CorpusEntry("Frob21", "Frob21", ("soluble",))]


def test_run_corpus_smoke():
    report = run_corpus(SMALL, suite="smoke")
    assert report["status"] == "ok"
    assert report["groups"] == ["Frob21", "S4", "SL23"]
    sat = next(c for c in report["checks"] if c["id"] == "satellite-crosscheck")
    assert sat["instances"] == 6 and sat["passes"] == 6


def test_run_corpus_empty():
    report = run_corpus([], suite="smoke")
    assert report["status"] == "ok"
    assert all(c["instances"] == 0 for c in report["checks"])


def test_run_corpus_duplicate_names():
    with pytest.raises(CorpusParseError):
        run_corpus([CorpusEntry("a", "S3", ()), CorpusEntry("a", "C2", ())])


def test_run_corpus_bad_entry_is_skipped():
    report = run_corpus([CorpusEntry("broken", "Zork", ())], suite="smoke")
    assert report["status"] == "ok"
    for c in report["checks"]:
        assert c["instances"] == 0
        assert any("build failed" in s["reason"] for s in c["skips"])


def test_workers_deterministic():
    one = run_corpus(SMALL, cfg=RunConfig(workers=1), suite="smoke")
    two = run_corpus(SMALL, cfg=RunConfig(workers=2), suite="smoke")
    assert report_dumps(one) == report_dumps(two)


def test_group_rows_independent_of_company():
    """One group's full-suite rows are the same run alone, inside a corpus
    and under two workers (each entry's sections are its own); its
    seed-free rows are the same at another lemma seed."""
    corpus = {e.name: e for e in load_corpus(builtin_corpus_path())}
    target = corpus["S3xS3"]
    company = [corpus[n] for n in ("S3", "S4", "Frob21", "V4")] + [target]

    def rows(entries, **cfg):
        report = run_corpus(entries, cfg=RunConfig(**cfg), detail=True)
        return [r for r in report["results"] if r["group"] == target.name]

    alone = rows([target])
    assert any(r["suite_check"] == "lemma-suite" for r in alone)
    assert rows(company) == alone
    assert rows(company, workers=2) == alone

    def seed_free(rs):
        return [r for r in rs if r["suite_check"] != "lemma-suite"]
    assert seed_free(rows([target], seed=DEFAULT_SEED + 1)) == seed_free(alone)


def test_detail_rows_sorted():
    report = run_corpus(SMALL, suite="smoke", detail=True)
    rows = report["results"]
    keys = [(r["suite_check"], r["check"], r["group"]) for r in rows]
    assert keys == sorted(keys)


def test_lemma_instances_deterministic(groups):
    a = lemma_instances("2.1.1", groups["S4"], seed=5, k=3)
    b = lemma_instances("2.1.1", groups["S4"], seed=5, k=3)
    assert a == b
    c = lemma_instances("2.1.1", groups["S4"], seed=6, k=3)
    assert a != c or len(a) <= 1


def test_theorem_d_premise_monotone(groups):
    # all n-maximal F-subnormal forces all (n+1)-maximal F-subnormal
    for name in ("S4", "SL23", "Frob21", "S3 x C5", "D8"):
        g = groups[name]
        if not profile(g).soluble:
            continue
        for f in (BUILTINS["N"], BUILTINS["U"]):
            for n in (1, 2):
                ok_n, _ = all_n_maximal_f_subnormal(g, n, f)
                if ok_n:
                    ok_next, _ = all_n_maximal_f_subnormal(g, n + 1, f)
                    assert ok_next, (name, f.name, n)
