import json

import pytest

from formations.cli import main
from formations.storage import write_corpus, CorpusEntry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--group", "S4", "--formation", "U")
    assert code == 0
    assert "residual_order: 4" in out
    assert "nilpotent_length: 3" in out


def test_analyze_dsl_error(capsys):
    code, _, err = run(capsys, "analyze", "--group", "S4", "--formation", "N^")
    assert code == 2
    assert "error" in err


def test_unknown_group(capsys):
    code, _, err = run(capsys, "analyze", "--group", "Nope", "--formation", "N")
    assert code == 2


def test_lattice_command(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "S4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["subgroups"] == 30
    assert doc["by_order"]["8"] == 3


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--group", "Frob21", "--formation", "N",
                       "-n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "type_ii"


def test_verify_theorem_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "C", "--formation", "U",
                       "--group", "SL23", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"


def test_verify_lemma(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "2.2", "--formation", "N",
                       "--group", "D8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert rep["hypotheses_met"] and rep["conclusion_holds"]


def test_verify_requires_target(capsys):
    code, _, err = run(capsys, "verify", "--group", "S3")
    assert code == 2


def test_corpus_smoke_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S4", "S4", ("soluble",)),
                  CorpusEntry("Frob21", "Frob21", ("soluble",))], corpus)
    code, out1, _ = run(capsys, "corpus", "--path", str(corpus), "--suite", "smoke",
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "corpus", "--path", str(corpus), "--suite", "smoke",
                        "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "ok"
    assert {c["id"] for c in doc["checks"]} == {"satellite-crosscheck", "theorem-C"}


def test_corpus_output_file(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S3", "S3", ())], corpus)
    dest = tmp_path / "report.json"
    code, _, _ = run(capsys, "corpus", "--path", str(corpus), "--suite", "smoke",
                     "--output", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["status"] == "ok"


def test_corpus_timing_adds_only_elapsed_seconds(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S3", "S3", ())], corpus)
    args = ("corpus", "--path", str(corpus), "--suite", "smoke", "--format", "json")
    _, plain, _ = run(capsys, *args)
    code, timed, _ = run(capsys, *args, "--timing")
    assert code == 0
    doc = json.loads(timed)
    assert doc.pop("elapsed_seconds") >= 0
    assert doc == json.loads(plain)


def test_corpus_cache_dir(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S4", "S4", ("soluble",))], corpus)
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "corpus", "--path", str(corpus), "--suite", "smoke",
                     "--cache-dir", str(cache))
    assert code == 0
    assert list(cache.glob("*.json"))


def test_corpus_missing_file(capsys):
    code, _, err = run(capsys, "corpus", "--path", "/nonexistent.json")
    assert code == 2


def test_usage_error(capsys):
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("flag", ["--lattice-cap", "--subgroup-cap"])
def test_lattice_caps_belong_to_lattice(capsys, flag):
    """Only the lattice command honours the caps, so corpus rejects them."""
    code, _, err = run(capsys, "corpus", "--tags", "critical", flag, "10")
    assert code == 2
    assert "unrecognized arguments" in err
    code, _, err = run(capsys, "lattice", "--group", "S4", flag, "10")
    assert code == 2
    assert "error: S4:" in err


def test_invalid_params_is_usage_error(capsys):
    # S carries no nilpotent-length bound, so theorem A must refuse it
    code, _, err = run(capsys, "verify", "--theorem", "A", "--formation", "S",
                       "--group", "C30")
    assert code == 2
    assert "error" in err


def test_violation_exit_code(capsys, monkeypatch):
    import formations.cli as cli_mod
    from formations.theorems import TheoremReport

    def fake_verify(tid, g, n=1, r=0, f=None):
        return TheoremReport(check_id="theorem-A", group=g.name, params={},
                             hypotheses_met=True, conclusion_holds=False,
                             witness="synthetic counterexample")

    monkeypatch.setattr(cli_mod, "verify_theorem", fake_verify)
    code, out, _ = run(capsys, "verify", "--theorem", "A", "--formation", "N",
                       "--group", "S3", "--format", "json")
    assert code == 1
    assert "synthetic counterexample" in out
