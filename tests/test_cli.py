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


def test_verify_lemma_keeps_sampled_n(capsys):
    """Without -n, every n the sampler draws is verified; -n overrides it."""
    code, out, _ = run(capsys, "verify", "--lemma", "3.7", "--group", "S3 x C5",
                       "--format", "json")
    assert code == 0
    assert [r["params"]["n"] for r in json.loads(out)["reports"]] == [1, 2]
    code, out, _ = run(capsys, "verify", "--lemma", "3.7", "--group", "S3 x C5",
                       "-n", "2", "--format", "json")
    assert code == 0
    assert [r["params"]["n"] for r in json.loads(out)["reports"]] == [2]


def test_verify_lemma_flag_reaches_unsampled_parameter(capsys):
    """A flag the lemma's checker takes applies even when the sampler draws
    no value for it: lemma 3.8 samples no n, yet -n 3 is verified."""
    code, out, _ = run(capsys, "verify", "--lemma", "3.8", "--group", "S4",
                       "-n", "3", "--format", "json")
    assert code == 0
    assert [r["params"]["n"] for r in json.loads(out)["reports"]] == [3]


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


def test_lattice_cap_above_default(capsys):
    """The lattice cap defaults to the group order cap of 5000, and
    --lattice-cap can set it either way."""
    for flags in ((), ("--lattice-cap", "2000")):
        code, out, _ = run(capsys, "lattice", "--group", "A5 x C17", *flags,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 1020 and doc["subgroups"] == 118


@pytest.mark.parametrize("spec", ["A5 x C17", "C7 x C11 x C13"])
def test_corpus_above_order_1000(tmp_path, capsys, spec):
    """A group of order above 1000 gets no error row in the full suite."""
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry(spec, spec, ())], corpus)
    code, out, _ = run(capsys, "corpus", "--path", str(corpus), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert not any("errors" in c for c in doc["checks"])


def test_lattice_cap_is_a_skip(tmp_path, capsys, monkeypatch):
    """A subgroup cap hit anywhere in a check, its group's profile included,
    gives that check one "lattice cap" skip row, not an error. Every check
    but classify-structural, which has no row for C2^4, reads its 67 normal
    subgroups."""
    import formations.lattice as lattice

    monkeypatch.setattr(lattice, "DEFAULT_SUBGROUP_CAP", 5)
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("C2^4", "C2 x C2 x C2 x C2", ())], corpus)
    code, out, _ = run(capsys, "corpus", "--path", str(corpus), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert not any("errors" in c for c in doc["checks"])
    skipped = [c["id"] for c in doc["checks"]
               if c["skips"] == [{"group": "C2^4", "reason": "lattice cap"}]]
    assert skipped == [c["id"] for c in doc["checks"] if c["id"] != "classify-structural"]


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "S4", "--formation", "N", "-n", "0"),
    ("corpus", "--workers", "0"),
    ("corpus", "--tags", "zzz"),
    ("verify", "--theorem", "C", "--formation", "U", "--group", "S4", "-n", "7"),
    ("verify", "--theorem", "C", "--formation", "U", "--group", "S4", "-r", "3"),
    ("verify", "--lemma", "2.7", "--group", "S4", "-r", "5"),
    ("verify", "--lemma", "2.9", "--group", "S4", "--formation", "U", "-n", "3"),
    ("verify", "--lemma", "3.8", "--group", "S4", "--formation", "N", "-n", "3"),
])
def test_out_of_range_or_ignored_flag_is_usage_error(capsys, argv):
    """A parameter out of range, a flag its target does not read and a tag
    filter that selects no group each stop the run before any check."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_verify_corpus_names_groups_by_entry(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("sym4", "S4", ()), CorpusEntry("frob", "Frob21", ())], corpus)
    code, out, _ = run(capsys, "verify", "--theorem", "C", "--formation", "U",
                       "--corpus", str(corpus), "--format", "json")
    assert code == 0
    assert [r["group"] for r in json.loads(out)["reports"]] == ["sym4", "frob"]


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "lattice", "--group", "S3", "--output", str(dest))
    assert code == 2
    assert err.startswith("error: ") and "x.json" in err


def test_cache_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S3", "S3", ())], corpus)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run(capsys, "corpus", "--path", str(corpus), "--suite", "smoke",
                       "--cache-dir", str(blocker))
    assert code == 2
    assert err.startswith("error: ")


def test_check_that_raises_is_an_error_row(tmp_path, capsys, monkeypatch):
    """A check that raises on one group gives exit 3 and one error row in
    place of that group's rows of the check; every other row is unchanged."""
    import formations.harness as harness

    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S4", "S4", ("soluble",)),
                  CorpusEntry("Frob21", "Frob21", ("soluble",))], corpus)
    argv = ("corpus", "--path", str(corpus), "--suite", "smoke", "--detail",
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = json.loads(out)
    assert not any("errors" in c for c in clean["checks"])

    real = harness.verify_theorem

    def raising(tid, g, **kw):
        if g.name == "S4":
            raise ZeroDivisionError("division by zero")
        return real(tid, g, **kw)

    monkeypatch.setattr(harness, "verify_theorem", raising)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "errors"
    error_row = {"check": "theorem-C", "suite_check": "theorem-C", "group": "S4",
                 "error": "ZeroDivisionError: division by zero"}
    assert [r for r in doc["results"] if "error" in r] == [error_row]
    lost = [r for r in clean["results"] if r["group"] == "S4" and r["check"] == "theorem-C"]
    assert len(lost) == 2
    assert [r for r in doc["results"] if "error" not in r] == \
        [r for r in clean["results"] if r not in lost]
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["theorem-C"]["errors"] == [{"group": "S4", "error": error_row["error"]}]
    assert by_id["theorem-C"]["instances"] == 2 and by_id["theorem-C"]["skips"] == []
    assert "errors" not in by_id["satellite-crosscheck"]
    assert by_id["satellite-crosscheck"] == \
        next(c for c in clean["checks"] if c["id"] == "satellite-crosscheck")


def test_group_step_that_raises_is_an_error_row_per_check(tmp_path, capsys, monkeypatch):
    """An exception outside the checks (here building the group) gives exit
    3 and one error row per check for that group; the other group's rows
    are unchanged."""
    import formations.harness as harness

    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S4", "S4", ("soluble",)),
                  CorpusEntry("Frob21", "Frob21", ("soluble",))], corpus)
    argv = ("corpus", "--path", str(corpus), "--suite", "smoke", "--detail",
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = json.loads(out)

    real = harness._build_entry

    def raising(entry, cfg):
        if entry.name == "S4":
            raise ZeroDivisionError("division by zero")
        return real(entry, cfg)

    monkeypatch.setattr(harness, "_build_entry", raising)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "errors"
    ids = [c["id"] for c in doc["checks"]]
    assert sorted((r["check"], r["group"], r["error"]) for r in doc["results"] if "error" in r) == \
        sorted((cid, "S4", "ZeroDivisionError: division by zero") for cid in ids)
    assert [r for r in doc["results"] if "error" not in r] == \
        [r for r in clean["results"] if r["group"] != "S4"]
    assert all(c["errors"] == [{"group": "S4", "error": "ZeroDivisionError: division by zero"}]
               for c in doc["checks"])


def test_verify_group_that_raises_is_an_error_report(tmp_path, capsys, monkeypatch):
    """verify over a corpus turns an exception on one group into an error
    report for that group, keeps the other groups' reports and exits 3."""
    import formations.cli as cli_mod

    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("sym4", "S4", ()), CorpusEntry("frob", "Frob21", ())], corpus)
    argv = ("verify", "--theorem", "C", "--formation", "U", "--corpus", str(corpus),
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    clean = json.loads(out)

    real = cli_mod.verify_theorem

    def raising(tid, g, **kw):
        if g.name == "sym4":
            raise ZeroDivisionError("division by zero")
        return real(tid, g, **kw)

    monkeypatch.setattr(cli_mod, "verify_theorem", raising)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "errors"
    assert doc["reports"] == [{"check": "theorem-C", "group": "sym4",
                               "error": "ZeroDivisionError: division by zero"},
                              clean["reports"][1]]
