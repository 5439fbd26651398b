import json
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from formations import cli
from formations.dsl import parse_group
from formations.errors import CacheVersionMismatch, CorpusParseError
from formations.lattice import all_subgroups
from formations.storage import (REPORT_SCHEMA, CorpusEntry,
                                builtin_corpus_path, cache_lattice,
                                load_cached_lattice, load_corpus,
                                report_dumps, write_corpus, write_report)

from conftest import PROPERTY


def test_load_corpus_array_form(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('[{"name": "a", "spec": "S3", "tags": ["x"]}]')
    entries = load_corpus(p)
    assert entries == [CorpusEntry("a", "S3", ("x",))]


def test_load_corpus_empty(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[]")
    assert load_corpus(p) == []


def test_load_corpus_object_form(tmp_path):
    p = tmp_path / "c.json"
    write_corpus([CorpusEntry("a", "S3", ("t",))], p)
    assert load_corpus(p) == [CorpusEntry("a", "S3", ("t",))]


def test_corpus_unparseable_spec(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('[{"name": "bad", "spec": "(1 2", "tags": []}]')
    with pytest.raises(CorpusParseError) as err:
        load_corpus(p)
    assert "entry 0" in str(err.value) and "bad" in str(err.value)


def test_corpus_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('[{"name": "a"}]')
    with pytest.raises(CorpusParseError) as err:
        load_corpus(p)
    assert "entry 0" in str(err.value)
    p.write_text("{not json")
    with pytest.raises(CorpusParseError):
        load_corpus(p)
    with pytest.raises(CorpusParseError):
        load_corpus(tmp_path / "missing.json")


def test_builtin_corpus_loads():
    entries = load_corpus(builtin_corpus_path())
    assert len(entries) >= 90
    names = [e.name for e in entries]
    for required in ("S4", "S6", "A6", "SL23", "Frob21", "A5", "S5", "V4", "Q8"):
        assert required in names


def test_report_dumps_stable():
    a = report_dumps({"b": 1, "a": [3, 2]})
    b = report_dumps({"a": [3, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["schema"].startswith("formations-report/")


def json_dumps_bytes(report):
    """The reference bytes `report_dumps` must reproduce."""
    doc = {"schema": REPORT_SCHEMA, **report}
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€\U0001f600ab') | st.characters(),
                max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.sampled_from([10**400, -10**400, -1, 0])
            | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                             -0.0, 1e300, -1e-300]) | _TEXT)
_VALUES = st.recursive(_SCALARS, lambda kids: st.lists(kids, max_size=4)
                       | st.lists(kids, max_size=4).map(tuple)
                       | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=24)


@PROPERTY
@given(st.dictionaries(_TEXT, _VALUES, max_size=5))
def test_report_dumps_matches_json_dumps(report):
    """Nested dicts, lists and tuples, empty ones too, with every scalar
    json spells specially, give exactly json.dumps's bytes."""
    assert report_dumps(report) == json_dumps_bytes(report)


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "S4", "--formation", "U"],
    ["lattice", "--group", "S4"],
    ["classify", "--group", "Frob21", "--formation", "N", "-n", "2"],
    ["verify", "--theorem", "C", "--formation", "U", "--group", "SL23"],
    ["verify", "--lemma", "2.2", "--formation", "N", "--group", "D8"],
])
def test_cli_json_is_json_dumps(capsys, monkeypatch, argv):
    """Each command's --format json output is json.dumps's bytes of the
    document it hands to the writer."""
    docs = []
    monkeypatch.setattr(cli, "report_dumps", lambda doc: docs.append(doc) or report_dumps(doc))
    assert cli.main(argv + ["--format", "json"]) == 0
    assert len(docs) == 1 and capsys.readouterr().out == json_dumps_bytes(docs[0])


@pytest.mark.parametrize("report", [{"x": {1: "a"}}, {"x": {1, 2}}, {"x": [True, {2}]},
                                    {"x": IntEnum("E", "A").A}])
def test_report_dumps_refuses_what_a_report_does_not_hold(report):
    """A non-str key, a set or an int subclass raises TypeError; no
    fallback writes it."""
    with pytest.raises(TypeError):
        report_dumps(report)


def test_write_report(tmp_path):
    p = tmp_path / "r.json"
    write_report({"x": 1}, p)
    assert json.loads(p.read_text())["x"] == 1


def test_lattice_cache_roundtrip(tmp_path, groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    cache_lattice(s4, lat, tmp_path)
    fresh = parse_group("S4")
    loaded = load_cached_lattice(fresh, tmp_path)
    assert loaded is not None
    assert len(loaded.subgroups) == 30
    assert {s.bits for s in loaded.subgroups} == {s.bits for s in lat.subgroups}
    assert loaded.maximals_of == lat.maximals_of


def test_lattice_cache_miss(tmp_path, groups):
    assert load_cached_lattice(groups["S3"], tmp_path) is None


def test_lattice_cache_fingerprint_guard(tmp_path, groups):
    s4, s3 = groups["S4"], groups["S3"]
    path = cache_lattice(s4, all_subgroups(s4), tmp_path)
    # same filename, different group: treated as stale, not loaded
    target = tmp_path / f"{s3.fingerprint}.json"
    target.write_text(path.read_text())
    assert load_cached_lattice(parse_group("S3"), tmp_path) is None


def test_lattice_cache_version_guard(tmp_path, groups):
    s4 = groups["S4"]
    path = cache_lattice(s4, all_subgroups(s4), tmp_path)
    doc = json.loads(path.read_text())
    doc["schema"] = "formations-lattice-cache/0"
    path.write_text(json.dumps(doc))
    fresh = parse_group("S4")
    with pytest.raises(CacheVersionMismatch):
        load_cached_lattice(fresh, tmp_path)


def test_cached_lattice_passes_invariants(tmp_path, groups):
    from formations.formation import BUILTINS, f_subnormal_bits
    s4 = groups["S4"]
    cache_lattice(s4, all_subgroups(s4), tmp_path)
    fresh = parse_group("S4")
    lat = load_cached_lattice(fresh, tmp_path)
    top = lat.subgroups[lat.top_index]
    assert top.order == 24
    assert sorted(m.order for m in lat.maximal_subgroups(top)) == [6, 6, 6, 6, 8, 8, 8, 12]
    assert len(f_subnormal_bits(fresh, BUILTINS["N"])) == len(
        f_subnormal_bits(groups["S4"], BUILTINS["N"]))


def test_lattice_cache_unreadable_is_miss(tmp_path, groups):
    s4 = groups["S4"]
    path = cache_lattice(s4, all_subgroups(s4), tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert load_cached_lattice(parse_group("S4"), tmp_path) is None
    doc = json.loads(text)
    del doc["maximals"]
    path.write_text(json.dumps(doc))
    assert load_cached_lattice(parse_group("S4"), tmp_path) is None
    path.write_text("[]")
    assert load_cached_lattice(parse_group("S4"), tmp_path) is None


def test_corpus_with_truncated_cache_runs(tmp_path, capsys):
    from formations.cli import main
    corpus = tmp_path / "c.json"
    write_corpus([CorpusEntry("S3", "S3", ("soluble",))], corpus)
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"{parse_group('S3').fingerprint}.json").write_text('{"schema": "formations-latt')
    argv = ["corpus", "--path", str(corpus), "--suite", "smoke", "--format", "json",
            "--cache-dir", str(cache)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def _tampered_s4_cache(tmp_path, groups, edit):
    s4 = groups["S4"]
    path = cache_lattice(s4, all_subgroups(s4), tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return load_cached_lattice(parse_group("S4"), tmp_path)


TOP_COVERS = [21, 22, 23, 24, 25, 26, 27, 28]  # S4's maximal subgroups


@pytest.mark.parametrize("row", [[99], [0], [-1], [29], ["0"], [21] + TOP_COVERS,
                                 [10] + TOP_COVERS],
                         ids=["out-of-range", "trivial", "negative", "self",
                              "string", "duplicate", "not-maximal"])
def test_lattice_cache_bad_maximals_is_miss(tmp_path, groups, row):
    """The top's row replaced: an index out of range, the trivial group, the
    top itself, a non-integer, a repeated cover, or the true covers plus a
    subgroup inside one of them (10 inside 28) each make the file a cache
    miss."""
    def edit(doc):
        assert doc["maximals"][-1] == TOP_COVERS
        doc["maximals"][-1] = row
    assert _tampered_s4_cache(tmp_path, groups, edit) is None


def test_lattice_cache_dropped_cover_is_miss(tmp_path, groups):
    def edit(doc):
        doc["maximals"][-1] = doc["maximals"][-1][1:]
    assert _tampered_s4_cache(tmp_path, groups, edit) is None


@pytest.mark.parametrize("gens", [[], [0], [23], [1, 2, 3, 4, 5], [24]])
def test_lattice_cache_tampered_gens_is_miss(tmp_path, groups, gens):
    """Recorded gens of the largest proper subgroup that do not regenerate
    its members, or are not element indices, make the file a miss."""
    def edit(doc):
        doc["gens"][-2] = gens
    assert _tampered_s4_cache(tmp_path, groups, edit) is None


def test_lattice_cache_unsorted_is_miss(tmp_path, groups):
    def edit(doc):
        for key in ("subgroups", "gens", "maximals"):
            doc[key][1], doc[key][2] = doc[key][2], doc[key][1]
    assert _tampered_s4_cache(tmp_path, groups, edit) is None
