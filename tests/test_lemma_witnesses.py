"""The reports of the Sigma_t lemmas and the triple-factorization search
when their conclusions fail.

No corpus group violates these lemmas, so the corpus pins never see their
witness strings, nor which triple the search settles on. Here the helpers
the verifiers ask are patched to report a violation, and every report is
pinned byte for byte.
"""

from dataclasses import replace

import pytest

from formations import theorems
from formations.dsl import parse_group
from formations.formation import BUILTINS, SigmaReport
from formations.structure import profile, subgroup_is_soluble

N, N2 = BUILTINS["N"], BUILTINS["N^2"]


def _sigma_reports(monkeypatch, outcome):
    """Make `sigma_closure_check` answer from `outcome`: formation name ->
    "violation" (a witness, G outside F), "ok" (a witness, G in F) or
    "none" (no witness)."""
    def check(g, f, t):
        kind = outcome[f.name]
        return SigmaReport(g.name, f.name, t, kind != "none",
                           ("W1", "W2") if kind != "none" else (), kind != "violation")
    monkeypatch.setattr(theorems, "sigma_closure_check", check)


def _json(lemma_id, group="S4", **instance):
    return theorems.verify_lemma(lemma_id, parse_group(group), **instance).to_json()


def _doc(check, params, hyp, concl, witness, group="S4"):
    return {"check": check, "group": group, "params": params, "hypotheses_met": hyp,
            "conclusion_holds": concl, "witness": witness, "notes": []}


def test_lemma_2_10_violation(monkeypatch):
    _sigma_reports(monkeypatch, {"N": "violation"})
    assert _json("2.10", f=N) == _doc(
        "lemma-2.10", {"formation": "N"}, True, False,
        "Sigma_3 witness exists yet the group is outside N: ('W1', 'W2')")


def test_lemma_2_10_without_witness(monkeypatch):
    _sigma_reports(monkeypatch, {"N": "none"})
    assert _json("2.10", f=N) == _doc("lemma-2.10", {"formation": "N"}, False, None, None)


def test_lemma_3_3_violation(monkeypatch):
    _sigma_reports(monkeypatch, {"S": "violation"})
    assert _json("3.3") == _doc(
        "lemma-3.3", {}, True, False,
        "three soluble subgroups with coprime indices in an insoluble group")


def test_lemma_3_4_violation_for_f(monkeypatch):
    _sigma_reports(monkeypatch, {"N": "violation", "Gp(2)*N": "violation"})
    assert _json("3.4", f=N, r=0, p=2) == _doc(
        "lemma-3.4", {"formation": "N", "p": 2, "r": 0}, True, False,
        "Sigma_3 violation for N")


def test_lemma_3_4_violation_for_gp_product(monkeypatch):
    _sigma_reports(monkeypatch, {"N^2": "ok", "Gp(3)*N^2": "violation"})
    assert _json("3.4", f=N2, r=1, p=3) == _doc(
        "lemma-3.4", {"formation": "N^2", "p": 3, "r": 1}, True, False,
        "Sigma_4 violation for Gp(3)*N^2")
    _sigma_reports(monkeypatch, {"N^2": "none", "Gp(3)*N^2": "violation"})
    assert _json("3.4", f=N2, r=1, p=3)["witness"] == "Sigma_4 violation for Gp(3)*N^2"


def test_lemma_3_4_holds_and_vacuous(monkeypatch):
    _sigma_reports(monkeypatch, {"N^2": "none", "Gp(3)*N^2": "ok"})
    assert _json("3.4", f=N2, r=1, p=3) == _doc(
        "lemma-3.4", {"formation": "N^2", "p": 3, "r": 1}, True, True, None)
    _sigma_reports(monkeypatch, {"N^2": "none", "Gp(3)*N^2": "none"})
    assert _json("3.4", f=N2, r=1, p=3) == _doc(
        "lemma-3.4", {"formation": "N^2", "p": 3, "r": 1}, False, None, None)


def test_lemma_3_5_and_3_6_violations(monkeypatch):
    _sigma_reports(monkeypatch, {"N^2": "violation", "N^3": "violation"})
    assert _json("3.5") == _doc(
        "lemma-3.5", {"formation": "N^2", "t": 4}, True, False, "Sigma_4 violation for N^2")
    assert _json("3.6") == _doc(
        "lemma-3.6", {"formation": "N^2", "t": 4}, True, False, "Sigma_4 violation for N^2")
    assert _json("3.6", r=3) == _doc(
        "lemma-3.6", {"formation": "N^3", "t": 5}, True, False, "Sigma_5 violation for N^3")


@pytest.mark.parametrize("group, orders", [
    ("S4", "4, 6, 12"),
    ("S3 x C5", "6, 10, 15"),
    ("A4 x C5", "12, 15, 20"),
])
def test_triple_search_witness(monkeypatch, group, orders):
    """With G reported insoluble and G itself left out of the soluble
    factors, the first qualifying triple of proper subgroups is named."""
    monkeypatch.setattr(theorems, "profile", lambda g: replace(profile(g), soluble=False))
    monkeypatch.setattr(theorems, "subgroup_is_soluble",
                        lambda s: not s.is_full and subgroup_is_soluble(s))
    witness = f"insoluble group with qualifying triple: orders {orders}"
    assert _json("3.1", group) == _doc(
        "lemma-3.1", {"mode": "derived"}, True, False, witness, group)
    assert _json("3.2", group) == _doc(
        "lemma-3.2", {"mode": "plain"}, True, False, witness, group)
