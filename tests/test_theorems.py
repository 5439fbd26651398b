import pytest

from formations.dsl import parse_group
from formations.errors import InvalidParams
from formations.formation import BUILTINS, is_f_central, member
from formations.groups import is_normal
from formations.lattice import all_subgroups, normal_subgroups
from formations.storage import builtin_corpus_path, load_corpus
from formations.structure import profile
from formations.theorems import (_frattini_factor, _special,
                                 all_n_maximal_f_subnormal, classify_type,
                                 verify_lemma, verify_theorem)

from conftest import of_order

N, U, S, N2 = BUILTINS["N"], BUILTINS["U"], BUILTINS["S"], BUILTINS["N^2"]


def test_all_n_maximal_f_subnormal(groups):
    s4 = groups["S4"]
    ok, witnesses = all_n_maximal_f_subnormal(s4, 1, U)
    assert not ok
    assert any(w.order == 6 for w in witnesses)  # a point stabilizer offends
    frob = groups["Frob21"]
    ok, witnesses = all_n_maximal_f_subnormal(frob, 2, N)
    assert ok and witnesses == []
    d8 = groups["D8"]
    for n in (1, 2, 3):
        ok, _ = all_n_maximal_f_subnormal(d8, n, N)
        assert ok  # members of hereditary classes pass at every depth


def test_maximal_subgroups_f_subnormal_iff_member():
    """For a saturated F, every maximal subgroup is F-subnormal iff
    G/Phi(G) is in F iff G is in F; on a G outside F this exercises the
    edge tests of the sweep."""
    for entry in load_corpus(builtin_corpus_path()):
        g = parse_group(entry.spec, name=entry.name)
        for f in (N, U, S, N2):
            assert all_n_maximal_f_subnormal(g, 1, f)[0] == member(f, g), (g.name, f.name)


def test_classify_type_i(groups):
    out = classify_type(groups["S3"], 1, U)
    assert out.kind == "type_i"


def test_classify_type_ii_frob21(groups):
    out = classify_type(groups["Frob21"], 2, N)
    assert out.kind == "type_ii"
    assert out.a_order == 7 and out.b_order == 3
    assert out.a_shape == "minimal_normal_sylows"
    assert not out.failures


def test_classify_neither(groups):
    out = classify_type(groups["S4"], 1, U)
    assert out.kind == "neither"
    assert any("Hall" in fail for fail in out.failures)


def test_frattini_factor_s4(groups):
    """V4/Phi(V4) = V4 is a chief factor of S4, and an N-eccentric one
    (S4/C(V4) = S3 is no 2-group); Phi(A4) = 1 and V4 lies between, so
    A4/Phi(A4) is not a chief factor."""
    s4 = groups["S4"]
    normal = {s.order: s for s in normal_subgroups(s4)}
    factor = _frattini_factor(s4, normal[4])
    assert factor is not None
    assert factor.lower.is_trivial and factor.upper == normal[4]
    assert factor.order == 4 and factor.primes == (2,)
    assert not is_f_central(s4, factor, N)
    assert _frattini_factor(s4, normal[12]) is None
    assert _frattini_factor(s4, normal[1]) is None


def test_special(groups):
    """Z(A) = A' = Phi(A): Q8 and D8 are special, C4, V4 and S3 are not."""
    assert _special(groups["Q8"]) and _special(groups["D8"])
    assert not any(_special(parse_group(name)) for name in ("C4", "V4", "S3"))


def test_theorem_a(groups):
    rep = verify_theorem("A", parse_group("C30"), n=1, r=0, f=N)
    assert rep.hypotheses_met and rep.conclusion_holds
    rep = verify_theorem("A", groups["S3 x C5"], n=1, r=1, f=U)
    assert rep.hypotheses_met and rep.conclusion_holds  # supersoluble member
    rep = verify_theorem("A", groups["S4"], n=1, r=0, f=N)
    assert not rep.hypotheses_met  # premise fails
    with pytest.raises(InvalidParams):
        verify_theorem("A", groups["S4"], n=1, r=2, f=U)  # U is only 1-multiply saturated
    with pytest.raises(InvalidParams):
        verify_theorem("A", groups["S4"], n=1, r=0, f=BUILTINS["S"])  # no N^r bound


def test_theorem_b(groups):
    for name in ("S4", "SL23", "S3 x C5"):
        for n in (1, 2):
            rep = verify_theorem("B", groups[name], n=n, f=U)
            assert rep.conclusion_holds is not False
    rep = verify_theorem("B", groups["S3 x C5"], n=1, f=N)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_theorem_c_anchors(groups):
    rep = verify_theorem("C", groups["SL23"], f=U)
    assert rep.hypotheses_met and rep.conclusion_holds
    assert "lhs=False" in rep.notes[-1]
    for name, f in (("A4", N), ("Frob21", N)):
        rep = verify_theorem("C", groups[name], f=f)
        assert rep.hypotheses_met and rep.conclusion_holds
        assert "lhs=True" in rep.notes[-1]
    rep = verify_theorem("C", groups["S4"], f=N)
    assert rep.conclusion_holds


def test_theorem_d(groups):
    rep = verify_theorem("D", groups["Frob21"], n=2, f=N)
    assert rep.hypotheses_met and rep.conclusion_holds
    assert any("(7, 3)" in note for note in rep.notes)
    rep = verify_theorem("D", groups["S3"], n=1, f=U)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_theorem_b_consistency_with_premise(groups):
    # classified (type I or II) plus |pi| >= n+1 forces the premise
    for name in ("S3", "S4", "SL23", "Frob21", "S3 x C5", "C12"):
        g = groups[name]
        prof = profile(g)
        if not prof.soluble:
            continue
        for f in (N, U):
            for n in (1, 2):
                if len(prof.pi) < n + 1:
                    continue
                out = classify_type(g, n, f)
                premise, _ = all_n_maximal_f_subnormal(g, n, f)
                if out.is_classified:
                    assert premise, (name, f.name, n)


def test_lemma_2_3(groups):
    rep = verify_lemma("2.3", groups["A4"], f=N, n=2)
    assert rep.conclusion_holds is not False
    rep = verify_lemma("2.3", groups["SL23"], f=U, n=2)
    assert rep.conclusion_holds is not False


def test_lemma_2_4_nonvacuous(groups):
    rep = verify_lemma("2.4", groups["SL23"], f=U)
    assert rep.hypotheses_met and rep.conclusion_holds
    rep = verify_lemma("2.4", groups["A4"], f=N)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_lemma_2_5(groups):
    rep = verify_lemma("2.5", groups["Frob21"], f=N)
    assert rep.hypotheses_met and rep.conclusion_holds
    rep = verify_lemma("2.5", groups["A4"], f=N)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_lemma_2_6(groups):
    for name in ("A4", "SL23"):
        rep = verify_lemma("2.6", groups[name])
        assert rep.hypotheses_met and rep.conclusion_holds
    # a critical group with an irreducible 2-dimensional layer
    from formations.storage import builtin_corpus_path, load_corpus
    entry = next(e for e in load_corpus(builtin_corpus_path()) if e.name == "G36")
    g36 = parse_group(entry.spec, name="G36")
    rep = verify_lemma("2.6", g36)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_lemma_2_7_example(groups):
    s4 = groups["S4"]
    v4 = next(s for s in of_order(all_subgroups(s4), 4) if is_normal(s4, s))
    rep = verify_lemma("2.7", s4, f=U, e_bits=v4.bits)
    assert rep.hypotheses_met and rep.conclusion_holds


def test_lemma_2_14_vacuous_example(groups):
    s4 = groups["S4"]
    a4 = next(s for s in of_order(all_subgroups(s4), 12))
    rep = verify_lemma("2.14", s4, f=U, e_bits=a4.bits)
    assert not rep.hypotheses_met  # A4/(A4 n Phi(S4)) = A4 is not supersoluble
    assert rep.conclusion_holds is None


def test_prop_3_1_a5_has_no_qualifying_triple(groups):
    rep = verify_lemma("3.1", groups["A5"])
    assert not rep.hypotheses_met
    rep = verify_lemma("3.2", groups["A5"])
    assert not rep.hypotheses_met


def test_wielandt_on_a5(groups):
    rep = verify_lemma("3.3", groups["A5"])
    assert rep.conclusion_holds is not False  # no coprime soluble triple exists


def test_mann_corollary(groups):
    rep = verify_lemma("3.7", parse_group("C30"), n=1)
    assert rep.hypotheses_met and rep.conclusion_holds
    rep = verify_lemma("3.7", groups["S3 x C5"], n=1)
    assert rep.conclusion_holds is not False


def test_corollary_delegations(groups):
    rep = verify_lemma("3.8", groups["S3 x C5"], n=1)
    assert rep.check_id == "lemma-3.8"
    assert rep.conclusion_holds is not False
    rep = verify_lemma("4.1", groups["SL23"])
    assert rep.hypotheses_met and rep.conclusion_holds
    rep = verify_lemma("4.3", groups["S3"], n=1)
    assert rep.conclusion_holds is not False


def test_unknown_ids(groups):
    with pytest.raises(InvalidParams):
        verify_lemma("9.9", groups["S3"])
    with pytest.raises(InvalidParams):
        verify_theorem("E", groups["S3"], f=N)


def test_report_soundness_rerun(groups):
    a = verify_theorem("C", groups["SL23"], f=U)
    b = verify_theorem("C", groups["SL23"], f=U)
    assert a == b
