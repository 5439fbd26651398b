"""Verifiers for the classification theorems and the supporting lemma suite.

Every verifier produces a TheoremReport with an explicit hypotheses_met flag,
so vacuous passes stay visible in the aggregates. A report with
hypotheses_met and a false conclusion is a genuine counterexample and always
carries a witness.

The Sigma_t lemmas (2.10, 3.3-3.6) share one report adapter, `_sigma_report`.
F-subnormality in G or in a subgroup of G is read from one sweep of G's
lattice (`f_subnormal_bits(g, f, top)`); in a quotient it is asked of the
quotient group itself. Both are memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import gcd
from typing import Callable, Optional

from .arith import p_part, prime_divisors
from .errors import InvalidParams, NoSatellite
from .formation import (Formation, SOLUBLE, SUPERSOLUBLE,
                        canonical_satellite, f_hypercentre, f_subnormal_bits,
                        factor_centralizer_bits, is_f_central, is_f_critical,
                        is_f_normal_maximal, member,
                        nilpotent_commutator_class, p_groups, product,
                        residual, sigma_closure_check,
                        soluble_length_formation, subgroup_member)
from .groups import (FiniteGroup, Subgroup, as_group, center, centralizer,
                     conjugate_bits, conjugates, derived_bits, is_normal,
                     map_bits_from_sub, normalizer,
                     p_element_bits, product_bits, quotient, subquotient)
from .lattice import (ChiefFactor, all_subgroups, fitting, frattini, hall,
                      minimal_normal_subgroups, normal_subgroups)
from .structure import (dispersiveness, has_normal_sylow, induced_action,
                        is_miller_moreno, is_phi_dispersive, is_schmidt,
                        is_subnormal, profile, subgroup_is_abelian,
                        subgroup_is_nilpotent, subgroup_is_soluble)


@dataclass(frozen=True)
class TheoremReport:
    check_id: str
    group: str
    params: dict
    hypotheses_met: bool
    conclusion_holds: Optional[bool]   # None = not applicable
    witness: Optional[str] = None
    notes: tuple[str, ...] = ()

    @property
    def is_violation(self) -> bool:
        return self.hypotheses_met and self.conclusion_holds is False

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "group": self.group,
            "params": {k: v for k, v in sorted(self.params.items())},
            "hypotheses_met": self.hypotheses_met,
            "conclusion_holds": self.conclusion_holds,
            "witness": self.witness,
            "notes": list(self.notes),
        }


def _report(check_id, g, params, hyp, concl, witness=None, notes=()):
    if not hyp:
        concl = None
        witness = None
    return TheoremReport(check_id=check_id, group=g.name, params=params,
                         hypotheses_met=hyp, conclusion_holds=concl,
                         witness=witness, notes=tuple(notes))


# ---------------------------------------------------------------------------
# premise helpers


def all_n_maximal_f_subnormal(g: FiniteGroup, n: int, f: Formation) -> tuple[bool, list[Subgroup]]:
    """Whether every n-maximal subgroup is F-subnormal; failures listed."""
    good = f_subnormal_bits(g, f)
    bad = [h for h in all_subgroups(g).n_maximal(n) if h.bits not in good]
    return (not bad, bad)


def _require(f: Formation, **flags) -> None:
    """Check metadata flags; unknown (None) disables the verifier."""
    for attr, wanted in flags.items():
        got = getattr(f, attr)
        if got is None:
            raise InvalidParams(f"{f.name}: flag {attr} unknown; verifier disabled")
        if bool(got) != wanted:
            raise InvalidParams(f"{f.name}: flag {attr}={got} contradicts requirement {wanted}")


# ---------------------------------------------------------------------------
# Frattini sections


def _frattini_bits(h: Subgroup) -> int:
    """Phi(H), as a bitmask in h's parent."""
    return map_bits_from_sub(h, frattini(as_group(h)).bits)


def _special(agrp: FiniteGroup) -> bool:
    """Z(A) = A' = Phi(A)."""
    return center(agrp).bits == derived_bits(agrp, agrp.full_bits()) == frattini(agrp).bits


def _frattini_factor(g: FiniteGroup, a: Subgroup) -> Optional[ChiefFactor]:
    """A/Phi(A) for a normal subgroup A of g, as a chief factor of g; None
    when it is not one (a normal subgroup of g lies strictly between, or A
    is trivial). Phi(A) is characteristic in A, hence normal in g."""
    phi = _frattini_bits(a)
    if phi == a.bits or any(phi & n.bits == phi and n.bits & a.bits == n.bits
                            and n.bits not in (phi, a.bits) for n in normal_subgroups(g)):
        return None
    return ChiefFactor(lower=Subgroup(g, phi), upper=a)


# ---------------------------------------------------------------------------
# Theorem B classification


@dataclass(frozen=True)
class ClassificationOutcome:
    kind: str                      # "type_i" | "type_ii" | "neither"
    a_order: Optional[int] = None
    b_order: Optional[int] = None
    a_shape: Optional[str] = None  # "minimal_normal_sylows" | "special_sylow_p"
    ii2_checks: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def is_classified(self) -> bool:
        return self.kind in ("type_i", "type_ii")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "a_order": self.a_order,
            "b_order": self.b_order,
            "a_shape": self.a_shape,
            "ii2_checks": list(self.ii2_checks),
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


def classify_type(g: FiniteGroup, n: int, f: Formation) -> ClassificationOutcome:
    """Type the group against the two shapes of the classification theorem.

    Type I means G in F. Type II requires: A = G^F and a complement B are
    Hall subgroups with G = A x| B; G Ore dispersive; A is a direct product of
    minimal normal subgroups of G that are Sylow subgroups, or a special Sylow
    p-subgroup of exponent p; and every n-maximal subgroup lies in F and acts
    on each Sylow p-subgroup of A inside A*H through a group in F(p).
    """
    if n < 1:
        raise InvalidParams("need n >= 1")
    if not f.has_satellite:
        raise NoSatellite(f"{f.name} has no canonical satellite table")
    if member(f, g):
        return ClassificationOutcome(kind="type_i")

    failures: list[str] = []
    notes: list[str] = []
    a = residual(g, f)
    # Hall condition for A and a complement B
    if gcd(a.order, g.order // a.order) != 1:
        failures.append(f"residual of order {a.order} is not a Hall subgroup")
        return ClassificationOutcome(kind="neither", a_order=a.order,
                                     failures=tuple(failures))
    b = hall(g, prime_divisors(g.order // a.order))
    if b is None:
        failures.append("no Hall complement to the residual exists")
        return ClassificationOutcome(kind="neither", a_order=a.order,
                                     failures=tuple(failures))
    ore, _ = dispersiveness(g)
    if not ore:
        failures.append("group is not Ore dispersive")

    shape = _residual_shape(g, a, f, failures, notes)
    # II(2) presupposes a nilpotent residual; its p-elements form no subgroup otherwise
    if subgroup_is_nilpotent(a):
        ii2 = _ii2_checks(g, a, n, f, failures)
    else:
        ii2 = ()

    kind = "type_ii" if not failures else "neither"
    return ClassificationOutcome(kind=kind, a_order=a.order, b_order=b.order,
                                 a_shape=shape, ii2_checks=tuple(ii2),
                                 failures=tuple(failures), notes=tuple(notes))


def _residual_shape(g, a, f, failures, notes) -> Optional[str]:
    """Check condition II(1); returns the matching shape name or None."""
    if not subgroup_is_nilpotent(a):
        failures.append("residual is not nilpotent")
        return None
    primes = prime_divisors(a.order)
    minimal_bits = {m.bits for m in minimal_normal_subgroups(g)}
    sylows_of_a = {p: p_element_bits(g, p, a.bits) for p in primes}
    if all(sylows_of_a[p] in minimal_bits and
           p_part(g.order, p) == sylows_of_a[p].bit_count() for p in primes):
        return "minimal_normal_sylows"

    # second branch: A is a Sylow p-subgroup of exponent p with
    # A' = Phi(A) = Z(A), and A/Phi(A) an F-eccentric chief factor of G
    if len(primes) != 1:
        failures.append("residual is neither a product of minimal normal Sylows nor a p-group")
        return None
    p = primes[0]
    if p_part(g.order, p) != a.order:
        failures.append("residual p-group is not a full Sylow subgroup")
        return None
    agrp = as_group(a)
    if agrp.exponent != p:
        failures.append(f"residual Sylow {p}-subgroup has exponent {agrp.exponent} != {p}")
        return None
    if not _special(agrp):
        failures.append("derived subgroup, Frattini subgroup and center of the residual differ")
        return None
    factor = _frattini_factor(g, a)
    if factor is None:
        failures.append("residual/Frattini is not a chief factor")
        return None
    if is_f_central(g, factor, f):
        failures.append("top factor of the residual is F-central, not eccentric")
        return None
    return "special_sylow_p"


def _ii2_checks(g, a, n, f, failures) -> list[str]:
    """Condition II(2): each n-maximal H lies in F and induces on every Sylow
    p-subgroup of A (inside A*H, which fixes the same quotient H/C_H(P)) an
    automorphism group in F(p). A is nilpotent, so its p-elements form its
    only Sylow p-subgroup."""
    lat = all_subgroups(g)
    sylows = [(p, Subgroup(g, p_element_bits(g, p, a.bits))) for p in prime_divisors(a.order)]
    records = []
    for h in lat.n_maximal(n):
        if not subgroup_member(f, h):
            failures.append(f"n-maximal subgroup ({h.describe()}) is outside the class")
            continue
        for p, psub in sylows:
            verdict = _action_in_satellite(g, h, psub, f, p)
            records.append(f"H order {h.order}, p={p}: {'ok' if verdict else 'fail'}")
            if not verdict:
                failures.append(
                    f"action of n-maximal subgroup (order {h.order}) on the Sylow "
                    f"{p}-subgroup of the residual falls outside F({p})")
    return records


def _action_in_satellite(g, h, psub, f, p) -> bool:
    q = induced_action(h, psub)
    return member(canonical_satellite(f, p), q.base)


# ---------------------------------------------------------------------------
# Theorems A-D


def verify_theorem(theorem_id: str, g: FiniteGroup, n: int = 1, r: int = 0,
                   f: Optional[Formation] = None) -> TheoremReport:
    """Evaluate one theorem instance on one group.

    Raises InvalidParams when the formation's metadata flags contradict (or
    cannot confirm) the theorem's class-level preconditions.
    """
    tid = theorem_id.upper()
    if f is None:
        raise InvalidParams("a formation is required")
    if tid == "A":
        return _theorem_a(g, n, r, f)
    if tid == "B":
        return _theorem_b(g, n, f)
    if tid == "C":
        return _theorem_c(g, f)
    if tid == "D":
        return _theorem_d(g, n, f)
    raise InvalidParams(f"unknown theorem {theorem_id!r}")


def _theorem_a(g, n, r, f) -> TheoremReport:
    if n < 1 or r < 0:
        raise InvalidParams("need n >= 1 and r >= 0")
    _require(f, contains_nilpotent=True)
    if f.msl < r:
        raise InvalidParams(f"{f.name} is only licensed as {f.msl}-multiply saturated; r={r}")
    if f.nl_bound is None or f.nl_bound > r + 1:
        raise InvalidParams(f"{f.name} is not known to sit inside N^{r + 1}")
    params = {"n": n, "r": r, "formation": f.name}
    notes = []
    if r == 0:
        notes.append("degenerate r=0 case: the class bounds force the nilpotent class")
    prof = profile(g)
    hyp = prof.soluble and len(prof.pi) >= n + r + 1
    witness = None
    concl = None
    if hyp:
        premise, bad = all_n_maximal_f_subnormal(g, n, f)
        hyp = premise
        if not premise:
            notes.append(f"premise fails: {len(bad)} n-maximal subgroups are not F-subnormal")
        else:
            concl = member(f, g)
            if not concl:
                witness = f"group of order {g.order} with F-subnormal {n}-maximals is outside {f.name}"
    return _report("theorem-A", g, params, hyp, concl, witness, notes)


def _theorem_b(g, n, f) -> TheoremReport:
    if n < 1:
        raise InvalidParams("need n >= 1")
    _require(f, contains_nilpotent=True, within_supersoluble=True, saturated=True)
    if not f.has_satellite:
        raise NoSatellite(f"{f.name} has no canonical satellite table")
    params = {"n": n, "formation": f.name}
    prof = profile(g)
    hyp = prof.soluble and len(prof.pi) >= n + 1
    concl = None
    witness = None
    notes = []
    if hyp:
        premise, bad = all_n_maximal_f_subnormal(g, n, f)
        outcome = classify_type(g, n, f)
        concl = premise == outcome.is_classified
        notes.append(f"premise={premise}, classified as {outcome.kind}")
        if not concl:
            if premise:
                witness = ("all n-maximal subgroups are F-subnormal but the group is neither "
                           f"type: {'; '.join(outcome.failures)}")
            else:
                witness = (f"group of type {outcome.kind} has a non-F-subnormal {n}-maximal "
                           f"subgroup: {bad[0].describe()}")
    return _report("theorem-B", g, params, hyp, concl, witness, notes)


def _theorem_c(g, f) -> TheoremReport:
    _require(f, hereditary=True, saturated=True)
    params = {"formation": f.name}
    notes = []
    hyp = True
    if f.within_supersoluble:
        notes.append("critical-group precondition holds: classes inside U have "
                     "soluble critical groups with a normal Sylow subgroup")
    else:
        if is_f_critical(g, f):
            ok = profile(g).soluble and any(
                has_normal_sylow(g, p) is not None for p in g.pi())
            if not ok:
                hyp = False
                notes.append("this critical group violates the class-level precondition")
        else:
            notes.append("precondition on critical groups assumed (group itself is not critical)")
    concl = None
    witness = None
    if hyp:
        lhs, bad = all_n_maximal_f_subnormal(g, 2, f)
        crit = is_f_critical(g, f)
        res_min = False
        if crit:
            res = residual(g, f)
            res_min = res.bits in {m.bits for m in minimal_normal_subgroups(g)}
        rhs = member(f, g) or (crit and res_min)
        concl = lhs == rhs
        notes.append(f"lhs={lhs}, in_class={member(f, g)}, critical={crit}, residual_minimal_normal={res_min}")
        if not concl:
            witness = (f"2-maximal equivalence fails: lhs={lhs}, rhs={rhs}"
                       + (f"; offender {bad[0].describe()}" if bad else ""))
    return _report("theorem-C", g, params, hyp, concl, witness, notes)


def _theorem_d(g, n, f) -> TheoremReport:
    if n < 1:
        raise InvalidParams("need n >= 1")
    _require(f, contains_nilpotent=True, within_supersoluble=True, saturated=True)
    params = {"n": n, "formation": f.name}
    prof = profile(g)
    hyp = prof.soluble and len(prof.pi) >= n
    concl = None
    witness = None
    notes = []
    if hyp:
        premise, _ = all_n_maximal_f_subnormal(g, n, f)
        hyp = premise
        if premise:
            _, wit = dispersiveness(g)
            concl = wit is not None and is_phi_dispersive(g, wit)
            if wit is not None:
                notes.append(f"witness ordering {wit}")
            if not concl:
                witness = "no Sylow-tower ordering exists despite F-subnormal n-maximals"
    return _report("theorem-D", g, params, hyp, concl, witness, notes)


# ---------------------------------------------------------------------------
# lemma suite

LemmaChecker = Callable[..., TheoremReport]


def verify_lemma(lemma_id: str, g: FiniteGroup, **instance) -> TheoremReport:
    """Evaluate one lemma instance; samplers produce the bound parameters."""
    try:
        checker = _LEMMAS[lemma_id]
    except KeyError:
        raise InvalidParams(f"unknown lemma {lemma_id!r}") from None
    return checker(g, **instance)


def lemma_parameters(lemma_id: str) -> tuple[str, ...]:
    """The instance parameters a lemma's checker takes, read from its code
    (the group excluded); every checker is a plain function or lambda."""
    code = _LEMMAS[lemma_id].__code__
    return code.co_varnames[1:code.co_argcount]


def _lemma_2_1_1(g, f: Formation, h_bits: int, k_bits: int) -> TheoremReport:
    params = {"formation": f.name, "h_order": h_bits.bit_count(), "k_order": k_bits.bit_count()}
    hyp = bool(f.hereditary) and h_bits in f_subnormal_bits(g, f)
    concl = None
    witness = None
    if hyp:
        concl = (h_bits & k_bits) in f_subnormal_bits(g, f, Subgroup(g, k_bits))
        if not concl:
            witness = (f"H of order {h_bits.bit_count()} meets K of order "
                       f"{k_bits.bit_count()} in a subgroup not {f.name}-subnormal in K")
    return _report("lemma-2.1.1", g, params, hyp, concl, witness)


def _lemma_2_1_2(g, f: Formation, h_bits: int, n_bits: int) -> TheoremReport:
    params = {"formation": f.name, "h_order": h_bits.bit_count(), "n_order": n_bits.bit_count()}
    nsub = Subgroup(g, n_bits)
    hyp = h_bits in f_subnormal_bits(g, f) and is_normal(g, nsub)
    concl = None
    witness = None
    if hyp:
        q = quotient(g, nsub)
        img = q.project_bits(h_bits)
        concl = img in f_subnormal_bits(q.base, f)
        if not concl:
            witness = "image HN/N fails to be F-subnormal in the quotient"
    return _report("lemma-2.1.2", g, params, hyp, concl, witness)


def _lemma_2_1_3(g, f: Formation, h_bits: int, k_bits: int) -> TheoremReport:
    params = {"formation": f.name, "h_order": h_bits.bit_count(), "k_order": k_bits.bit_count()}
    hyp = (h_bits in f_subnormal_bits(g, f)
           and k_bits in f_subnormal_bits(g, f, Subgroup(g, h_bits)))
    concl = None
    witness = None
    if hyp:
        concl = k_bits in f_subnormal_bits(g, f)
        if not concl:
            witness = (f"K of order {k_bits.bit_count()} is F-subnormal in H but not in the group")
    return _report("lemma-2.1.3", g, params, hyp, concl, witness)


def _lemma_2_1_4(g, f: Formation, k_bits: int) -> TheoremReport:
    params = {"formation": f.name, "k_order": k_bits.bit_count()}
    res = residual(g, f)
    hyp = bool(f.hereditary) and res.bits & k_bits == res.bits
    concl = None
    witness = None
    if hyp:
        concl = k_bits in f_subnormal_bits(g, f)
        if not concl:
            witness = f"K contains the residual yet is not {f.name}-subnormal"
    return _report("lemma-2.1.4", g, params, hyp, concl, witness)


def _lemma_2_2(g, f: Formation) -> TheoremReport:
    params = {"formation": f.name}
    hyp = bool(f.hereditary) and member(f, g)
    concl = None
    witness = None
    if hyp:
        good = f_subnormal_bits(g, f)
        bad = [s for s in all_subgroups(g).subgroups if s.bits not in good]
        concl = not bad
        if bad:
            witness = f"subgroup not F-subnormal despite G in {f.name}: {bad[0].describe()}"
    return _report("lemma-2.2", g, params, hyp, concl, witness)


def _lemma_2_3(g, f: Formation, n: int) -> TheoremReport:
    params = {"formation": f.name, "n": n}
    if not (f.hereditary and f.saturated):
        raise InvalidParams(f"{f.name}: lemma needs hereditary + saturated")
    premise, _ = all_n_maximal_f_subnormal(g, n, f)
    hyp = premise
    concl = None
    witness = None
    if hyp:
        upper = [h for h in all_subgroups(g).n_maximal(n - 1) if not subgroup_member(f, h)]
        _, lower = all_n_maximal_f_subnormal(g, n + 1, f)
        concl = not upper and not lower
        if upper:
            witness = f"(n-1)-maximal subgroup outside the class: {upper[0].describe()}"
        elif lower:
            witness = f"(n+1)-maximal subgroup not F-subnormal: {lower[0].describe()}"
    return _report("lemma-2.3", g, params, hyp, concl, witness)


def _lemma_2_4(g, f: Formation) -> TheoremReport:
    params = {"formation": f.name}
    if not f.saturated:
        raise InvalidParams(f"{f.name}: lemma needs a saturated formation")
    notes = []
    prof = profile(g)
    res = residual(g, f)
    hyp = prof.soluble and res.order > 1
    if hyp:
        abnormal = [m for m in all_subgroups(g).maximal_subgroups(g.full_subgroup())
                    if not is_f_normal_maximal(g, m, f)]
        if not all(subgroup_member(f, m) for m in abnormal):
            hyp = False
            notes.append("an F-abnormal maximal subgroup lies outside the class")
    concl = None
    witness = None
    if hyp:
        problems = []
        primes = prime_divisors(res.order)
        if len(primes) != 1:
            problems.append(f"residual has order {res.order}, not a prime power")
        else:
            p = primes[0]
            agrp = as_group(res)
            factor = _frattini_factor(g, res)
            if factor is None:
                problems.append("residual/Frattini(residual) is not a chief factor")
            elif is_f_central(g, factor, f):
                problems.append("residual top factor is F-central, should be eccentric")
            if not subgroup_is_abelian(res):
                if not _special(agrp):
                    problems.append("center, derived and Frattini subgroups of the residual differ")
                else:
                    common = center(agrp)
                    if not common.is_trivial and as_group(common).exponent != p:
                        problems.append("coinciding subgroup is not of exponent p")
            else:
                if agrp.exponent != p:
                    problems.append("abelian residual is not elementary")
            if p > 2 and agrp.exponent != p:
                problems.append(f"residual exponent {agrp.exponent} != {p}")
            if p == 2 and agrp.exponent > 4:
                problems.append("residual 2-group exponent exceeds 4")
            # (6) abnormal maximal subgroups are pairwise conjugate
            if abnormal and not {m.bits for m in abnormal} <= conjugates(g, abnormal[0].bits):
                problems.append("F-abnormal maximal subgroups fall into several conjugacy classes")
        concl = not problems
        witness = "; ".join(problems) if problems else None
    return _report("lemma-2.4", g, params, hyp, concl, witness, notes)


def _lemma_2_5(g, f: Formation) -> TheoremReport:
    params = {"formation": f.name}
    if not f.saturated:
        raise InvalidParams(f"{f.name}: lemma needs a saturated formation")
    crit = is_f_critical(g, f)
    norm_sylow = [(p, has_normal_sylow(g, p)) for p in g.pi()]
    norm_sylow = [(p, s) for p, s in norm_sylow if s is not None and s.order > 1]
    hyp = crit and bool(norm_sylow)
    concl = None
    witness = None
    if hyp:
        problems = []
        res = residual(g, f)
        fit = fitting(g)
        phi = frattini(g)
        for p, gp in norm_sylow:
            if gp.bits != res.bits:
                problems.append(f"normal Sylow {p}-subgroup differs from the residual")
                continue
            if product_bits(g, gp.bits, phi.bits) != fit.bits:
                problems.append("F(G) != Gp * Phi(G)")
            cfac = factor_centralizer_bits(
                g, ChiefFactor(lower=Subgroup(g, _frattini_bits(gp)), upper=gp))
            comp_order = g.order // gp.order
            lat = all_subgroups(g)
            comps = [s for s in lat.subgroups
                     if s.order == comp_order and s.bits & gp.bits == 1]
            if not comps:
                problems.append("no complement to the normal Sylow subgroup found")
            else:
                ok = any((s.bits & cfac) == (phi.bits & s.bits) for s in comps)
                if not ok:
                    problems.append("no complement satisfies the centralizer identity")
        concl = not problems
        witness = "; ".join(problems) if problems else None
    return _report("lemma-2.5", g, params, hyp, concl, witness)


def _lemma_2_6(g) -> TheoremReport:
    params = {}
    hyp = is_f_critical(g, SUPERSOLUBLE)
    concl = None
    witness = None
    if hyp:
        problems = []
        prof = profile(g)
        if not prof.soluble or len(prof.pi) > 3:
            problems.append("critical group is not soluble with at most 3 primes")
        if not is_schmidt(g):
            ore, _ = dispersiveness(g)
            if not ore:
                problems.append("non-Schmidt critical group is not Ore dispersive")
        res = residual(g, SUPERSOLUBLE)
        rp = prime_divisors(res.order)
        if len(rp) != 1 or res.order != p_part(g.order, rp[0]):
            problems.append("residual is not a Sylow subgroup")
        else:
            normal_sylows = [p for p in g.pi() if has_normal_sylow(g, p) is not None
                             and p_part(g.order, p) > 1]
            if normal_sylows != list(rp):
                problems.append(f"normal Sylow subgroups exist for primes {normal_sylows}, expected {rp}")
        comp_order = g.order // res.order
        lat = all_subgroups(g)
        phi = frattini(g)
        for s in lat.subgroups:
            if s.order == comp_order and s.bits & res.bits == 1:
                q = subquotient(s, s.bits & phi.bits).base
                prim_cyclic = (len(prime_divisors(q.order)) <= 1
                               and max(q.element_orders()) == q.order)
                if not (prim_cyclic or is_miller_moreno(q)):
                    problems.append(
                        f"complement quotient of order {q.order} is neither primary cyclic "
                        "nor one of the minimal-nonabelian kind")
                    break
        concl = not problems
        witness = "; ".join(problems) if problems else None
    return _report("lemma-2.6", g, params, hyp, concl, witness)


def _lemma_2_7(g, f: Formation, e_bits: int) -> TheoremReport:
    params = {"formation": f.name, "e_order": e_bits.bit_count()}
    if not f.has_satellite:
        raise NoSatellite(f.name)
    e = Subgroup(g, e_bits)
    primes = prime_divisors(e.order)
    hyp = is_normal(g, e) and len(primes) == 1
    concl = None
    witness = None
    if hyp:
        p = primes[0]
        z = f_hypercentre(g, f)
        lhs = e.bits & z.bits == e.bits
        cg = centralizer(g, e.gens)
        rhs = member(canonical_satellite(f, p), quotient(g, cg).base)
        concl = lhs == rhs
        if not concl:
            witness = f"E <= Z_F(G) is {lhs} but G/C_G(E) in F({p}) is {rhs}"
    return _report("lemma-2.7", g, params, hyp, concl, witness)


def _lemma_2_9(g, a_bits: int, b_bits: int, xs: tuple[int, ...]) -> TheoremReport:
    params = {"a_order": a_bits.bit_count(), "b_order": b_bits.bit_count()}
    hyp = product_bits(g, a_bits, b_bits) == g.full_bits()
    concl = None
    witness = None
    if hyp:
        bad = [x for x in xs
               if product_bits(g, a_bits, conjugate_bits(g, b_bits, x)) != g.full_bits()]
        concl = not bad
        if bad:
            witness = f"G = AB but G != A B^x for x = {bad[0]}"
    return _report("lemma-2.9", g, params, hyp, concl, witness)


def _sigma_report(check_id, g, params, searches) -> TheoremReport:
    """One report over Sigma_t searches, given as (SigmaReport, witness
    text) pairs: the hypotheses hold when some search found t subgroups in
    its formation with pairwise coprime indices, the conclusion when no
    search is a violation; the witness is the first violation's text."""
    hyp = any(rep.witness_found for rep, _ in searches)
    witness = next((text for rep, text in searches if rep.violation), None)
    return _report(check_id, g, params, hyp, witness is None, witness)


def _sigma_search(g, f: Formation, t: int):
    """The Sigma_t search for F, with the witness text of its violation."""
    return sigma_closure_check(g, f, t), f"Sigma_{t} violation for {f.name}"


def _lemma_2_10(g, f: Formation) -> TheoremReport:
    rep = sigma_closure_check(g, f, 3)
    return _sigma_report("lemma-2.10", g, {"formation": f.name}, [
        (rep, f"Sigma_3 witness exists yet the group is outside {f.name}: {rep.witness}")])


def _lemma_2_13(g, ordering: tuple[int, ...]) -> TheoremReport:
    params = {"ordering": list(ordering)}
    applicable = set(g.pi()) <= set(ordering)
    restricted = tuple(p for p in ordering if p in g.pi())
    concl_parts = []
    witness = None
    hyp = False
    if applicable and is_phi_dispersive(g, restricted):
        hyp = True
        for nsub in normal_subgroups(g):
            q = quotient(g, nsub).base
            sub_order = tuple(p for p in ordering if p in q.pi())
            if not is_phi_dispersive(q, sub_order):
                concl_parts.append(f"quotient by order {nsub.order} breaks dispersiveness")
    if applicable:
        phi = frattini(g)
        q = quotient(g, phi).base
        q_restricted = tuple(p for p in ordering if p in q.pi())
        if is_phi_dispersive(q, q_restricted):
            hyp = True
            if not is_phi_dispersive(g, restricted):
                concl_parts.append("G/Phi(G) is dispersive but G is not (saturation fails)")
    concl = None
    if hyp:
        concl = not concl_parts
        witness = "; ".join(concl_parts) if concl_parts else None
    return _report("lemma-2.13", g, params, hyp, concl, witness)


def _lemma_2_14(g, f: Formation, e_bits: int) -> TheoremReport:
    params = {"formation": f.name, "e_order": e_bits.bit_count()}
    if not (f.saturated and f.contains_nilpotent):
        raise InvalidParams(f"{f.name}: lemma needs a saturated formation containing N")
    e = Subgroup(g, e_bits)
    hyp = is_normal(g, e)
    concl = None
    witness = None
    if hyp:
        hyp = member(f, subquotient(e, e.bits & frattini(g).bits).base)
        if hyp:
            concl = subgroup_member(f, e)
            if not concl:
                witness = f"E/(E n Phi(G)) lies in {f.name} but E does not"
    return _report("lemma-2.14", g, params, hyp, concl, witness)


def _lemma_2_15(g, f: Formation, h_bits: int, m_bits: int) -> TheoremReport:
    params = {"formation": f.name, "h_order": h_bits.bit_count(), "m_order": m_bits.bit_count()}
    if not f.saturated:
        raise InvalidParams(f"{f.name}: lemma needs a saturated formation")
    res = residual(g, f)
    fit = fitting(g)
    h = Subgroup(g, h_bits)
    hyp = (subgroup_is_nilpotent(res)
           and subgroup_member(f, h)
           and h_bits & m_bits == h_bits
           and product_bits(g, h_bits, fit.bits) == g.full_bits())
    concl = None
    witness = None
    if hyp:
        m = Subgroup(g, m_bits)
        hyp = h_bits in f_subnormal_bits(g, f, m)
        if hyp:
            concl = subgroup_member(f, m)
            if not concl:
                witness = f"M of order {m.order} stays outside {f.name} despite the lemma's hypotheses"
    return _report("lemma-2.15", g, params, hyp, concl, witness)


def _prop_3_1(g, use_derived: bool = True, check_id: str = "lemma-3.1") -> TheoremReport:
    """Triple factorizations G = A1A2 = A2A3 = A1A3 with soluble factors and
    pairwise coprime normalizer indices force solubility."""
    params = {"mode": "derived" if use_derived else "plain"}
    lat = all_subgroups(g)
    subs = lat.subgroups
    soluble = {i for i, s in enumerate(subs) if subgroup_is_soluble(s)}
    pairs: dict[int, set[int]] = {}
    for i, j in lat.factorizations():
        if i in soluble and j in soluble:
            pairs.setdefault(i, set()).add(j)
            pairs.setdefault(j, set()).add(i)

    def index(t: int) -> int:
        tb = derived_bits(g, subs[t].bits) if use_derived else subs[t].bits
        return g.order // normalizer(g, Subgroup(g, tb)).order

    triples = ((i, j, k) for i in sorted(pairs) for j in sorted(pairs[i]) if j >= i
               for k in sorted(pairs[i] & pairs[j]) if k >= j)
    found = next((tr for tr in triples
                  if all(gcd(x, y) == 1 for x, y in combinations(map(index, tr), 2))), None)
    concl = witness = None
    if found is not None:
        concl = profile(g).soluble
        if not concl:
            witness = ("insoluble group with qualifying triple: orders "
                       + ", ".join(str(subs[t].order) for t in found))
    return _report(check_id, g, params, found is not None, concl, witness)


def _prop_3_4(g, f: Formation, r: int, p: int) -> TheoremReport:
    params = {"formation": f.name, "r": r, "p": p}
    if f.msl < r:
        raise InvalidParams(f"{f.name} not licensed as {r}-multiply saturated")
    if not f.contains_nilpotent or f.nl_bound is None or f.nl_bound > r + 1:
        raise InvalidParams(f"{f.name} not known to satisfy N <= F <= N^{r + 1}")
    t = r + 3
    return _sigma_report("lemma-3.4", g, params, [
        _sigma_search(g, f, t), _sigma_search(g, product(p_groups(p), f), t)])


def _cor_3_5(g, f: Optional[Formation] = None) -> TheoremReport:
    f = f or soluble_length_formation(2)
    return _sigma_report("lemma-3.5", g, {"formation": f.name, "t": 4}, [_sigma_search(g, f, 4)])


def _cor_3_6(g, r: int = 2) -> TheoremReport:
    f, t = soluble_length_formation(r), r + 2
    return _sigma_report("lemma-3.6", g, {"formation": f.name, "t": t}, [_sigma_search(g, f, t)])


def _mann_3_7(g, n: int) -> TheoremReport:
    params = {"n": n}
    prof = profile(g)
    hyp = prof.soluble and len(prof.pi) >= n + 1
    concl = None
    witness = None
    if hyp:
        lat = all_subgroups(g)
        subnormal_ok = all(is_subnormal(g, h) for h in lat.n_maximal(n))
        hyp = subnormal_ok
        if subnormal_ok:
            concl = prof.nilpotent
            if not concl:
                witness = f"all {n}-maximal subgroups subnormal but the group is not nilpotent"
    return _report("lemma-3.7", g, params, hyp, concl, witness)


_LEMMAS: dict[str, LemmaChecker] = {
    "2.1.1": _lemma_2_1_1,
    "2.1.2": _lemma_2_1_2,
    "2.1.3": _lemma_2_1_3,
    "2.1.4": _lemma_2_1_4,
    "2.2": _lemma_2_2,
    "2.3": _lemma_2_3,
    "2.4": _lemma_2_4,
    "2.5": _lemma_2_5,
    "2.6": _lemma_2_6,
    "2.7": _lemma_2_7,
    "2.9": _lemma_2_9,
    "2.10": _lemma_2_10,
    "2.13": _lemma_2_13,
    "2.14": _lemma_2_14,
    "2.15": _lemma_2_15,
    "3.1": lambda g: _prop_3_1(g, use_derived=True),
    "3.2": lambda g: _prop_3_1(g, use_derived=False, check_id="lemma-3.2"),
    "3.3": lambda g: _sigma_report("lemma-3.3", g, {}, [(
        sigma_closure_check(g, SOLUBLE, 3),
        "three soluble subgroups with coprime indices in an insoluble group")]),
    "3.4": _prop_3_4,
    "3.5": _cor_3_5,
    "3.6": _cor_3_6,
    "3.7": _mann_3_7,
    "3.8": lambda g, n=1: _delegate_theorem("lemma-3.8", "A", g, n=n, r=1, f=SUPERSOLUBLE),
    "3.9": lambda g, n=1: _delegate_theorem("lemma-3.9", "A", g, n=n, r=1, f=nilpotent_commutator_class()),
    "3.10": lambda g, n=1, r=2: _delegate_theorem("lemma-3.10", "A", g, n=n, r=r - 1, f=soluble_length_formation(r)),
    "4.1": lambda g: _delegate_theorem("lemma-4.1", "C", g, f=SUPERSOLUBLE),
    "4.2": lambda g, n=1: _delegate_theorem("lemma-4.2", "B", g, n=n, f=SUPERSOLUBLE),
    "4.3": lambda g, n=1: _delegate_theorem("lemma-4.3", "D", g, n=n, f=SUPERSOLUBLE),
}

LEMMA_IDS = tuple(sorted(_LEMMAS))


def _delegate_theorem(check_id, tid, g, **kw) -> TheoremReport:
    return replace(verify_theorem(tid, g, **kw), check_id=check_id)
