"""Formations as executable group classes.

A Formation couples a membership predicate with conservative metadata flags
(hereditary, saturated, a licensed multiply-saturated level, class bounds)
and, for the built-ins N, U, S and N^r, a canonical local satellite table:

    N   -> F(p) = G_p
    U   -> F(p) = G_p * A(p-1)
    S   -> F(p) = S
    N^r -> F(p) = G_p * N^(r-1)

The satellite table is design-asserted; run the Gaschutz cross-check
(member(F, G) <=> local_membership(G, F) over a corpus) before trusting
theorem verdicts built on it.

Metadata propagation through products and intersections follows three rules:
products and intersections of n-multiply saturated formations keep the
minimum level; a formation of level >= r contained in N^(r+1) is hereditary;
flags never claim more than those rules license (None = unknown).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

from .arith import is_prime, p_part, prime_divisors
from .errors import NoSatellite, NotMaximal
from .groups import (FiniteGroup, Subgroup, as_group, bits_of, core_bits,
                     derived_bits, quotient, subquotient)
from .lattice import (ChiefFactor, all_subgroups, chief_series,
                      minimal_normal_subgroups, normal_subgroups)
from .structure import (is_soluble, is_supersoluble, nilpotent_length,
                        subgroup_is_nilpotent)

MSL_UNBOUNDED = 10**9  # sentinel for "n-multiply saturated for every n"


@dataclass(frozen=True)
class Formation:
    """A named group class with membership predicate and metadata flags.

    `msl` is the *licensed* multiply-saturated level: the class is known to be
    msl-multiply saturated (every formation is at least 0-multiply saturated).
    `nl_bound` is a known r with F contained in N^r (None when unbounded or
    unknown); `contains_nilpotent` / `within_supersoluble` bound the class
    between N and U where known. None always means "unknown".

    `subgroup_test`, when set, decides membership of a subgroup from its
    parent's tables, so `subgroup_member` never materializes the subgroup
    for it; `test` is then that predicate applied to `g.full_subgroup()`
    (see `_in_parent`), one implementation for both.
    """

    name: str
    key: str
    test: Callable[[FiniteGroup], bool] = field(compare=False)
    hereditary: Optional[bool] = None
    saturated: Optional[bool] = None
    msl: int = 0
    contains_nilpotent: Optional[bool] = None
    within_supersoluble: Optional[bool] = None
    nl_bound: Optional[int] = None
    satellite_fn: Optional[Callable[[int], "Formation"]] = field(default=None, compare=False)
    subgroup_test: Optional[Callable[[Subgroup], bool]] = field(default=None, compare=False)

    def __repr__(self):
        return f"Formation({self.name})"

    @property
    def has_satellite(self) -> bool:
        return self.satellite_fn is not None


def member(f: Formation, g: FiniteGroup) -> bool:
    """G in F, memoized per group."""
    key = ("member", f.key)
    hit = g._memo.get(key)
    if hit is None:
        hit = bool(f.test(g))
        g._memo[key] = hit
    return hit


def subgroup_member(f: Formation, h: Subgroup) -> bool:
    """H in F for a subgroup H. A proper H is decided in its parent by
    `f.subgroup_test` when F has one (N, Gp(p)); otherwise H is
    materialized (`as_group`) and its membership memoized there, which
    sections with equal tables share."""
    if h.is_trivial:
        return True
    if h.is_full:
        return member(f, h.parent)
    if f.subgroup_test is not None:
        return f.subgroup_test(h)
    return member(f, as_group(h))


def _in_parent(subgroup_test: Callable[[Subgroup], bool]) -> Callable[[FiniteGroup], bool]:
    """The whole-group test of a formation decided in the parent's tables."""
    return lambda g: subgroup_test(g.full_subgroup())


# ---------------------------------------------------------------------------
# built-in formations


def p_groups(p: int) -> Formation:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    def subgroup_test(h: Subgroup, _p=p) -> bool:
        return h.order == p_part(h.order, _p)

    return Formation(
        name=f"Gp({p})", key=f"Gp({p})", test=_in_parent(subgroup_test),
        hereditary=True, saturated=True, msl=MSL_UNBOUNDED,
        contains_nilpotent=False, within_supersoluble=True, nl_bound=1,
        subgroup_test=subgroup_test,
    )


def abelian_exponent(m: int) -> Formation:
    """A(m): abelian groups of exponent dividing m."""
    if m < 1:
        raise ValueError("m must be >= 1")

    def test(g: FiniteGroup, _m=m) -> bool:
        return g.is_abelian() and _m % g.exponent == 0

    return Formation(
        name=f"A({m})", key=f"A({m})", test=test,
        hereditary=True, saturated=(m == 1), msl=MSL_UNBOUNDED if m == 1 else 0,
        contains_nilpotent=False, within_supersoluble=True, nl_bound=1,
    )


NILPOTENT = Formation(
    name="N", key="N", test=_in_parent(subgroup_is_nilpotent),
    hereditary=True, saturated=True, msl=MSL_UNBOUNDED,
    contains_nilpotent=True, within_supersoluble=True, nl_bound=1,
    satellite_fn=p_groups, subgroup_test=subgroup_is_nilpotent,
)

SUPERSOLUBLE = Formation(
    name="U", key="U", test=is_supersoluble,
    hereditary=True, saturated=True, msl=1,
    contains_nilpotent=True, within_supersoluble=True, nl_bound=2,
    satellite_fn=lambda p: product(p_groups(p), abelian_exponent(p - 1)),
)

SOLUBLE = Formation(
    name="S", key="S", test=is_soluble,
    hereditary=True, saturated=True, msl=MSL_UNBOUNDED,
    contains_nilpotent=True, within_supersoluble=False, nl_bound=None,
    satellite_fn=lambda p: SOLUBLE,
)


@cache
def soluble_length_formation(r: int) -> Formation:
    """N^r: soluble groups of nilpotent length at most r (N^1 is N), with
    the satellite F(p) = Gp(p) * N^(r-1)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return NILPOTENT

    def test(g: FiniteGroup) -> bool:
        nl = nilpotent_length(g)
        return nl is not None and nl <= r

    return Formation(
        name=f"N^{r}", key=f"N^{r}", test=test,
        hereditary=True, saturated=True, msl=MSL_UNBOUNDED,
        contains_nilpotent=True, within_supersoluble=False, nl_bound=r,
        satellite_fn=lambda p: product(p_groups(p), soluble_length_formation(r - 1)),
    )


def nilpotent_commutator_class() -> Formation:
    """Groups whose commutator subgroup is nilpotent (G' <= F(G)).

    Locally defined by the constant function p -> (all abelian groups), hence
    saturated; used by the corollary that needs exactly this class.
    """

    def test(g: FiniteGroup) -> bool:
        return subgroup_is_nilpotent(Subgroup(g, derived_bits(g, g.full_bits())))

    return Formation(
        name="NA", key="NA", test=test,
        hereditary=True, saturated=True, msl=1,
        contains_nilpotent=True, within_supersoluble=False, nl_bound=2,
    )


# ---------------------------------------------------------------------------
# residuals and class algebra


def residual(g: FiniteGroup, f: Formation) -> Subgroup:
    """G^F: intersection of the normal subgroups with quotient in F.

    Formations are closed under subdirect products, so the intersection is
    itself a qualifying kernel; that is asserted after the fact.
    """
    key = ("residual", f.key)
    hit = g._memo.get(key)
    if hit is not None:
        return hit
    bits = g.full_bits()
    for n in normal_subgroups(g):
        if bits & n.bits == bits:
            continue  # already below the running intersection
        if member(f, quotient(g, n).base):
            bits &= n.bits
    res = Subgroup(g, bits)
    if not member(f, quotient(g, res).base):
        raise RuntimeError(f"{f.name} violated formation closure on {g.name}")
    g._memo[key] = res
    return res


def product(m: Formation, h: Formation) -> Formation:
    """Class product M*H = {G : G^H in M} with conservative metadata."""

    def test(g: FiniteGroup, _m=m, _h=h) -> bool:
        res = residual(g, _h)
        return subgroup_member(_m, res)

    msl = min(m.msl, h.msl)
    nl_bound = (m.nl_bound + h.nl_bound) if (m.nl_bound is not None and h.nl_bound is not None) else None
    hereditary = _hereditary_by_bound(msl, nl_bound)
    if hereditary is None and _re.fullmatch(r"Gp\(\d+\)", m.key) \
            and _re.fullmatch(r"A\(\d+\)|N(\^\d+)?", h.key):
        # satellite table pairs G_p*A(m) and G_p*N^r are known hereditary
        hereditary = True
    contains_n = True if (m.contains_nilpotent or h.contains_nilpotent) else None
    if m.contains_nilpotent is False and h.contains_nilpotent is False:
        contains_n = False
    # parenthesized where the name would otherwise read as another formation
    left = f"({m.name})" if "&" in _operators(m.name) else m.name
    right = f"({h.name})" if _operators(h.name) else h.name
    return Formation(
        name=f"{left}*{right}", key=f"({m.key}*{h.key})", test=test,
        hereditary=hereditary,
        saturated=True if msl >= 1 else None,
        msl=msl,
        contains_nilpotent=contains_n,
        within_supersoluble=None,
        nl_bound=nl_bound,
    )


def _operators(name: str) -> str:
    """The '*' and '&' of a formation name that sit outside parentheses."""
    depth, ops = 0, ""
    for ch in name:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "*&":
            ops += ch
    return ops


def intersection(f1: Formation, f2: Formation) -> Formation:
    """Class intersection; flags are the conjunction of the input flags."""

    def test(g: FiniteGroup, _a=f1, _b=f2) -> bool:
        return member(_a, g) and member(_b, g)

    def conj(a, b):
        if a is True and b is True:
            return True
        if a is False or b is False:
            return False
        return None

    nl_candidates = [x for x in (f1.nl_bound, f2.nl_bound) if x is not None]
    return Formation(
        name=f"{f1.name}&{f2.name}", key=f"({f1.key}&{f2.key})", test=test,
        hereditary=conj(f1.hereditary, f2.hereditary),
        saturated=conj(f1.saturated, f2.saturated),
        msl=min(f1.msl, f2.msl),
        contains_nilpotent=conj(f1.contains_nilpotent, f2.contains_nilpotent),
        within_supersoluble=True if (f1.within_supersoluble or f2.within_supersoluble) else None,
        nl_bound=min(nl_candidates) if nl_candidates else None,
    )


def _hereditary_by_bound(msl: int, nl_bound: Optional[int]) -> Optional[bool]:
    # r-multiply saturated and contained in N^(r+1) forces heredity.
    if nl_bound is not None and msl >= nl_bound - 1:
        return True
    return None


BUILTINS: dict[str, Formation] = {
    "N": NILPOTENT,
    "U": SUPERSOLUBLE,
    "S": SOLUBLE,
    "N^2": soluble_length_formation(2),
    "N^3": soluble_length_formation(3),
    "N^4": soluble_length_formation(4),
    "NA": nilpotent_commutator_class(),
}


# ---------------------------------------------------------------------------
# canonical local satellites, chief-factor centrality and the hypercentre


_SATELLITES: dict[tuple[str, int], Formation] = {}


def canonical_satellite(f: Formation, p: int) -> Formation:
    """Canonical local satellite value F(p) for the built-in table, built by
    `f.satellite_fn` once per (f.key, p)."""
    if not f.has_satellite:
        raise NoSatellite(f"{f.name} has no canonical satellite table")
    key = (f.key, p)
    fp = _SATELLITES.get(key)
    if fp is None:
        fp = _SATELLITES[key] = f.satellite_fn(p)
    return fp


def factor_centralizer_bits(g: FiniteGroup, factor: ChiefFactor) -> int:
    """C_G(H/K) = {x : [x, h] in K for all h in H} (generators of H suffice)."""
    rows, inv, lower = g.right_rows, g.inv, factor.lower.bits
    keep = range(g.order)
    for h in factor.upper.gens:
        hrow = rows[h]
        # [x, h] = (hx)^-1 (xh)
        keep = [x for x in keep if lower >> rows[hrow[x]][inv[rows[x][h]]] & 1]
    return bits_of(keep)


def is_f_central(g: FiniteGroup, factor: ChiefFactor, f: Formation) -> bool:
    """G/C_G(H/K) in F(p) for every prime p dividing |H/K|."""
    if not f.has_satellite:
        raise NoSatellite(f"{f.name} has no canonical satellite table")
    c = Subgroup(g, factor_centralizer_bits(g, factor))
    q = quotient(g, c).base
    return all(member(canonical_satellite(f, p), q) for p in factor.primes)


def local_membership(g: FiniteGroup, f: Formation) -> bool:
    """LF(F) membership: every chief factor is F-central."""
    if g.order == 1:
        return True
    return all(is_f_central(g, factor, f) for factor in chief_series(g).factors)


def f_hypercentre(g: FiniteGroup, f: Formation) -> Subgroup:
    """Largest normal subgroup whose G-chief factors below it are F-central,
    built by absorbing F-central minimal normal subgroups of successive
    quotients. Memoized per formation."""
    if not f.has_satellite:
        raise NoSatellite(f"{f.name} has no canonical satellite table")
    key = ("f_hypercentre", f.key)
    hit = g._memo.get(key)
    if hit is not None:
        return hit
    z = g.trivial_subgroup()
    while z.order < g.order:
        q = quotient(g, z)
        for mn in minimal_normal_subgroups(q.base):
            upper = Subgroup(g, q.preimage_bits(mn.bits))
            if is_f_central(g, ChiefFactor(lower=z, upper=upper), f):
                z = upper
                break
        else:
            break
    g._memo[key] = z
    return z


# ---------------------------------------------------------------------------
# F-normality, F-subnormality, F-criticality


def is_f_normal_maximal(g: FiniteGroup, m: Subgroup, f: Formation) -> bool:
    """Maximal M is F-normal iff G/core_G(M) in F."""
    lat = all_subgroups(g)
    if lat.position(m) not in lat.maximals_of[lat.top_index]:
        raise NotMaximal(f"subgroup of order {m.order} is not maximal in {g.name}")
    cbits = core_bits(g, m.bits, g.generators)
    return member(f, quotient(g, Subgroup(g, cbits)).base)


def f_subnormal_bits(g: FiniteGroup, f: Formation,
                     top: Optional[Subgroup] = None) -> frozenset[int]:
    """Bitmasks (in g's indexing) of the subgroups F-subnormal in top, a
    subgroup of g that defaults to g.

    H is F-subnormal in top iff H = top or H is maximal in some F-subnormal
    K with K/core_K(H) in F, so one reachability sweep of g's lattice down
    from top settles every subgroup below it at once. When F is hereditary,
    a K in F needs no edge test: every L <= K is in F, and so is every
    quotient of L (formations are quotient-closed), so every maximal step
    below K passes and K's whole down-set is F-subnormal. Memoized per
    (formation, top).
    """
    top_bits = g.full_bits() if top is None else top.bits
    key = ("f_subnormal", f.key, top_bits)
    hit = g._memo.get(key)
    if hit is not None:
        return hit
    lat = all_subgroups(g)
    subs, maximals_of = lat.subgroups, lat.maximals_of
    start = lat.index_of[top_bits]
    good = {start}
    stack = [start]
    while stack:
        ki = stack.pop()
        k = subs[ki]
        if f.hereditary is True and subgroup_member(f, k):
            down = [ki]
            while down:
                for mi in maximals_of[down.pop()]:
                    if mi not in good:
                        good.add(mi)
                        down.append(mi)
            continue
        for mi in maximals_of[ki]:
            if mi in good:
                continue
            if member(f, subquotient(k, core_bits(g, subs[mi].bits, k.gens)).base):
                good.add(mi)
                stack.append(mi)
    out = frozenset(subs[i].bits for i in good)
    g._memo[key] = out
    return out


def is_f_subnormal(g: FiniteGroup, h: Subgroup, f: Formation) -> bool:
    return h.bits in f_subnormal_bits(g, f)


def is_f_critical(g: FiniteGroup, f: Formation) -> bool:
    """G not in F while every proper subgroup is.

    When the hereditary flag is set the maximal subgroups suffice.
    """
    if member(f, g):
        return False
    lat = all_subgroups(g)
    if f.hereditary:
        candidates = lat.maximal_subgroups(g.full_subgroup())
    else:
        candidates = [s for s in lat.subgroups if not s.is_full]
    return all(subgroup_member(f, s) for s in candidates)


# ---------------------------------------------------------------------------
# Sigma_t closure


@dataclass(frozen=True)
class SigmaReport:
    group: str
    formation: str
    t: int
    witness_found: bool
    witness: tuple[str, ...]
    group_in_class: bool

    @property
    def violation(self) -> bool:
        return self.witness_found and not self.group_in_class


def sigma_closure_check(g: FiniteGroup, f: Formation, t: int) -> SigmaReport:
    """Search for t subgroups in F with pairwise coprime indices.

    Pairwise coprime indices mean pairwise disjoint prime supports, and two
    distinct subgroups sharing a nonempty support can never be coprime, so the
    search runs over the handful of distinct supports.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    lat = all_subgroups(g)
    by_support: dict[frozenset[int], list[Subgroup]] = {}
    for s in lat.subgroups:
        sup = frozenset(prime_divisors(g.order // s.order)) if s.order < g.order else frozenset()
        by_support.setdefault(sup, []).append(s)
    supports = sorted(by_support, key=lambda s: (len(s), sorted(s)))

    member_of: dict[frozenset[int], Optional[Subgroup]] = {}

    def first_member(sup: frozenset[int]) -> Optional[Subgroup]:
        if sup not in member_of:
            found = None
            for s in by_support[sup]:
                if subgroup_member(f, s):
                    found = s
                    break
            member_of[sup] = found
        return member_of[sup]

    def search(start: int, picked: list[frozenset[int]], used: frozenset[int]):
        if len(picked) == t:
            return list(picked)
        for i in range(start, len(supports)):
            sup = supports[i]
            if sup and (sup & used):
                continue
            if not sup and picked.count(sup) >= 1:
                continue  # index 1 belongs to G alone; it cannot repeat
            if first_member(sup) is None:
                continue
            got = search(i if not sup else i + 1, picked + [sup], used | sup)
            if got is not None:
                return got
        return None

    in_class = member(f, g)
    if in_class:
        return SigmaReport(g.name, f.name, t, True,
                           (f"whole group, repeated {t} times",), True)
    combo = search(0, [], frozenset())
    if combo is None:
        return SigmaReport(g.name, f.name, t, False, (), in_class)
    witness = tuple(first_member(sup).describe() for sup in combo)
    return SigmaReport(g.name, f.name, t, True, witness, in_class)
