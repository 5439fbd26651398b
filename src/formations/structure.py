"""Structural predicates: solubility, nilpotency, dispersiveness, and the
conjugation action a subgroup induces on a normal p-subgroup.

Nilpotency is decided by the p-element census (the Sylow p-subgroup is normal
iff the p-elements number exactly the p-part of |G|), which keeps the common
predicates lattice-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import p_part, prime_divisors
from .errors import NotNormalized
from .groups import (FiniteGroup, QuotientGroup, Subgroup, centralizer,
                     conjugate_bits, derived_bits, normal_closure_bits,
                     p_element_bits, quotient, subquotient)
from .lattice import all_subgroups, chief_series, fitting, normal_subgroups

DispersiveOrdering = tuple[int, ...]


@dataclass(frozen=True)
class StructureProfile:
    pi: tuple[int, ...]
    abelian: bool
    nilpotent: bool
    soluble: bool
    supersoluble: bool
    nilpotent_length: Optional[int]
    exponent: int


def has_normal_sylow(g: FiniteGroup, p: int) -> Optional[Subgroup]:
    """The normal Sylow p-subgroup if one exists, else None (census test)."""
    target = p_part(g.order, p)
    bits = p_element_bits(g, p)
    if bits.bit_count() == target:
        return Subgroup(g, bits)
    return None


def is_nilpotent(g: FiniteGroup) -> bool:
    return subgroup_is_nilpotent(g.full_subgroup())


def is_soluble(g: FiniteGroup) -> bool:
    return subgroup_is_soluble(g.full_subgroup())


def is_supersoluble(g: FiniteGroup) -> bool:
    return all(f.order in f.primes for f in chief_series(g).factors)


def nilpotent_length(g: FiniteGroup) -> Optional[int]:
    """Length of the ascending Fitting series, None when it stalls below g."""
    cur = g
    length = 0
    while cur.order > 1:
        f = fitting(cur)
        if f.order == 1:
            return None
        cur = quotient(cur, f).base
        length += 1
    return length


def profile(g: FiniteGroup) -> StructureProfile:
    cached = g._memo.get("profile")
    if cached is not None:
        return cached
    nl = nilpotent_length(g)
    prof = StructureProfile(
        pi=g.pi(),
        abelian=g.is_abelian(),
        nilpotent=is_nilpotent(g),
        soluble=nl is not None,
        supersoluble=is_supersoluble(g),
        nilpotent_length=nl,
        exponent=g.exponent,
    )
    g._memo["profile"] = prof
    return prof


# ---------------------------------------------------------------------------
# subgroup-level shortcuts (work off the parent's tables, no materialization)
#
# `subgroup_is_nilpotent` is also the whole-group test (`is_nilpotent` reads
# it on `g.full_subgroup()`) and N's `Formation.subgroup_test`, so
# `formation.subgroup_member(N, H)` never builds H's table.


def subgroup_is_nilpotent(h: Subgroup) -> bool:
    """Every Sylow subgroup of h is normal: h has exactly p_part(|h|, p)
    elements of p-power order for each prime p."""
    return all(p_element_bits(h.parent, p, h.bits).bit_count() == p_part(h.order, p)
               for p in prime_divisors(h.order))


def subgroup_is_soluble(h: Subgroup) -> bool:
    """The derived series of h, taken in the parent's table, reaches 1."""
    g, cur = h.parent, h.bits
    while True:
        nxt = derived_bits(g, cur)
        if nxt == cur:
            return cur == 1
        cur = nxt


def subgroup_is_abelian(h: Subgroup) -> bool:
    return h.parent.commute(h.gens)


def is_schmidt(g: FiniteGroup) -> bool:
    """Non-nilpotent with every proper subgroup nilpotent (maximal subgroups
    suffice since nilpotency is subgroup-closed)."""
    if is_nilpotent(g):
        return False
    lat = all_subgroups(g)
    return all(subgroup_is_nilpotent(m)
               for m in lat.maximal_subgroups(g.full_subgroup()))


def is_miller_moreno(g: FiniteGroup) -> bool:
    """Non-abelian with every proper subgroup abelian."""
    if g.is_abelian():
        return False
    lat = all_subgroups(g)
    return all(subgroup_is_abelian(m)
               for m in lat.maximal_subgroups(g.full_subgroup()))


# ---------------------------------------------------------------------------
# dispersiveness


def is_phi_dispersive(g: FiniteGroup, ordering: DispersiveOrdering) -> bool:
    """True iff for every prefix of the ordering there is a normal subgroup
    whose order is the product of those full prime-parts."""
    pi = set(g.pi())
    if set(ordering) != pi or len(ordering) != len(pi):
        raise ValueError(f"ordering {ordering} is not a permutation of pi(G) = {sorted(pi)}")
    if g.order == 1:
        return True
    normal_orders = {s.order for s in normal_subgroups(g)}
    need = 1
    for p in ordering[:-1]:
        need *= p_part(g.order, p)
        if need not in normal_orders:
            return False
    return True


def dispersiveness(g: FiniteGroup) -> tuple[bool, Optional[DispersiveOrdering]]:
    """(Ore dispersive?, some witness ordering or None).

    The witness search is greedy: with N the normal Hall subgroup of the
    primes taken so far, take the least untaken prime p whose Sylow subgroup
    of G/N is normal, and go on. A normal subgroup M of G of order
    |N|*|G|_p contains N (|MN/N| divides |G/N|, which is prime to |N|), so
    it is the preimage of that Sylow subgroup, and the normal-subgroup
    orders settle each step without building G/N. Quotients of
    phi-dispersive groups stay phi-dispersive, so greedy finds a witness
    whenever one exists.
    """
    pi = sorted(g.pi())
    ore = is_phi_dispersive(g, tuple(reversed(pi))) if pi else True
    normal_orders = {s.order for s in normal_subgroups(g)}
    witness: list[int] = []
    need = 1
    while len(witness) < len(pi):
        p = next((p for p in pi if p not in witness
                  and need * p_part(g.order, p) in normal_orders), None)
        if p is None:
            return ore, None
        witness.append(p)
        need *= p_part(g.order, p)
    return ore, tuple(witness)


# ---------------------------------------------------------------------------
# induced action and plain subnormality


def induced_action(h: Subgroup, p_sub: Subgroup) -> QuotientGroup:
    """The automorphism action of h on p_sub by conjugation, as the quotient
    H/C_H(P) of the materialized h. C_H(P) is C_G(P) & H, and C_G(P) is
    memoized on the parent per P's bits, so every subgroup acting on one P
    shares one centralizer scan."""
    g = h.parent
    if p_sub.parent is not g:
        raise ValueError("subgroups must share a parent")
    for x in h.gens:
        if conjugate_bits(g, p_sub.bits, x) != p_sub.bits:
            raise NotNormalized(f"subgroup does not normalize the target in {g.name}")
    key = ("centralizer", p_sub.bits)
    cbits = g._memo.get(key)
    if cbits is None:
        cbits = g._memo[key] = centralizer(g, p_sub.gens).bits
    return subquotient(h, cbits & h.bits)


def is_subnormal(g: FiniteGroup, h: Subgroup) -> bool:
    """Iterated normal closure descending from g stabilizes at h."""
    cur_bits = g.full_bits()
    cur_gens = g.generators
    while True:
        if cur_bits == h.bits:
            return True
        nxt = normal_closure_bits(g, h.bits, cur_gens)
        if nxt == cur_bits:
            return False
        cur_bits = nxt
        cur_gens = Subgroup(g, nxt).gens
