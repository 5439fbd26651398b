"""Subgroup-lattice enumeration and lattice-derived structure.

The full lattice comes from breadth-first cyclic extension: seed with all
cyclic subgroups, then repeatedly extend each known subgroup by one outside
element (one canonical generator per cyclic subgroup, which loses nothing
since <H, g> = <H, g'> whenever <g> = <g'>) and close. Everything that only
needs *normal* subgroups (chief series, Fitting, O_p cores) is computed
directly from the closures of conjugacy classes instead, which keeps
membership predicates usable on groups whose full lattice would be expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .arith import p_part, pi_part, prime_divisors
from .errors import LatticeExceedsCap
from .groups import (FiniteGroup, Subgroup, conjugacy_classes, conjugate_bits,
                     join_bits, normalizer, quotient, subgroup_from_bits)

DEFAULT_LATTICE_ORDER_CAP = 1000
DEFAULT_SUBGROUP_CAP = 100000


@dataclass
class SubgroupLattice:
    """All subgroups of a group plus the maximality relation.

    Subgroups are stored sorted by (order, bits); `maximals_of[i]` lists the
    positions of the maximal subgroups of subgroup i, `overgroups_of[i]` the
    positions of the subgroups in which i is maximal.
    """

    group: FiniteGroup
    subgroups: list[Subgroup]
    index_of: dict[int, int]
    maximals_of: list[list[int]]
    overgroups_of: list[list[int]]
    memos: dict = field(default_factory=dict)

    @property
    def top_index(self) -> int:
        return len(self.subgroups) - 1

    def position(self, h: Subgroup) -> int:
        try:
            return self.index_of[h.bits]
        except KeyError:
            raise KeyError(f"subgroup (order {h.order}) not in lattice of {self.group.name}")

    def maximal_subgroups(self, h: Subgroup) -> list[Subgroup]:
        return [self.subgroups[j] for j in self.maximals_of[self.position(h)]]

    def n_maximal(self, n: int) -> list[Subgroup]:
        """Subgroups reachable from the top by exactly n maximal steps."""
        level = {self.top_index}
        for _ in range(n):
            level = {j for i in level for j in self.maximals_of[i]}
        return [self.subgroups[i] for i in sorted(level)]

    def maximal_chains(self, h: Subgroup, top: Optional[Subgroup] = None) -> Iterator[tuple[Subgroup, ...]]:
        """Yield every step-maximal chain from h up to top, endpoints included."""
        start = self.position(h)
        goal = self.top_index if top is None else self.position(top)
        if not self.subgroups[goal].contains_subgroup(self.subgroups[start]):
            return

        def walk(i, acc):
            if i == goal:
                yield tuple(self.subgroups[j] for j in acc)
                return
            for k in self.overgroups_of[i]:
                if self.subgroups[goal].contains_subgroup(self.subgroups[k]):
                    yield from walk(k, acc + [k])

        yield from walk(start, [start])

    def by_order(self, order: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == order]


def all_subgroups(g: FiniteGroup,
                  order_cap: int = DEFAULT_LATTICE_ORDER_CAP,
                  subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> SubgroupLattice:
    """Complete subgroup lattice of g (cached on the group)."""
    if g._lattice is not None:
        return g._lattice
    if g.order > order_cap:
        raise LatticeExceedsCap(f"{g.name}: order {g.order} exceeds lattice cap {order_cap}")

    # canonical cyclic subgroups, keyed by the first generating element
    cyclic: list[tuple[int, int]] = []  # (generator, bits)
    seen_cyc: set[int] = set()
    for x in range(1, g.order):
        b = g.closure_bits([x])
        if b not in seen_cyc:
            seen_cyc.add(b)
            cyclic.append((x, b))

    found: dict[int, tuple[int, ...]] = {1: ()}
    worklist: list[int] = [1]
    for _, b in cyclic:
        if b not in found:
            found[b] = None  # filled below
    for x, b in cyclic:
        if found.get(b) is None:
            found[b] = (x,)
            worklist.append(b)

    pos = 0
    while pos < len(worklist):
        hbits = worklist[pos]
        hgens = found[hbits]
        pos += 1
        for x, cbits in cyclic:
            if (hbits >> x) & 1:
                continue
            kbits = g.closure_bits([*hgens, x])
            if kbits not in found:
                if len(found) >= subgroup_cap:
                    raise LatticeExceedsCap(
                        f"{g.name}: more than {subgroup_cap} subgroups")
                found[kbits] = (*hgens, x)
                worklist.append(kbits)

    subs = [Subgroup(g, b, gens=gens) for b, gens in found.items()]
    subs.sort(key=lambda s: (s.order, s.bits))
    index_of = {s.bits: i for i, s in enumerate(subs)}
    maximals_of = _maximality(subs)
    overgroups_of: list[list[int]] = [[] for _ in subs]
    for i, children in enumerate(maximals_of):
        for j in children:
            overgroups_of[j].append(i)
    lat = SubgroupLattice(group=g, subgroups=subs, index_of=index_of,
                          maximals_of=maximals_of, overgroups_of=overgroups_of)
    g._lattice = lat
    return lat


def _maximality(subs: list[Subgroup]) -> list[list[int]]:
    """maximals_of[i] = covers of subgroup i in the containment order."""
    out: list[list[int]] = []
    for i, h in enumerate(subs):
        below = [j for j in range(i) if h.order % subs[j].order == 0
                 and subs[j].order < h.order
                 and subs[j].bits & h.bits == subs[j].bits]
        below.sort(key=lambda j: -subs[j].order)
        maxima: list[int] = []
        for j in below:
            jb = subs[j].bits
            if not any(jb & subs[k].bits == jb for k in maxima):
                maxima.append(j)
        out.append(sorted(maxima))
    return out


# ---------------------------------------------------------------------------
# normal-subgroup machinery (independent of the full lattice)


def _normal_atoms(g: FiniteGroup) -> list[int]:
    """Deduplicated normal closures of the cyclic subgroups of g, sorted by
    (order, bits). The normal closure of <x> is generated by the class of
    x, so each nontrivial class is closed once. Memoized on the group."""
    atoms = g._memo.get("normal_atoms")
    if atoms is None:
        found = {g.closure_bits(cls) for cls in conjugacy_classes(g)[1:]}
        atoms = sorted(found, key=lambda b: (b.bit_count(), b))
        g._memo["normal_atoms"] = atoms
    return atoms


def normal_subgroups(g: FiniteGroup,
                     order_cap: int = DEFAULT_LATTICE_ORDER_CAP) -> list[Subgroup]:
    """All normal subgroups of g, sorted by (order, bits).

    Computed as the join closure of the normal closures of cyclic subgroups;
    every normal subgroup is a join of such closures.
    """
    if g.order > order_cap:
        raise LatticeExceedsCap(f"{g.name}: order {g.order} exceeds lattice cap {order_cap}")
    cached = g._memo.get("normal_subgroups")
    if cached is not None:
        return cached
    atoms = _normal_atoms(g)
    known = {1}
    work = [1]
    while work:
        cur = work.pop()
        for a in atoms:
            if a & cur == a:
                continue
            j = join_bits(g, cur, a)
            if j not in known:
                known.add(j)
                work.append(j)
    subs = [subgroup_from_bits(g, b) for b in sorted(known, key=lambda b: (b.bit_count(), b))]
    g._memo["normal_subgroups"] = subs
    return subs


def minimal_normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Normal subgroups N != 1 with no normal 1 < M < N."""
    if g.order == 1:
        return []
    atoms = [b for b in _normal_atoms(g) if b != 1]
    minimal = [b for b in atoms
               if not any(o != b and o & b == o for o in atoms)]
    return [subgroup_from_bits(g, b) for b in sorted(minimal, key=lambda b: (b.bit_count(), b))]


@dataclass(frozen=True)
class ChiefFactor:
    """One factor H/K of a chief series, with bitmasks in the ambient group."""

    lower: Subgroup
    upper: Subgroup
    order: int
    primes: tuple[int, ...]

    @property
    def prime(self) -> Optional[int]:
        return self.primes[0] if len(self.primes) == 1 and self.order == p_part(self.order, self.primes[0]) else None

    @property
    def is_prime_power(self) -> bool:
        return len(self.primes) == 1


@dataclass
class ChiefSeries:
    terms: list[Subgroup]        # ascending, 1 = terms[0] < ... < terms[-1] = G
    factors: list[ChiefFactor]   # factors[i] = terms[i+1]/terms[i]

    def factor_orders(self) -> tuple[int, ...]:
        return tuple(f.order for f in self.factors)


def chief_series(g: FiniteGroup, reverse: bool = False) -> ChiefSeries:
    """One chief series, ascending through minimal normal subgroups of
    successive quotients; ties broken by the deterministic subgroup ordering
    (lowest (order, bits) first, highest when reverse is set)."""
    key = ("chief_series", reverse)
    cached = g._memo.get(key)
    if cached is not None:
        return cached
    terms = [g.trivial_subgroup()]
    factors: list[ChiefFactor] = []
    cur = terms[0]
    while cur.order < g.order:
        q = quotient(g, cur)
        mins = minimal_normal_subgroups(q.base)
        chosen = mins[-1] if reverse else mins[0]
        nxt_bits = q.preimage_bits(chosen.bits)
        nxt = subgroup_from_bits(g, nxt_bits)
        forder = nxt.order // cur.order
        factors.append(ChiefFactor(lower=cur, upper=nxt, order=forder,
                                   primes=prime_divisors(forder)))
        terms.append(nxt)
        cur = nxt
    series = ChiefSeries(terms=terms, factors=factors)
    g._memo[key] = series
    return series


# ---------------------------------------------------------------------------
# characteristic subgroups


def frattini(g: FiniteGroup) -> Subgroup:
    """Intersection of all maximal subgroups (g itself when there are none)."""
    lat = all_subgroups(g)
    maxima = lat.maximals_of[lat.top_index]
    bits = g.full_bits()
    for j in maxima:
        bits &= lat.subgroups[j].bits
    return subgroup_from_bits(g, bits)


def sylow(g: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, canonical: least member-set bitmask among the
    conjugates (which exhaust all Sylow p-subgroups)."""
    key = ("sylow", p)
    cached = g._memo.get(key)
    if cached is not None:
        return cached
    target = p_part(g.order, p)
    if target == 1:
        return g.trivial_subgroup()
    orders = g.element_orders()
    cur = g.trivial_subgroup()
    while cur.order < target:
        nz = normalizer(g, cur)
        pick = None
        for x in nz.members:
            x = int(x)
            if not cur.contains(x) and orders[x] % p == 0 and p_part(int(orders[x]), p) == orders[x]:
                pick = x
                break
        if pick is None:
            raise RuntimeError(f"Sylow construction stalled in {g.name} at order {cur.order}")
        cur = subgroup_from_bits(g, g.closure_bits([*cur.gens, pick]))
    best = cur.bits
    seen = {cur.bits}
    work = [cur.bits]
    conj_gens = g.generators or tuple(range(g.order))
    while work:
        b = work.pop()
        for x in conj_gens:
            c = conjugate_bits(g, b, int(x))
            if c not in seen:
                seen.add(c)
                work.append(c)
                if c < best:
                    best = c
    out = subgroup_from_bits(g, best)
    g._memo[key] = out
    return out


def sylow_conjugates(g: FiniteGroup, p: int) -> list[Subgroup]:
    """All Sylow p-subgroups (the conjugacy orbit of sylow(g, p))."""
    base = sylow(g, p)
    seen = {base.bits}
    work = [base.bits]
    conj_gens = g.generators or tuple(range(g.order))
    while work:
        b = work.pop()
        for x in conj_gens:
            c = conjugate_bits(g, b, int(x))
            if c not in seen:
                seen.add(c)
                work.append(c)
    return [subgroup_from_bits(g, b) for b in sorted(seen)]


class NotFound:
    """Marker value for hall() when no Hall subgroup exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotFound"


NOT_FOUND = NotFound()


def hall(g: FiniteGroup, primes) -> Subgroup | NotFound:
    """A subgroup whose order is the pi-part of |G|, or NotFound.

    Scans the lattice in deterministic order, so the result is reproducible.
    """
    target = pi_part(g.order, set(primes))
    if target == 1:
        return g.trivial_subgroup()
    if target == g.order:
        return g.full_subgroup()
    lat = all_subgroups(g)
    for s in lat.subgroups:
        if s.order == target:
            return s
    return NOT_FOUND


def o_core(g: FiniteGroup, mode: str, p: int) -> Subgroup:
    """O_p (largest normal p-subgroup), O_{p'} (largest normal p'-subgroup),
    or O_{p',p} (preimage of O_p(G/O_{p'}(G)))."""
    if mode == "p":
        cands = [s for s in normal_subgroups(g) if s.order == p_part(s.order, p)]
        return max(cands, key=lambda s: s.order)
    if mode == "p'":
        cands = [s for s in normal_subgroups(g) if s.order % p != 0]
        return max(cands, key=lambda s: s.order)
    if mode == "p',p":
        op_prime = o_core(g, "p'", p)
        q = quotient(g, op_prime)
        upper = o_core(q.base, "p", p)
        return subgroup_from_bits(g, q.preimage_bits(upper.bits))
    raise ValueError(f"unknown o_core mode {mode!r}")


def fitting(g: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup: the join of the O_p(g)."""
    cached = g._memo.get("fitting")
    if cached is not None:
        return cached
    bits = 1
    for p in g.pi():
        bits = join_bits(g, bits, o_core(g, "p", p).bits)
    out = subgroup_from_bits(g, bits)
    g._memo["fitting"] = out
    return out
