"""Subgroup-lattice enumeration and lattice-derived structure.

The full lattice comes from cyclic extension up to conjugacy (Neubueser,
Numer. Math. 2, 1960; Holt, Eick & O'Brien, Handbook of Computational Group
Theory, 2005). Every subgroup is generated by its elements of prime-power
order, so the seeds are the cyclic subgroups of prime-power order (the
extenders C_j), and a subgroup K = <H, x> with H < K and x of prime-power
order is conjugate to <R, x'> for the class representative R of H's class.
So only one representative per conjugacy class is kept with its element
list, and it is extended by one Dimino step (`FiniteGroup.extend`) by a
generator of an extender outside it. A new subgroup brings in its whole
class: the orbit of its element list under conjugation by the group's
generators, with its recorded generators mapped along. The covers (maximal
subgroups) of the representatives are found by ascending order, so that
those of every smaller subgroup are known: the subgroups inside a
representative H are scanned from the largest down, and one outside the
down-sets of the covers accepted so far is a cover, whose down-set is then
marked by walking the known covers. Each representative's covers are
conjugated along its orbit to the rest of its class, by the image of each
subgroup under each conjugation action, recorded (bits to bits) as the
classes are added.

For n in N_G(H), <H, C_j^n> = <H, C_j>^n is a conjugate of <H, C_j>, so
H takes one Dimino step per orbit of the extenders outside it under
conjugation by N_G(H), by the first in extender order: the step brings in
a whole class, and the rest of the orbit would only give members of it.
Each N_G(H)-orbit is a union of H-orbits, and its first member is the
first of theirs, so the walk adds the same classes, in the same order,
with the same recorded generators as extending every representative by
every extender. N_G(H) comes from the orbit of H's class by Schreier's
lemma. Conjugate k is H^t_k, t_k the product of the group's generators
along its path from H, and when generator s maps conjugate k onto a known
conjugate j, u = t_k s t_j^-1 normalizes H; these u generate N_G(H) with
H. Starting from H, each u outside the subgroup so far takes one Dimino
step, until the order is |G|/|class|. No step is needed when the class has
one member (N_G(H) = G, generated by G's generators) or [G:H] members
(N_G(H) = H).

A Dimino step that gives G is cut short: it stops once <H, x> outgrows
every proper subgroup containing H. Let K >= H be proper, m = [G:K] and
N = core_G(K), a proper normal subgroup of G. Then HN <= K, so m divides
[G:HN], and G permutes the m cosets of K with kernel N, so [G:N] divides
m!. So |K| <= |G|/m_N, m_N the least m >= 2 that divides [G:HN] and has
[G:N] | m!, for some proper normal N with HN != G; the largest of these
(`_overgroup_bound`) bounds the step. It is never above Lagrange's bound
|G|/p, p the least prime dividing [G:H]; in A6, where no proper subgroup
has index below 6, it is 60 for an H of order 2, not 180.

Everything that only needs *normal* subgroups (chief series, Fitting, O_p
cores) is computed directly from the closures of conjugacy classes instead,
which keeps membership predicates usable on groups whose full lattice would
be expensive. The atoms are the normal closures of the cyclic subgroups,
one class closed per conjugacy class of cyclic subgroups, and the normal
subgroups are their join closure, where an atom that is already a join of
earlier ones is skipped. A group's order is capped when it is built; the
lattice walk and the normal subgroups are capped by their output, the
caller's subgroup cap or else DEFAULT_SUBGROUP_CAP as it reads when called,
and raise LatticeExceedsCap past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Optional, Sequence

from .arith import factorize, p_part, pi_part, prime_divisors
from .errors import LatticeExceedsCap
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, _getter,
                     conjugacy_classes, conjugates, conjugation_actions,
                     generating_set, indices_of, normalizer, p_element_bits,
                     product_bits, quotient)

DEFAULT_SUBGROUP_CAP = 100000


@dataclass
class SubgroupLattice:
    """All subgroups of a group plus the maximality relation.

    Subgroups are stored sorted by (order, bits); `maximals_of[i]` lists the
    positions of the maximal subgroups of subgroup i. Derived from these:
    `index_of` maps each subgroup's bitmask to its position, and
    `overgroups_of[i]` lists the positions of the subgroups in which i is
    maximal.
    """

    group: FiniteGroup
    subgroups: list[Subgroup]
    maximals_of: list[list[int]]
    index_of: dict[int, int] = field(init=False)
    overgroups_of: list[list[int]] = field(init=False)

    def __post_init__(self):
        self.index_of = {s.bits: i for i, s in enumerate(self.subgroups)}
        self.overgroups_of = [[] for _ in self.subgroups]
        for i, children in enumerate(self.maximals_of):
            for j in children:
                self.overgroups_of[j].append(i)

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

    def factorizations(self) -> list[tuple[int, int]]:
        """Position pairs i <= j of the subgroups A, B with G = AB, that is
        |A||B| = |G||A n B|, in ascending order."""
        subs, n = self.subgroups, self.group.order
        return [(i, j) for i, a in enumerate(subs) for j in range(i, len(subs))
                if a.order * subs[j].order == n * (a.bits & subs[j].bits).bit_count()]


def all_subgroups(g: FiniteGroup,
                  order_cap: int = DEFAULT_ORDER_CAP,
                  subgroup_cap: Optional[int] = None) -> SubgroupLattice:
    """Complete subgroup lattice of g (cached on the group).

    Raises LatticeExceedsCap when g has more than order_cap elements or
    more than subgroup_cap subgroups (default DEFAULT_SUBGROUP_CAP), whether
    or not the lattice is cached. The walk reads g's normal subgroups under
    the same cap.
    """
    if subgroup_cap is None:
        subgroup_cap = DEFAULT_SUBGROUP_CAP
    if g.order > order_cap:
        raise LatticeExceedsCap(f"{g.name}: order {g.order} exceeds lattice cap {order_cap}")
    if g._lattice is not None:
        if len(g._lattice.subgroups) > subgroup_cap:
            raise LatticeExceedsCap(f"{g.name}: more than {subgroup_cap} subgroups")
        return g._lattice
    walk = _ClassWalk(g, subgroup_cap)
    walk.add_class([0], 1, ())

    # cyclic subgroups of prime-power order, one class of elements at a time
    orders = g.element_orders()
    for cls in conjugacy_classes(g)[1:]:
        x = cls[0]
        if len(prime_divisors(orders[x])) > 1:
            continue
        bits = g.closure_bits([x])
        if bits not in walk.found:
            walk.add_class(indices_of(bits), bits, (x,))
    ext = _Extenders(g, [gens[0] for bits, gens in walk.found.items() if bits != 1])
    cores = _cores(g, subgroup_cap)

    # extend each class representative H by one C_j per N_G(H)-orbit outside it
    for hbits, helems, hgens, ngens in walk.reps:  # grows while read
        if hbits == 1:
            continue
        hrows = [g.right_row(x) for x in hgens]
        bound = _overgroup_bound(g, cores, hbits, len(helems))
        for orbit in ext.orbits(ngens, ext.within(helems)):
            kelems, kbits = g.extend(helems, hrows, ext.gens[orbit[0]], bound)
            if kbits not in walk.found:
                walk.add_class(kelems, kbits, generating_set(g, kelems, kbits))

    subs = [Subgroup(g, b, gens=gens) for b, gens in walk.found.items()]
    subs.sort(key=lambda s: (s.order, s.bits))
    g._lattice = SubgroupLattice(group=g, subgroups=subs, maximals_of=walk.covers(subs))
    return g._lattice


class _ClassWalk:
    """The subgroups found so far, added a whole conjugacy class at a time.

    `found` maps each subgroup's bitmask to its recorded generators; `reps`
    holds (bits, elements, generators, normalizer generators) of one
    representative H per class, the only subgroups whose element lists are
    kept; the last generate N_G(H), and the walk extends H once per orbit
    of extenders under them. Each class's orbit is kept as (bits, parent,
    action) triples: conjugate k is the image of conjugate `parent` under
    conjugation action `action` (by generator `action` of the group), which
    is how covers are carried from the representative to its conjugates.
    """

    def __init__(self, g: FiniteGroup, subgroup_cap: int):
        self.g = g
        self.cap = subgroup_cap
        self.actions = conjugation_actions(g)
        self.pow2 = [1 << i for i in range(g.order)]
        self.found: dict[int, tuple[int, ...]] = {}
        self.image: list[dict[int, int]] = [{} for _ in self.actions]
        self.reps: list[tuple[int, list[int], tuple[int, ...], tuple[int, ...]]] = []
        self.orbits: list[list[tuple[int, int, int]]] = []

    def _bits(self, elems: Sequence[int]) -> int:
        return sum(_getter(elems)(self.pow2))  # members are distinct

    def _record(self, bits: int, gens: tuple[int, ...]) -> None:
        if len(self.found) >= self.cap:
            raise LatticeExceedsCap(f"{self.g.name}: more than {self.cap} subgroups")
        self.found[bits] = gens

    def add_class(self, elems: list[int], bits: int, gens: tuple[int, ...]) -> None:
        """Add the new subgroup H = <gens> (elements elems, bitmask bits) and
        all its conjugates, with the generators mapped along, and record H
        with generators of N_G(H)."""
        self._record(bits, gens)
        orbit = [(bits, -1, -1)]
        members, gens_of = [elems], [gens]
        for k, cur in enumerate(members):
            kbits = orbit[k][0]
            take = _getter(cur)
            for a, act in enumerate(self.actions):
                image = take(act)
                ibits = self.image[a][kbits] = self._bits(image)
                if ibits not in self.found:
                    igens = tuple(map(act.__getitem__, gens_of[k]))
                    self._record(ibits, igens)
                    orbit.append((ibits, k, a))
                    members.append(image)
                    gens_of.append(igens)
        self.orbits.append(orbit)
        self.reps.append((bits, elems, gens, self._normalizer(orbit, elems, gens)))

    def _normalizer(self, orbit: list[tuple[int, int, int]], elems: list[int],
                    gens: tuple[int, ...]) -> tuple[int, ...]:
        """Generators of N_G(H), H = <gens> with elements elems and class
        `orbit`: G's when H is normal, H's when N_G(H) = H, and otherwise
        H's and each Schreier generator u = t_k s t_j^-1 (module docstring)
        outside the subgroup N built so far, N grown by one Dimino step per
        u until |N| = |G|/|class|."""
        g, right = self.g, self.g.right_rows
        most = g.order // len(orbit)
        if most == g.order:
            return g.generators
        if most == len(elems):
            return gens
        at = {kbits: k for k, (kbits, _, _) in enumerate(orbit)}
        trans = [0]  # t_k, with conjugate k = H^t_k
        for _, parent, a in orbit[1:]:
            trans.append(right[g.generators[a]][trans[parent]])
        schreier = (right[g.inv[trans[at[self.image[a][kbits]]]]][right[s][t]]
                    for (kbits, _, _), t in zip(orbit, trans)
                    for a, s in enumerate(g.generators))
        flags = bytearray(b"0") * g.order
        for x in elems:
            flags[x] = 49
        nelems, rows, ngens = list(elems), [g.right_row(x) for x in gens], list(gens)
        for u in schreier:
            if flags[u] != 49:
                g._dimino(flags, nelems, rows, u)
                ngens.append(u)
                if len(nelems) == most:
                    break
        return tuple(ngens)

    def covers(self, subs: list[Subgroup]) -> list[list[int]]:
        """maximals_of for the sorted subgroups: each representative's covers
        by `_covers`, taking the classes by ascending order so that every
        smaller subgroup's covers are known, then conjugated along its orbit
        by the images that `add_class` recorded."""
        index_of = {s.bits: i for i, s in enumerate(subs)}
        out: list[list[int]] = [[] for _ in subs]
        for orbit in sorted(self.orbits, key=lambda orbit: orbit[0][0].bit_count()):
            i = index_of[orbit[0][0]]
            out[i] = _covers(subs, i, out)
            images = [[subs[j].bits for j in out[i]]]
            for bits, parent, a in orbit[1:]:
                mapped = list(map(self.image[a].__getitem__, images[parent]))
                images.append(mapped)
                out[index_of[bits]] = sorted(map(index_of.__getitem__, mapped))
        return out


class _Extenders:
    """The extenders: the prime-power cyclic subgroups C_0, C_1, ... in the
    order the walk found them, each by its recorded generator (`gens`).

    `index` maps each element of prime-power order > 1 to the j of the C_j
    it generates (-1 for the other elements), so conjugation by t maps C_j
    to C_index[gens[j]^t]; `orbits` groups the C_j outside H by it.
    """

    def __init__(self, g: FiniteGroup, gens: list[int]):
        self.g = g
        self.gens = gens
        self.index = [-1] * g.order
        orders = g.element_orders()
        for j, x in enumerate(gens):
            p = prime_divisors(orders[x])[0]
            row, y = g.right_row(x), x
            for e in range(1, orders[x]):  # y = x^e
                if e % p:
                    self.index[y] = j
                y = row[y]

    def within(self, helems: list[int]) -> set[int]:
        """The j with C_j <= H, H given by its elements."""
        inside = set(map(self.index.__getitem__, helems))
        inside.discard(-1)
        return inside

    def orbits(self, ngens: tuple[int, ...], done: set[int]) -> Iterator[list[int]]:
        """Each orbit of the C_j outside `done` under conjugation by ngens,
        first member first, by first member. `done` is used up."""
        gens, index = self.gens, self.index
        conj = list(map(self.g.conjugation_row, ngens))
        for j in range(len(gens)):
            if j in done:
                continue
            done.add(j)
            orbit = [j]
            for i in orbit:  # grows while read
                for row in conj:
                    k = index[row[gens[i]]]
                    if k not in done:
                        done.add(k)
                        orbit.append(k)
            yield orbit


def _cores(g: FiniteGroup, subgroup_cap: Optional[int] = None) -> list[tuple[int, int, int]]:
    """(bits, order, d) for each proper normal subgroup N of g, largest
    first, d the least m with [G:N] dividing m!: G acts on the m cosets of
    a subgroup of index m with a kernel N, so G/N embeds in S_m. The normal
    subgroups are capped as in `normal_subgroups`."""
    out = []
    for nsub in reversed(normal_subgroups(g, subgroup_cap)[:-1]):
        index, m, fact = g.order // nsub.order, 1, 1
        while fact % index:
            m += 1
            fact *= m
        out.append((nsub.bits, nsub.order, m))
    return out


def _overgroup_bound(g: FiniteGroup, cores: list[tuple[int, int, int]],
                     hbits: int, horder: int) -> int:
    """An order that no proper subgroup K >= H exceeds: the largest
    |G|/m_N over the proper normal N with HN != G (module docstring). No
    |G|/m_N is above Lagrange's |G|/p, so the scan stops at the first N
    that gives it.
    """
    n = g.order
    if horder == n:
        return n
    lagrange = n // factorize(n // horder)[0][0]
    best = horder
    for nbits, norder, d in cores:
        hn = horder * norder // (hbits & nbits).bit_count()
        index = n // hn
        if index < d:  # HN = G, or no K >= HN has this core
            continue
        m = d
        while index % m:
            m += 1
        best = max(best, n // m)
        if best == lagrange:
            break
    return best


def _covers(subs: list[Subgroup], i: int, out: list[list[int]]) -> list[int]:
    """Positions of the maximal subgroups of H = subs[i], subs sorted by
    order and out holding the maximal subgroups of every smaller subgroup.

    The subgroups inside H are taken from the largest down. One that lies
    in no maximal subgroup found so far is maximal, and its whole down-set
    is marked through `out`; every other one is in a marked down-set.
    """
    hbits, horder = subs[i].bits, subs[i].order
    marked = bytearray(i)
    maxima: list[int] = []
    for j in reversed([j for j in range(i) if not horder % subs[j].order
                       and subs[j].bits & hbits == subs[j].bits]):
        if marked[j]:
            continue
        maxima.append(j)
        down = [j]
        while down:
            for k in out[down.pop()]:
                if not marked[k]:
                    marked[k] = 1
                    down.append(k)
    maxima.reverse()
    return maxima


# ---------------------------------------------------------------------------
# normal-subgroup machinery (independent of the full lattice)


def _normal_atoms(g: FiniteGroup) -> list[int]:
    """Deduplicated normal closures of the cyclic subgroups of g, sorted by
    (order, bits). The normal closure of <x> is generated by the class of
    x, and every generator x^k of <x> (k prime to the order of x) has the
    same one, as do their conjugates. So one class is closed per conjugacy
    class of cyclic subgroups: once x's class is closed, the classes of all
    generators of <x> are passed over.
    Memoized on the group."""
    atoms = g._memo.get("normal_atoms")
    if atoms is None:
        classes, orders = conjugacy_classes(g), g.element_orders()
        class_of = [0] * g.order
        for i, cls in enumerate(classes):
            for y in cls:
                class_of[y] = i
        done = bytearray(len(classes))
        found = set()
        for i in range(1, len(classes)):
            if done[i]:
                continue
            found.add(g.closure_bits(classes[i]))
            x = classes[i][0]
            o, row, y = orders[x], g.right_row(x), x
            for k in range(1, o):  # y = x^k
                if gcd(k, o) == 1:
                    done[class_of[y]] = 1
                y = row[y]
        atoms = sorted(found, key=lambda b: (b.bit_count(), b))
        g._memo["normal_atoms"] = atoms
    return atoms


def normal_subgroups(g: FiniteGroup, subgroup_cap: Optional[int] = None) -> list[Subgroup]:
    """All normal subgroups of g, sorted by (order, bits).

    Computed as the join closure of the normal closures of cyclic subgroups,
    adding one closure at a time; every normal subgroup is a join of such
    closures, and the join of two normal subgroups is their product. After
    each atom, `known` holds every join of the atoms taken so far. So an
    atom A already in `known` adds nothing: each N*A is such a join too,
    and the atom is skipped without a product.
    Raises LatticeExceedsCap when g has more than subgroup_cap (default
    DEFAULT_SUBGROUP_CAP) normal subgroups, whether or not they are cached.
    """
    if subgroup_cap is None:
        subgroup_cap = DEFAULT_SUBGROUP_CAP
    cached = g._memo.get("normal_subgroups")
    if cached is not None:
        if len(cached) > subgroup_cap:
            raise LatticeExceedsCap(f"{g.name}: more than {subgroup_cap} normal subgroups")
        return cached
    known = {1}
    for a in _normal_atoms(g):  # the joins of the atoms so far, with a
        if a in known:  # a join already, so every N*A is known too
            continue
        known |= {product_bits(g, n, a) for n in known if a & n != a}
        if len(known) > subgroup_cap:
            raise LatticeExceedsCap(f"{g.name}: more than {subgroup_cap} normal subgroups")
    subs = [Subgroup(g, b) for b in sorted(known, key=lambda b: (b.bit_count(), b))]
    g._memo["normal_subgroups"] = subs
    return subs


def minimal_normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Normal subgroups N != 1 with no normal 1 < M < N."""
    if g.order == 1:
        return []
    atoms = [b for b in _normal_atoms(g) if b != 1]
    minimal = [b for b in atoms
               if not any(o != b and o & b == o for o in atoms)]
    return [Subgroup(g, b) for b in sorted(minimal, key=lambda b: (b.bit_count(), b))]


@dataclass(frozen=True)
class ChiefFactor:
    """One factor H/K of a chief series, with bitmasks in the ambient group."""

    lower: Subgroup
    upper: Subgroup

    @property
    def order(self) -> int:
        return self.upper.order // self.lower.order

    @property
    def primes(self) -> tuple[int, ...]:
        return prime_divisors(self.order)



@dataclass
class ChiefSeries:
    terms: list[Subgroup]        # ascending, 1 = terms[0] < ... < terms[-1] = G
    factors: list[ChiefFactor]   # factors[i] = terms[i+1]/terms[i]


def chief_series(g: FiniteGroup) -> ChiefSeries:
    """One chief series, ascending through minimal normal subgroups of
    successive quotients; ties broken by the deterministic subgroup ordering
    (lowest (order, bits) first)."""
    cached = g._memo.get("chief_series")
    if cached is not None:
        return cached
    terms = [g.trivial_subgroup()]
    factors: list[ChiefFactor] = []
    cur = terms[0]
    while cur.order < g.order:
        q = quotient(g, cur)
        mins = minimal_normal_subgroups(q.base)
        nxt_bits = q.preimage_bits(mins[0].bits)
        nxt = Subgroup(g, nxt_bits)
        factors.append(ChiefFactor(lower=cur, upper=nxt))
        terms.append(nxt)
        cur = nxt
    series = ChiefSeries(terms=terms, factors=factors)
    g._memo["chief_series"] = series
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
    return Subgroup(g, bits)


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
    cur = g.trivial_subgroup()
    while cur.order < target:
        # the least p-element normalizing cur from outside it
        picks = p_element_bits(g, p, normalizer(g, cur).bits) & ~cur.bits
        if not picks:
            raise RuntimeError(f"Sylow construction stalled in {g.name} at order {cur.order}")
        gens = (*cur.gens, (picks & -picks).bit_length() - 1)
        cur = Subgroup(g, g.closure_bits(gens), gens=gens)
    out = Subgroup(g, min(conjugates(g, cur.bits)))
    g._memo[key] = out
    return out


def hall(g: FiniteGroup, primes) -> Optional[Subgroup]:
    """A subgroup whose order is the pi-part of |G|, or None.

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
    return None


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
        return Subgroup(g, q.preimage_bits(upper.bits))
    raise ValueError(f"unknown o_core mode {mode!r}")


def fitting(g: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup: the product of the O_p(g)."""
    cached = g._memo.get("fitting")
    if cached is not None:
        return cached
    bits = 1
    for p in g.pi():
        bits = product_bits(g, bits, o_core(g, "p", p).bits)
    out = Subgroup(g, bits)
    g._memo["fitting"] = out
    return out
