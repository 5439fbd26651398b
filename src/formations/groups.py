"""Explicit finite-group arithmetic over dense Cayley tables.

Groups are built from permutation generators (or products/quotients of other
groups) and stored as an indexed element list with a full multiplication
table, so every downstream predicate works uniformly regardless of origin.
The identity always has index 0 and element ordering is deterministic
(breadth-first from the identity, generator order fixed). The table is kept
once, as a tuple of right-multiplication rows: row y is the tuple x -> x*y.

Element subsets are handled as Python int bitmasks throughout; subgroups are
thin wrappers around such a mask plus a small generating set.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain, compress, count
from math import gcd
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .arith import factorize, p_part, prime_divisors
from .errors import ClosureExceedsCap, NotNormal

DEFAULT_ORDER_CAP = 5000

Rows = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# bitmask helpers


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_INDEX = tuple(range(DEFAULT_ORDER_CAP))  # one int object per index, shared


def bits_of(indices: Iterable[int]) -> int:
    b = 0
    for i in indices:
        b |= 1 << i
    return b


def indices_of(bits: int) -> list[int]:
    """Ascending indices of the set bits of a bitmask."""
    flags = bin(bits)[:1:-1].encode().translate(_FLAGS)
    return list(compress(_INDEX if len(flags) <= len(_INDEX) else count(), flags))


def table_fingerprint(rows: Rows) -> str:
    """Stable sha256 of a Cayley table given by its right-multiplication
    rows (`FiniteGroup.fingerprint`): the products a*b as little-endian
    int32, a major."""
    h = hashlib.sha256(b"cayley/1:")
    h.update(len(rows).to_bytes(4, "little"))
    pack = struct.Struct(f"<{len(rows)}i").pack
    for products in zip(*rows):
        h.update(pack(*products))
    return h.hexdigest()


def _getter(idx: Sequence[int]):
    """The function taking seq to the tuple of seq[i] for i in idx."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


# ---------------------------------------------------------------------------
# permutations (input representation only)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..degree-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from 0-based disjoint-or-not cycles, composed left to right."""
        images = list(range(degree))
        for cyc in cycles:
            prev = list(images)
            for k, pt in enumerate(cyc):
                if not 0 <= pt < degree:
                    raise ValueError(f"cycle point {pt} out of range for degree {degree}")
                images[pt] = prev[cyc[(k + 1) % len(cyc)]]
        return Permutation(tuple(images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other (left-to-right action)."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles in canonical order (smallest point first)."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """Finite group as an indexed element list with a dense Cayley table.

    The table is `right_rows`: `right_rows[y][x]` is the index of x*y.
    `generators` always generates the group: when none are given, a small
    generating set is computed (`generating_set`). A table given without
    generators comes from outside the package (`from_generators`,
    `direct_product` and `_section` pass them), so only then is every row
    checked to be a permutation of the elements, at O(n^2); a failing table
    raises ValueError. Immutable after
    construction; memo dictionaries hang off the instance and only ever
    grow, so sharing across threads is safe per the package's single-writer
    contract.
    """

    def __init__(self, name: str, right_rows: Sequence[Sequence[int]],
                 generators: Optional[Sequence[int]] = None):
        rows = tuple(map(tuple, right_rows))
        n = len(rows)
        if n == 0:
            raise ValueError("a group has at least one element")
        if any(len(row) != n for row in rows):
            raise ValueError("Cayley table must be square")
        if rows[0] != tuple(range(n)) or any(row[0] != y for y, row in enumerate(rows)):
            raise ValueError("identity must sit at index 0")
        if generators is None:  # a table from outside: check it once
            everyone = set(range(n))
            if any(set(row) != everyone for row in rows):
                raise ValueError("some row is not a permutation of the elements: not a group")
        self.name = name
        self.right_rows: Rows = rows
        self.order = n
        self.inv, self._orders = _inverses_and_orders(rows)
        self._fingerprint: Optional[str] = None
        self._memo: dict = {}  # every memo, keyed by kind: sections, membership, ...
        self._lattice = None
        self._conj: list = [None] * n  # conjugation_row(x), filled on first use
        self._registry: Optional[dict] = None  # see `_section`
        if generators is None:
            generators = generating_set(self, range(n), self.full_bits())
        self.generators = tuple(generators)

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    @property
    def fingerprint(self) -> str:
        """Stable digest of the multiplication table (lattice cache key)."""
        if self._fingerprint is None:
            self._fingerprint = table_fingerprint(self.right_rows)
        return self._fingerprint

    def element_orders(self) -> tuple[int, ...]:
        return self._orders

    @property
    def exponent(self) -> int:
        out = 1
        for o in set(self.element_orders()):
            out = out * o // gcd(out, o)
        return out

    def commute(self, elems: Sequence[int]) -> bool:
        """Whether the elements commute pairwise."""
        rows = self.right_rows
        return all(rows[b][a] == rows[a][b] for i, a in enumerate(elems) for b in elems[:i])

    def is_abelian(self) -> bool:
        return self.commute(self.generators)

    def pi(self) -> tuple[int, ...]:
        return prime_divisors(self.order)

    def full_bits(self) -> int:
        return (1 << self.order) - 1

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1, gens=())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.full_bits(), gens=self.generators)

    def right_row(self, y: int) -> tuple[int, ...]:
        """Right multiplication by y, x -> x*y."""
        return self.right_rows[y]

    def conjugation_row(self, x: int) -> tuple[int, ...]:
        """Conjugation by x, y -> x^-1 y x, memoized per element."""
        row = self._conj[x]
        if row is None:
            left = map(itemgetter(self.inv[x]), self.right_rows)  # y -> x^-1 y
            row = self._conj[x] = tuple(map(self.right_rows[x].__getitem__, left))
        return row

    def closure_bits(self, gens: Sequence[int]) -> int:
        """Bitmask of the subgroup generated by gens.

        Dimino's algorithm: starting from the trivial group, each generator
        not already in the subgroup H so far extends H to <H, s> by one
        Dimino step (see `_dimino`).
        """
        n = self.order
        flags = bytearray(b"0") * n  # ASCII digits: parsed as base 2 below
        flags[0] = 49
        elems: list[int] = [0]
        rows: list = []
        for s in gens:
            if flags[s] != 49 and not self._dimino(flags, elems, rows, s):
                return (1 << n) - 1
        flags.reverse()
        return int(flags, 2)

    def extend(self, elems: Sequence[int], rows: Sequence, s: int,
               bound: Optional[int] = None) -> tuple[list[int], int]:
        """One Dimino step: the elements and bitmask of <H, s>.

        H is given by its elements `elems` (the identity among them) and the
        right rows of its generators (`right_row`); s must lie outside H.
        The elements of <H, s> come back with those of H first. The inputs
        are not changed. `bound`, when given, is an order that no proper
        subgroup containing H exceeds (see `_dimino`); the result is G
        either way.
        """
        n = self.order
        flags = bytearray(b"0") * n
        for x in elems:
            flags[x] = 49
        elems, rows = list(elems), list(rows)
        if not self._dimino(flags, elems, rows, s, bound):
            return list(range(n)), (1 << n) - 1
        flags.reverse()
        return elems, int(flags, 2)

    def _dimino(self, flags: bytearray, elems: list, rows: list, s: int,
                bound: Optional[int] = None) -> bool:
        """Extend H to <H, s> in place, s outside H.

        H is its member flags (ASCII "1" at each member), its elements and
        the right rows of its generators; s's row is appended to `rows`.
        <H, s> is a union of right cosets H*y, each gathered from y's
        right-multiplication row, and new coset representatives are added
        until they are closed under every generator. A proper <H, s> has at
        most bound/|H| cosets of H; without a bound, Lagrange's |G|/p serves,
        p the least prime dividing [G:H]. So one more coset means
        <H, s> = G: then this returns False and leaves the state partial.
        """
        right = self.right_rows
        row = right[s]
        rows.append(row)
        if len(elems) == 1:  # H = 1: <s> is the orbit of 1 under s
            z = s
            while z:
                flags[z] = 49
                elems.append(z)
                z = row[z]
            return True
        if bound is None:
            bound = self.order // factorize(self.order // len(elems))[0][0]
        most = bound // len(elems)
        take = itemgetter(*elems)
        reps = [0]
        for y in reps:
            for row in rows:
                z = row[y]
                if flags[z] != 49:
                    if len(reps) == most:
                        return False
                    coset = take(right[z])
                    for x in coset:
                        flags[x] = 49
                    elems.extend(coset)
                    reps.append(z)
        return True


_SHORT_ORDER = 6  # up to this element order, a walk of powers settles two elements


def _inverses_and_orders(rows: Rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each element's inverse and order, from walks of powers along row y
    for each y not yet settled. A walk that reaches y^o = 1 with
    o <= _SHORT_ORDER settles y and its inverse y^(o-1), both of order o.
    A longer one is walked again with every power kept, and each y^i then
    has order o/gcd(i, o) and inverse y^(o-i). So groups of small exponent
    take two stores per short walk and no list, and a cyclic group costs
    two walks of |G| steps, not the sum of its element orders.

    Raises ValueError when some y has no power equal to the identity
    within |G| steps, which no group table allows.
    """
    n = len(rows)
    inv, orders = [0] * n, [0] * n
    orders[0] = 1
    for y in range(1, n):
        if orders[y]:
            continue
        row, last, x, o = rows[y], y, rows[y][y], 2
        while x and o < _SHORT_ORDER:  # x = y^o, last = y^(o-1)
            last, x, o = x, row[x], o + 1
        if not x:
            orders[y] = orders[last] = o
            inv[y], inv[last] = last, y
            continue
        powers, x = [0, y], row[y]
        while x:
            if len(powers) == n:
                raise ValueError(f"element {y} has no power equal to the identity: not a group")
            powers.append(x)
            x = row[x]
        o = len(powers)
        for i in range(1, o):
            x = powers[i]
            if not orders[x]:
                orders[x], inv[x] = o // gcd(i, o), powers[o - i]
    return tuple(inv), tuple(orders)


class Subgroup:
    """Element-index subset of a parent group, closed under the operation.

    Equality is member-set equality within the same parent; subgroups of
    different parents never compare equal.
    """

    __slots__ = ("parent", "bits", "order", "_gens", "_members")

    def __init__(self, parent: FiniteGroup, bits: int, gens: Optional[Sequence[int]] = None):
        self.parent = parent
        self.bits = bits
        self.order = bits.bit_count()
        self._gens = tuple(gens) if gens is not None else None
        self._members: Optional[tuple[int, ...]] = None

    @property
    def members(self) -> tuple[int, ...]:
        """Member indices in ascending order."""
        if self._members is None:
            self._members = tuple(indices_of(self.bits))
        return self._members

    @property
    def gens(self) -> tuple[int, ...]:
        """A small generating set: the one recorded, or else `generating_set`,
        memoized per bits on the parent so that every Subgroup built from the
        same bare bits shares one computation."""
        if self._gens is None:
            memo, key = self.parent._memo, ("gens", self.bits)
            gens = memo.get(key)
            if gens is None:
                gens = memo[key] = generating_set(self.parent, self.members, self.bits)
            self._gens = gens
        return self._gens

    @property
    def is_trivial(self) -> bool:
        return self.bits == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.parent.order

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.parent is other.parent and self.bits == other.bits

    def __hash__(self):
        return hash((id(self.parent), self.bits))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def describe(self) -> str:
        """Deterministic short description for report witnesses."""
        tail = ", ..." if self.order > 16 else ""
        mem = ", ".join(map(str, self.members[:16]))
        return f"order {self.order} <= {self.parent.name}, members [{mem}{tail}]"


@dataclass
class QuotientGroup:
    """A section H/K of a group (`subquotient`): its group and the
    projection map from H. The group may be shared (see `_section`); the
    projection belongs to this (H, K)."""

    base: FiniteGroup
    projection: tuple[int, ...]

    def project_bits(self, bits: int) -> int:
        return bits_of(map(self.projection.__getitem__, indices_of(bits)))

    def preimage_bits(self, bits: int) -> int:
        return bits_of(x for x, c in enumerate(self.projection) if bits >> c & 1)


# ---------------------------------------------------------------------------
# construction


def from_generators(gens: Sequence[Permutation], name: str,
                    cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by permutations, with a dense multiplication table.

    Elements are enumerated breadth-first from the identity in the given
    generator order, so identical inputs yield identical indexing.
    """
    if not gens:
        raise ValueError("need at least one generator (use the identity for the trivial group)")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share one degree")

    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    parent = [0]  # element k is elems[parent[k]] followed by gens[via[k]]
    via = [0]
    gen_images = [g.images for g in gens]
    right: list[list[int]] = [[] for _ in gens]  # right[s][i] = index of elems[i] * gens[s]
    for pos, cur in enumerate(elems):
        for s, img in enumerate(gen_images):
            nxt = tuple(map(img.__getitem__, cur))
            k = index.get(nxt)
            if k is None:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"{name}: closure exceeds cap {cap}")
                k = index[nxt] = len(elems)
                elems.append(nxt)
                parent.append(pos)
                via.append(s)
            right[s].append(k)

    # row k is x -> x*k = (x*parent)*gen, one gather each
    rows = [tuple(range(len(elems)))]
    for k in range(1, len(elems)):
        rows.append(_getter(rows[parent[k]])(right[via[k]]))
    gen_idx = [index[g.images] for g in gens]
    return FiniteGroup(name, rows, generators=gen_idx)


def cyclic(n: int, name: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Cyclic group of order n, element k standing for the k-th power of
    the generator 1 (generators [0] when n = 1): row k is x -> x + k mod n.
    This is the table, generators and name that `from_generators` gives for
    the n-cycle, built without enumerating n-tuples."""
    if n > cap:
        raise ClosureExceedsCap(f"{name}: order {n} exceeds cap {cap}")
    rows = [tuple(chain(range(k, n), range(k))) for k in range(n)]
    return FiniteGroup(name, rows, generators=[1] if n > 1 else [0])


def direct_product(g: FiniteGroup, h: FiniteGroup, name: Optional[str] = None,
                   cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a*|H| + b."""
    n, m = g.order, h.order
    if n * m > cap:
        raise ClosureExceedsCap(f"direct product order {n * m} exceeds cap {cap}")
    # row (c, d) maps (a, b) to (a*c, b*d): h's row d shifted to block a*c
    blocks = [[tuple(a * m + y for y in hrow) for a in range(n)] for hrow in h.right_rows]
    rows = [tuple(chain.from_iterable(map(blocks[d].__getitem__, grow)))
            for grow in g.right_rows for d in range(m)]
    gens = [a * m for a in g.generators] + [b for b in h.generators]
    return FiniteGroup(name or f"{g.name} x {h.name}", rows, generators=gens)


# ---------------------------------------------------------------------------
# subgroup-level operations


def generated_subgroup(g: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing the seed indices."""
    gens = sorted(set(seed))
    bits = g.closure_bits(gens)
    return Subgroup(g, bits, gens=tuple(gens))


def generating_set(g: FiniteGroup, elems: Iterable[int], bits: int) -> tuple[int, ...]:
    """A small generating set of the subgroup with members `elems` and
    bitmask `bits`: its elements by descending order, each kept when the
    earlier ones do not generate it yet, up to the first that completes it.
    Lattice extensions and every user of `Subgroup.gens` loop over these."""
    orders = g.element_orders()
    gens: list[int] = []
    have = 1
    for y in sorted(elems, key=lambda y: -orders[y]):
        if not have >> y & 1:
            gens.append(y)
            have = g.closure_bits(gens)
            if have == bits:
                break
    return tuple(gens)


def p_element_bits(g: FiniteGroup, p: int, within: Optional[int] = None) -> int:
    """Bitmask of the elements of p-power order (identity included), only
    those in the member set `within` when it is given. Memoized per prime."""
    key = ("p_elements", p)
    bits = g._memo.get(key)
    if bits is None:
        bits = g._memo[key] = bits_of(x for x, o in enumerate(g.element_orders())
                                      if p_part(o, p) == o)
    return bits if within is None else bits & within


def conjugate_bits(g: FiniteGroup, bits: int, x: int) -> int:
    """Bitmask of {x^-1 s x : s in bits}."""
    return bits_of(map(g.conjugation_row(x).__getitem__, indices_of(bits)))


def conjugates(g: FiniteGroup, bits: int) -> set[int]:
    """The bitmasks of the conjugates of a subset: its orbit under
    conjugation by g's generators."""
    actions = conjugation_actions(g)
    orbit = {bits}
    work = [bits]
    for b in work:  # grows while it is read
        members = indices_of(b)
        for act in actions:
            c = bits_of(map(act.__getitem__, members))
            if c not in orbit:
                orbit.add(c)
                work.append(c)
    return orbit


def product_bits(g: FiniteGroup, abits: int, bbits: int) -> int:
    """Bitmask of the product A * B of a subgroup A and a set B: the union
    of the right cosets A*y, y in B, each gathered once. For normal A and B
    this is their join."""
    take = _getter(indices_of(abits))
    flags = bytearray(b"0") * g.order  # ASCII digits, as in `closure_bits`
    for y in indices_of(bbits):
        if flags[y] != 49:
            for x in take(g.right_rows[y]):
                flags[x] = 49
    flags.reverse()
    return int(flags, 2)


def conjugation_actions(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The permutations y -> s^-1 y s of g's elements, one per generator s."""
    return [g.conjugation_row(s) for s in g.generators]


def conjugacy_classes(g: FiniteGroup) -> list[list[int]]:
    """Conjugacy classes of g, ordered by least member (the identity's first).

    Each class is the orbit of its least member under conjugation by the
    generators, x -> s^-1 x s. Memoized on the group.
    """
    classes = g._memo.get("classes")
    if classes is None:
        actions = conjugation_actions(g)
        seen = bytearray(g.order)
        classes = []
        for x in range(g.order):
            if seen[x]:
                continue
            seen[x] = 1
            orbit = [x]
            for y in orbit:
                for act in actions:
                    z = act[y]
                    if not seen[z]:
                        seen[z] = 1
                        orbit.append(z)
            classes.append(orbit)
        g._memo["classes"] = classes
    return classes


def is_normal(g: FiniteGroup, h: Subgroup) -> bool:
    return _normalized(g, g.generators, h)


def _normalized(g: FiniteGroup, gens: Sequence[int], k: Subgroup) -> bool:
    """Whether conjugation by each of gens maps k onto itself."""
    take = _getter(k.members)
    return all(bits_of(take(g.conjugation_row(x))) == k.bits for x in gens)


def core(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Largest normal subgroup of g inside h (intersection of conjugates)."""
    return Subgroup(g, core_bits(g, h.bits, g.generators))


def core_bits(g: FiniteGroup, hbits: int, conj_gens: Sequence[int]) -> int:
    cur = hbits
    changed = True
    while changed:
        changed = False
        for x in conj_gens:
            nxt = cur & conjugate_bits(g, cur, x)
            if nxt != cur:
                cur = nxt
                changed = True
    return cur


def normal_closure(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Smallest normal subgroup of g containing h."""
    return Subgroup(g, normal_closure_bits(g, h.bits, g.generators))


def normal_closure_bits(g: FiniteGroup, hbits: int, conj_gens: Sequence[int]) -> int:
    """Smallest subgroup containing hbits that conj_gens normalize.

    Starting from the members of hbits as generators, each conjugate of a
    generator that falls outside the closure so far joins the generators;
    when none does, every generator's conjugates lie inside.
    """
    gens = indices_of(hbits)
    cur = g.closure_bits(gens)
    actions = [g.conjugation_row(x) for x in conj_gens]
    for t in gens:  # grows while it is read
        for act in actions:
            u = act[t]
            if not cur >> u & 1:
                gens.append(u)
                cur = g.closure_bits(gens)
    return cur


def centralizer(g: FiniteGroup, subset: Iterable[int]) -> Subgroup:
    """{x : xs = sx for all s in subset}; generators of <subset> suffice."""
    rows = g.right_rows
    keep: Iterable[int] = range(g.order)
    for s in set(subset):
        row = rows[s]
        keep = [x for x in keep if row[x] == rows[x][s]]
    return Subgroup(g, bits_of(keep))


def normalizer(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """{x : h^x = h}: the x that conjugate every generator of h into h."""
    rows, inv, bits = g.right_rows, g.inv, h.bits
    keep: Iterable[int] = range(g.order)
    for t in h.gens:
        trow = rows[t]
        keep = [x for x in keep if bits >> rows[x][trow[inv[x]]] & 1]
    return Subgroup(g, bits_of(keep))


def center(g: FiniteGroup) -> Subgroup:
    return centralizer(g, g.generators)


def derived_bits(g: FiniteGroup, bits: int) -> int:
    """Bitmask of the commutator subgroup [H, H] for H given by bits: the
    normal closure in H of the commutators of H's generators."""
    gens = g.generators if bits == g.full_bits() else Subgroup(g, bits).gens
    rows, inv = g.right_rows, g.inv
    # [a, b] = (ba)^-1 (ab)
    comms = [rows[rows[b][a]][inv[rows[a][b]]] for i, a in enumerate(gens) for b in gens[:i]]
    return normal_closure_bits(g, bits_of(comms) | 1, gens)


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, derived_bits(g, g.full_bits()))


def quotient(g: FiniteGroup, n: Subgroup) -> QuotientGroup:
    """G/N: `subquotient` of g's full subgroup by n. Raises NotNormal when
    n is not normal in g; G/1 is G itself. The memo is read before the full
    subgroup is built, since chief-factor scans revisit the same quotients.
    """
    q = g._memo.get(("section", g.full_bits(), n.bits))
    return q if q is not None else subquotient(g.full_subgroup(), n.bits)


def as_group(h: Subgroup) -> FiniteGroup:
    """A subgroup as a group of its own: the base of `subquotient(h, 1)`.

    Local index i of the result stands for parent index h.members[i]: that
    is the embedding `map_bits_from_sub` applies. Raises ValueError when
    h's members are not closed under multiplication. Building it costs
    |H|^2 table entries, so questions that the parent's tables answer
    (`formation.subgroup_member` for N and Gp(p), `subquotient` by a
    nontrivial K) do not call it.
    """
    return subquotient(h, 1).base


def subquotient(h: Subgroup, kbits: int) -> QuotientGroup:
    """H/K for a normal subgroup K of h given by its bitmask in h's parent,
    built from the parent's rows: the one constructor of derived groups.

    The cosets K*x are taken for x in h.members ascending and numbered by
    first appearance; the projection is indexed by position in h.members.
    With K = 1 each coset is one element, so local index i is h.members[i].
    The base is the registered section with this table (`_section`), so
    equal tables give one group; G/1 is G itself. Costs (|H|/|K|)^2 table
    entries. Memoized per (H, K) on the parent.

    Raises ValueError when K is not inside H or H's members are not closed
    under multiplication, and NotNormal when h's generators do not
    normalize K.
    """
    g = h.parent
    key = ("section", h.bits, kbits)
    q = g._memo.get(key)
    if q is not None:
        return q
    if kbits & h.bits != kbits:
        raise ValueError("K is not inside H")
    k = Subgroup(g, kbits)
    if not (k.is_trivial or _normalized(g, h.gens, k)):
        raise NotNormal(f"subgroup of order {k.order} is not normal in a "
                        f"subgroup of order {h.order} of {g.name}")
    if h.is_full and k.is_trivial:  # G/1 is G
        q = g._memo[key] = QuotientGroup(base=g, projection=tuple(range(g.order)))
        return q
    members, rows, coset = h.members, g.right_rows, _getter(k.members)
    coset_of = [-1] * g.order
    reps = []
    for x in members:
        if coset_of[x] < 0:
            for y in coset(rows[x]):  # K*x = x*K
                coset_of[y] = len(reps)
            reps.append(x)
    at_reps = _getter(reps)
    qrows = [_getter(at_reps(rows[y]))(coset_of) for y in reps]
    if len(reps) * k.order != h.order or min(map(min, qrows)) < 0:
        raise ValueError("member set is not closed under multiplication")
    qgens = sorted(set(coset_of[x] for x in h.gens) - {0})
    projection = coset_of if h.is_full else _getter(members)(coset_of)
    q = g._memo[key] = QuotientGroup(base=_section(g, qrows, qgens), projection=tuple(projection))
    return q


def _section(g: FiniteGroup, rows: Sequence[tuple[int, ...]], gens: Sequence[int]) -> FiniteGroup:
    """The group with this Cayley table among g's root and every group
    derived from it by `subquotient` (so by `quotient` and `as_group`).

    A group that is not itself derived is a root. Its registry, which maps
    tables (right-row tuples) to groups, is made on its first derivation,
    with the root registered first; derived groups share it. A table not
    yet registered becomes a new group named after the root, its order and
    the hash of its rows (tuples of ints hash the same in every run), so
    the name does not depend on how it was reached. Its `fingerprint` is
    left to be computed on demand: only roots key the lattice cache.
    """
    registry = g._registry
    if registry is None:
        registry = g._registry = {g.right_rows: g}
    rows = tuple(rows)
    sec = registry.get(rows)
    if sec is None:
        root = next(iter(registry.values()))
        tag = hash(rows) & 0xFFFFFFFF
        sec = FiniteGroup(f"{root.name}|{len(rows)}.{tag:08x}", rows, generators=gens)
        sec._registry = registry
        registry[rows] = sec
    return sec


def map_bits_from_sub(h: Subgroup, bits: int) -> int:
    """Translate a bitmask in the indexing of as_group(h) back to the
    parent's: local index i is h.members[i]."""
    if h.is_full:
        return bits
    return bits_of(map(h.members.__getitem__, indices_of(bits)))

