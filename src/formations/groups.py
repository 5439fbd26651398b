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

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation(tuple(images))

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
    generating set is computed (`generating_set`). Immutable after
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
        self.name = name
        self.right_rows: Rows = rows
        self.order = n
        self.inv = tuple(row.index(0) for row in rows)  # x * y = 1 in row y
        self._orders: Optional[tuple[int, ...]] = None
        self._fingerprint: Optional[str] = None
        self._memo: dict = {}          # per-formation membership and residuals
        self._quotients: dict = {}     # kernel bits -> QuotientGroup
        self._materialized: dict = {}  # subgroup bits -> FiniteGroup
        self._lattice = None
        self._conj: list = [None] * n  # conjugation_row(x), filled on first use
        self._registry: Optional[dict] = None  # see `_section`
        if generators is None:
            generators = generating_set(self, range(n), self.full_bits())
        self.generators = tuple(generators)

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mult(self, a: int, b: int) -> int:
        return self.right_rows[b][a]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    @property
    def identity(self) -> int:
        return 0

    @property
    def fingerprint(self) -> str:
        """Stable digest of the multiplication table (lattice cache key)."""
        if self._fingerprint is None:
            self._fingerprint = table_fingerprint(self.right_rows)
        return self._fingerprint

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            orders = [1] * self.order
            for i, row in enumerate(self.right_rows):
                k, x = 1, i
                while x:
                    x = row[x]
                    k += 1
                orders[i] = k
            self._orders = tuple(orders)
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

    def extend(self, elems: Sequence[int], rows: Sequence, s: int) -> tuple[list[int], int]:
        """One Dimino step: the elements and bitmask of <H, s>.

        H is given by its elements `elems` (the identity among them) and the
        right rows of its generators (`right_row`); s must lie outside H.
        The elements of <H, s> come back with those of H first. The inputs
        are not changed.
        """
        n = self.order
        flags = bytearray(b"0") * n
        for x in elems:
            flags[x] = 49
        elems, rows = list(elems), list(rows)
        if not self._dimino(flags, elems, rows, s):
            return list(range(n)), (1 << n) - 1
        flags.reverse()
        return elems, int(flags, 2)

    def _dimino(self, flags: bytearray, elems: list, rows: list, s: int) -> bool:
        """Extend H to <H, s> in place, s outside H.

        H is its member flags (ASCII "1" at each member), its elements and
        the right rows of its generators; s's row is appended to `rows`.
        <H, s> is a union of right cosets H*y, each gathered from y's
        right-multiplication row, and new coset representatives are added
        until they are closed under every generator. By Lagrange a proper
        <H, s> has at most [G:H]/p cosets of H, p the least prime dividing
        [G:H], so one more coset means <H, s> = G: then this returns False
        and leaves the state partial.
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
        index = self.order // len(elems)
        most = index // factorize(index)[0][0]
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


class Subgroup:
    """Element-index subset of a parent group, closed under the operation.

    Equality is member-set equality within the same parent; subgroups of
    different parents never compare equal.
    """

    __slots__ = ("parent", "bits", "_gens", "_members")

    def __init__(self, parent: FiniteGroup, bits: int, gens: Optional[Sequence[int]] = None):
        self.parent = parent
        self.bits = bits
        self._gens = tuple(gens) if gens is not None else None
        self._members: Optional[tuple[int, ...]] = None

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        """Member indices in ascending order."""
        if self._members is None:
            self._members = tuple(indices_of(self.bits))
        return self._members

    @property
    def gens(self) -> tuple[int, ...]:
        """A small generating set (`generating_set`, if none was recorded)."""
        if self._gens is None:
            self._gens = generating_set(self.parent, self.members, self.bits)
        return self._gens

    def contains(self, i: int) -> bool:
        return bool((self.bits >> i) & 1)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.bits & self.bits == other.bits

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

    def describe(self, limit: int = 16) -> str:
        """Deterministic short description for report witnesses."""
        tail = ", ..." if self.order > limit else ""
        mem = ", ".join(map(str, self.members[:limit]))
        return f"order {self.order} <= {self.parent.name}, members [{mem}{tail}]"


@dataclass
class QuotientGroup:
    """Materialized quotient G/N: its group, the projection map and the
    kernel. The group may be shared (see `as_group`); the projection and
    kernel belong to this (G, N)."""

    base: FiniteGroup
    projection: tuple[int, ...]
    kernel: Subgroup

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
    take = _getter(h.members)
    return all(bits_of(take(act)) == h.bits for act in conjugation_actions(g))


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
    """Materialized quotient G/N (coset representative table).

    Raises NotNormal when n is not normal in g. Results are memoized per
    kernel, since chief-factor scans revisit the same quotients. The base
    is the section of g's root with the quotient's table (`_section`), so
    G/1 is G itself.
    """
    if n.bits in g._quotients:
        return g._quotients[n.bits]
    if not is_normal(g, n):
        raise NotNormal(f"subgroup of order {n.order} is not normal in {g.name}")
    if n.is_trivial:
        q = QuotientGroup(base=g, projection=tuple(range(g.order)), kernel=n)
    else:
        rows, coset = g.right_rows, _getter(n.members)
        coset_of = [-1] * g.order
        reps = []
        for i in range(g.order):
            if coset_of[i] < 0:
                for x in coset(rows[i]):  # N*i = i*N
                    coset_of[x] = len(reps)
                reps.append(i)
        at_reps = _getter(reps)
        qrows = [_getter(at_reps(rows[y]))(coset_of) for y in reps]
        gens = sorted(set(coset_of[x] for x in g.generators) - {0})
        q = QuotientGroup(base=_section(g, qrows, gens), projection=tuple(coset_of), kernel=n)
    g._quotients[n.bits] = q
    return q


def as_group(h: Subgroup) -> FiniteGroup:
    """Materialize a subgroup as a standalone group, memoized on the parent.

    Local index i of the result stands for parent index h.members[i]: that
    is the embedding `map_bits_to_sub` and `map_bits_from_sub` apply. The
    result is the section of the parent's root with this table
    (`_section`), so subgroups with equal tables, and a quotient with the
    same table, share one group and its memos.
    """
    g = h.parent
    if h.is_full:
        return g
    cached = g._materialized.get(h.bits)
    if cached is not None:
        return cached
    mem = h.members
    local = [-1] * g.order
    for i, x in enumerate(mem):
        local[x] = i
    take = _getter(mem)
    rows = [_getter(take(g.right_rows[y]))(local) for y in mem]
    if min(map(min, rows)) < 0:
        raise ValueError("member set is not closed under multiplication")
    gens = [local[x] for x in h.gens if local[x] > 0]
    sub = _section(g, rows, gens)
    g._materialized[h.bits] = sub
    return sub


def _section(g: FiniteGroup, rows: Sequence[tuple[int, ...]], gens: Sequence[int]) -> FiniteGroup:
    """The group with this Cayley table among g's root and every group
    derived from it by `quotient` and `as_group`.

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


def map_bits_to_sub(h: Subgroup, bits: int) -> int:
    """Translate a parent-indexed bitmask (a subset of h) into the indexing
    of as_group(h), where local index i is h.members[i]."""
    if h.is_full:
        return bits
    return bits_of(i for i, x in enumerate(h.members) if bits >> x & 1)


def map_bits_from_sub(h: Subgroup, bits: int) -> int:
    """Translate a bitmask in the indexing of as_group(h) back to the
    parent's: local index i is h.members[i]."""
    if h.is_full:
        return bits
    return bits_of(map(h.members.__getitem__, indices_of(bits)))


def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(name, ((0,),))
