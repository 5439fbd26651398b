"""Explicit finite-group arithmetic over dense Cayley tables.

Groups are built from permutation generators (or products/quotients of other
groups) and stored as an indexed element list with a full multiplication
table, so every downstream predicate works uniformly regardless of origin.
The identity always has index 0 and element ordering is deterministic
(breadth-first from the identity, generator order fixed).

Element subsets are handled as Python int bitmasks throughout; subgroups are
thin wrappers around such a mask plus a small generating set.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .arith import factorize, prime_divisors
from .errors import ClosureExceedsCap, NotNormal

DEFAULT_ORDER_CAP = 5000


# ---------------------------------------------------------------------------
# bitmask helpers


def bits_of(indices: Iterable[int]) -> int:
    b = 0
    for i in indices:
        b |= 1 << i
    return b


def bits_of_array(arr: np.ndarray, n: int) -> int:
    """Bitmask of an index array, packed in C instead of a Python loop."""
    flags = np.zeros(n, dtype=bool)
    flags[arr] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def bits_to_array(bits: int, n: int) -> np.ndarray:
    """Sorted member indices of a bitmask, as an int32 array."""
    raw = bits.to_bytes((n + 7) // 8, "little")
    flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")
    return np.flatnonzero(flags).astype(np.int32)


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

    Immutable after construction; memo dictionaries hang off the instance and
    only ever grow, so sharing across threads is safe per the package's
    single-writer contract.
    """

    def __init__(self, name: str, table: np.ndarray, generators: Sequence[int] = (),
                 labels: Optional[tuple[str, ...]] = None):
        table = np.ascontiguousarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("Cayley table must be square")
        if n == 0:
            raise ValueError("a group has at least one element")
        if not (np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))):
            raise ValueError("identity must sit at index 0")
        self.name = name
        self.table = table
        self.order = n
        inv = np.empty(n, dtype=np.int32)
        rows, cols = np.nonzero(table == 0)
        inv[rows] = cols
        self.inv = inv
        self.generators = tuple(int(g) for g in generators)
        self.labels = labels
        self._orders: Optional[np.ndarray] = None
        self._fingerprint: Optional[str] = None
        self._memo: dict = {}          # per-formation membership and residuals
        self._quotients: dict = {}     # kernel bits -> QuotientGroup
        self._materialized: dict = {}  # subgroup bits -> FiniteGroup
        self._lattice = None
        self._right: list = [None] * n  # right_row(y), filled on first use
        self.parent_embedding: Optional[np.ndarray] = None

    # -- basics ------------------------------------------------------------

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @property
    def identity(self) -> int:
        return 0

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    @property
    def fingerprint(self) -> str:
        """Stable digest of the multiplication table (lattice cache key)."""
        if self._fingerprint is None:
            h = hashlib.sha256(b"cayley/1:")
            h.update(self.order.to_bytes(4, "little"))
            h.update(np.ascontiguousarray(self.table).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int32)
            for i in range(1, n):
                k, x = 1, i
                while x != 0:
                    x = int(self.table[x, i])
                    k += 1
                orders[i] = k
            self._orders = orders
        return self._orders

    @property
    def exponent(self) -> int:
        out = 1
        for o in set(int(x) for x in self.element_orders()):
            out = out * o // gcd(out, o)
        return out

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def pi(self) -> tuple[int, ...]:
        return prime_divisors(self.order)

    def full_bits(self) -> int:
        return (1 << self.order) - 1

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1, gens=())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.full_bits(), gens=self.generators)

    def right_row(self, y: int):
        """Right multiplication by y, x -> x*y (column y of the table).

        Cached per group as bytes when every index fits a byte, else as an
        unsigned array whose width follows the order.
        """
        row = self._right[y]
        if row is None:
            col = self.table[:, y]
            if self.order <= 1 << 8:
                row = col.astype(np.uint8).tobytes()
            elif self.order <= 1 << 16:
                row = array("H", col.astype(np.uint16).tobytes())
            else:
                row = array("I", col.astype(np.uint32).tobytes())
            self._right[y] = row
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
            s = int(s)
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
        cache, right_row = self._right, self.right_row
        row = cache[s] or right_row(s)
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
                    coset = take(cache[z] or right_row(z))
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
        self._members: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    @property
    def members(self) -> np.ndarray:
        if self._members is None:
            self._members = bits_to_array(self.bits, self.parent.order)
        return self._members

    @property
    def gens(self) -> tuple[int, ...]:
        """A small generating set (computed greedily if not recorded)."""
        if self._gens is None:
            gens: list[int] = []
            have = 1
            for m in self.members:
                m = int(m)
                if not (have >> m) & 1:
                    gens.append(m)
                    have = self.parent.closure_bits(gens)
            self._gens = tuple(gens)
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
        mem = [int(m) for m in self.members[:limit]]
        tail = ", ..." if self.order > limit else ""
        return f"order {self.order} <= {self.parent.name}, members [{', '.join(map(str, mem))}{tail}]"


@dataclass
class QuotientGroup:
    """Materialized quotient G/N: fresh group, projection map, and kernel."""

    base: FiniteGroup
    projection: np.ndarray
    kernel: Subgroup

    def project_bits(self, bits: int) -> int:
        src = bits_to_array(bits, self.kernel.parent.order)
        return bits_of_array(self.projection[src], self.base.order)

    def preimage_bits(self, bits: int) -> int:
        qmem = bits_to_array(bits, self.base.order)
        keep = np.flatnonzero(np.isin(self.projection, qmem))
        return bits_of_array(keep, len(self.projection))


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

    # column k of the table is x -> x*k = (x*parent)*gen, one gather each
    n = len(elems)
    right_arr = np.array(right, dtype=np.int32)
    cols = np.empty((n, n), dtype=np.int32)
    cols[0] = np.arange(n, dtype=np.int32)
    for k in range(1, n):
        cols[k] = right_arr[via[k]][cols[parent[k]]]
    table = cols.T
    gen_idx = [index[g.images] for g in gens]
    labels = tuple(_perm_label(p) for p in elems)
    return FiniteGroup(name, table, generators=gen_idx, labels=labels)


def _perm_label(images: tuple[int, ...]) -> str:
    cycs = Permutation(images).cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


def direct_product(g: FiniteGroup, h: FiniteGroup, name: Optional[str] = None,
                   cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a*|H| + b."""
    n, m = g.order, h.order
    if n * m > cap:
        raise ClosureExceedsCap(f"direct product order {n * m} exceeds cap {cap}")
    gt = g.table.astype(np.int64)
    ht = h.table.astype(np.int64)
    big = (np.kron(gt, np.ones((m, m), dtype=np.int64)) * m
           + np.tile(ht, (n, n)))
    gens = [a * m for a in g.generators] + [b for b in h.generators]
    labels = None
    if g.labels and h.labels:
        labels = tuple(f"({g.labels[a]},{h.labels[b]})" for a in range(n) for b in range(m))
    return FiniteGroup(name or f"{g.name} x {h.name}", big.astype(np.int32),
                       generators=gens, labels=labels)


# ---------------------------------------------------------------------------
# subgroup-level operations


def generated_subgroup(g: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing the seed indices."""
    gens = sorted(set(int(s) for s in seed))
    bits = g.closure_bits(gens)
    return Subgroup(g, bits, gens=tuple(gens))


def subgroup_from_bits(g: FiniteGroup, bits: int) -> Subgroup:
    return Subgroup(g, bits)


def conjugate_bits(g: FiniteGroup, bits: int, x: int) -> int:
    """Bitmask of {x^-1 s x : s in bits}."""
    mem = bits_to_array(bits, g.order)
    conj = g.table[g.table[g.inv[x], mem], x]
    return bits_of_array(conj, g.order)


def product_bits(g: FiniteGroup, abits: int, bbits: int) -> int:
    """Bitmask of the element-set product A * B."""
    a = bits_to_array(abits, g.order)
    b = bits_to_array(bbits, g.order)
    prods = g.table[np.ix_(a, b)]
    return bits_of_array(prods.ravel(), g.order)


def conjugation_actions(g: FiniteGroup) -> list[list[int]]:
    """The permutations y -> s^-1 y s of g's elements, one list per
    generator s (per element when g records no generators). Memoized on
    the group."""
    actions = g._memo.get("conj_actions")
    if actions is None:
        actions = [g.table[g.table[g.inv[s]], s].tolist()
                   for s in g.generators or range(g.order)]
        g._memo["conj_actions"] = actions
    return actions


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
    gens = g.generators or range(g.order)
    return all(conjugate_bits(g, h.bits, x) == h.bits for x in gens)


def core(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Largest normal subgroup of g inside h (intersection of conjugates)."""
    return Subgroup(g, core_bits(g, h.bits, g.generators or tuple(range(g.order))))


def core_bits(g: FiniteGroup, hbits: int, conj_gens: Sequence[int]) -> int:
    cur = hbits
    changed = True
    while changed:
        changed = False
        for x in conj_gens:
            nxt = cur & conjugate_bits(g, cur, int(x))
            if nxt != cur:
                cur = nxt
                changed = True
    return cur


def normal_closure(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Smallest normal subgroup of g containing h."""
    return Subgroup(g, normal_closure_bits(g, h.bits, g.generators or tuple(range(g.order))))


def normal_closure_bits(g: FiniteGroup, hbits: int, conj_gens: Sequence[int]) -> int:
    cur = g.closure_bits([int(m) for m in bits_to_array(hbits, g.order)])
    while True:
        acc = cur
        for x in conj_gens:
            acc |= conjugate_bits(g, cur, int(x))
        if acc == cur:
            return cur
        cur = g.closure_bits([int(m) for m in bits_to_array(acc, g.order)])


def centralizer(g: FiniteGroup, subset: Iterable[int]) -> Subgroup:
    """{x : xs = sx for all s in subset}."""
    pts = sorted(set(int(s) for s in subset))
    if not pts:
        return g.full_subgroup()
    arr = np.asarray(pts, dtype=np.int32)
    left = g.table[:, arr]          # x * s
    right = g.table[arr, :].T       # s * x
    mask = np.all(left == right, axis=1)
    return Subgroup(g, bits_of_array(np.flatnonzero(mask), g.order))


def normalizer(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """{x : h^x = h}."""
    mem = h.members
    a = g.table[g.inv][:, mem]                       # x^-1 * m, all x at once
    b = g.table[a, np.arange(g.order)[:, None]]      # (x^-1 m) * x
    flags = np.zeros(g.order, dtype=bool)
    flags[mem] = True
    mask = np.all(flags[b], axis=1)
    return Subgroup(g, bits_of_array(np.flatnonzero(mask), g.order))


def center(g: FiniteGroup) -> Subgroup:
    mask = np.all(g.table == g.table.T, axis=1)
    return Subgroup(g, bits_of_array(np.flatnonzero(mask), g.order))


def derived_bits(g: FiniteGroup, bits: int) -> int:
    """Bitmask of the commutator subgroup [H, H] for H given by bits."""
    mem = bits_to_array(bits, g.order)
    ab = g.table[np.ix_(mem, mem)]
    ba = ab.T
    comms = np.unique(g.table[g.inv[ba], ab])
    return g.closure_bits([int(c) for c in comms])


def commutator_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, derived_bits(g, g.full_bits()))


def quotient(g: FiniteGroup, n: Subgroup) -> QuotientGroup:
    """Materialized quotient G/N (coset representative table).

    Raises NotNormal when n is not normal in g. Results are memoized per
    kernel, since chief-factor scans revisit the same quotients.
    """
    if n.bits in g._quotients:
        return g._quotients[n.bits]
    if not is_normal(g, n):
        raise NotNormal(f"subgroup of order {n.order} is not normal in {g.name}")
    mem = n.members
    nelem = g.order
    coset_of = np.full(nelem, -1, dtype=np.int32)
    reps = []
    for i in range(nelem):
        if coset_of[i] < 0:
            coset = g.table[i, mem]
            coset_of[coset] = len(reps)
            reps.append(i)
    reps_arr = np.asarray(reps, dtype=np.int32)
    qtable = coset_of[g.table[np.ix_(reps_arr, reps_arr)]]
    gens = sorted(set(int(coset_of[x]) for x in (g.generators or range(nelem))) - {0})
    qname = f"{g.name}/{n.order}.{_short_digest(n.bits)}"
    base = FiniteGroup(qname, qtable, generators=gens)
    q = QuotientGroup(base=base, projection=coset_of, kernel=n)
    g._quotients[n.bits] = q
    return q


def as_group(h: Subgroup) -> FiniteGroup:
    """Materialize a subgroup as a standalone group.

    The result carries `parent_embedding` (local index -> parent index) and is
    memoized on the parent.
    """
    g = h.parent
    if h.is_full:
        return g
    cached = g._materialized.get(h.bits)
    if cached is not None:
        return cached
    mem = h.members
    local = np.full(g.order, -1, dtype=np.int32)
    local[mem] = np.arange(h.order, dtype=np.int32)
    table = local[g.table[np.ix_(mem, mem)]]
    if table.min() < 0:
        raise ValueError("member set is not closed under multiplication")
    gens = [int(local[x]) for x in h.gens if local[x] > 0]
    labels = tuple(g.label(int(m)) for m in mem) if g.labels else None
    sub = FiniteGroup(f"{g.name}|{h.order}.{_short_digest(h.bits)}", table,
                      generators=gens, labels=labels)
    sub.parent_embedding = mem.copy()
    g._materialized[h.bits] = sub
    return sub


def map_bits_to_sub(h: Subgroup, sub: FiniteGroup, bits: int) -> int:
    """Translate a parent-indexed bitmask (subset of h) into sub's indexing."""
    emb = sub.parent_embedding
    out = 0
    for li, pi in enumerate(emb):
        if (bits >> int(pi)) & 1:
            out |= 1 << li
    return out


def map_bits_from_sub(h: Subgroup, sub: FiniteGroup, bits: int) -> int:
    """Translate a bitmask in sub's indexing, sub = as_group(h), back to
    the parent's (unchanged when h is the whole parent, which is sub)."""
    if h.is_full:
        return bits
    out = 0
    for li, pi in enumerate(sub.parent_embedding):
        if (bits >> li) & 1:
            out |= 1 << int(pi)
    return out


def intersection_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups of different parents")
    return Subgroup(a.parent, a.bits & b.bits)


def join_bits(g: FiniteGroup, abits: int, bbits: int) -> int:
    """Subgroup generated by the union of two member sets."""
    mem = bits_to_array(abits | bbits, g.order)
    return g.closure_bits([int(m) for m in mem])


def _short_digest(bits: int) -> str:
    return hashlib.sha1(bits.to_bytes((bits.bit_length() + 7) // 8 or 1, "little")).hexdigest()[:8]


def trivial_group(name: str = "1") -> FiniteGroup:
    return FiniteGroup(name, np.zeros((1, 1), dtype=np.int32), generators=())
