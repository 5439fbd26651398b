"""Brute-force oracles, independent of the package's algorithms.

Everything here works on a plain list-of-lists multiplication table with
naive set arithmetic: closures by repeated pairwise products, subgroup
enumeration as the join-closure of cyclic subgroups, chief factor orders from
maximal chains of the normal-subgroup poset. Slow but obviously correct at
desk scale; expected values in the tests were produced (and are re-checked)
against these.
"""

def o_closure(table, seed):
    cur = set(seed) | {0}
    while True:
        new = {table[a][b] for a in cur for b in cur} | cur
        if new == cur:
            return frozenset(cur)
        cur = new


def o_cyclic_subgroups(table):
    n = len(table)
    return {o_closure(table, {x}) for x in range(n)}


def o_subgroups(table):
    """All subgroups: join-closure of the cyclic subgroups."""
    cyc = sorted(o_cyclic_subgroups(table), key=sorted)
    known = set(cyc) | {frozenset({0})}
    work = list(known)
    while work:
        h = work.pop()
        for c in cyc:
            if c <= h:
                continue
            j = o_closure(table, h | c)
            if j not in known:
                known.add(j)
                work.append(j)
    return known


def o_maximal_in(subgroups, h):
    proper = [s for s in subgroups if s < h]
    return {s for s in proper if not any(s < t < h for t in proper)}


def o_maximal_positions(subgroups):
    """For each subgroup in a list of member bitmasks, the ascending
    positions of its maximal subgroups: the proper subgroups inside it that
    lie inside no other proper subgroup inside it, by testing every pair."""
    out = []
    for h in subgroups:
        below = [i for i, s in enumerate(subgroups) if s != h and s & h == s]
        out.append([i for i in below
                    if not any(subgroups[k] != subgroups[i]
                               and subgroups[i] & subgroups[k] == subgroups[i]
                               for k in reversed(below))])
    return out


def o_conjugate(table, inv, s, g):
    return frozenset(table[table[inv[g]][x]][g] for x in s)


def o_inverses(table):
    n = len(table)
    inv = [0] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == 0:
                inv[a] = b
    return inv


def o_element_orders(table):
    """The least k >= 1 with x^k = 1, for each element x."""
    orders = []
    for x in range(len(table)):
        k, power = 1, x
        while power != 0:
            power = table[power][x]
            k += 1
        orders.append(k)
    return orders


def o_is_normal(table, s):
    inv = o_inverses(table)
    return all(o_conjugate(table, inv, s, g) == s for g in range(len(table)))


def o_normal_subgroups(table):
    return {s for s in o_subgroups(table) if o_is_normal(table, s)}


def o_frattini(table):
    subs = o_subgroups(table)
    full = frozenset(range(len(table)))
    out = full
    for m in o_maximal_in(subs, full):
        out = out & m
    return out


def o_center(table):
    n = len(table)
    return frozenset(g for g in range(n)
                     if all(table[g][h] == table[h][g] for h in range(n)))


def o_derived(table, s=None):
    n = len(table)
    s = s if s is not None else frozenset(range(n))
    inv = o_inverses(table)
    comms = {table[inv[table[b][a]]][table[a][b]] for a in s for b in s}
    return o_closure(table, comms)


def o_is_nilpotent_sub(table, s):
    """Lower central series inside the subgroup s reaches the identity."""
    inv = o_inverses(table)
    cur = s
    while True:
        comms = {table[inv[table[b][a]]][table[a][b]] for a in cur for b in s}
        nxt = o_closure(table, comms)
        if nxt == cur:
            return cur == frozenset({0})
        cur = nxt


def o_fitting(table):
    best = frozenset({0})
    for s in o_normal_subgroups(table):
        if o_is_nilpotent_sub(table, s) and len(s) > len(best):
            best = s
    return best


def o_chief_order_multisets(table):
    """Factor-order multisets of every maximal chain of the normal poset."""
    normals = sorted(o_normal_subgroups(table), key=len)
    full = frozenset(range(len(table)))

    def chains(cur):
        if cur == full:
            yield ()
            return
        covers = [n for n in normals
                  if cur < n and not any(cur < m < n for m in normals)]
        for nxt in covers:
            for rest in chains(nxt):
                yield (len(nxt) // len(cur),) + rest

    return {tuple(sorted(ch)) for ch in chains(frozenset({0}))}


def o_quotient_table(table, nsub):
    """Coset multiplication table (cosets ordered by least member)."""
    n = len(table)
    coset_of = {}
    cosets = []
    for i in range(n):
        if i in coset_of:
            continue
        cs = frozenset(table[i][x] for x in nsub)
        for e in cs:
            coset_of[e] = len(cosets)
        cosets.append(min(cs))
    q = len(cosets)
    return [[coset_of[table[cosets[a]][cosets[b]]] for b in range(q)] for a in range(q)]


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def o_is_supersoluble(table):
    multis = o_chief_order_multisets(table)
    assert len(multis) == 1 or all(m == next(iter(multis)) for m in multis)
    return all(_is_prime(o) for o in next(iter(multis)))


def o_residual(table, quotient_pred):
    """Smallest normal subgroup whose quotient satisfies the predicate."""
    best = None
    for nsub in sorted(o_normal_subgroups(table), key=len):
        if quotient_pred(o_quotient_table(table, nsub)):
            if best is None:
                best = nsub
            else:
                best = best & nsub
    return best


def o_is_nilpotent(table):
    return o_is_nilpotent_sub(table, frozenset(range(len(table))))


def o_n_maximal(table, n):
    subs = o_subgroups(table)
    level = {frozenset(range(len(table)))}
    for _ in range(n):
        level = {m for h in level for m in o_maximal_in(subs, h)}
    return level


def o_is_subnormal(table, h):
    inv = o_inverses(table)
    cur = frozenset(range(len(table)))
    while True:
        if cur == h:
            return True
        conj = set(h)
        for g in cur:
            conj |= o_conjugate(table, inv, h, g)
        nxt = o_closure(table, conj)
        if nxt == cur:
            return False
        cur = nxt


def o_centralizer(table, s):
    return frozenset(x for x in range(len(table)) if all(table[x][y] == table[y][x] for y in s))


def o_normalizer(table, s):
    inv = o_inverses(table)
    return frozenset(g for g in range(len(table)) if o_conjugate(table, inv, s, g) == s)


def o_core(table, s):
    inv = o_inverses(table)
    out = frozenset(s)
    for g in range(len(table)):
        out &= o_conjugate(table, inv, s, g)
    return out


def o_normal_closure(table, s):
    inv = o_inverses(table)
    conj = set()
    for g in range(len(table)):
        conj |= o_conjugate(table, inv, s, g)
    return o_closure(table, conj)


def o_perm_elements(gens):
    """The elements of the permutation group generated by gens (image
    tuples on one set of points), in `from_generators`' documented order:
    breadth first from the identity, each element followed by every
    generator in the given order; p then q has images q[p[i]]."""
    elems = [tuple(range(len(gens[0])))]
    seen = set(elems)
    for cur in elems:  # grows while it is read
        for gen in gens:
            nxt = tuple(gen[i] for i in cur)
            if nxt not in seen:
                seen.add(nxt)
                elems.append(nxt)
    return elems


def o_sub_table(table, s):
    """The multiplication table of the subgroup s on its own indexing:
    local index i stands for the i-th least member of s."""
    mem = sorted(s)
    local = {x: i for i, x in enumerate(mem)}
    return [[local[table[a][b]] for b in mem] for a in mem]


def o_is_f_critical(table, pred):
    """Literal F-criticality, F given by a predicate on tables: the group
    fails pred, and every proper subgroup, on its own table, passes it."""
    full = frozenset(range(len(table)))
    return not pred(table) and all(pred(o_sub_table(table, s))
                                   for s in o_subgroups(table) if s != full)


def o_f_subnormal(table, pred):
    """The F-subnormal subgroups, F given by a predicate on tables: those
    reached from the whole group by steps H maximal in K with K/core_K(H)
    in F, the core and the quotient taken on K's own table."""
    subs = o_subgroups(table)
    full = frozenset(range(len(table)))
    good = {full}
    work = [full]
    while work:
        k = work.pop()
        mem = sorted(k)
        ktable = o_sub_table(table, k)
        for h in o_maximal_in(subs, k):
            if h in good:
                continue
            core = o_core(ktable, frozenset(mem.index(x) for x in h))
            if pred(o_quotient_table(ktable, core)):
                good.add(h)
                work.append(h)
    return good


def map_bits_to_sub(h, bits):
    """Translate a bitmask in the indexing of h's parent (a subset of the
    Subgroup h) into the indexing of as_group(h), where local index i is
    h.members[i]: the inverse of `groups.map_bits_from_sub`."""
    if h.is_full:
        return bits
    return sum(1 << i for i, x in enumerate(h.members) if bits >> x & 1)


def exists_dispersive_ordering_exhaustive(g):
    """The first ordering of pi(G) in which G is phi-dispersive, trying all
    |pi|! orderings with the package's `is_phi_dispersive`; None when there
    is none. The greedy witness search of `dispersiveness` is checked
    against it."""
    from itertools import permutations

    from formations.structure import is_phi_dispersive
    for perm in permutations(sorted(g.pi())):
        if is_phi_dispersive(g, perm):
            return perm
    return None if g.pi() else ()
