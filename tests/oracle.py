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
