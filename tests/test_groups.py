import os
import subprocess
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from formations.dsl import parse_group
from formations.errors import ClosureExceedsCap, NotNormal
from formations.groups import (FiniteGroup, Permutation, Subgroup, as_group,
                               bits_of, center, centralizer,
                               commutator_subgroup, conjugates, core, cyclic,
                               derived_bits, direct_product, from_generators,
                               generated_subgroup, indices_of, is_normal,
                               map_bits_from_sub, normal_closure, normalizer,
                               product_bits, quotient)
from formations.lattice import all_subgroups
from formations.structure import subgroup_is_abelian

from conftest import (PROPERTY, members, mult, of_order, perm_groups, s4_perms,
                      table_of)
from oracle import (map_bits_to_sub, o_center, o_centralizer, o_closure,
                    o_conjugate, o_core, o_derived, o_element_orders,
                    o_inverses, o_is_normal, o_normal_closure, o_normalizer,
                    o_quotient_table)


@given(st.lists(st.integers(0, 6000)))
def test_bitmask_helpers_round_trip(idx):
    """Indices past the largest default group order take the same path."""
    assert indices_of(bits_of(idx)) == sorted(set(idx))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3)


def test_from_generators_s3():
    g = from_generators([Permutation.from_cycles(3, [(0, 1)]),
                         Permutation.from_cycles(3, [(0, 1, 2)])], "S3")
    assert g.order == 6
    assert sorted(g.element_orders()) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("rows", [
    ((0, 1, 2), (1, 2, 2), (2, 2, 2)),
    # every row holds the identity, but the powers of 1 cycle through 1, 2
    ((0, 1, 2, 3), (1, 2, 1, 0), (2, 3, 0, 1), (3, 0, 1, 2)),
    # every element squares to the identity, but rows 1 and 2 repeat 0
    ((0, 1, 2), (1, 0, 0), (2, 0, 0)),
])
def test_table_that_is_not_a_group(rows):
    """A square table with the identity at 0 that is not a group is
    refused with ValueError, without looping: given no generators, every
    row must be a permutation of the elements."""
    with pytest.raises(ValueError, match="not a group"):
        FiniteGroup("bad", rows)


@PROPERTY
@given(perm_groups())
def test_inverses_and_orders_match_oracle(g):
    """Each element's inverse and order against brute force on the table."""
    table = table_of(g)
    assert list(g.inv) == o_inverses(table)
    assert list(g.element_orders()) == o_element_orders(table)


@pytest.mark.parametrize("spec", ["C210", "S3 x C105", "perm 5: (1 2 3 4 5), (2 3 5 4) x C21"])
def test_inverses_and_orders_of_corpus_groups(spec):
    """The walk per cyclic subgroup against brute force on the corpus's
    groups with the longest power walks."""
    g = parse_group(spec)
    table = table_of(g)
    assert list(g.inv) == o_inverses(table)
    assert list(g.element_orders()) == o_element_orders(table)


@pytest.mark.parametrize("n", [*range(1, 65), 105, 210, 420])
def test_cyclic_is_the_n_cycle(n):
    """cyclic(n) is from_generators of the n-cycle: same rows, generators,
    inverses, orders and name."""
    a = cyclic(n, f"C{n}")
    b = from_generators([Permutation.from_cycles(n, [tuple(range(n))])], f"C{n}")
    assert a.right_rows == b.right_rows and a.generators == b.generators
    assert a.inv == b.inv and a.element_orders() == b.element_orders()
    assert a.name == b.name


def test_subgroup_gens_memoized_per_bits(monkeypatch):
    """Subgroups built from the same bare bits share one generating set:
    the second makes no closure."""
    g = parse_group("S4")
    bits = g.closure_bits([1, 5])  # a dihedral subgroup of order 8
    first = Subgroup(g, bits).gens
    calls = []
    monkeypatch.setattr(g, "closure_bits", lambda gens: calls.append(gens))
    assert Subgroup(g, bits).gens == first and calls == []


def test_from_generators_identity_only():
    g = from_generators([Permutation.identity(4)], "triv")
    assert g.order == 1


def test_from_generators_q8_single_involution(groups):
    q8 = groups["Q8"]
    assert q8.order == 8
    assert sum(1 for o in q8.element_orders() if o == 2) == 1


def test_closure_cap():
    with pytest.raises(ClosureExceedsCap):
        from_generators([Permutation.from_cycles(5, [(0, 1)]),
                         Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])], "S5", cap=100)


def test_determinism(groups):
    a = from_generators([Permutation.from_cycles(4, [(0, 1)]),
                         Permutation.from_cycles(4, [(0, 1, 2, 3)])], "S4")
    b = from_generators([Permutation.from_cycles(4, [(0, 1)]),
                         Permutation.from_cycles(4, [(0, 1, 2, 3)])], "S4")
    assert a.right_rows == b.right_rows
    assert a.fingerprint == b.fingerprint


def test_fingerprints_pinned():
    """Lattice-cache file names and section names derive from these, so a
    change to the fingerprint has to be deliberate."""
    s4 = parse_group("S4")
    assert s4.fingerprint == "888d87e3d4fdbaadc9ed48a74988150afae3d3c5b3c2ec363e34a998960870ea"
    v4 = next(h for h in of_order(all_subgroups(s4), 4) if is_normal(s4, h))
    assert quotient(s4, v4).base.fingerprint == \
        "8cc44c422a098a4889804f4ab4cbd8ca613b97cc08595e201143429f23fb70fa"


def test_import_does_not_load_numpy():
    code = "import formations, sys; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_generated_subgroup(groups):
    s3, s4 = groups["S3"], groups["S4"]
    transposition = next(i for i in range(1, 6) if s3.element_orders()[i] == 2)
    assert generated_subgroup(s3, [transposition]).order == 2
    assert generated_subgroup(s3, []).order == 1
    # two double transpositions of S4 generate the Klein four group
    dts = [i for i, p in enumerate(s4_perms(s4))
           if s4.element_orders()[i] == 2 and len(p.cycles()) == 2]
    v4 = generated_subgroup(s4, dts[:2])
    assert v4.order == 4
    assert o_closure(table_of(s4), set(dts[:2])) == frozenset(v4.members)


def test_quotient_s4_by_v4(groups):
    s4 = groups["S4"]
    v4 = _normal_v4(s4)
    q = quotient(s4, v4)
    assert q.base.order == 6
    # isomorphic-to-S3 fingerprint: nonabelian, element orders {1,2,2,2,3,3}
    assert not q.base.is_abelian()
    assert sorted(q.base.element_orders()) == [1, 2, 2, 2, 3, 3]
    # projection is a homomorphism (exhaustive), kernel = preimage of identity
    for a in range(s4.order):
        for b in range(s4.order):
            assert q.projection[mult(s4, a, b)] == mult(q.base, q.projection[a], q.projection[b])
    assert {i for i in range(s4.order) if q.projection[i] == 0} == \
        set(v4.members)
    assert o_quotient_table(table_of(s4), frozenset(v4.members)) == \
        table_of(q.base)


def _normal_v4(s4):
    from formations.lattice import all_subgroups
    lat = all_subgroups(s4)
    return next(s for s in of_order(lat, 4) if is_normal(s4, s))


def test_quotient_full_kernel(groups):
    g = groups["S3"]
    q = quotient(g, g.full_subgroup())
    assert q.base.order == 1


def test_quotient_not_normal(groups):
    s3 = groups["S3"]
    t = generated_subgroup(s3, [_a_transposition(s3)])
    with pytest.raises(NotNormal):
        quotient(s3, t)


def _a_transposition(g):
    return next(i for i in range(1, g.order) if g.element_orders()[i] == 2)


def test_core(groups):
    s4 = groups["S4"]
    # point stabilizer of the last point
    stab_bits = bits_of(i for i, p in enumerate(s4_perms(s4)) if p.images[3] == 3)
    h = Subgroup(s4, stab_bits)
    assert h.order == 6
    assert core(s4, h).order == 1
    v4 = _normal_v4(s4)
    assert core(s4, v4) == v4


def test_core_c6_in_sl23(groups):
    sl = groups["SL23"]
    six = next(i for i in range(sl.order) if sl.element_orders()[i] == 6)
    c6 = generated_subgroup(sl, [six])
    assert c6.order == 6
    assert core(sl, c6).order == 2
    assert core(sl, c6).bits == center(sl).bits


def test_normal_closure(groups):
    s4, a4 = groups["S4"], groups["A4"]
    t = generated_subgroup(s4, [_a_transposition(s4)])
    assert normal_closure(s4, t).order == 24
    v4 = _normal_v4(s4)
    assert normal_closure(s4, v4) == v4
    c3 = generated_subgroup(a4, [next(i for i in range(a4.order) if a4.element_orders()[i] == 3)])
    assert normal_closure(a4, c3).order == 12


def test_centralizer(groups):
    s4, s3 = groups["S4"], groups["S3"]
    v4 = _normal_v4(s4)
    assert centralizer(s4, v4.members) == v4
    assert centralizer(s4, []).order == 24
    assert centralizer(s4, [0]).order == 24
    three = next(i for i in range(s3.order) if s3.element_orders()[i] == 3)
    assert centralizer(s3, [three]).order == 3


def test_normalizer(groups):
    s3, a4 = groups["S3"], groups["A4"]
    t = generated_subgroup(s3, [_a_transposition(s3)])
    assert normalizer(s3, t) == t
    c3 = generated_subgroup(a4, [next(i for i in range(a4.order) if a4.element_orders()[i] == 3)])
    assert normalizer(a4, c3) == c3
    v4 = _normal_v4(groups["S4"])
    assert normalizer(groups["S4"], v4).order == 24


def test_center(groups):
    assert center(groups["S3"]).order == 1
    assert center(groups["C6"]).order == 6
    assert center(groups["Q8"]).order == 2
    for name in ("S3", "Q8", "SL23"):
        g = groups[name]
        assert frozenset(center(g).members) == o_center(table_of(g))


def test_commutator_subgroup(groups):
    s3, s4, c6 = groups["S3"], groups["S4"], groups["C6"]
    assert commutator_subgroup(s3).order == 3
    assert commutator_subgroup(c6).order == 1
    d = commutator_subgroup(s4)
    assert d.order == 12
    assert frozenset(d.members) == o_derived(table_of(s4))


def test_direct_product(groups):
    c2 = parse("C2")
    c3 = parse("C3")
    g = direct_product(c2, c3)
    assert g.order == 6
    assert max(g.element_orders()) == 6  # cyclic
    s3c2 = direct_product(groups["S3"], c2)
    assert s3c2.order == 12
    v4 = direct_product(c2, c2)
    assert v4.order == 4 and v4.exponent == 2


def parse(text):
    from formations.dsl import parse_group
    return parse_group(text)


def test_is_normal(groups):
    s4, s3 = groups["S4"], groups["S3"]
    assert is_normal(s4, _normal_v4(s4))
    assert is_normal(s4, s4.full_subgroup())
    assert is_normal(s4, s4.trivial_subgroup())
    t = generated_subgroup(s3, [_a_transposition(s3)])
    assert not is_normal(s3, t)
    tab = table_of(s3)
    assert o_is_normal(tab, frozenset(t.members)) is False


def test_lagrange_and_core_sandwich(groups):
    from formations.lattice import all_subgroups
    for name in ("S4", "SL23", "Frob21"):
        g = groups[name]
        for h in all_subgroups(g).subgroups:
            assert g.order % h.order == 0
            c = core(g, h)
            nc = normal_closure(g, h)
            assert c.bits & h.bits == c.bits
            assert h.bits & nc.bits == h.bits
            assert is_normal(g, c) and is_normal(g, nc)


def test_materialize_roundtrip(groups):
    s4 = groups["S4"]
    v4 = _normal_v4(s4)
    sub = as_group(v4)
    assert sub.order == 4
    assert sub.exponent == 2
    # local index i stands for parent index v4.members[i]
    for i, m in enumerate(v4.members):
        assert map_bits_from_sub(v4, 1 << i) == 1 << m
        assert map_bits_to_sub(v4, 1 << m) == 1 << i


def test_product_bits(groups):
    s3 = groups["S3"]
    t = generated_subgroup(s3, [_a_transposition(s3)])
    c3 = generated_subgroup(s3, [next(i for i in range(s3.order) if s3.element_orders()[i] == 3)])
    assert product_bits(s3, t.bits, c3.bits) == s3.full_bits()


@PROPERTY
@given(perm_groups())
def test_subgroup_operations_match_oracle(g):
    """For every subgroup H, the generator-based normalizer, centralizer,
    core, normal closure, derived subgroup, conjugates, normality and
    commutativity against brute force over all elements; computed
    generating sets; the centre; and products H*K."""
    assume(g.order <= 24)
    table = table_of(g)
    inv = o_inverses(table)
    assert members(center(g).bits) == o_center(table)
    assert g.is_abelian() == (len(o_center(table)) == g.order)
    assert g.closure_bits(FiniteGroup("H", g.right_rows).generators) == g.full_bits()
    subs = all_subgroups(g).subgroups
    for h in subs:
        s = members(h.bits)
        assert g.closure_bits(Subgroup(g, h.bits).gens) == h.bits
        assert {members(b) for b in conjugates(g, h.bits)} == \
            {o_conjugate(table, inv, s, x) for x in range(g.order)}
        assert members(normalizer(g, h).bits) == o_normalizer(table, s)
        assert members(centralizer(g, h.gens).bits) == o_centralizer(table, s)
        assert members(core(g, h).bits) == o_core(table, s)
        assert members(normal_closure(g, h).bits) == o_normal_closure(table, s)
        assert members(derived_bits(g, h.bits)) == o_derived(table, s)
        assert is_normal(g, h) == o_is_normal(table, s)
        assert subgroup_is_abelian(h) == (o_centralizer(table, s) >= s)
        for k in subs:
            assert members(product_bits(g, h.bits, k.bits)) == \
                {table[a][b] for a in s for b in members(k.bits)}


@PROPERTY
@given(perm_groups(), perm_groups())
def test_direct_product_table(a, b):
    """(x, y)(u, v) = (xu, yv), with (x, y) at index x*|B| + y."""
    assume(a.order * b.order <= 144)
    m = b.order
    table = table_of(direct_product(a, b))
    assert all(table[x * m + y][u * m + v] == mult(a, x, u) * m + mult(b, y, v)
               for x in range(a.order) for y in range(m)
               for u in range(a.order) for v in range(m))
