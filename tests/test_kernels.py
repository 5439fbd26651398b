"""Hot-path kernels against the brute-force oracle on random permutation
groups of degree at most 6: subgroup closure (Dimino's algorithm), subgroup
lattices enumerated up to conjugacy, normal subgroups from conjugacy
classes, and Cayley tables built column by column."""

from hypothesis import assume, given
from hypothesis import strategies as st

import formations
from formations.dsl import parse_group
from formations.groups import Permutation, from_generators
from formations.lattice import (all_subgroups, minimal_normal_subgroups,
                                normal_subgroups)

from conftest import PROPERTY, members, perm_gens, perm_groups, table_of
from oracle import (o_closure, o_maximal_in, o_normal_subgroups,
                    o_perm_elements, o_subgroups)


def test_backend_selected():
    assert formations.KERNEL_BACKEND == "python"


def test_empty_seed_gives_identity(groups):
    assert groups["S4"].closure_bits([]) == 1
    assert groups["S4"].closure_bits([0, 0]) == 1


def test_full_group_closure(groups):
    g = groups["S3"]
    assert g.closure_bits(list(g.generators)) == g.full_bits()


@PROPERTY
@given(perm_groups(), st.data())
def test_closure_matches_oracle(g, data):
    """Seeds may be empty, hold the identity, duplicates, or products of
    earlier seeds, which Dimino's algorithm skips."""
    pick = st.integers(0, g.order - 1)
    seed = data.draw(st.lists(pick, max_size=4))
    if seed and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(seed)), data.draw(st.sampled_from(seed))
        seed.append(g.mult(a, b))
    if data.draw(st.booleans()):
        seed.insert(data.draw(st.integers(0, len(seed))), 0)
    if seed and data.draw(st.booleans()):
        seed.append(data.draw(st.sampled_from(seed)))
    expected = o_closure(table_of(g), set(seed))
    assert members(g.closure_bits(seed)) == expected


@PROPERTY
@given(perm_groups())
def test_normal_subgroups_match_oracle(g):
    assume(g.order <= 24)
    expected = o_normal_subgroups(table_of(g))
    got = [s.bits for s in normal_subgroups(g)]
    assert got == sorted(got, key=lambda b: (b.bit_count(), b))
    assert {members(b) for b in got} == expected
    nontrivial = [s for s in expected if len(s) > 1]
    minimal = {s for s in nontrivial if not any(t < s for t in nontrivial)}
    assert {members(s.bits) for s in minimal_normal_subgroups(g)} == minimal


@PROPERTY
@given(perm_groups())
def test_lattice_matches_oracle(g):
    """The same subgroups in (order, bits) order, the same covers, and
    recorded generators that regenerate each subgroup."""
    assume(g.order <= 48)
    lat = all_subgroups(g)
    bits = [s.bits for s in lat.subgroups]
    assert bits == sorted(bits, key=lambda b: (b.bit_count(), b))
    expected = o_subgroups(table_of(g))
    assert {members(b) for b in bits} == expected
    for s, maxima in zip(lat.subgroups, lat.maximals_of):
        assert g.closure_bits(s.gens) == s.bits
        assert {members(lat.subgroups[j].bits) for j in maxima} == o_maximal_in(
            expected, members(s.bits))


@PROPERTY
@given(perm_gens(), st.data())
def test_table_matches_composition(gens, data):
    """Entry (i, j) is the index of element i followed by element j: every
    row of a group of order <= 60, a few rows of a larger one."""
    degree = gens[0].degree
    g = from_generators(gens, "H")
    perms = [Permutation(p) for p in o_perm_elements([q.images for q in gens])]
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == g.order and perms[0] == Permutation.identity(degree)
    assert [perms[i] for i in g.generators] == gens
    rows = range(g.order) if g.order <= 60 else data.draw(
        st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4))
    for i in rows:
        assert [index[perms[i] * q] for q in perms] == table_of(g)[i]


def test_a6_right_rows_match_composition():
    """Right row y of A6 (order 360) maps x to the index of x followed by
    y, for every x, at both generators and two other elements."""
    a6 = parse_group("A6")
    gens = [Permutation.from_cycles(6, [(0, 1, 2)]),
            Permutation.from_cycles(6, [(1, 2, 3, 4, 5)])]
    perms = [Permutation(p) for p in o_perm_elements([q.images for q in gens])]
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == a6.order and [perms[i] for i in a6.generators] == gens
    for y in (*a6.generators, 1, a6.order - 1):
        assert a6.right_row(y) == tuple(index[p * perms[y]] for p in perms)
