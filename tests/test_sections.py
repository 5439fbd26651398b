"""Sections of a group (`quotient` and `as_group`) are one group object per
Cayley table among a root and the groups derived from it, checked against
the brute-force oracle on random permutation groups of degree at most 6."""

from hypothesis import assume, given

from formations.dsl import parse_group
from formations.groups import (Subgroup, as_group, bits_of, map_bits_from_sub,
                               map_bits_to_sub, quotient)
from formations.lattice import all_subgroups

from conftest import PROPERTY, members, perm_groups, table_of
from oracle import o_normal_subgroups, o_quotient_table, o_subgroups


@PROPERTY
@given(perm_groups())
def test_subgroup_embedding_matches_oracle(g):
    """For every subgroup H: local index i of as_group(H) is H's i-th
    member, so the subgroups of as_group(H), mapped back, are exactly the
    subgroups of g inside H, and every bitmask inside H round-trips."""
    assume(g.order <= 24)
    expected = o_subgroups(table_of(g))
    for s in expected:
        h = Subgroup(g, bits_of(s))
        sub = as_group(h)
        mem = h.members
        assert [[mem[x] for x in row] for row in table_of(sub)] == \
            [[g.mult(a, b) for b in mem] for a in mem]
        inner = {members(map_bits_from_sub(h, bits_of(k)))
                 for k in o_subgroups(table_of(sub))}
        assert inner == {t for t in expected if t <= s}
        for t in inner:
            assert map_bits_from_sub(h, map_bits_to_sub(h, bits_of(t))) == bits_of(t)
        assert map_bits_to_sub(h, h.bits) == sub.full_bits()


@PROPERTY
@given(perm_groups())
def test_quotient_maps_match_oracle(g):
    """For every normal N: the quotient table is the oracle's, the
    projection is a homomorphism, project_bits maps each subgroup H onto
    a subgroup of G/N and preimage_bits takes that back to HN."""
    assume(g.order <= 24)
    table = table_of(g)
    subs = o_subgroups(table)
    for nset in o_normal_subgroups(table):
        q = quotient(g, Subgroup(g, bits_of(nset)))
        proj = q.projection
        assert table_of(q.base) == o_quotient_table(table, nset)
        assert all(proj[g.mult(a, b)] == q.base.mult(proj[a], proj[b])
                   for a in range(g.order) for b in range(g.order))
        qsubs = o_subgroups(table_of(q.base))
        for s in subs:
            image = members(q.project_bits(bits_of(s)))
            assert image == {proj[x] for x in s} and image in qsubs
            hn = {g.mult(x, y) for x in s for y in nset}
            assert members(q.preimage_bits(bits_of(image))) == hn


@PROPERTY
@given(perm_groups())
def test_one_group_per_table(g):
    """G/1 is G; sections with equal tables are one object, and a table
    seen once is never built twice."""
    assume(g.order <= 24)
    assert quotient(g, g.trivial_subgroup()).base is g
    seen = {}
    for h in all_subgroups(g).subgroups:
        sub = as_group(h)
        assert seen.setdefault(sub.right_rows, sub) is sub
        assert sub.name.startswith(f"H|{h.order}.") or sub is g
    for nset in o_normal_subgroups(table_of(g)):
        base = quotient(g, Subgroup(g, bits_of(nset))).base
        assert seen.setdefault(base.right_rows, base) is base


def test_klein_four_subgroups_share_one_group():
    """The three C2s of C2 x C2 and the three quotients by them are one
    group, yet each subgroup maps back to its own members."""
    g = parse_group("C2 x C2")
    c2s = [h for h in all_subgroups(g).subgroups if h.order == 2]
    assert len(c2s) == 3
    sub = as_group(c2s[0])
    for h in c2s:
        assert as_group(h) is sub
        assert quotient(g, h).base is sub
        assert map_bits_from_sub(h, sub.full_bits()) == h.bits
        assert map_bits_from_sub(h, 0b10) == h.bits & ~1
        assert map_bits_to_sub(h, h.bits) == sub.full_bits()
    assert quotient(g, g.full_subgroup()).base is as_group(g.trivial_subgroup())


def test_registry_is_per_root_and_lazy():
    """Separately built groups share no sections, and enumerating a
    lattice never fingerprints the table."""
    a, b = parse_group("S3"), parse_group("S3")
    assert a.fingerprint == b.fingerprint
    c = parse_group("C2 x C2")
    all_subgroups(c)
    assert c._fingerprint is None and c._registry is None
    ha = next(h for h in all_subgroups(a).subgroups if h.order == 3)
    hb = next(h for h in all_subgroups(b).subgroups if h.order == 3)
    assert as_group(ha) is not as_group(hb)
    assert as_group(ha).right_rows == as_group(hb).right_rows
