"""Sections of a group, all built by `subquotient` (`quotient` and
`as_group` are its two special cases), are one group object per Cayley table
among a root and the groups derived from it, checked against the
brute-force oracle on random permutation groups of degree at most 6."""

import pytest
from hypothesis import assume, given

from formations.dsl import parse_group
from formations.errors import NotNormal
from formations.groups import (Subgroup, as_group, bits_of, map_bits_from_sub,
                               quotient, subquotient)
from formations.lattice import all_subgroups, normal_subgroups

from conftest import PROPERTY, members, mult, perm_groups, table_of
from oracle import (map_bits_to_sub, o_normal_subgroups, o_quotient_table,
                    o_subgroups)


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
            [[mult(g, a, b) for b in mem] for a in mem]
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
        assert all(proj[mult(g, a, b)] == mult(q.base, proj[a], proj[b])
                   for a in range(g.order) for b in range(g.order))
        qsubs = o_subgroups(table_of(q.base))
        for s in subs:
            image = members(q.project_bits(bits_of(s)))
            assert image == {proj[x] for x in s} and image in qsubs
            hn = {mult(g, x, y) for x in s for y in nset}
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


@PROPERTY
@given(perm_groups())
def test_subquotient_matches_oracle(g):
    """For every subgroup H and every K normal in H: subquotient(H, K),
    built from g's rows, has the oracle's coset table of as_group(H) by K,
    is the registered group quotient(as_group(H), K) gives and has its
    projection; a K not normal in H raises NotNormal."""
    assume(g.order <= 24)
    for s in o_subgroups(table_of(g)):
        h = Subgroup(g, bits_of(s))
        hgrp = as_group(h)
        local = table_of(hgrp)
        normal = o_normal_subgroups(local)
        for kset in o_subgroups(local):
            kbits = map_bits_from_sub(h, bits_of(kset))
            if kset not in normal:
                with pytest.raises(NotNormal):
                    subquotient(h, kbits)
                continue
            q = subquotient(h, kbits)
            want = quotient(hgrp, Subgroup(hgrp, bits_of(kset)))
            assert table_of(q.base) == o_quotient_table(local, kset)
            assert q.base is want.base and q.projection == want.projection


def test_subquotient_builds_no_subgroup_table():
    """H/K for a proper H and a nontrivial K leaves H unmaterialized; a
    K that is not inside H is refused."""
    g = parse_group("S4")
    h = next(h for h in all_subgroups(g).subgroups if h.order == 8)
    k = next(k for k in all_subgroups(g).subgroups
             if k.order == 4 and k.bits & h.bits == k.bits)
    assert subquotient(h, k.bits).base.order == 2
    assert all(sec.order != 8 for sec in g._registry.values())
    with pytest.raises(ValueError, match="not inside"):
        subquotient(k, h.bits)


@PROPERTY
@given(perm_groups())
def test_quotient_and_as_group_are_subquotients(g):
    """as_group(H) is the base of H/1, and G/N that of subquotient(G, N),
    whichever of the two is asked first."""
    assume(g.order <= 24)
    lat = all_subgroups(g)
    for i, h in enumerate(lat.subgroups):
        if i % 2:
            assert as_group(h) is subquotient(h, 1).base
        else:
            assert subquotient(h, 1).base is as_group(h)
    for i, n in enumerate(normal_subgroups(g)):
        if i % 2:
            assert quotient(g, n).base is subquotient(g.full_subgroup(), n.bits).base
        else:
            assert subquotient(g.full_subgroup(), n.bits).base is quotient(g, n).base


@pytest.mark.parametrize("extra_order", [2, 3])
def test_member_set_not_closed_is_refused(extra_order):
    """V4 in S4 with one more element of order 2 (5 members), or with the
    coset V4*x for an x of order 3 (8 members, x*x outside), is not a
    group: both as_group and subquotient over K = 1 and K = V4 refuse it."""
    g = parse_group("S4")
    v4 = next(n for n in normal_subgroups(g) if n.order == 4)
    x = next(x for x, o in enumerate(g.element_orders())
             if o == extra_order and not v4.bits >> x & 1)
    extra = 1 << x if extra_order == 2 else \
        bits_of(mult(g, y, x) for y in members(v4.bits))
    h = Subgroup(g, v4.bits | extra)
    with pytest.raises(ValueError, match="not closed"):
        as_group(h)
    for kbits in (1, v4.bits):
        with pytest.raises(ValueError, match="not closed"):
            subquotient(h, kbits)


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
