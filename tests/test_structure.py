import pytest
from hypothesis import assume, given

from formations.dsl import parse_group
from formations.errors import NotNormalized
from formations.groups import is_normal
from formations.lattice import all_subgroups
from formations.structure import (dispersiveness,
                                  exists_dispersive_ordering_exhaustive,
                                  induced_action, is_miller_moreno,
                                  is_phi_dispersive, is_schmidt, is_subnormal,
                                  profile)

from conftest import PROPERTY, members, perm_groups, s4_perms, table_of
from oracle import o_is_nilpotent, o_is_subnormal, o_is_supersoluble


def test_profile_s4(groups):
    p = profile(groups["S4"])
    assert p.soluble and not p.supersoluble and p.nilpotent_length == 3
    assert not p.nilpotent and p.pi == (2, 3) and p.exponent == 12


def test_profile_d8(groups):
    p = profile(groups["D8"])
    assert p.nilpotent and p.nilpotent_length == 1 and not p.abelian


def test_profile_a5(groups):
    p = profile(groups["A5"])
    assert not p.soluble and p.nilpotent_length is None
    assert p.pi == (2, 3, 5)


def test_profile_oracle_consistency(groups):
    for name in ("S3", "S4", "A4", "D8", "Q8", "SL23", "C12"):
        g = groups.get(name) or parse_group(name)
        p = profile(g)
        assert p.nilpotent == o_is_nilpotent(table_of(g)), name
        assert p.supersoluble == o_is_supersoluble(table_of(g)), name
        if p.nilpotent:
            assert p.supersoluble and p.soluble
        if p.supersoluble:
            assert p.soluble
        assert (p.nilpotent_length == 0) == (g.order == 1)
        assert p.nilpotent == (p.nilpotent_length is not None and p.nilpotent_length <= 1)


def test_schmidt(groups):
    assert is_schmidt(groups["S3"])
    assert is_schmidt(groups["A4"])
    assert is_schmidt(groups["SL23"])
    assert is_schmidt(groups["Frob21"])
    assert not is_schmidt(groups["C6"])
    assert not is_schmidt(groups["S4"])
    assert not is_schmidt(groups["D8"])


def test_miller_moreno(groups):
    assert is_miller_moreno(groups["Q8"])
    assert is_miller_moreno(groups["S3"])
    assert not is_miller_moreno(groups["C6"])
    assert not is_miller_moreno(groups["SL23"])


def test_schmidt_groups_have_two_primes(groups):
    for name in ("S3", "A4", "SL23", "Frob21"):
        p = profile(groups[name])
        assert p.soluble and len(p.pi) == 2


def test_dispersiveness(groups):
    ore, wit = dispersiveness(groups["S3"])
    assert ore and wit == (3, 2)
    ore, wit = dispersiveness(groups["A4"])
    assert not ore and wit == (2, 3)
    ore, wit = dispersiveness(groups["S4"])
    assert not ore and wit is None
    ore, wit = dispersiveness(parse_group("C1"))
    assert ore and wit == ()


def test_is_phi_dispersive(groups):
    s3 = groups["S3"]
    assert is_phi_dispersive(s3, (3, 2))
    assert not is_phi_dispersive(s3, (2, 3))
    d8 = groups["D8"]
    assert is_phi_dispersive(d8, (2,))
    with pytest.raises(ValueError):
        is_phi_dispersive(s3, (2, 5))


def test_greedy_witness_matches_exhaustive(groups):
    # the greedy search must find an ordering exactly when one exists
    for name in ("S3", "S4", "A4", "SL23", "Frob21", "C12", "S3 x C5", "A5"):
        g = groups.get(name) or parse_group(name)
        _, wit = dispersiveness(g)
        exhaustive = exists_dispersive_ordering_exhaustive(g)
        assert (wit is None) == (exhaustive is None), name
        if wit is not None:
            assert is_phi_dispersive(g, wit)


def test_nilpotent_all_orderings(groups):
    from itertools import permutations
    g = groups["C12"]
    for perm in permutations(g.pi()):
        assert is_phi_dispersive(g, perm)


def test_induced_action(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    v4 = next(s for s in lat.by_order(4) if is_normal(s4, s))
    stab = next(s for s in lat.by_order(6))
    q = induced_action(stab, v4)
    assert q.base.order == 6
    a4 = next(s for s in lat.by_order(12))
    q2 = induced_action(a4, v4)
    assert q2.base.order == 3
    assert induced_action(v4, v4).base.order == 1  # V4 is abelian
    c3 = next(s for s in lat.by_order(3))
    syl2 = next(s for s in lat.by_order(8))
    with pytest.raises(NotNormalized):
        induced_action(c3, syl2)


def test_is_subnormal(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    v4 = next(s for s in lat.by_order(4) if is_normal(s4, s))
    c2_in_v4 = next(s for s in lat.by_order(2) if s.bits & v4.bits == s.bits)
    assert is_subnormal(s4, c2_in_v4)
    perms = s4_perms(s4)
    transposition = next(
        s for s in lat.by_order(2) if len(perms[max(s.members)].cycles()) == 1)
    assert not is_subnormal(s4, transposition)
    assert is_subnormal(s4, s4.full_subgroup())
    for name in ("S4", "SL23"):
        g = groups[name]
        for s in all_subgroups(g).subgroups:
            assert is_subnormal(g, s) == o_is_subnormal(
                table_of(g), frozenset(s.members))


@PROPERTY
@given(perm_groups())
def test_is_subnormal_matches_oracle(g):
    assume(g.order <= 24)
    table = table_of(g)
    for s in all_subgroups(g).subgroups:
        assert is_subnormal(g, s) == o_is_subnormal(table, members(s.bits))
