import pytest
from hypothesis import assume, given

from formations.dsl import formation_from_text, parse_group
from formations.errors import NoSatellite, NotMaximal
from formations.formation import (BUILTINS, MSL_UNBOUNDED, NILPOTENT,
                                  SUPERSOLUBLE, abelian_exponent,
                                  canonical_satellite, f_hypercentre,
                                  f_subnormal_bits, intersection, is_f_central,
                                  is_f_critical, is_f_normal_maximal,
                                  is_f_subnormal, local_membership, member,
                                  p_groups, product, residual,
                                  sigma_closure_check)
from formations.groups import center
from formations.lattice import all_subgroups, chief_series, sylow

from conftest import PROPERTY, members, perm_groups, table_of
from oracle import o_is_nilpotent, o_is_supersoluble, o_residual

N, U, S, N2 = BUILTINS["N"], BUILTINS["U"], BUILTINS["S"], BUILTINS["N^2"]


def test_member_basics(groups):
    assert member(U, groups["S3"])
    assert not member(U, groups["S4"])
    assert member(N, groups["D8"])
    assert member(N, groups["Q8"])
    assert member(S, groups["S4"])
    assert not member(S, groups["A5"])
    assert member(N2, groups["S3"]) and not member(N2, groups["S4"])


def test_trivial_in_everything(groups):
    triv = parse_group("C1")
    for f in (N, U, S, N2, p_groups(3), abelian_exponent(4)):
        assert member(f, triv)


def test_residual(groups):
    s3, s4, d8 = groups["S3"], groups["S4"], groups["D8"]
    assert residual(s3, N).order == 3
    assert residual(s4, U).order == 4
    assert residual(d8, N).order == 1
    # oracle cross-check via independent quotient construction
    got = frozenset(residual(s4, U).members)
    assert got == o_residual(table_of(s4), o_is_supersoluble)
    got_n = frozenset(residual(s3, N).members)
    assert got_n == o_residual(table_of(s3), o_is_nilpotent)


@PROPERTY
@given(perm_groups())
def test_residuals_match_oracle(g):
    """The N and U residuals: the least normal subgroups with a nilpotent
    and a supersoluble quotient."""
    assume(g.order <= 24)
    table = table_of(g)
    assert members(residual(g, N).bits) == o_residual(table, o_is_nilpotent)
    assert members(residual(g, U).bits) == o_residual(table, o_is_supersoluble)


def test_residual_functoriality(groups):
    # (G/N)^F = (G^F N)/N for every normal N
    from formations.groups import product_bits, quotient
    from formations.lattice import normal_subgroups
    for name in ("S4", "SL23", "Frob21", "S3 x C5"):
        g = groups[name]
        for f in (N, U, N2):
            res = residual(g, f)
            for nsub in normal_subgroups(g):
                q = quotient(g, nsub)
                lhs = residual(q.base, f).bits
                rhs = q.project_bits(product_bits(g, res.bits, nsub.bits))
                assert lhs == rhs, (name, f.name, nsub.order)


def test_product_formation(groups):
    nu = product(N, U)
    assert member(nu, groups["SL23"])  # SL23^U = Q8 is nilpotent
    assert member(nu, groups["S4"])    # S4^U = V4 nilpotent
    na2 = product(N, abelian_exponent(2))
    assert member(na2, groups["S3"])   # S3^{A(2)} = C3 nilpotent
    # G in F implies G in M*F for any M
    for name in ("S3", "D8"):
        assert member(product(N2, U), groups[name]) or not member(U, groups[name])


def test_intersection_formation(groups):
    nu = intersection(N, U)
    assert member(nu, groups["D8"])
    assert not member(nu, groups["S3"])
    assert nu.hereditary and nu.saturated
    for name in ("S3", "S4", "D8"):
        g = groups[name]
        assert member(intersection(U, U), g) == member(U, g)


def test_metadata_flags():
    assert NILPOTENT.msl == MSL_UNBOUNDED
    assert SUPERSOLUBLE.msl == 1
    nn = product(NILPOTENT, NILPOTENT)
    assert nn.msl == MSL_UNBOUNDED
    assert nn.hereditary  # r-multiply saturated inside N^(r+1) forces heredity
    assert nn.nl_bound == 2
    gu = product(p_groups(2), SUPERSOLUBLE)
    assert gu.msl == 1 and gu.saturated
    ga = product(p_groups(3), abelian_exponent(2))
    assert ga.msl == 0 and ga.saturated is None
    assert ga.hereditary  # satellite table pair rule
    assert product(p_groups(2), BUILTINS["N^2"]).hereditary
    inter = intersection(NILPOTENT, SUPERSOLUBLE)
    assert inter.msl == 1 and inter.contains_nilpotent


def test_canonical_satellite_table(groups):
    f_n2 = canonical_satellite(N, 2)
    assert member(f_n2, groups["D8"]) and not member(f_n2, groups["S3"])
    f_u3 = canonical_satellite(U, 3)
    assert member(f_u3, groups["S3"])
    f_u2 = canonical_satellite(U, 2)
    assert not member(f_u2, groups["S3"])
    assert member(canonical_satellite(S, 5), groups["S4"])
    with pytest.raises(NoSatellite):
        canonical_satellite(product(N, U), 2)


def test_satellite_full_property(groups):
    # F(p) = G_p F(p): if the F(p)-residual is a p-group then G lies in F(p)
    for f in (N, U, N2, S):
        for p in (2, 3, 5, 7, 11, 13):
            fp = canonical_satellite(f, p)
            for name in ("S3", "S4", "A4", "Q8", "SL23", "Frob21", "C12"):
                g = groups.get(name) or parse_group(name)
                res = residual(g, fp)
                if res.order == p_part_of(res.order, p):
                    assert member(fp, g), (f.name, p, name)


def p_part_of(n, p):
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def test_gaschutz_crosscheck(groups):
    for f in (N, U, N2, S):
        for name, g in groups.items():
            assert member(f, g) == local_membership(g, f), (f.name, name)


def test_is_f_central_examples(groups):
    s4 = groups["S4"]
    series = chief_series(s4)
    bottom, middle, top = series.factors
    assert bottom.order == 4
    assert not is_f_central(s4, bottom, U)   # eccentric V4 layer
    assert middle.order == 3
    assert is_f_central(s4, middle, U)
    c6 = groups["C6"]
    for fac in chief_series(c6).factors:
        assert is_f_central(c6, fac, N)      # abelian: everything central


def test_f_hypercentre(groups):
    s4, d8, sl = groups["S4"], groups["D8"], groups["SL23"]
    assert f_hypercentre(s4, U).order == 1
    assert f_hypercentre(d8, N).order == 8
    z = f_hypercentre(sl, U)
    assert z.order == 2 and z.bits == center(sl).bits


def test_is_f_normal_maximal(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    a4 = next(s for s in lat.by_order(12))
    assert is_f_normal_maximal(s4, a4, U)
    s3 = next(s for s in lat.by_order(6))
    assert not is_f_normal_maximal(s4, s3, U)
    with pytest.raises(NotMaximal):
        is_f_normal_maximal(s4, s4.trivial_subgroup(), U)
    # members: every maximal subgroup is F-normal
    s3g = groups["S3"]
    for m in all_subgroups(s3g).maximal_subgroups(s3g.full_subgroup()):
        assert is_f_normal_maximal(s3g, m, U)


def test_f_subnormal(groups):
    d8 = groups["D8"]
    lat = all_subgroups(d8)
    good = f_subnormal_bits(lat, N)
    assert len(good) == len(lat.subgroups)  # Lemma-style: nilpotent member
    sl = groups["SL23"]
    syl3 = sylow(sl, 3)
    assert not is_f_subnormal(sl, syl3, U)
    frob = groups["Frob21"]
    assert is_f_subnormal(frob, frob.trivial_subgroup(), N)


def test_f_subnormal_exhaustive_chain_oracle(groups):
    # reachability answer equals a direct search over all maximal chains
    from formations.groups import core_bits, quotient
    from formations.formation import member as fmember
    for name in ("S4", "SL23"):
        g = groups[name]
        lat = all_subgroups(g)
        for f in (N, U):
            good = f_subnormal_bits(lat, f)
            for h in lat.subgroups:
                expected = _chain_exists(g, lat, h, f)
                assert (h.bits in good) == expected, (name, f.name, h.order)


def _chain_exists(g, lat, h, f):
    from formations.groups import Subgroup, as_group, core_bits, map_bits_to_sub, quotient
    from formations.formation import member as fmember
    if h.is_full:
        return True
    for k_idx in lat.overgroups_of[lat.position(h)]:
        k = lat.subgroups[k_idx]
        cbits = core_bits(g, h.bits, k.gens)
        kgrp = as_group(k)
        local = map_bits_to_sub(k, cbits)
        q = quotient(kgrp, Subgroup(kgrp, local)).base
        if fmember(f, q) and _chain_exists(g, lat, k, f):
            return True
    return False


def test_is_f_critical(groups):
    assert is_f_critical(groups["SL23"], U)
    assert is_f_critical(groups["A4"], N)
    assert not is_f_critical(groups["S3"], U)   # S3 lies in U
    assert not is_f_critical(groups["S4"], U)   # A4 maximal, outside U
    # hereditary shortcut agrees with the literal definition
    for name in ("S3", "S4", "A4", "SL23", "Frob21", "Q8"):
        g = groups[name]
        for f in (N, U, N2):
            assert is_f_critical(g, f) == is_f_critical(g, f, literal=True)


def test_sigma_closure(groups):
    rep = sigma_closure_check(groups["S3"], N, 3)
    assert not rep.violation
    rep2 = sigma_closure_check(groups["C12"], N, 3)
    assert rep2.witness_found and not rep2.violation
    rep3 = sigma_closure_check(groups["A5"], S, 3)
    assert not rep3.violation


def test_formation_text_compilation(groups):
    f = formation_from_text("Gp(2)*A(1)")
    for name, g in groups.items():
        assert member(f, g) == member(canonical_satellite(U, 2), g), name


def test_monotonicity(groups):
    n3 = BUILTINS["N^3"]
    for name, g in groups.items():
        if member(N, g):
            assert member(U, g), name
        if member(U, g):
            assert member(S, g), name
        if member(N2, g):
            assert member(n3, g), name
