import pytest

from formations.dsl import parse_group
from formations.errors import LatticeExceedsCap
from formations.groups import is_normal
from formations.lattice import (all_subgroups, chief_series,
                                fitting, frattini, hall,
                                minimal_normal_subgroups, normal_subgroups,
                                o_core, sylow, sylow_conjugates)

from conftest import table_of
from oracle import (o_chief_order_multisets, o_fitting, o_frattini,
                    o_maximal_in, o_normal_subgroups, o_subgroups)


def bitset(s):
    return frozenset(int(m) for m in s.members)


def test_all_subgroups_counts(groups):
    assert len(all_subgroups(groups["S3"]).subgroups) == 6
    assert len(all_subgroups(groups["S4"]).subgroups) == 30
    assert len(all_subgroups(parse_group("C7")).subgroups) == 2


def test_all_subgroups_matches_oracle(groups):
    for name in ("S3", "S4", "A4", "Q8", "SL23", "Frob21", "C12"):
        g = groups.get(name) or parse_group(name)
        got = {bitset(s) for s in all_subgroups(g).subgroups}
        assert got == o_subgroups(table_of(g)), name


def test_lattice_caps():
    g = parse_group("C30")
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, order_cap=10)


def test_maximal_subgroups(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    maxima = lat.maximal_subgroups(s4.full_subgroup())
    assert sorted(m.order for m in maxima) == [6, 6, 6, 6, 8, 8, 8, 12]
    oracle = o_maximal_in(o_subgroups(table_of(s4)), frozenset(range(24)))
    assert {bitset(m) for m in maxima} == oracle
    assert lat.maximal_subgroups(s4.trivial_subgroup()) == []
    c6 = groups["C6"]
    lat6 = all_subgroups(c6)
    assert sorted(m.order for m in lat6.maximal_subgroups(c6.full_subgroup())) == [2, 3]


def test_n_maximal(groups):
    s4 = groups["S4"]
    lat = all_subgroups(s4)
    assert len(lat.n_maximal(1)) == 8
    assert lat.n_maximal(0) == [s4.full_subgroup()]
    frob = groups["Frob21"]
    latf = all_subgroups(frob)
    two_max = latf.n_maximal(2)
    assert [h.order for h in two_max] == [1]


def test_n_maximal_layers_nested(groups):
    for name in ("S4", "SL23", "Frob21"):
        g = groups[name]
        lat = all_subgroups(g)
        for n in range(3):
            upper = lat.n_maximal(n)
            lower = lat.n_maximal(n + 1)
            allowed = {m.bits for h in upper for m in lat.maximal_subgroups(h)}
            assert all(x.bits in allowed for x in lower)


def test_maximal_chains(groups):
    c6 = groups["C6"]
    lat = all_subgroups(c6)
    chains = list(lat.maximal_chains(c6.trivial_subgroup()))
    assert len(chains) == 2  # via C2 and via C3
    assert all(len(ch) == 3 for ch in chains)
    # H = top: the single empty chain
    assert list(lat.maximal_chains(c6.full_subgroup())) == [(c6.full_subgroup(),)]
    s4 = groups["S4"]
    lat4 = all_subgroups(s4)
    v4 = next(s for s in lat4.by_order(4) if is_normal(s4, s))
    tops = {ch[1].order for ch in lat4.maximal_chains(v4)}
    assert tops == {8, 12}  # chains pass through D8s and A4


def test_normal_subgroups(groups):
    s4 = groups["S4"]
    assert [s.order for s in normal_subgroups(s4)] == [1, 4, 12, 24]
    assert {bitset(s) for s in normal_subgroups(s4)} == o_normal_subgroups(table_of(s4))
    c12 = groups["C12"]
    assert len(normal_subgroups(c12)) == len(all_subgroups(c12).subgroups)
    a5 = groups["A5"]
    assert [s.order for s in normal_subgroups(a5)] == [1, 60]


def test_minimal_normal_subgroups(groups):
    assert [s.order for s in minimal_normal_subgroups(groups["A4"])] == [4]
    assert [s.order for s in minimal_normal_subgroups(groups["S3"])] == [3]
    assert [s.order for s in minimal_normal_subgroups(groups["A5"])] == [60]
    assert minimal_normal_subgroups(parse_group("C1")) == []


def test_chief_series(groups):
    s4 = groups["S4"]
    assert chief_series(s4).factor_orders() == (4, 3, 2)
    assert sorted(chief_series(groups["C6"]).factor_orders()) == [2, 3]
    triv = parse_group("C1")
    assert chief_series(triv).factors == []
    # multiset independent of the tie-breaking direction
    for name in ("S4", "SL23", "C12", "S3 x C5"):
        g = groups[name]
        a = sorted(chief_series(g).factor_orders())
        b = sorted(chief_series(g, reverse=True).factor_orders())
        assert a == b
        oracles = o_chief_order_multisets(table_of(g))
        assert set(oracles) == {tuple(a)}


def test_chief_factor_primes_soluble(groups):
    for name in ("S4", "SL23", "Frob21", "C12", "S3 x C5"):
        for f in chief_series(groups[name]).factors:
            assert len(f.primes) == 1 and f.prime is not None


def test_frattini(groups):
    assert frattini(groups["S4"]).order == 1
    assert frattini(parse_group("C4")).order == 2
    assert frattini(parse_group("C2 x C2 x C2")).order == 1
    for name in ("S4", "Q8", "SL23"):
        g = groups[name]
        assert bitset(frattini(g)) == o_frattini(table_of(g))


def test_fitting(groups):
    assert fitting(groups["S4"]).order == 4
    assert fitting(groups["S3"]).order == 3
    assert fitting(groups["D8"]).order == 8
    for name in ("S4", "S3", "SL23", "A5"):
        g = groups[name]
        assert bitset(fitting(g)) == o_fitting(table_of(g))


def test_fitting_contains_normal_nilpotent(groups):
    from formations.structure import subgroup_is_nilpotent
    for name in ("S4", "SL23", "Frob21"):
        g = groups[name]
        fit = fitting(g)
        for s in all_subgroups(g).subgroups:
            if is_normal(g, s) and subgroup_is_nilpotent(s):
                assert s.bits & fit.bits == s.bits


def test_sylow(groups):
    s4 = groups["S4"]
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 5).order == 1
    a4 = groups["A4"]
    syl2 = sylow(a4, 2)
    assert syl2.order == 4 and is_normal(a4, syl2)
    # canonical choice: least bitmask among all conjugates
    conjs = sylow_conjugates(s4, 2)
    assert len(conjs) == 3
    assert sylow(s4, 2).bits == min(c.bits for c in conjs)
    # all Sylow subgroups of the right order in the lattice are conjugate
    lat = all_subgroups(s4)
    assert {c.bits for c in conjs} == {s.bits for s in lat.by_order(8)}


def test_hall(groups):
    s3 = groups["S3"]
    assert hall(s3, {3}).order == 3
    assert hall(s3, {2, 3}).order == 6
    assert hall(groups["A5"], {3, 5}) is None
    # Hall's theorem: soluble groups have Hall subgroups for every prime set
    from itertools import combinations
    for name in ("S4", "SL23", "Frob21", "S3 x C5"):
        g = groups[name]
        pi = g.pi()
        for r in range(len(pi) + 1):
            for sub in combinations(pi, r):
                assert hall(g, sub) is not None, (name, sub)


def test_o_core(groups):
    s4, s3 = groups["S4"], groups["S3"]
    assert o_core(s4, "p", 2).order == 4
    assert o_core(s4, "p'", 2).order == 1
    assert o_core(s3, "p'", 3).order == 1
    assert o_core(s3, "p',p", 3).order == 3
    assert o_core(s4, "p',p", 2).order == 4
    with pytest.raises(ValueError):
        o_core(s4, "bogus", 2)


def test_lattice_closed_under_intersection(groups):
    import random
    rng = random.Random(3)
    for name in ("S4", "SL23", "Frob21"):
        g = groups[name]
        lat = all_subgroups(g)
        for _ in range(40):
            a, b = rng.choice(lat.subgroups), rng.choice(lat.subgroups)
            assert (a.bits & b.bits) in lat.index_of


def test_subgroup_cap():
    g = parse_group("S4")
    g._lattice = None
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, subgroup_cap=10)
    # every subgroup counts, conjugates of a class representative included
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, subgroup_cap=29)
    assert len(all_subgroups(g, subgroup_cap=30).subgroups) == 30


def test_s6_lattice():
    """S6: 1455 subgroups in 56 classes; its maximal subgroups are A6, the
    12 S5 (two classes, swapped by the outer automorphism), the 10 of order
    72 and the 30 of order 48 (two classes of 15)."""
    g = parse_group("S6")
    lat = all_subgroups(g)
    assert len(lat.subgroups) == 1455
    maxima = lat.maximal_subgroups(g.full_subgroup())
    counts: dict[int, int] = {}
    for m in maxima:
        counts[m.order] = counts.get(m.order, 0) + 1
    assert counts == {360: 1, 120: 12, 72: 10, 48: 30}
    assert all(g.closure_bits(s.gens) == s.bits for s in lat.subgroups)
