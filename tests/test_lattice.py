from unittest import mock

import pytest
from hypothesis import assume, example, given

from formations.dsl import parse_group
from formations.errors import LatticeExceedsCap
from formations.groups import conjugates, indices_of, is_normal
from formations.lattice import (_ClassWalk, _cores, _normal_atoms,
                                _overgroup_bound, all_subgroups, chief_series, fitting,
                                frattini, hall, minimal_normal_subgroups,
                                normal_subgroups, o_core, sylow)

from conftest import (PROPERTY, factor_orders, members, of_order, perm_groups,
                      table_of)
from oracle import (o_chief_order_multisets, o_cyclic_subgroups, o_fitting,
                    o_frattini, o_maximal_in, o_maximal_positions,
                    o_n_maximal, o_normal_closure, o_normal_subgroups,
                    o_normalizer, o_subgroups)


def bitset(s):
    return frozenset(s.members)


def test_all_subgroups_counts(groups):
    assert len(all_subgroups(groups["S3"]).subgroups) == 6
    assert len(all_subgroups(groups["S4"]).subgroups) == 30
    assert len(all_subgroups(parse_group("C7")).subgroups) == 2


def test_all_subgroups_matches_oracle(groups):
    for name in ("S3", "S4", "A4", "Q8", "SL23", "Frob21", "C12"):
        g = groups.get(name) or parse_group(name)
        got = {bitset(s) for s in all_subgroups(g).subgroups}
        assert got == o_subgroups(table_of(g)), name


@PROPERTY
@given(perm_groups())
def test_lattice_matches_oracle(g):
    """The subgroups, every subgroup's maximal subgroups and the 1-, 2-
    and 3-maximal layers agree with the brute-force oracle."""
    assume(g.order <= 24)
    table = table_of(g)
    subs = o_subgroups(table)
    lat = all_subgroups(g)
    assert {bitset(s) for s in lat.subgroups} == subs
    for s, children in zip(lat.subgroups, lat.maximals_of):
        assert {bitset(lat.subgroups[j]) for j in children} == o_maximal_in(subs, bitset(s))
    for n in (1, 2, 3):
        assert {bitset(s) for s in lat.n_maximal(n)} == o_n_maximal(table, n)


@pytest.mark.parametrize("name", ["A5", "S5", "A6", "S6"])
def test_maximals_match_containment_scan(name):
    """Every subgroup's maximal subgroups, in groups with many classes of
    subgroups, against a scan of every pair of subgroups for containment."""
    lat = all_subgroups(parse_group(name))
    assert lat.maximals_of == o_maximal_positions([s.bits for s in lat.subgroups])


@PROPERTY
@given(perm_groups())
@example(parse_group("A5"))
@example(parse_group("S5"))
@example(parse_group("A6"))
@example(parse_group("S3 x C5"))  # C2 x C5 holds an involution: its bound is 10
def test_overgroup_bound_is_sound(g):
    """No proper subgroup containing H is larger than the bound a Dimino
    step from H stops at. Every proper subgroup lies in a maximal one, so
    the largest maximal subgroup containing H is the order to beat. The
    lattice is built with Lagrange's bound alone, so that an unsound bound
    cannot hide a subgroup that refutes it."""
    g._lattice = None
    with mock.patch("formations.lattice._overgroup_bound", lambda *args: None):
        lat = all_subgroups(g)
    cores = _cores(g)
    maxima = [lat.subgroups[j] for j in lat.maximals_of[lat.top_index]]
    for h in lat.subgroups[:-1]:
        largest = max(m.order for m in maxima if h.bits & m.bits == h.bits)
        assert _overgroup_bound(g, cores, h.bits, h.order) >= largest


@PROPERTY
@given(perm_groups())
@example(parse_group("A5"))
@example(parse_group("S5"))
@example(parse_group("A6"))
@example(parse_group("S3 x S3"))
def test_normalizer_gens_match_oracle(g):
    """For every subgroup H, the generators of N_G(H) that `add_class`
    reads from H's class orbit generate N_G(H)."""
    assume(g.order <= 120 or g.name != "H")  # drawn groups; the oracle is O(|G|^2) per H
    table = table_of(g)
    for h in all_subgroups(g).subgroups:
        walk = _ClassWalk(g, len(table))
        walk.add_class(indices_of(h.bits), h.bits, h.gens)
        (_, _, _, ngens), = walk.reps
        assert members(g.closure_bits(ngens)) == o_normalizer(table, members(h.bits))


def test_overgroup_bound_below_lagrange():
    """In A6 no proper subgroup has index below 6, so an involution's
    proper overgroups have order at most 60, not 360/2."""
    g = parse_group("A6")
    h = next(s for s in all_subgroups(g).subgroups if s.order == 2)
    assert _overgroup_bound(g, _cores(g), h.bits, h.order) == 60


def test_lattice_caps():
    g = parse_group("C30")
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, order_cap=10)
    assert len(all_subgroups(g, order_cap=30).subgroups) == 8  # the cap is inclusive


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


def test_normal_subgroups(groups):
    s4 = groups["S4"]
    assert [s.order for s in normal_subgroups(s4)] == [1, 4, 12, 24]
    assert {bitset(s) for s in normal_subgroups(s4)} == o_normal_subgroups(table_of(s4))
    c12 = groups["C12"]
    assert len(normal_subgroups(c12)) == len(all_subgroups(c12).subgroups)
    a5 = groups["A5"]
    assert [s.order for s in normal_subgroups(a5)] == [1, 60]


@pytest.mark.parametrize("spec", ["C2 x C6", "C3 x C6", "C2 x C2 x C6", "S3 x C6",
                                  "D10 x C3"])
def test_normal_structure_matches_oracle(spec):
    """Groups with several generators per cyclic subgroup and atoms that
    are joins of earlier ones, where `_normal_atoms` passes classes over
    and `normal_subgroups` skips atoms."""
    g = parse_group(spec)
    table = table_of(g)
    normal = o_normal_subgroups(table)
    assert {bitset(s) for s in normal_subgroups(g)} == normal
    nontrivial = [s for s in normal if len(s) > 1]
    assert ({bitset(s) for s in minimal_normal_subgroups(g)}
            == {s for s in nontrivial if not any(t < s for t in nontrivial)})
    assert bitset(fitting(g)) == o_fitting(table)


@PROPERTY
@given(perm_groups())
def test_normal_atoms_match_oracle(g):
    """The atoms are the normal closures of the nontrivial cyclic
    subgroups, each once, sorted by (order, bits)."""
    assume(g.order <= 48)
    table = table_of(g)
    closures = {o_normal_closure(table, c) for c in o_cyclic_subgroups(table) if len(c) > 1}
    expected = sorted((sum(1 << x for x in c) for c in closures),
                      key=lambda b: (b.bit_count(), b))
    assert _normal_atoms(g) == expected


def test_normal_subgroups_of_c2_5():
    """C2^5 has 374 subgroups, all normal: every atom after the fifth is a
    join of earlier ones."""
    assert len(normal_subgroups(parse_group("C2 x C2 x C2 x C2 x C2"))) == 374


@PROPERTY
@given(perm_groups())
def test_factorizations_match_brute_force(g):
    """The position pairs i <= j whose product set is the whole group."""
    assume(g.order <= 24)
    table = table_of(g)
    lat = all_subgroups(g)
    subs = [s.members for s in lat.subgroups]
    expected = [(i, j) for i in range(len(subs)) for j in range(i, len(subs))
                if len({table[a][b] for a in subs[i] for b in subs[j]}) == g.order]
    assert lat.factorizations() == expected


def test_minimal_normal_subgroups(groups):
    assert [s.order for s in minimal_normal_subgroups(groups["A4"])] == [4]
    assert [s.order for s in minimal_normal_subgroups(groups["S3"])] == [3]
    assert [s.order for s in minimal_normal_subgroups(groups["A5"])] == [60]
    assert minimal_normal_subgroups(parse_group("C1")) == []


def test_chief_series(groups):
    s4 = groups["S4"]
    assert factor_orders(chief_series(s4)) == (4, 3, 2)
    assert sorted(factor_orders(chief_series(groups["C6"]))) == [2, 3]
    triv = parse_group("C1")
    assert chief_series(triv).factors == []
    for name in ("S4", "SL23", "C12", "S3 x C5"):
        g = groups[name]
        a = sorted(factor_orders(chief_series(g)))
        oracles = o_chief_order_multisets(table_of(g))
        assert set(oracles) == {tuple(a)}


@PROPERTY
@given(perm_groups())
def test_chief_orders_match_oracle(g):
    """The chief series has the factor orders of a maximal chain of normal
    subgroups, and every such chain has the same ones."""
    assume(g.order <= 48)
    expected = o_chief_order_multisets(table_of(g))
    assert len(expected) == 1
    assert tuple(sorted(factor_orders(chief_series(g)))) in expected


def test_chief_factor_primes_soluble(groups):
    for name in ("S4", "SL23", "Frob21", "C12", "S3 x C5"):
        for f in chief_series(groups[name]).factors:
            assert len(f.primes) == 1


def test_frattini(groups):
    assert frattini(groups["S4"]).order == 1
    assert frattini(parse_group("C4")).order == 2
    assert frattini(parse_group("C2 x C2 x C2")).order == 1
    for name in ("S4", "Q8", "SL23"):
        g = groups[name]
        assert bitset(frattini(g)) == o_frattini(table_of(g))


@PROPERTY
@given(perm_groups())
def test_frattini_matches_oracle(g):
    assume(g.order <= 48)
    assert bitset(frattini(g)) == o_frattini(table_of(g))


def test_fitting(groups):
    assert fitting(groups["S4"]).order == 4
    assert fitting(groups["S3"]).order == 3
    assert fitting(groups["D8"]).order == 8
    for name in ("S4", "S3", "SL23", "A5"):
        g = groups[name]
        assert bitset(fitting(g)) == o_fitting(table_of(g))


@PROPERTY
@given(perm_groups())
def test_fitting_matches_oracle(g):
    assume(g.order <= 48)
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
    conjs = conjugates(s4, sylow(s4, 2).bits)
    assert len(conjs) == 3
    assert sylow(s4, 2).bits == min(conjs)
    # all Sylow subgroups of the right order in the lattice are conjugate
    lat = all_subgroups(s4)
    assert conjs == {s.bits for s in of_order(lat, 8)}


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
    # the caps hold on a cached lattice too
    assert len(all_subgroups(g).subgroups) == 30
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, subgroup_cap=10)
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g, order_cap=10)
    assert all_subgroups(g, subgroup_cap=30) is all_subgroups(g)


def test_subgroup_cap_reaches_normal_subgroups(monkeypatch):
    """The cap given to all_subgroups also caps the normal subgroups its
    walk reads, and an omitted cap is the default as it reads at the call."""
    import formations.lattice as lattice

    monkeypatch.setattr(lattice, "DEFAULT_SUBGROUP_CAP", 5)
    g = parse_group("C2 x C2 x C2 x C2")
    assert len(all_subgroups(g, subgroup_cap=1000).subgroups) == 67
    assert len(normal_subgroups(g, 1000)) == 67
    with pytest.raises(LatticeExceedsCap):
        all_subgroups(g)
    with pytest.raises(LatticeExceedsCap):
        normal_subgroups(g)


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


def test_dimino_steps(monkeypatch):
    """The walk makes one Dimino step per N_G(H)-orbit of extenders outside H."""
    from formations.groups import FiniteGroup

    steps = [0]
    extend = FiniteGroup.extend

    def counted(self, *args):
        steps[0] += 1
        return extend(self, *args)

    monkeypatch.setattr(FiniteGroup, "extend", counted)
    counts = {}
    for name in ("A5", "S5", "A6", "S6"):
        g = parse_group(name)
        g._lattice = None
        steps[0] = 0
        all_subgroups(g)
        counts[name] = steps[0]
    assert counts == {"A5": 45, "S5": 161, "A6": 398, "S6": 1403}
