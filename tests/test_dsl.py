import pytest

from formations.dsl import (Builtin, Generators, GroupProduct,
                            format_group_spec, formation_from_text, parse_group,
                            parse_group_spec)
from formations.errors import (ClosureExceedsCap, DslSemanticError,
                               DslSyntaxError, UnknownBuiltin)
from formations.formation import (BUILTINS, NILPOTENT, SOLUBLE, SUPERSOLUBLE,
                                  abelian_exponent, canonical_satellite, member,
                                  p_groups, soluble_length_formation)


def test_parse_prims():
    assert formation_from_text("N") is NILPOTENT
    assert formation_from_text(" U ") is SUPERSOLUBLE
    assert formation_from_text("S") is SOLUBLE
    assert formation_from_text("N^1") is NILPOTENT
    assert formation_from_text("N^3") is soluble_length_formation(3)
    assert formation_from_text("Gp(7)") == p_groups(7)
    assert formation_from_text("A(6)") == abelian_exponent(6)


def test_parse_precedence():
    assert formation_from_text("N*U&S").key == "((N*U)&S)"
    assert formation_from_text("N*(U&S)").key == "(N*(U&S))"
    assert formation_from_text("N*U*S").key == "((N*U)*S)"


def test_parse_errors():
    with pytest.raises(DslSyntaxError) as err:
        formation_from_text("N^")
    assert err.value.position == 2
    with pytest.raises(DslSyntaxError):
        formation_from_text("(N")
    with pytest.raises(DslSyntaxError):
        formation_from_text("N U")
    with pytest.raises(DslSemanticError):
        formation_from_text("Gp(4)")
    with pytest.raises(DslSemanticError):
        formation_from_text("A(0)")
    with pytest.raises(DslSemanticError):
        formation_from_text("N^0")


ROUND_TRIP = ("N", "N^2*U", "Gp(2)*A(1)&N^2", "(N&U)*S", "N&U*S", "N*(U&S)*Gp(3)",
              "N*U&S", "N*U*S", "N*(U*S)", "N^1", " U ", "(N*U&S)*(Gp(2)&N)*(S*N)")


def test_formation_roundtrip():
    """Key and name both parse back to the formation: a name is never
    shared by two formations, as `(N&U)*S` and `N&U*S` once were."""
    for text in ROUND_TRIP:
        f = formation_from_text(text)
        assert formation_from_text(f.key).key == f.key, text
        assert formation_from_text(f.name).key == f.key, text


def test_compiled_satellite_equivalence(groups):
    f = formation_from_text("Gp(2)*A(1)")
    ref = canonical_satellite(BUILTINS["U"], 2)
    for name, g in groups.items():
        assert member(f, g) == member(ref, g), name


def test_group_spec_parse():
    assert parse_group_spec("S4") == Builtin("S4")
    spec = parse_group_spec("perm 5: (1 2 3 4 5), (2 5)(3 4)")
    assert spec == Generators(5, ("(1 2 3 4 5)", "(2 5)(3 4)"))
    prod = parse_group_spec("S3 x C2")
    assert prod == GroupProduct(Builtin("S3"), Builtin("C2"))


def test_group_spec_roundtrip():
    for text in ("S4", "S3 x C2", "S3 x (C2 x C4)",
                 "perm 5: (1 2 3 4 5), (2 5)(3 4)",
                 "perm 3: (1 2 3) x C2"):
        tree = parse_group_spec(text)
        assert parse_group_spec(format_group_spec(tree)) == tree


def test_group_building(groups):
    assert parse_group("S4").order == 24
    assert parse_group("perm 5: (1 2 3 4 5), (2 5)(3 4)").order == 10
    assert parse_group("Frob21").order == 21
    assert parse_group("C1").order == 1
    assert parse_group("D8").order == 8
    assert parse_group("A6").order == 360
    assert parse_group("S3 x C2").order == 12


def test_group_spec_errors():
    with pytest.raises(DslSyntaxError):
        parse_group("(1 2")
    with pytest.raises(UnknownBuiltin):
        parse_group("Zork")
    with pytest.raises(UnknownBuiltin):
        parse_group("D7")  # odd dihedral order
    with pytest.raises(DslSemanticError):
        parse_group("perm 3: (1 2 4)")  # point out of range
    with pytest.raises(DslSemanticError):
        parse_group("perm 3: (1 1 2)")  # repeated point
    with pytest.raises(ClosureExceedsCap):
        parse_group("S5", cap=50)
    with pytest.raises(DslSyntaxError):
        parse_group("perm 4: (1 2")


def test_sl23_builtin(groups):
    sl = groups["SL23"]
    assert sl.order == 24
    assert sum(1 for o in sl.element_orders() if o == 2) == 1  # unique involution


def test_cycle_notation_is_one_based():
    g = parse_group("perm 3: (1 2)")
    assert g.order == 2
    g2 = parse_group("perm 4: (1 2)(3 4), (1 3)(2 4)")
    assert g2.order == 4 and g2.exponent == 2
