"""Parsers: the formation-expression DSL and the group input format.

Formation grammar ('*' binds tighter than '&', both left-associative):

    expr  := term (('*' | '&') term)*
    term  := prim | '(' expr ')'
    prim  := 'N' | 'U' | 'S' | 'N^' int | 'Gp(' prime ')' | 'A(' int ')'

Group specs are builtin names, products with 'x', or explicit permutation
generators in 1-based cycle notation:

    S4
    Frob21 x C2
    perm 5: (1 2 3 4 5), (2 5)(3 4)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .arith import is_prime
from .errors import (ClosureExceedsCap, DslSemanticError, DslSyntaxError,
                     UnknownBuiltin)
from .formation import (Formation, abelian_exponent, intersection, p_groups,
                        product, soluble_length_formation, NILPOTENT,
                        SUPERSOLUBLE, SOLUBLE)
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, Permutation, cyclic,
                     direct_product, from_generators)

# ---------------------------------------------------------------------------
# formation expressions


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise DslSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            raise DslSyntaxError("expected an integer", self.pos)
        self.pos += m.end()
        return int(m.group())


def formation_from_text(text: str) -> Formation:
    """The formation an expression names, built while it is parsed."""
    sc = _Scanner(text)
    f = _parse_and(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise DslSyntaxError("trailing input", sc.pos)
    return f


def _parse_and(sc: _Scanner) -> Formation:
    left = _parse_mul(sc)
    while sc.peek() == "&":
        sc.take("&")
        left = intersection(left, _parse_mul(sc))
    return left


def _parse_mul(sc: _Scanner) -> Formation:
    left = _parse_term(sc)
    while sc.peek() == "*":
        sc.take("*")
        left = product(left, _parse_term(sc))
    return left


def _parse_term(sc: _Scanner) -> Formation:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        inner = _parse_and(sc)
        sc.take(")")
        return inner
    if ch == "N":
        sc.pos += 1
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "^":
            sc.pos += 1
            r = sc.integer()
            if r < 1:
                raise DslSemanticError(f"N^{r}: exponent must be >= 1")
            return soluble_length_formation(r)
        return NILPOTENT
    if ch == "U":
        sc.pos += 1
        return SUPERSOLUBLE
    if ch == "S":
        sc.pos += 1
        return SOLUBLE
    if sc.text[sc.pos:sc.pos + 2] == "Gp":
        sc.pos += 2
        sc.take("(")
        p = sc.integer()
        sc.take(")")
        if not is_prime(p):
            raise DslSemanticError(f"Gp({p}): {p} is not prime")
        return p_groups(p)
    if ch == "A":
        sc.pos += 1
        sc.take("(")
        m = sc.integer()
        sc.take(")")
        if m < 1:
            raise DslSemanticError(f"A({m}): exponent bound must be >= 1")
        return abelian_exponent(m)
    raise DslSyntaxError("expected a formation term", sc.pos)


# ---------------------------------------------------------------------------
# group specs


@dataclass(frozen=True)
class Builtin:
    name: str


@dataclass(frozen=True)
class Generators:
    degree: int
    cycles: tuple[str, ...]   # one cycle string per generator


@dataclass(frozen=True)
class GroupProduct:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[Builtin, Generators, GroupProduct]

_BUILTIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def parse_group_spec(text: str) -> GroupSpec:
    sc = _Scanner(text)
    spec = _parse_group_product(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise DslSyntaxError("trailing input", sc.pos)
    return spec


def _parse_group_product(sc: _Scanner) -> GroupSpec:
    left = _parse_group_atom(sc)
    while True:
        sc.skip_ws()
        if sc.text[sc.pos:sc.pos + 1] == "x" and not _BUILTIN_RE.match(sc.text[sc.pos + 1:sc.pos + 2] or " "):
            sc.pos += 1
            left = GroupProduct(left, _parse_group_atom(sc))
        else:
            break
    return left


def _parse_group_atom(sc: _Scanner) -> GroupSpec:
    sc.skip_ws()
    if sc.peek() == "(":
        sc.take("(")
        if sc.peek().isdigit():
            raise DslSyntaxError(
                "unbalanced parenthesis or bare cycle (generators need a 'perm <degree>:' prefix)",
                sc.pos - 1)
        inner = _parse_group_product(sc)
        sc.take(")")
        return inner
    if sc.text[sc.pos:].startswith("perm"):
        sc.pos += 4
        degree = sc.integer()
        sc.take(":")
        gens = []
        while True:
            gens.append(_parse_cycles(sc, degree))
            sc.skip_ws()
            if sc.text[sc.pos:sc.pos + 1] == ",":
                sc.pos += 1
            else:
                break
        return Generators(degree, tuple(gens))
    m = _BUILTIN_RE.match(sc.text[sc.pos:])
    if not m:
        raise DslSyntaxError("expected a group spec", sc.pos)
    sc.pos += m.end()
    return Builtin(m.group())


def _parse_cycles(sc: _Scanner, degree: int) -> str:
    """One generator: a run of parenthesized 1-based cycles. Returns the
    normalized cycle string."""
    sc.skip_ws()
    cycles = []
    while sc.peek() == "(":
        sc.take("(")
        pts = []
        while True:
            sc.skip_ws()
            if sc.text[sc.pos:sc.pos + 1] == ")":
                sc.pos += 1
                break
            if sc.pos >= len(sc.text):
                raise DslSyntaxError("unbalanced parenthesis in cycle", sc.pos)
            pts.append(sc.integer())
        if len(set(pts)) != len(pts):
            raise DslSemanticError(f"repeated point in cycle {pts}")
        if any(not 1 <= p <= degree for p in pts):
            raise DslSemanticError(f"cycle point out of range 1..{degree}: {pts}")
        if pts:
            cycles.append(tuple(pts))
    if not cycles:
        raise DslSyntaxError("expected at least one cycle", sc.pos)
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def format_group_spec(spec: GroupSpec) -> str:
    if isinstance(spec, Builtin):
        return spec.name
    if isinstance(spec, Generators):
        return f"perm {spec.degree}: " + ", ".join(spec.cycles)
    right = format_group_spec(spec.right)
    if isinstance(spec.right, GroupProduct):
        right = f"({right})"
    return f"{format_group_spec(spec.left)} x {right}"


def _cycles_to_perm(degree: int, text: str) -> Permutation:
    cycles = []
    for grp in re.findall(r"\(([^()]*)\)", text):
        pts = [int(t) - 1 for t in grp.split()]
        cycles.append(pts)
    return Permutation.from_cycles(degree, cycles)


# builtin table ---------------------------------------------------------------

_SL23_GENS = (8, ("(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"))
_FROB21_GENS = (7, ("(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"))
_Q8_GENS = (8, ("(1 2 5 6)(3 8 7 4)", "(1 3 5 7)(2 4 6 8)"))


def _symmetric(n: int) -> list[Permutation]:
    if n == 1:
        return [Permutation.identity(1)]
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return gens


def _alternating(n: int) -> list[Permutation]:
    if n <= 2:
        return [Permutation.identity(max(n, 1))]
    if n == 3:
        return [Permutation.from_cycles(3, [(0, 1, 2)])]
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n % 2 == 1:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    else:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n))]))
    return gens


def build_group(spec: GroupSpec, name: Optional[str] = None,
                cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if isinstance(spec, GroupProduct):
        left = build_group(spec.left, cap=cap)
        right = build_group(spec.right, cap=cap)
        return direct_product(left, right, name=name or format_group_spec(spec), cap=cap)
    if isinstance(spec, Generators):
        gens = [_cycles_to_perm(spec.degree, c) for c in spec.cycles]
        return from_generators(gens, name or format_group_spec(spec), cap=cap)
    return _build_builtin(spec.name, name, cap)


def _build_builtin(token: str, name: Optional[str], cap: int) -> FiniteGroup:
    label = name or token
    if token == "V4":
        return _build_builtin_product(("C2", "C2"), label, cap)
    if token == "Q8":
        deg, cycs = _Q8_GENS
        return from_generators([_cycles_to_perm(deg, c) for c in cycs], label, cap=cap)
    if token == "SL23":
        deg, cycs = _SL23_GENS
        return from_generators([_cycles_to_perm(deg, c) for c in cycs], label, cap=cap)
    if token == "Frob21":
        deg, cycs = _FROB21_GENS
        return from_generators([_cycles_to_perm(deg, c) for c in cycs], label, cap=cap)
    m = re.fullmatch(r"C(\d+)", token)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownBuiltin(f"C{n}: order must be positive")
        if n > cap:
            raise ClosureExceedsCap(f"C{n} exceeds cap {cap}")
        return cyclic(n, label)
    m = re.fullmatch(r"D(\d+)", token)
    if m:
        k = int(m.group(1))
        if k < 2 or k % 2:
            raise UnknownBuiltin(f"{token}: dihedral names are D<order> with even order >= 2")
        n = k // 2
        if n == 1:
            return _build_builtin("C2", label, cap)
        rot = Permutation.from_cycles(n, [tuple(range(n))])
        ref = Permutation(tuple((n - i) % n for i in range(n)))
        return from_generators([rot, ref], label, cap=cap)
    m = re.fullmatch(r"S(\d)", token)
    if m and 1 <= int(m.group(1)) <= 6:
        return from_generators(_symmetric(int(m.group(1))), label, cap=cap)
    m = re.fullmatch(r"A(\d)", token)
    if m and 1 <= int(m.group(1)) <= 6:
        return from_generators(_alternating(int(m.group(1))), label, cap=cap)
    raise UnknownBuiltin(f"unknown builtin group {token!r}")


def _build_builtin_product(tokens, label, cap):
    out = _build_builtin(tokens[0], None, cap)
    for t in tokens[1:]:
        out = direct_product(out, _build_builtin(t, None, cap), cap=cap)
    out.name = label
    return out


def parse_group(text: str, name: Optional[str] = None,
                cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse a group spec and build the group (name defaults to the spec)."""
    return build_group(parse_group_spec(text), name=name or text.strip(), cap=cap)
