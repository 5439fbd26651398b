"""Parsers: the formation-expression DSL and the group input format.

Formation grammar ('*' binds tighter than '&', both left-associative):

    expr  := term (('*' | '&') term)*
    term  := prim | '(' expr ')'
    prim  := 'NA' | 'N' | 'U' | 'S' | 'N^' int | 'Gp(' prime ')' | 'A(' int ')'

where NA is the class of groups with nilpotent commutator subgroup.

Group specs are builtin names, products with 'x', or explicit permutation
generators in 1-based cycle notation:

    S4
    Frob21 x C2
    perm 5: (1 2 3 4 5), (2 5)(3 4)

A spec is built as it is parsed: `group_builder` checks the syntax, the
cycle points and the builtin names, and returns the function that builds
the group. So a corpus file that names an unknown builtin fails to load.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Optional

from .arith import is_prime
from .errors import DslSemanticError, DslSyntaxError, UnknownBuiltin
from .formation import (BUILTINS, Formation, abelian_exponent, intersection,
                        p_groups, product, soluble_length_formation, NILPOTENT,
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
    if sc.text[sc.pos:sc.pos + 2] == "NA":
        sc.pos += 2
        return BUILTINS["NA"]
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

GroupBuilder = Callable[[str, int], FiniteGroup]

_BUILTIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")

# builtins spelled as specs of their own, parsed by the same parser
_BUILTIN_SPECS = {
    "V4": "C2 x C2",
    "D2": "C2",
    "D4": "C2 x C2",
    "Q8": "perm 8: (1 2 5 6)(3 8 7 4), (1 3 5 7)(2 4 6 8)",
    "SL23": "perm 8: (1 4 7)(2 8 5), (1 6 2 3)(4 7 8 5)",
    "Frob21": "perm 7: (1 2 3 4 5 6 7), (2 3 5)(4 7 6)",
}


def group_builder(text: str) -> GroupBuilder:
    """Check a group spec (syntax, cycle points, builtin names) and return
    the function `(name, cap) -> FiniteGroup` that builds its group."""
    sc = _Scanner(text)
    build = _parse_group_product(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise DslSyntaxError("trailing input", sc.pos)
    return build


def parse_group(text: str, name: Optional[str] = None,
                cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse a group spec and build the group (name defaults to the spec)."""
    return group_builder(text)(name or text.strip(), cap)


def _parse_group_product(sc: _Scanner) -> GroupBuilder:
    left = _parse_group_atom(sc)
    while True:
        sc.skip_ws()
        if sc.text[sc.pos:sc.pos + 1] != "x" or _BUILTIN_RE.match(sc.text[sc.pos + 1:sc.pos + 2] or " "):
            return left
        sc.pos += 1
        left = partial(_product, left, _parse_group_atom(sc))


def _product(left: GroupBuilder, right: GroupBuilder, name: str, cap: int) -> FiniteGroup:
    """The direct product of two operands, each built under the product's
    name, so that a cap error names the spec being built."""
    return direct_product(left(name, cap), right(name, cap), name=name, cap=cap)


def _parse_group_atom(sc: _Scanner) -> GroupBuilder:
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
        gens = [_parse_cycles(sc, degree)]
        while sc.peek() == ",":
            sc.pos += 1
            gens.append(_parse_cycles(sc, degree))
        return partial(from_generators, gens)
    m = _BUILTIN_RE.match(sc.text[sc.pos:])
    if not m:
        raise DslSyntaxError("expected a group spec", sc.pos)
    sc.pos += m.end()
    return _builtin(m.group())


def _parse_cycles(sc: _Scanner, degree: int) -> Permutation:
    """One generator: a run of parenthesized 1-based cycles."""
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
            cycles.append([p - 1 for p in pts])
    if not cycles:
        raise DslSyntaxError("expected at least one cycle", sc.pos)
    return Permutation.from_cycles(degree, cycles)


def _builtin(token: str) -> GroupBuilder:
    """The builder of a builtin name; UnknownBuiltin for any other name."""
    if token in _BUILTIN_SPECS:
        return group_builder(_BUILTIN_SPECS[token])
    m = re.fullmatch(r"([CDSA])(\d+)", token)
    kind, k = (m.group(1), int(m.group(2))) if m else ("", 0)
    if kind == "C" and k >= 1:
        return partial(cyclic, k)
    if kind == "D" and k >= 6 and k % 2 == 0:
        return partial(from_generators, _dihedral(k // 2))
    if kind == "S" and 1 <= k <= 6:
        return partial(from_generators, _symmetric(k))
    if kind == "A" and 1 <= k <= 6:
        return partial(from_generators, _alternating(k))
    if kind == "D":
        raise UnknownBuiltin(f"{token}: dihedral names are D<order> with even order >= 2")
    raise UnknownBuiltin(f"unknown builtin group {token!r}")


def _dihedral(n: int) -> list[Permutation]:
    return [Permutation.from_cycles(n, [tuple(range(n))]),
            Permutation(tuple((n - i) % n for i in range(n)))]


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
