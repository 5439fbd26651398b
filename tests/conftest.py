import pytest
from hypothesis import settings
from hypothesis import strategies as st

from formations.dsl import parse_group
from formations.groups import Permutation, from_generators

PROPERTY = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="session")
def groups():
    """Shared small groups; session scope so lattices are computed once."""
    names = ["S3", "S4", "A4", "A5", "D8", "Q8", "SL23", "Frob21", "C6", "C12",
             "V4", "S3 x C5"]
    return {n: parse_group(n) for n in names}


def table_of(g):
    return [[int(x) for x in row] for row in g.table]


def members(bits):
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


@st.composite
def perm_gens(draw):
    """1-3 permutations of one degree <= 6. Half the time each keeps the
    points below `split` apart from the rest, so that small intransitive
    groups are drawn as well as S6 and A6."""
    degree = draw(st.integers(1, 6))
    split = draw(st.just(degree) | st.integers(1, degree))
    return [Permutation(tuple(draw(st.permutations(range(split))))
                        + tuple(draw(st.permutations(range(split, degree)))))
            for _ in range(draw(st.integers(1, 3)))]


def perm_groups():
    return perm_gens().map(lambda gens: from_generators(gens, "H"))
