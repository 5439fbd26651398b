import signal

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from formations.dsl import parse_group
from formations.groups import Permutation, from_generators

from oracle import o_perm_elements

PROPERTY = settings(max_examples=150, deadline=None)

TEST_SECONDS = 300  # wall-clock limit of one test, its fixtures' set-up included


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_SECONDS. Not an Exception, so
    neither the code under test nor hypothesis's shrinker catches it."""


def _time_out(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_SECONDS} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail any single test after TEST_SECONDS instead of letting a loop
    that never ends hang the whole run (SIGALRM, so POSIX only). A hook
    rather than an autouse fixture: a function-scoped fixture is set up
    after the module-scoped ones, such as test_acceptance's corpus runs,
    and would not time them."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def groups():
    """Shared small groups; session scope so lattices are computed once."""
    names = ["S3", "S4", "A4", "A5", "D8", "Q8", "SL23", "Frob21", "C6", "C12",
             "V4", "S3 x C5"]
    return {n: parse_group(n) for n in names}


def table_of(g):
    """The Cayley table as lists: entry (a, b) is a*b."""
    return [list(row) for row in zip(*g.right_rows)]


def mult(g, a, b):
    """The product a*b of two elements of g, by index."""
    return g.right_rows[b][a]


def of_order(lattice, order):
    """The subgroups of a lattice with the given order, in lattice order."""
    return [s for s in lattice.subgroups if s.order == order]


def factor_orders(series):
    """The orders of a chief series' factors, from the bottom up."""
    return tuple(f.order for f in series.factors)


def s4_perms(s4):
    """The elements of the fixture's S4 as permutations, by index: S4 is
    built from the transposition (0 1) and the 4-cycle (0 1 2 3)."""
    gens = [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    perms = [Permutation(p) for p in o_perm_elements([q.images for q in gens])]
    assert len(perms) == s4.order and [perms[i] for i in s4.generators] == gens
    return perms


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
