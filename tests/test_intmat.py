import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from khconc import intmat


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


st_dims = st.tuples(st.integers(1, 5), st.integers(1, 5))
st_entries = st.integers(-9, 9)


@st.composite
def matrices(draw):
    m, n = draw(st_dims)
    return [[draw(st_entries) for _ in range(n)] for _ in range(m)]


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_column_echelon_relation(a):
    e, t, r = intmat.column_echelon(a)
    n = len(a[0])
    assert intmat.matmul(a, t) == e
    for j in range(r, n):
        assert all(e[i][j] == 0 for i in range(len(a)))
    # pivot rows strictly increase, pivots positive
    rows = []
    for j in range(r):
        i = next(i for i in range(len(a)) if e[i][j] != 0)
        assert e[i][j] > 0
        rows.append(i)
    assert rows == sorted(rows) and len(set(rows)) == len(rows)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_kernel_annihilates(a):
    for k in intmat.kernel_basis(a):
        assert all(v == 0 for v in intmat.matvec(a, k))


def test_kernel_rank_nullity():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, m, n)
        _, _, r = intmat.column_echelon(a)
        assert len(intmat.kernel_basis(a)) == n - r


def test_solve_roundtrip():
    rng = random.Random(11)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, m, n)
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = intmat.matvec(a, x)
        got = intmat.solve(a, b)
        assert got is not None
        assert intmat.matvec(a, got) == b


def test_solve_detects_unsolvable():
    assert intmat.solve([[2, 0], [0, 2]], [1, 0]) is None
    assert intmat.solve([[1, 1]], [3]) is not None


def det(a):
    """Determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_smith_form_relations(a):
    # d_1 ... d_k is the gcd of the k x k minors, which vanish beyond the rank
    chain = intmat.smith_form(a)
    m, n = len(a), len(a[0])
    assert all(f > 0 for f in chain)
    for x, y in zip(chain, chain[1:]):
        assert y % x == 0
    for k in range(1, min(m, n) + 1):
        minors = [
            det([[a[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ]
        expect = math.prod(chain[:k]) if k <= len(chain) else 0
        assert math.gcd(*minors) == expect, k


def test_invariant_factors_example():
    a = [[2, 0], [0, 4]]
    assert intmat.smith_form(a) == [2, 4]
    b = [[2, 0], [0, 3]]
    assert intmat.smith_form(b) == [1, 6]
