import copy
import itertools
import math
import random

from hypothesis import given, settings, strategies as st

from khconc import intmat, parse_braid, reduce, simplify, zeq
from khconc.invariants import integer_homology_profile

from cube import exact_cube


def rand_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


st_dims = st.tuples(st.integers(1, 5), st.integers(1, 5))
st_entries = st.integers(-9, 9)


@st.composite
def matrices(draw):
    m, n = draw(st_dims)
    return [[draw(st_entries) for _ in range(n)] for _ in range(m)]


def column_rows(a):
    """Column j of A followed by e_j, as kernel_basis and solve build them."""
    m, n = len(a), len(a[0])
    return [[a[i][j] for i in range(m)] + [int(k == j) for k in range(n)] for j in range(n)]


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_column_echelon_relation(a):
    m = len(a)
    rows = column_rows(a)
    r = intmat._echelon(rows, m)
    heads, tails = [row[:m] for row in rows], [row[m:] for row in rows]
    # every row stays (A e, e) for its tail e, and the tails stay unimodular
    for head, tail in zip(heads, tails):
        assert intmat.matvec(a, tail) == head
    assert det(tails) in (1, -1)
    assert not any(any(head) for head in heads[r:])
    # pivot positions strictly increase, pivots positive
    positions = [next(i for i, x in enumerate(head) if x) for head in heads[:r]]
    assert positions == sorted(set(positions))
    assert all(head[i] > 0 for head, i in zip(heads, positions))


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
        r = intmat._echelon(column_rows(a), m)
        assert len(intmat.kernel_basis(a)) == n - r


# (A, kernel_basis(A), b, solve(A, b)): the pivot rule fixes these vectors
PINNED = [
    ([[2, 4, 6], [1, 3, 5]], [[1, -2, 1]], [4, 3], [0, 1, 0]),
    ([[3, -5, 7, 0], [0, 2, -4, 6], [1, 1, 1, 1]], [[13, -2, -7, -4]], [5, -2, 7], [-24, 7, 16, 8]),
    ([[6, 10, 15]], [[5, 0, -2], [-5, -3, 4]], [1], [1, 1, -1]),
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], [[-2, 1, 0], [-3, 0, 1]], [2, 4, 6], [2, 0, 0]),
    ([[0, 4, -6], [8, 0, 2]], [[1, -6, -4]], [2, 1], None),
]


def test_pinned_outputs():
    for a, kernel, b, x in PINNED:
        assert intmat.kernel_basis(a) == kernel, a
        assert intmat.solve(a, b) == x, (a, b)


def eliminated_gcd(a, w):
    """g from simplify._eliminate on the system (A, w), with a witness checked by hand."""
    forms = [{j: c for j, c in enumerate(row) if c} for row in a]
    weight = {j: c for j, c in enumerate(w) if c}
    before = copy.deepcopy((forms, weight))
    steps, rest = simplify._eliminate(forms, weight)
    assert (forms, weight) == before
    g = math.gcd(*rest.values())
    pairs = [(str(j), str(j)) for j in range(len(w))]
    f = zeq.ChainMapLattice(0, pairs, g, forms, weight, steps, rest).witness()
    x = [f.get(pair, 0) for pair in pairs]
    assert not any(intmat.matvec(a, x)) and sum(u * v for u, v in zip(w, x)) == g
    return g


@st.composite
def small_systems(draw):
    """(A, w), the entries of A drawn with or without +-1, some rows of A zero.

    Half the draws also zero about half the entries of A and w, so that an
    equation can be linked to the weight only through other equations.
    """
    a = draw(matrices())
    n = len(a[0])
    if draw(st.booleans()):
        no_units = st.sampled_from([-8, -6, -4, -3, -2, 0, 2, 3, 4, 6, 9])
        a = [[draw(no_units) for _ in range(n)] for _ in a]
    w = draw(st.lists(st_entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        *a, w = [[c if draw(st.booleans()) else 0 for c in row] for row in (*a, w)]
    for i in draw(st.sets(st.integers(0, len(a) - 1))):
        a[i] = [0] * n
    return a, w


@st.composite
def systems(draw):
    """A small system, or two or three of them as the blocks of one.

    The blocks' rows and columns are shuffled together, and the weight is
    kept on a random subset of the blocks and zero on the others.
    """
    if draw(st.booleans()):
        return draw(small_systems())
    blocks = draw(st.lists(small_systems(), min_size=2, max_size=3))
    n = sum(len(w) for _, w in blocks)
    a, w = [], []
    for block, bw in blocks:
        a += [[0] * len(w) + row + [0] * (n - len(w) - len(row)) for row in block]
        w += bw if draw(st.booleans()) else [0] * len(bw)
    cols = draw(st.permutations(range(n)))
    rows = draw(st.permutations(a))
    return [[row[j] for j in cols] for row in rows], [w[j] for j in cols]


@given(systems())
@settings(max_examples=200, deadline=None)
def test_eliminate_image_gcd_matches_kernel_basis(system):
    a, w = system
    kernel = intmat.kernel_basis(a)
    expect = math.gcd(*(sum(u * v for u, v in zip(vec, w)) for vec in kernel))
    assert eliminated_gcd(a, w) == expect


def test_eliminate_edges():
    assert eliminated_gcd([], []) == 0
    assert eliminated_gcd([], [4, 6]) == 2
    # the kernel is spanned by (2, -1), so w = (1, 0) takes it onto 2Z
    assert eliminated_gcd([[1, 2]], [1, 0]) == 2
    assert eliminated_gcd([[1, 2]], [2, 4]) == 0
    # no +-1 anywhere: the kernel of (4 6) is spanned by (3, -2)
    assert eliminated_gcd([[4, 6], [0, 0]], [1, 1]) == 1
    assert eliminated_gcd([[4, 6]], [2, 0]) == 6
    # x_0 = x_1 = 2 x_2: the second equation is reached from w only through x_1
    assert eliminated_gcd([[1, -1, 0], [0, 1, -2]], [1, 0, 0]) == 2
    # a block the weight is silent on, with a kernel of its own, changes nothing
    assert eliminated_gcd([[1, -1, 0, 0, 0], [0, 0, 0, 2, 3], [0, 1, -2, 0, 0]], [1, 0, 0, 0, 0]) == 2


def test_kernel_of_empty_matrix_is_standard_basis():
    assert intmat.kernel_basis([], ncols=2) == [[1, 0], [0, 1]]
    assert intmat.solve([], []) == []


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


def test_smith_form_alternates_echelons():
    a = [[0, 4], [1, 2]]
    # a column echelon, then a row echelon, leaves a 1 off the diagonal
    rows = intmat.transpose(a)
    rows = intmat.transpose(rows[: intmat._echelon(rows, 2)])
    rows = rows[: intmat._echelon(rows, 2)]
    assert rows == [[2, 1], [0, 2]]
    assert intmat.smith_form(a) == [1, 4]


def test_homology_profile_of_cube_equals_that_of_reduction():
    for word in ("BR[2; 1,1,1,1,1]", "BR[3; 1,2,1,2,1,2,1,2]"):
        cube = exact_cube(parse_braid(word))
        reduced = reduce(cube)
        assert cube.total_rank > 10 * reduced.total_rank
        profile = {t: v for t, v in integer_homology_profile(cube).items() if v != (0, [])}
        assert profile == {0: (1, [])}
        assert profile == {t: v for t, v in integer_homology_profile(reduced).items() if v != (0, [])}
