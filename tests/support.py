"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
homology dimensions are computed by dense rank computations over Q or F_p,
and filtration subgroups by enumerating small integer cycles.
"""

import itertools
import math
from fractions import Fraction

from khconc import GElem, Generator, GradedComplex, direct_sum, generator_cycle, unit_complex
from khconc import intmat
from khconc.invariants import g1_matrix, tuple_from_filtration


def acyclic_square(q=0, t=0, tag="sq", scal=1):
    return GradedComplex(
        [Generator(f"{tag}.a", t, q), Generator(f"{tag}.b", t + 1, q)],
        {(f"{tag}.a", f"{tag}.b"): GElem(scal, 0)},
    )


def torsion_h0():
    """Not knot-like: H_0 at G = 1 is Z + Z/2."""
    return direct_sum(
        unit_complex(),
        GradedComplex([Generator("a", -1, 0), Generator("b", 0, 0)], {("a", "b"): GElem(2, 0)}),
    )


def invalid_reducing_to_unit():
    """d^2 != 0 along a -> b -> c -> e, yet reduce leaves the valid unit {u}."""
    ids = [("a", -1), ("b", 0), ("c", 1), ("e", 2)]
    gens = [Generator(gid, t, 0) for gid, t in ids] + [Generator("u", 0, 0)]
    return GradedComplex(gens, {(x, y): GElem(1, 0) for (x, _), (y, _) in zip(ids, ids[1:])})


def random_knotlike(rng, max_pieces=2):
    """A knot-like complex assembled from a unit summand plus pieces."""
    parts = [unit_complex(qdeg=2 * rng.randint(-1, 1), gid="core")]
    for i in range(rng.randint(0, max_pieces)):
        t = rng.randint(-1, 1)
        q = 2 * rng.randint(-1, 1)
        cexp = rng.randint(1, 2)
        gens = [
            Generator(f"p{i}a", t, q),
            Generator(f"p{i}b", t + 1, q + 2 * cexp),
        ]
        # unit scalar keeps the complex knot-like over Z and every field
        scal = rng.choice([1, -1])
        parts.append(GradedComplex(gens, {(f"p{i}a", f"p{i}b"): GElem(scal, cexp)}))
    if rng.random() < 0.5:
        parts.append(
            acyclic_square(
                q=2 * rng.randint(-1, 1),
                t=rng.randint(-1, 1),
                tag=f"s{rng.randint(0, 9)}",
                scal=rng.choice([1, -1]),
            )
        )
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def scramble(c, rng, moves=8, coeffs=(1, -1, 2)):
    """Random homogeneous degree-(0,0) shear automorphisms of the complex."""
    b = c.builder()
    ids = list(b.gens)
    for _ in range(moves):
        x, y = rng.choice(ids), rng.choice(ids)
        gx, gy = b.gens[x], b.gens[y]
        if x == y or gx.tdeg != gy.tdeg or gy.qdeg < gx.qdeg or (gy.qdeg - gx.qdeg) % 2:
            continue
        m = rng.choice(list(coeffs))
        f = GElem(m, (gy.qdeg - gx.qdeg) // 2)
        for z, v in list(b.out[y].items()):
            b.add_entry(x, z, GElem(f.scalar * v.scalar, f.gpow + v.gpow))
        for u, v in list(b.inc[x].items()):
            b.add_entry(u, y, GElem(-f.scalar * v.scalar, f.gpow + v.gpow))
    return b.freeze()


def field_rank(mat, char):
    """Rank of an integer matrix over Q (char 0) or F_char."""
    if not mat or not mat[0]:
        return 0
    if char == 0:
        a = [[Fraction(x) for x in row] for row in mat]
    else:
        a = [[x % char for x in row] for row in mat]
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][col] if char == 0 else pow(a[r][col], -1, char)
        a[r] = [x * inv if char == 0 else (x * inv) % char for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [
                    x - f * y if char == 0 else (x - f * y) % char
                    for x, y in zip(a[i], a[r])
                ]
        r += 1
        if r == rows:
            break
    return r


def truncated_homology_dims(c, char, m):
    """t-graded dims of H(C (x) F[G]/G^m), each generator expanded m-fold."""
    lo, hi = c.tdeg_range()
    gens_at = {t: [g for g in c.generators if g.tdeg == t] for t in range(lo, hi + 1)}

    def block_matrix(t):
        srcs = gens_at.get(t, [])
        tgts = gens_at.get(t + 1, [])
        mat = [[0] * (len(srcs) * m) for _ in range(len(tgts) * m)]
        tix = {g.id: i for i, g in enumerate(tgts)}
        for j, g in enumerate(srcs):
            for tgt, val in c.out_of(g.id).items():
                i = tix[tgt]
                for k in range(m - val.gpow):
                    mat[i * m + k + val.gpow][j * m + k] = val.scalar
        return mat, len(srcs) * m

    dims = {}
    for t in range(lo, hi + 1):
        mat, cols = block_matrix(t)
        prev, _ = block_matrix(t - 1)
        dims[t] = cols - field_rank(mat, char) - field_rank(prev, char)
    return {t: d for t, d in dims.items() if d}


def expected_truncated_dims(nf, m):
    """Dims predicted by a NormalForm for C (x) F[G]/G^m."""
    dims = {}

    def bump(t, amount):
        if amount:
            dims[t] = dims.get(t, 0) + amount

    bump(0, m)
    for a, _, cexp in nf.pieces:
        bump(a, min(cexp, m))
        bump(a + 1, min(cexp, m))
    return dims


def g1_field_homology_dims(c, char):
    """t-graded dims of H(C (x) M[G]/(G-1)) for M the minimal field (or Z ranks)."""
    lo, hi = c.tdeg_range()
    dims = {}
    for t in range(lo, hi + 1):
        mat, srcs, _ = g1_matrix(c, t)
        prev, _, _ = g1_matrix(c, t - 1)
        dims[t] = len(srcs) - field_rank(mat, char) - field_rank(prev, char)
    return {t: d for t, d in dims.items() if d}


def bruteforce_sz(c, coeff_bound=3):
    """Filtration tuple by enumerating integer cycles with small coefficients.

    A cycle's class is its last coordinate in one solve against the columns
    of d_-1 followed by the generator cycle, which span the cycles when H_0
    is Z.  Returns None when the enumeration is inconclusive, i.e. the cycles
    within the coefficient bound fail to generate the bottom filtration level.
    """
    d0, srcs, _ = g1_matrix(c, 0)
    dm1, _, _ = g1_matrix(c, -1)
    qdegs = [c.gen(g).qdeg for g in srcs]
    n = len(srcs)
    z = generator_cycle(c)
    # rows of d_-1 are the t = 0 generators, in the order of srcs
    spanning = [row + [z.get(gid, 0)] for row, gid in zip(dm1, srcs)]

    def is_cycle(vec):
        return all(sum(row[j] * vec[j] for j in range(n)) == 0 for row in d0)

    def cycle_class(vec):
        sol = intmat.solve(spanning, vec)
        if sol is None:
            raise AssertionError(f"cycle {vec} is not a boundary plus a multiple of {z}")
        return sol[-1]

    qmax, qmin = max(qdegs), min(qdegs)
    m_by_k = {}
    for k in range(qmax, qmin - 2, -2):
        support = [j for j, q in enumerate(qdegs) if q >= k]
        g = 0
        for combo in itertools.product(
            range(-coeff_bound, coeff_bound + 1), repeat=len(support)
        ):
            vec = [0] * n
            for idx, j in enumerate(support):
                vec[j] = combo[idx]
            if is_cycle(vec):
                g = math.gcd(g, cycle_class(vec))
        m_by_k[k] = g
    if m_by_k.get(qmin) != 1:
        return None
    return tuple_from_filtration(m_by_k).as_tuple()


def entry_multiset(c):
    return sorted((v.gpow, abs(v.scalar)) for _, _, v in c.iter_entries())


# ---------------------------------------------------------------------------
# blackboard-framed antiparallel doubles with a clasp, for satellite tests


def double_pd(pd, clasp="A"):
    """Antiparallel blackboard double of a knot diagram plus a 2-crossing clasp.

    Each original crossing becomes four; the two parallel copies of the
    basepoint arc are cut and rejoined through the clasp, giving one circle.
    With clasp "A" both clasp crossings keep the returning strand under; "B"
    mirrors the clasp.  Calibrate the sign with the one-crossing unknot
    diagrams before trusting a convention.
    """
    from khconc.khovanov import analyze_pd

    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    f_copy = {}
    b_copy = {}
    for arc in pd.arc_order:
        f_copy[arc] = fresh()
        b_copy[arc] = fresh()

    crossings = []
    arrivals = {}  # arc -> (crossing index, slot), tracked while emitting

    def emit(tup, in_slots):
        ci = len(crossings)
        crossings.append(tup)
        for slot in in_slots:
            arrivals[tup[slot]] = (ci, slot)

    for (a, b, c, d), over_b in zip(pd.crossings, pd.over_in_b):
        x, y = (b, d) if over_b else (d, b)
        s0, s2 = f_copy[a], f_copy[c]
        t0, t2 = b_copy[c], b_copy[a]
        r0, r2 = f_copy[x], f_copy[y]
        w0, w2 = b_copy[y], b_copy[x]
        s1, t1, r1, w1 = fresh(), fresh(), fresh(), fresh()
        if over_b:
            # over strand runs east to west
            emit((s0, r1, s1, r2), (0, 1))
            emit((s1, w1, s2, w0), (0, 3))
            emit((t1, r1, t2, r0), (0, 3))
            emit((t0, w1, t1, w2), (0, 1))
        else:
            # over strand runs west to east
            emit((s0, w1, s1, w2), (0, 1))
            emit((s1, r1, s2, r0), (0, 3))
            emit((t1, w1, t2, w0), (0, 3))
            emit((t0, r1, t1, r2), (0, 1))
    # cut the doubled basepoint arcs and hook them through the clasp
    z0 = pd.basepoint
    alpha, gamma = f_copy[z0], b_copy[z0]
    if pd.crossings:
        alpha_out, gamma_out = fresh(), fresh()
        for arc, new in ((alpha, alpha_out), (gamma, gamma_out)):
            ci, slot = arrivals[arc]
            lst = list(crossings[ci])
            lst[slot] = new
            crossings[ci] = tuple(lst)
    else:
        alpha_out, gamma_out = alpha, gamma
    mu, nu = fresh(), fresh()
    if clasp == "A":
        crossings.append((alpha, nu, mu, alpha_out))
        crossings.append((gamma, mu, nu, gamma_out))
    else:
        crossings.append((nu, mu, alpha_out, alpha))
        crossings.append((mu, nu, gamma_out, gamma))
    return analyze_pd(crossings, basepoint=alpha)
