"""The exact cube of resolutions: the reference oracle for khconc's assembly.

build_complex returns a complex homotopy equivalent to the cube, assembled
tangle by tangle, and never visits the 2^n vertices.  The tests compare it
with the cube itself, built here under khovanov's conventions: the circle
through the basepoint carries the rank-one module spanned by X, every other
circle the rank-two module with basis 1 (qdeg +1) and X (qdeg -1).
Resolution 0 of a crossing joins slots (a, d) and (b, c), resolution 1 joins
(a, b) and (c, d); with n+ positive and n- negative crossings, a cube vertex
v contributes at homological degree |v| - n- with quantum shift
|v| + n+ - 2n-.  Edge signs follow the parity of the 1-bits below the
flipped coordinate.  Generator ids are "vertex:mask".
"""

from __future__ import annotations

from khconc.complexes import GElem, Generator, GradedComplex
from khconc.khovanov import PDCode

# ---------------------------------------------------------------------------
# Frobenius data

LABEL_ONE = "1"
LABEL_X = "X"
LABEL_BP = "bp"

# merge table: (label, label) -> list of (label, scalar, gpow)
MERGE = {
    (LABEL_ONE, LABEL_ONE): [(LABEL_ONE, 1, 0)],
    (LABEL_ONE, LABEL_X): [(LABEL_X, 1, 0)],
    (LABEL_X, LABEL_ONE): [(LABEL_X, 1, 0)],
    (LABEL_X, LABEL_X): [(LABEL_X, -1, 1)],
    (LABEL_BP, LABEL_ONE): [(LABEL_BP, 1, 0)],
    (LABEL_ONE, LABEL_BP): [(LABEL_BP, 1, 0)],
    (LABEL_BP, LABEL_X): [(LABEL_BP, -1, 1)],
    (LABEL_X, LABEL_BP): [(LABEL_BP, -1, 1)],
}

# split table: label -> list of (label for old circle, label for new circle, scalar, gpow)
SPLIT = {
    LABEL_ONE: [(LABEL_ONE, LABEL_X, 1, 0), (LABEL_X, LABEL_ONE, 1, 0), (LABEL_ONE, LABEL_ONE, 1, 1)],
    LABEL_X: [(LABEL_X, LABEL_X, 1, 0)],
    LABEL_BP: [(LABEL_BP, LABEL_X, 1, 0)],
}


def frobenius_consistent() -> bool:
    """Symbolic check of the algebra Z[G][X]/(X^2+GX) behind the tables.

    Elements are dicts label -> (scalar, gpow) sums; verifies associativity,
    the Frobenius compatibility and the counit law.
    """

    def mul(e1, e2):
        out: dict[str, dict[int, int]] = {}
        for l1, terms1 in e1.items():
            for l2, terms2 in e2.items():
                for g1, s1 in terms1.items():
                    for g2, s2 in terms2.items():
                        for label, s, g in MERGE[(l1, l2)]:
                            bucket = out.setdefault(label, {})
                            key = g1 + g2 + g
                            bucket[key] = bucket.get(key, 0) + s1 * s2 * s
        return {l: {g: s for g, s in t.items() if s} for l, t in out.items()}

    def comul(e):
        out: dict[tuple[str, str], dict[int, int]] = {}
        for l1, terms in e.items():
            for g1, s1 in terms.items():
                for la, lb, s, g in SPLIT[l1]:
                    bucket = out.setdefault((la, lb), {})
                    key = g1 + g
                    bucket[key] = bucket.get(key, 0) + s1 * s
        return {k: {g: s for g, s in t.items() if s} for k, t in out.items()}

    def clean(d):
        return {k: v for k, v in d.items() if v}

    one = {LABEL_ONE: {0: 1}}
    x = {LABEL_X: {0: 1}}
    # associativity on all basis triples
    for e1 in (one, x):
        for e2 in (one, x):
            for e3 in (one, x):
                if clean(mul(mul(e1, e2), e3)) != clean(mul(e1, mul(e2, e3))):
                    return False
    # Frobenius condition Delta(m(a, b)) = (m (x) id)(a (x) Delta(b))
    for e1 in (one, x):
        for e2 in (one, x):
            lhs = comul(mul(e1, e2))
            rhs: dict[tuple[str, str], dict[int, int]] = {}
            for (lb, lc), terms in comul(e2).items():
                for g0, s0 in terms.items():
                    prod = mul(e1, {lb: {0: 1}})
                    for la, pterms in prod.items():
                        for g1, s1 in pterms.items():
                            bucket = rhs.setdefault((la, lc), {})
                            key = g0 + g1
                            bucket[key] = bucket.get(key, 0) + s0 * s1
            rhs = {k: {g: s for g, s in t.items() if s} for k, t in rhs.items()}
            if clean(lhs) != clean(rhs):
                return False
    # counit: eps(1) = 0, eps(X) = 1 gives (eps (x) id) Delta = id
    def counit_side(e):
        out: dict[str, dict[int, int]] = {}
        for (la, lb), terms in comul(e).items():
            eps = {LABEL_ONE: 0, LABEL_X: 1}[la]
            if eps == 0:
                continue
            for g, s in terms.items():
                bucket = out.setdefault(lb, {})
                bucket[g] = bucket.get(g, 0) + s * eps
        return {l: {g: s for g, s in t.items() if s} for l, t in out.items()}

    return counit_side(one) == clean(one) and counit_side(x) == clean(x)


# ---------------------------------------------------------------------------
# cube assembly


def _circles(pd: PDCode, vertex: int) -> list[frozenset[int]]:
    """Circles of the given resolution, each a frozenset of arcs, sorted."""
    parent: dict[int, int] = {a: a for a in pd.arc_order}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for ci, (a, b, c, d) in enumerate(pd.crossings):
        if (vertex >> ci) & 1:
            union(a, b)
            union(c, d)
        else:
            union(a, d)
            union(b, c)
    groups: dict[int, set[int]] = {}
    for a in pd.arc_order:
        groups.setdefault(find(a), set()).add(a)
    return sorted((frozenset(g) for g in groups.values()), key=min)


class _VertexData:
    """A cube vertex's circles and generators.

    bit maps each circle to its bit position in a generator mask, or to None
    for the basepoint circle; ids lists the generator ids by mask.
    """

    __slots__ = ("circles", "bit", "ids", "tdeg", "qtop")

    def __init__(self, pd: PDCode, vertex: int, tshift: int, qshift: int):
        self.circles = _circles(pd, vertex)
        ordinary = [c for c in self.circles if pd.basepoint not in c]
        self.bit = {c: None for c in self.circles}
        self.bit.update((c, pos) for pos, c in enumerate(ordinary))
        self.ids = [f"{vertex}:{mask}" for mask in range(1 << len(ordinary))]
        self.tdeg = vertex.bit_count() + tshift
        # mask 0 labels every ordinary circle 1 (qdeg +1); each X bit costs 2
        self.qtop = vertex.bit_count() + qshift + len(ordinary)


def _carry_runs(moves: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """(mask, left, right) runs that move source bits to target bits.

    moves lists (source bit, target bit) pairs in source order; a run is a
    block of consecutive source bits shifted by one amount, so a target mask
    is the OR of ((mask & run) << left) >> right over the runs.
    """
    runs: list[list[int]] = []
    for p, p2 in moves:
        if runs and runs[-1][1] == p and runs[-1][2] == p2 - p:
            runs[-1][1] += 1
        else:
            runs.append([p, p + 1, p2 - p])
    return [((1 << hi) - (1 << lo), max(d, 0), max(-d, 0)) for lo, hi, d in runs]


def _edge_terms(
    basepoint: int, sign: int, svd: _VertexData, tvd: _VertexData
) -> tuple[int, dict[int, list[tuple[int, int]]]]:
    """The merge or split of one cube edge, read off the Frobenius tables.

    Returns the mask of the source bits the edge reads and, for each value
    of those bits, the (target bits set, scalar) terms; every scalar is +-1.
    """
    sbit, tbit = svd.bit, tvd.bit
    src = [c for c in svd.circles if c not in tbit]
    tgt = [c for c in tvd.circles if c not in sbit]
    if len(tgt) == 2 and basepoint in tgt[1]:
        # the basepoint circle takes the "old" role of the split table
        tgt.reverse()
    masks = [0]
    for c in src:
        if sbit[c] is not None:
            masks += [m | 1 << sbit[c] for m in masks]

    def label(mask: int, circle) -> str:
        if sbit[circle] is None:
            return LABEL_BP
        return LABEL_X if (mask >> sbit[circle]) & 1 else LABEL_ONE

    def x_bits(labels) -> int:
        return sum(1 << tbit[c] for c, lab in zip(tgt, labels) if lab == LABEL_X)

    terms = {}
    for mask in masks:
        if len(src) == 2:
            table = MERGE[(label(mask, src[0]), label(mask, src[1]))]
            rows = [((lab,), scal) for lab, scal, _ in table]
        else:
            rows = [((old, new), scal) for old, new, scal, _ in SPLIT[label(mask, src[0])]]
        terms[mask] = [(x_bits(labels), sign * scal) for labels, scal in rows]
    return masks[-1], terms


def _emit_edge(
    out: dict[str, dict[str, int]],
    basepoint: int,
    src_vertex: int,
    svd: _VertexData,
    crossing: int,
    tvd: _VertexData,
) -> None:
    """All differential entries from src_vertex along one cube edge."""
    sign = -1 if (src_vertex & ((1 << crossing) - 1)).bit_count() % 2 else 1
    read, terms = _edge_terms(basepoint, sign, svd, tvd)
    runs = _carry_runs(
        [(p, tvd.bit[c]) for c in svd.circles if (p := svd.bit[c]) is not None and c in tvd.bit]
    )
    tids = tvd.ids
    for smask, src in enumerate(svd.ids):
        row = out[src]
        carried = 0
        for m, left, right in runs:
            carried |= ((smask & m) << left) >> right
        for bits, scal in terms[smask & read]:
            row[tids[carried | bits]] = scal


def exact_cube(pd: PDCode) -> GradedComplex:
    """The exact cube, emitted one homological slice at a time with the edges into it.

    Entries are int scalars until the end; homogeneity fixes each G-power
    from the degrees.
    """
    n = len(pd.crossings)
    n_plus, n_minus = pd.n_plus, pd.n_minus
    deg: dict[str, tuple[int, int]] = {}
    out: dict[str, dict[str, int]] = {}
    prev: dict[int, _VertexData] = {}
    for weight in range(n + 1):
        cur = {
            v: _VertexData(pd, v, -n_minus, n_plus - 2 * n_minus)
            for v in range(1 << n)
            if v.bit_count() == weight
        }
        for vdata in cur.values():
            for mask, gid in enumerate(vdata.ids):
                deg[gid] = (vdata.tdeg, vdata.qtop - 2 * mask.bit_count())
                out[gid] = {}
        for v, svd in prev.items():
            for j in range(n):
                if not (v >> j) & 1:
                    _emit_edge(out, pd.basepoint, v, svd, j, cur[v | (1 << j)])
        prev = cur
    entries = {
        (src, tgt): GElem(v, (deg[tgt][1] - deg[src][1]) // 2) for src, row in out.items() for tgt, v in row.items()
    }
    return GradedComplex([Generator(gid, t, q) for gid, (t, q) in deg.items()], entries)


def seifert_circle_count(pd: PDCode) -> int:
    """Circles of the oriented resolution (0 at positive, 1 at negative)."""
    vertex = 0
    for ci, positive in enumerate(pd.over_in_b):
        if not positive:
            vertex |= 1 << ci
    return len(_circles(pd, vertex))


def positive_diagram_degree_check(pd: PDCode) -> bool:
    """For a positive diagram: every degree-0 generator has qdeg >= 1 + c - k.

    c is the crossing count and k the number of Seifert circles; the bound
    equals twice the slice genus for positive diagrams.
    """
    if pd.n_minus:
        raise ValueError("diagram is not positive")
    bound = 1 + len(pd.crossings) - seifert_circle_count(pd)
    complex = exact_cube(pd)
    return all(g.qdeg >= bound for g in complex.generators if g.tdeg == 0)
