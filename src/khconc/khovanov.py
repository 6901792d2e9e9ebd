"""The reduced universal Khovanov complex of a knot diagram over Z[G].

Input is a planar diagram code: crossings X(a, b, c, d) list the four arc
labels counterclockwise starting from the incoming under-strand, so the
under-strand runs a -> c and the over-strand occupies b and d.  One walk
along the knot, starting out of crossing 0's under-strand, fixes the
orientation of every arc and the order of the arcs; a crossing is positive
when its over-strand runs b -> d.  Under that convention the code
PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)] is the right-handed trefoil.

The complex is the cube of resolutions of the Frobenius algebra
Z[G][X]/(X^2 + GX), reduced at X = 0: the circle through the basepoint
carries the rank-one module spanned by X, every other circle the rank-two
module with basis 1 (qdeg +1) and X (qdeg -1).  Resolution 0 of a crossing
joins slots (a, d) and (b, c), resolution 1 joins (a, b) and (c, d); with
n+ positive and n- negative crossings, a cube vertex v contributes at
homological degree |v| - n- with quantum shift |v| + n+ - 2n-.  Edge signs
follow the parity of the 1-bits below the flipped coordinate.  These
conventions are pinned by two anchors, checked in the test suite: the
crossingless diagram yields exactly t^0 q^0 Z[G], and the right trefoil has
Rasmussen invariant +2 in every characteristic.

build_complex returns that cube up to FULL_CUBE_LIMIT crossings.  Above it,
tangle.assemble builds a homotopy equivalent complex crossing by crossing,
under the same degree conventions, and never visits the 2^n vertices.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .complexes import GradedComplex, InternalInvariantError
from .simplify import _Store

DEFAULT_CROSSING_CAP = 12
CAP_ENV_VAR = "KHCONC_CROSSING_CAP"
FULL_CUBE_LIMIT = 10


class ResourceCapError(RuntimeError):
    """Crossing count exceeds the configured cap."""


@dataclass(frozen=True)
class PDCode:
    """A validated planar diagram of an oriented knot.

    over_in_b[i] is True when crossing i's over-strand arrives at slot b
    (the positive case); arc_order lists the arcs along the knot starting
    at the basepoint.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    basepoint: int
    over_in_b: tuple[bool, ...]
    arc_order: tuple[int, ...]

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if b else -1 for b in self.over_in_b)

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)


def analyze_pd(
    crossings: list[tuple[int, int, int, int]], basepoint: int | None = None
) -> PDCode:
    """Validate crossing data, orient the knot and list its arcs from the basepoint.

    One walk fixes the orientation.  It leaves crossing 0 along its
    under-strand and follows the arcs; a strand entering at slot a, b or d
    leaves at c, d or b, and the over-strand's entry slot gives the sign.
    The step from one entry slot to the next is injective, so within 2n + 1
    steps the walk re-enters crossing 0 at a, or it enters a crossing at c or
    crosses one over-strand twice and the diagram cannot be oriented.  A
    walk that misses arcs has found a link.
    """
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, cross in enumerate(crossings):
        if len(cross) != 4:
            raise ValueError(f"crossing {cross!r} does not have 4 arcs")
        for slot, arc in enumerate(cross):
            occurrences.setdefault(arc, []).append((ci, slot))
    for arc, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"arc {arc} appears {len(occ)} times, expected 2")

    bp = basepoint if basepoint is not None else min(occurrences, default=0)
    if not crossings:
        return PDCode(crossings=(), basepoint=bp, over_in_b=(), arc_order=(bp,))
    if bp not in occurrences:
        raise ValueError(f"basepoint arc {bp} does not occur in the diagram")

    over_in_b: list[bool | None] = [None] * len(crossings)
    order: list[int] = []
    ci, slot = 0, 2  # the exit slot of crossing 0's under-strand
    while True:
        arc = crossings[ci][slot]
        order.append(arc)
        first, second = occurrences[arc]
        ci, slot = second if first == (ci, slot) else first
        if (ci, slot) == (0, 0):
            break
        if slot == 2 or (slot and over_in_b[ci] is not None):
            raise ValueError(f"crossing {crossings[ci]!r} cannot be oriented consistently")
        if slot:
            over_in_b[ci] = slot == 1
        slot = (slot + 2) % 4
    if len(order) != len(occurrences):
        raise ValueError(f"knots only: diagram has {len(occurrences)} arcs but one component of {len(order)}")
    start = order.index(bp)
    return PDCode(
        crossings=tuple(tuple(c) for c in crossings),
        basepoint=bp,
        over_in_b=tuple(over_in_b),
        arc_order=tuple(order[start:] + order[:start]),
    )


_PD_CROSSING_RE = re.compile(r"X\s*[\(\[]\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*[\)\]]", re.I)


def parse_pd(text: str, basepoint: int | None = None) -> PDCode:
    """Parse PD bracket notation, e.g. "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"."""
    s = text.strip()
    m = re.match(r"^PD\s*[\(\[](.*)[\)\]]$", s, re.I | re.S)
    body = m.group(1) if m else s
    body = body.strip()
    if body == "":
        return analyze_pd([], basepoint=basepoint)
    crossings = []
    pos = 0
    while pos < len(body):
        m = _PD_CROSSING_RE.match(body, pos)
        if not m:
            raise ValueError(f"cannot parse PD code at: {body[pos:pos+30]!r}")
        crossings.append(tuple(int(m.group(i)) for i in range(1, 5)))
        pos = m.end()
        while pos < len(body) and body[pos] in ", \t\n":
            pos += 1
    return analyze_pd(crossings, basepoint=basepoint)


def parse_braid(text: str) -> PDCode:
    """Braid closure input "BR[k; w1,w2,...]": positive wi is sigma_i.

    The closure is taken strand by strand and the basepoint sits on the
    first strand's initial arc.
    """
    m = re.match(r"^BR\s*[\[\(]\s*(\d+)\s*;\s*([-\d,\s]*)[\]\)]$", text.strip(), re.I)
    if not m:
        raise ValueError(f"cannot parse braid word {text!r}")
    strands = int(m.group(1))
    if strands < 1:
        raise ValueError("braid needs at least one strand")
    body = m.group(2).strip()
    word = [int(x) for x in body.split(",")] if body else []
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise ValueError(f"braid letter {letter} out of range for {strands} strands")
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = {0}
    cursor = 0
    for _ in range(strands):
        cursor = perm.index(cursor)
        seen.add(cursor)
    if len(seen) != strands:
        raise ValueError("knots only: this braid closure has more than one component")
    next_arc = 1
    current = []
    for _ in range(strands):
        current.append(next_arc)
        next_arc += 1
    initial = list(current)
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        left_in, right_in = current[i], current[i + 1]
        out_left, out_right = next_arc, next_arc + 1
        next_arc += 2
        if letter > 0:
            # strand entering on the right goes under to the left
            crossings.append((right_in, left_in, out_left, out_right))
        else:
            crossings.append((left_in, out_left, out_right, right_in))
        current[i], current[i + 1] = out_left, out_right
    # close up: identify the final arc at each position with the initial one
    relabel = {final: first for final, first in zip(current, initial)}
    closed = [tuple(relabel.get(a, a) for a in cross) for cross in crossings]
    return analyze_pd(closed, basepoint=initial[0])


def mirror_pd(pd: PDCode) -> PDCode:
    """Switch every crossing; the incoming over-strand becomes the under in."""
    crossings = []
    for cross, over_b in zip(pd.crossings, pd.over_in_b):
        a, b, c, d = cross
        if over_b:
            crossings.append((b, c, d, a))
        else:
            crossings.append((d, a, b, c))
    return analyze_pd(crossings, basepoint=pd.basepoint)


def _arrival_slot(pd: PDCode, arc: int) -> tuple[int, int]:
    """The crossing and slot where the arc arrives: a, or the over-strand's in slot."""
    for ci, (cross, over_b) in enumerate(zip(pd.crossings, pd.over_in_b)):
        for slot in (0, 1 if over_b else 3):
            if cross[slot] == arc:
                return ci, slot
    raise InternalInvariantError(
        "connected_sum_pd", f"arc {arc} has no arrival slot", crossings=len(pd.crossings)
    )


def connected_sum_pd(pd1: PDCode, pd2: PDCode) -> PDCode:
    """Splice the two diagrams along their basepoint arcs.

    Cutting the arcs P1 -> Q1 and P2 -> Q2 and rejoining as P1 -> Q2 and
    P2 -> Q1 keeps one oriented circle and adds no crossings.  The second
    diagram's labels are shifted past the first's, which moves no slot.
    """
    if not pd1.crossings:
        return pd2
    if not pd2.crossings:
        return pd1
    offset = max(max(c) for c in pd1.crossings) + 1
    cut1, cut2 = pd1.basepoint, pd2.basepoint + offset
    crossings1 = [list(c) for c in pd1.crossings]
    crossings2 = [[a + offset for a in c] for c in pd2.crossings]
    ci, slot = _arrival_slot(pd1, cut1)
    crossings1[ci][slot] = cut2
    ci, slot = _arrival_slot(pd2, pd2.basepoint)
    crossings2[ci][slot] = cut1
    return analyze_pd([tuple(c) for c in crossings1 + crossings2], basepoint=cut1)


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
    coassociativity, the Frobenius compatibility and the counit law.
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


def _emit_vertex_gens(store: _Store, vdata: _VertexData) -> None:
    for mask, gid in enumerate(vdata.ids):
        store.add_gen(gid, vdata.tdeg, vdata.qtop - 2 * mask.bit_count())


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
    store: _Store,
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
    out, inc = store.out, store.inc
    tids = tvd.ids
    for smask, src in enumerate(svd.ids):
        row = out[src]
        carried = 0
        for m, left, right in runs:
            carried |= ((smask & m) << left) >> right
        for bits, scal in terms[smask & read]:
            tgt = tids[carried | bits]
            row[tgt] = inc[tgt][src] = scal


def _crossing_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_CROSSING_CAP


def build_complex(pd: PDCode, cap: int | None = None) -> GradedComplex:
    """The reduced universal Khovanov complex of the diagram.

    Up to FULL_CUBE_LIMIT crossings this is the exact cube complex.  Above
    that, tangle.assemble adds the crossings one at a time to the knot cut
    at its basepoint, delooping closed circles and cancelling unit entries
    after every crossing, so it never visits the 2^n resolutions; its
    result is homotopy equivalent to the cube, with no unit entries left.
    """
    n = len(pd.crossings)
    limit = _crossing_cap(cap)
    if n > limit:
        raise ResourceCapError(
            f"diagram has {n} crossings, cap is {limit} (raise it explicitly to proceed)"
        )
    if n <= FULL_CUBE_LIMIT:
        return _build(pd)
    # imported on first use, so that importing the package compiles no more
    # source than the small-diagram path needs
    from .tangle import assemble

    return assemble(pd)


def _build(pd: PDCode) -> GradedComplex:
    """The exact cube, emitted one homological slice at a time with the edges into it."""
    n = len(pd.crossings)
    n_plus, n_minus = pd.n_plus, pd.n_minus
    store = _Store()
    prev: dict[int, _VertexData] = {}
    for weight in range(n + 1):
        cur = {
            v: _VertexData(pd, v, -n_minus, n_plus - 2 * n_minus)
            for v in range(1 << n)
            if v.bit_count() == weight
        }
        for vdata in cur.values():
            _emit_vertex_gens(store, vdata)
        for v, svd in prev.items():
            for j in range(n):
                if not (v >> j) & 1:
                    _emit_edge(store, pd.basepoint, v, svd, j, cur[v | (1 << j)])
        prev = cur
    return store.freeze()


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
    complex = _build(pd)
    return all(g.qdeg >= bound for g in complex.generators if g.tdeg == 0)
