"""Tangle-by-tangle assembly of the reduced Khovanov complex, with delooping.

This is D. Bar-Natan's local algorithm ("Fast Khovanov homology
computations", JKTR 16, 2007) over the Bar-Natan deformation
Z[G][X]/(X^2 + GX), as in D. Schuetz, "A fast algorithm for calculating
s-invariants".  The knot is cut at its basepoint arc: the arc's second
occurrence gets a fresh label, so the two cut ends stay on the boundary of
a 1-1 tangle to which the crossings are added one at a time.

Objects are crossingless matchings of the tangle's boundary points, each
with a weight (its count of 1-resolutions) and a quantum degree.  A
morphism M1 -> M2 is a dict {mask: int}: the basis cobordisms are disjoint
unions of disks, one per circle of M1 u M2, and a set mask bit dots its
disk.  All scalars are taken at G = 1; homogeneity fixes every G-power from
the degrees, as in GradedComplex.

One gluing rule serves composition and crossing addition: glue the disks of
both factors along their shared segments and take the components.  A
component of genus g carrying d dots is X^d h^g with h = 2X + G, and a
component with b boundary circles is Delta^(b-1) of that.  At G = 1,
Delta^(b-1)(alpha + beta X) puts alpha on every labelling of the b circles
but all-X, and beta on all-X.  A closed loop in an object is delooped into
a copy labelled 1 (q + 1) and one labelled X (q - 1): a target loop reads
its label off the disk, and a source loop labelled lambda contracts a disk
dotted mu to epsilon(mu lambda), which is 0, 1, 1, -1 at G = 1.

Degrees force every entry between equal matchings at equal quantum degree
to be c * id, and those with c = +-1 are cancelled after every crossing, so
sizes follow the tangle's boundary width rather than 2^n.  In the closed-up
1-1 tangle every object is the cut arc, whose module X * A is the basepoint
circle's, and an entry alpha * id + beta * dot becomes the scalar
alpha - beta because X acts as -G there.

Each memo lives as long as its keys can recur.  A matching names every
point of its boundary, and no boundary comes back: an arc leaves it at its
second end, and crossings that left it unchanged would form a split piece.
So the tangle keeps circles for the current boundary only, from the
crossing step that made it on; a step's resolutions and gluings (with their
evaluations) die with the step, and the composition plans with cancel_units.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .complexes import Generator, GradedComplex, InternalInvariantError

if TYPE_CHECKING:
    from .khovanov import PDCode

LAYER = "khovanov tangle assembly"

# slot pairs joined by resolution 0 and resolution 1 of X(a, b, c, d)
RESOLUTIONS = (((0, 3), (1, 2)), ((0, 1), (2, 3)))

Matching = tuple[tuple[int, int], ...]
Morphism = dict[int, int]


def assemble(pd: PDCode) -> GradedComplex:
    """The reduced universal Khovanov complex of the diagram, at any crossing count.

    Same degree conventions as khovanov's cube: a generator of weight w and
    object degree q sits at t^(w - n-) q^(q + n+ - 2n-).
    """
    n = len(pd.crossings)
    if not n:
        return GradedComplex([Generator("0", 0, 0)], {})
    crossings, cut = _cut(pd)
    tangle = _Tangle(n)
    left = list(range(n))
    while left:
        # greedy order: the crossing sharing the most arcs with the boundary,
        # ties by lowest index, keeps the boundary narrow
        ends = set(tangle.boundary)
        ci = max(left, key=lambda i: (sum(a in ends for a in crossings[i]), -i))
        left.remove(ci)
        tangle.add_crossing(crossings[ci])
        tangle.cancel_units()
    return tangle.close(cut, pd.n_plus, pd.n_minus)


def _cut(pd: PDCode) -> tuple[list[tuple[int, int, int, int]], Matching]:
    """Crossings with the basepoint arc's second occurrence relabelled, and the cut arc."""
    crossings = [list(c) for c in pd.crossings]
    fresh = max(max(c) for c in crossings) + 1
    seen = 0
    for cross in crossings:
        for slot, arc in enumerate(cross):
            if arc == pd.basepoint:
                seen += 1
                if seen == 2:
                    cross[slot] = fresh
    return [tuple(c) for c in crossings], ((pd.basepoint, fresh),)


def _hom_circles(m1: Matching, m2: Matching) -> tuple[dict[int, int], list[int]]:
    """The circle index of every boundary label in m1 u m2, and each circle's
    least label; circles are ordered by least label."""
    p1, p2 = {}, {}
    for a, b in m1:
        p1[a], p1[b] = b, a
    for a, b in m2:
        p2[a], p2[b] = b, a
    circle: dict[int, int] = {}
    least: list[int] = []
    for start in sorted(p1):
        if start in circle:
            continue
        a = start
        while a not in circle:
            b = p1[a]
            circle[a] = circle[b] = len(least)
            a = p2[b]
        least.append(start)
    return circle, least


class _Circles(dict):
    """_hom_circles of (m1, m2), memoized for the matchings of one boundary."""

    def __missing__(self, key: tuple[Matching, Matching]) -> tuple[dict[int, int], list[int]]:
        hit = self[key] = _hom_circles(*key)
        return hit


def _decoration(dots: int, genus: int) -> tuple[int, int]:
    """(alpha, beta) with X^dots h^genus = alpha + beta X at G = 1, where X^2 = -X,
    h = 2X + 1, hX = -X and h^2 = 1."""
    if dots:
        return 0, -1 if (dots - 1 + genus) & 1 else 1
    return 1, 2 * (genus & 1)


class _Gluing(dict):
    """The components of disks glued along seams, with their boundary circles.

    circles names the disk each boundary circle lies on; the first nsrc are
    source loops, and the rest are output bits in order.  Each component is
    (disk mask, genus, source-loop mask, output mask).  Indexed by a dot mask,
    it memoizes evaluate's items for each source labelling.
    """

    __slots__ = ("components", "nsrc")

    def __init__(self, ndisks: int, seams: list[tuple[int, int]], circles: list[int], nsrc: int, sizes: dict):
        parent = list(range(ndisks))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in seams:
            parent[find(i)] = find(j)
        # root -> [disk mask, chi, source mask, output mask, boundary circles]
        comps: dict[int, list[int]] = {}
        for i in range(ndisks):
            comp = comps.setdefault(find(i), [0, 0, 0, 0, 0])
            comp[0] |= 1 << i
            comp[1] += 1
        for i, _ in seams:
            comps[find(i)][1] -= 1
        for k, disk in enumerate(circles):
            comp = comps[find(disk)]
            if k < nsrc:
                comp[2] |= 1 << k
            else:
                comp[3] |= 1 << (k - nsrc)
            comp[4] += 1
        self.components = []
        for disks, chi, src, out, b in comps.values():
            twice_genus = 2 - b - chi
            if twice_genus < 0 or twice_genus & 1:
                raise InternalInvariantError(
                    LAYER, f"a glued component has chi {chi} and {b} boundary circles", **sizes
                )
            self.components.append((disks, twice_genus // 2, src, out))
        self.nsrc = nsrc

    def __missing__(self, dots: int) -> list[tuple[tuple[int, int], ...]]:
        hit = self[dots] = [tuple(self.evaluate(dots, labels).items()) for labels in range(1 << self.nsrc)]
        return hit

    def evaluate(self, dots: int, labels: int) -> dict[int, int]:
        """{output bits: scalar} for a dot on each disk in dots and source loops
        labelled X where labels has a bit; a set output bit is an X label or a dot."""
        terms = {0: 1}
        for disks, genus, src, out in self.components:
            alpha, beta = _decoration((dots & disks).bit_count(), genus)
            own = labels & src
            # summed over the source loops' disk labels mu, each weighted by epsilon(mu lambda)
            other = 0 if own else alpha
            all_x = other + (beta - alpha) * (-1 if own.bit_count() & 1 else 1)
            if not other:
                if not all_x:
                    return {}
                terms = {bits | out: c * all_x for bits, c in terms.items()}
                continue
            new = {}
            sub = out
            while True:
                value = all_x if sub == out else other
                if value:
                    for bits, c in terms.items():
                        new[bits | sub] = c * value
                if not sub:
                    break
                sub = (sub - 1) & out
            terms = new
        return terms


class _Tangle:
    """The delooped complex of the tangle built so far.

    Objects are integer ids with a matching, a weight and a quantum degree;
    out[x][y] is the morphism x -> y and inc[y] records the sources of y, in
    insertion order, so every pass is deterministic.
    """

    def __init__(self, crossings: int):
        self.crossings = crossings
        self.boundary: tuple[int, ...] = ()
        self.match: dict[int, Matching] = {0: ()}
        self.weight: dict[int, int] = {0: 0}
        self.q: dict[int, int] = {0: 0}
        self.out: dict[int, dict[int, Morphism]] = {0: {}}
        self.inc: dict[int, dict[int, None]] = {0: {}}
        self.circles = _Circles()

    def sizes(self) -> dict[str, int]:
        return {"crossings": self.crossings, "boundary": len(self.boundary), "rank": len(self.out)}

    # -- adding a crossing ---------------------------------------------------

    def add_crossing(self, cross: tuple[int, int, int, int]) -> None:
        """Tensor with [R0 -> R1] along the shared arcs, then deloop."""
        step = _CrossingStep(self, cross)

        match, weight, q, out, inc = {}, {}, {}, {}, {}
        first: dict[tuple[int, int], int] = {}
        for x in self.out:
            for eps in (0, 1):
                m, loops = step.resolve(self.match[x], eps)
                first[(x, eps)] = len(match)
                qx = self.q[x] + eps + len(loops)
                for labels in range(1 << len(loops)):
                    y = len(match)
                    match[y], weight[y], q[y] = m, self.weight[x] + eps, qx - 2 * labels.bit_count()
                    out[y], inc[y] = {}, {}

        def emit(src: int, tgt_first: int, nc: int, terms, scale: int) -> None:
            row = out[src]
            low = (1 << nc) - 1
            for bits, c in terms:
                tgt = tgt_first + (bits >> nc)
                morph = row.get(tgt)
                if morph is None:
                    morph = row[tgt] = {}
                    inc[tgt][src] = None
                mask = bits & low
                v = morph.get(mask, 0) + scale * c
                if v:
                    morph[mask] = v
                else:
                    del morph[mask]

        for x, row in self.out.items():
            mx = self.match[x]
            for y, f in row.items():
                my = self.match[y]
                for eps in (0, 1):
                    src, tgt = first[(x, eps)], first[(y, eps)]
                    gluing, nc = step.plan(mx, eps, my, eps)
                    for mask, c in f.items():
                        for labels, terms in enumerate(gluing[mask]):
                            emit(src + labels, tgt, nc, terms, c)
            gluing, nc = step.plan(mx, 0, mx, 1)
            sign = -1 if self.weight[x] & 1 else 1
            src, tgt = first[(x, 0)], first[(x, 1)]
            for labels, terms in enumerate(gluing[0]):
                emit(src + labels, tgt, nc, terms, sign)

        for x, row in out.items():
            for y in [y for y, morph in row.items() if not morph]:
                del row[y], inc[y][x]
        self.boundary, self.circles = step.boundary, step.circles
        self.match, self.weight, self.q, self.out, self.inc = match, weight, q, out, inc

    # -- cancellation --------------------------------------------------------

    def compose(self, plans: dict, m1: Matching, m2: Matching, m3: Matching, f: Morphism, g: Morphism) -> Morphism:
        """g o f, for f: m1 -> m2 and g: m2 -> m3, with the gluing memoized in plans."""
        key = (m1, m2, m3)
        plan = plans.get(key)
        if plan is None:
            c12, least12 = self.circles[m1, m2]
            c23, least23 = self.circles[m2, m3]
            k12 = len(least12)
            seams = [(c12[a], k12 + c23[a]) for a, _ in m2]
            circles = [c12[a] for a in self.circles[m1, m3][1]]
            plan = plans[key] = (_Gluing(k12 + len(least23), seams, circles, 0, self.sizes()), k12)
        gluing, shift = plan
        acc: Morphism = {}
        for mf, cf in f.items():
            for mg, cg in g.items():
                for mask, c in gluing[mf | mg << shift][0]:
                    acc[mask] = acc.get(mask, 0) + cf * cg * c
        return {mask: c for mask, c in acc.items() if c}

    def cancel_units(self) -> None:
        """Cancel every entry c * id with c = +-1 between equal matchings at equal q."""
        out, inc, match, q = self.out, self.inc, self.match, self.q
        plans: dict[tuple[Matching, Matching, Matching], tuple[_Gluing, int]] = {}
        pending = deque(out)
        while pending:
            x = pending.popleft()
            row = out.get(x)
            if row is None:
                continue
            for y, morph in row.items():
                if q[y] == q[x] and match[y] == match[x] and len(morph) == 1 and morph.get(0) in (1, -1):
                    break
            else:
                continue
            unit = morph[0]
            mx = match[x]
            col = [(z, f) for z, f in row.items() if z != y]
            for a in inc[y]:
                if a == x:
                    continue
                arow = out[a]
                g = arow[y]
                ma = match[a]
                for z, f in col:
                    morph = arow.get(z)
                    if morph is None:
                        morph = arow[z] = {}
                        inc[z][a] = None
                    for mask, c in self.compose(plans, ma, mx, match[z], g, f).items():
                        v = morph.get(mask, 0) - unit * c
                        if v:
                            morph[mask] = v
                        else:
                            del morph[mask]
                    if not morph:
                        del arow[z], inc[z][a]
                pending.append(a)
            for gid in (x, y):
                for z in out.pop(gid):
                    del inc[z][gid]
                for a in inc.pop(gid):
                    del out[a][gid]
                del match[gid], self.weight[gid], q[gid]

    # -- closing up ----------------------------------------------------------

    def close(self, cut: Matching, n_plus: int, n_minus: int) -> GradedComplex:
        """The complex of the closed knot: every object is the cut arc."""
        if self.boundary != cut[0]:
            raise InternalInvariantError(
                LAYER, f"final boundary {list(self.boundary)} is not the cut arc {list(cut[0])}", **self.sizes()
            )
        ids = {x: str(i) for i, x in enumerate(self.out)}
        gens = [Generator(ids[x], self.weight[x] - n_minus, self.q[x] + n_plus - 2 * n_minus) for x in self.out]
        entries = {}
        for x, row in self.out.items():
            for y, morph in row.items():
                # dot = X acts as -G on the basepoint module X * A
                dq = self.q[y] - self.q[x]
                if dq < 0 or dq & 1 or (morph.get(1) and dq < 2):
                    raise InternalInvariantError(
                        LAYER, f"entry {x}->{y} = {morph} implies a negative G-power", **self.sizes()
                    )
                scalar = morph.get(0, 0) - morph.get(1, 0)
                if scalar:
                    entries[(ids[x], ids[y])] = scalar
        return GradedComplex(gens, entries)


class _CrossingStep:
    """One crossing added to one tangle: the new boundary, its circles, and the resolutions and gluings."""

    def __init__(self, tangle: _Tangle, cross: tuple[int, int, int, int]):
        self.tangle = tangle
        self.cross = cross
        self.slots_of: dict[int, list[int]] = {}
        for slot, arc in enumerate(cross):
            self.slots_of.setdefault(arc, []).append(slot)
        # an arc met once joins the boundary, or leaves it when it was there;
        # a kink's arc, met twice, stays inside the crossing
        ends = set(tangle.boundary)
        for arc, slots in self.slots_of.items():
            if len(slots) == 1:
                ends ^= {arc}
        self.boundary = tuple(sorted(ends))
        self.ends = ends
        self._resolved: dict[tuple[Matching, int], tuple[Matching, list[list[int]]]] = {}
        self._plans: dict[tuple, tuple[_Gluing, int]] = {}
        self.circles = _Circles()

    def resolve(self, m: Matching, eps: int) -> tuple[Matching, list[list[int]]]:
        """The matching of the new boundary and the closed loops (each sorted,
        loops ordered by least label) of m joined with resolution eps."""
        key = (m, eps)
        hit = self._resolved.get(key)
        if hit is not None:
            return hit
        parent: dict[int, int] = {}

        def find(a: int) -> int:
            parent.setdefault(a, a)
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        cross = self.cross
        for a, b in list(m) + [(cross[i], cross[j]) for i, j in RESOLUTIONS[eps]]:
            parent[find(a)] = find(b)
        groups: dict[int, list[int]] = {}
        for a in sorted(parent):
            groups.setdefault(find(a), []).append(a)
        pairs, loops = [], []
        for labels in groups.values():
            tips = tuple(a for a in labels if a in self.ends)
            if tips:
                pairs.append(tips)
            else:
                loops.append(labels)
        hit = self._resolved[key] = (tuple(sorted(pairs)), loops)
        return hit

    def plan(self, m1: Matching, eps1: int, m2: Matching, eps2: int) -> tuple[_Gluing, int]:
        """The gluing of f: m1 -> m2 with the identity of resolution eps1 (when
        eps1 == eps2) or with the saddle (eps1, eps2) = (0, 1), and nc, the count
        of output circles before the target loops: a term is (labels << nc | mask, c)."""
        key = (m1, eps1, m2, eps2)
        hit = self._plans.get(key)
        if hit is not None:
            return hit
        slots_of = self.slots_of
        circ, least = self.tangle.circles[m1, m2]
        k = len(least)
        if eps1 == eps2:
            slot_disk = [0] * 4
            for p, (i, j) in enumerate(RESOLUTIONS[eps1]):
                slot_disk[i] = slot_disk[j] = k + p
            ndisks = k + 2
        else:
            slot_disk = [k] * 4
            ndisks = k + 1
        seams = []
        for arc, slots in slots_of.items():
            if len(slots) == 2:
                seams.append((slot_disk[slots[0]], slot_disk[slots[1]]))
            elif arc in circ:
                seams.append((circ[arc], slot_disk[slots[0]]))

        def disk(label: int) -> int:
            return circ[label] if label in circ else slot_disk[slots_of[label][0]]

        new1, src_loops = self.resolve(m1, eps1)
        new2, tgt_loops = self.resolve(m2, eps2)
        new_least = self.circles[new1, new2][1]
        circles = [disk(loop[0]) for loop in src_loops]
        circles += [disk(a) for a in new_least]
        circles += [disk(loop[0]) for loop in tgt_loops]
        gluing = _Gluing(ndisks, seams, circles, len(src_loops), self.tangle.sizes())
        hit = self._plans[key] = (gluing, len(new_least))
        return hit
