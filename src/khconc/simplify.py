"""Chain-complex reduction over Z[G] and graded normal forms over F[G].

Three layers of simplification, in increasing strength:

  * cancel_pivot / reduce: Gaussian cancellation of +-1 entries.  This is a
    homotopy equivalence and the only simplification performed over Z[G].
  * split_summands: connected components of the generator graph, preceded
    by a deterministic divisibility-driven change of basis that zeroes
    entries when a parallel entry divides them.  Basis changes are
    isomorphisms, so the direct sum of the parts is isomorphic to the input.
  * field_normal_form: over a field F the complex tensored with F[G]
    decomposes into a single free rank-one summand, two-generator pieces
    F[G] --G^c--> F[G] with c > 0, and an acyclic remainder.  Computed by
    graded elimination on the entry of globally minimal G-power, which
    divides its whole row and column.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ComplexBuilder, GElem, Generator, GradedComplex


class NotKnotLikeError(ValueError):
    """Raised when an operation requires a knot-like complex and the input is not."""


def cancel_pivot(complex: GradedComplex, entry: tuple[str, str]) -> GradedComplex:
    """Cancel the generator pair joined by a +-1*G^0 entry.

    The surviving differential picks up the correction E - D*u^(-1)*C, which
    preserves the homotopy type and drops the total rank by two.
    """
    src, tgt = entry
    if src not in complex or tgt not in complex:
        raise KeyError(f"no such entry {src!r}->{tgt!r}")
    val = complex.entry(src, tgt)
    if val.is_zero():
        raise KeyError(f"no such entry {src!r}->{tgt!r}")
    if not val.is_unit():
        raise ValueError(f"pivot {src!r}->{tgt!r} = {val!r} is not a unit of Z[G]")
    b = complex.builder()
    _cancel(b, src, tgt, val.scalar)
    return b.freeze()


def _cancel(b: ComplexBuilder, src: str, tgt: str, unit: int) -> None:
    row = [(a, v) for a, v in b.inc[tgt].items() if a != src]
    col = [(z, v) for z, v in b.out[src].items() if z != tgt]
    for a, ca in row:
        for z, dz in col:
            b.add_entry(a, z, GElem(-unit * ca.scalar * dz.scalar, ca.gpow + dz.gpow))
    b.remove_gen(src)
    b.remove_gen(tgt)


def reduce(complex: GradedComplex) -> GradedComplex:
    """Cancel unit pivots until none remain."""
    b = complex.builder()
    _cancel_units(b)
    return b.freeze()


def _cancel_units(b: ComplexBuilder) -> None:
    """Cancel unit entries in place until none remain.

    Pivots are processed lowest homological degree first, then by source and
    target id, so the output representative is reproducible byte for byte.
    """
    heap = [
        (b.gens[src].tdeg, src, tgt)
        for src, row in b.out.items()
        for tgt, v in row.items()
        if v.is_unit()
    ]
    heapq.heapify(heap)
    while heap:
        _, src, tgt = heapq.heappop(heap)
        if src not in b.gens or tgt not in b.gens:
            continue
        val = b.entry(src, tgt)
        if not val.is_unit():
            continue
        touched_rows = [a for a in b.inc[tgt] if a != src]
        _cancel(b, src, tgt, val.scalar)
        for a in touched_rows:
            ta = b.gens[a].tdeg
            for z, v in b.out[a].items():
                if v.is_unit():
                    heapq.heappush(heap, (ta, a, z))


# ---------------------------------------------------------------------------
# summand splitting


def _divides(p: GElem, q: GElem) -> bool:
    return p.gpow <= q.gpow and q.scalar % p.scalar == 0


def _monomial_quot(q: GElem, p: GElem) -> GElem:
    return GElem(q.scalar // p.scalar, q.gpow - p.gpow)


def _potential(b: ComplexBuilder) -> tuple[int, int]:
    count = 0
    gsum = 0
    for row in b.out.values():
        count += len(row)
        gsum += sum(v.gpow for v in row.values())
    return count, gsum


def _apply_row_move(b: ComplexBuilder, x: str, y: str, y2: str) -> None:
    # pivot x->y clears x->y2; basis change y := y + (q/p) * y2
    f = _monomial_quot(b.entry(x, y2), b.entry(x, y))
    for u, g in list(b.inc[y].items()):
        if u != x:
            b.add_entry(u, y2, GElem(-f.scalar * g.scalar, f.gpow + g.gpow))
    for z, g in list(b.out[y2].items()):
        b.add_entry(y, z, GElem(f.scalar * g.scalar, f.gpow + g.gpow))
    b.set_entry(x, y2, GElem(0))


def _apply_col_move(b: ComplexBuilder, x: str, y: str, x2: str) -> None:
    # pivot x->y clears x2->y; basis change x2 := x2 - (q/p) * x
    f = _monomial_quot(b.entry(x2, y), b.entry(x, y))
    for z, g in list(b.out[x].items()):
        if z != y:
            b.add_entry(x2, z, GElem(-f.scalar * g.scalar, f.gpow + g.gpow))
    for u, g in list(b.inc[x2].items()):
        b.add_entry(u, x, GElem(f.scalar * g.scalar, f.gpow + g.gpow))
    b.set_entry(x2, y, GElem(0))


def _sparsify(b: ComplexBuilder) -> None:
    """Greedy divisibility elimination under a strictly decreasing potential.

    A move replaces one basis vector by itself plus a monomial multiple of a
    parallel one, which zeroes the cleared entry.  Moves are attempted in a
    fixed order and committed only if (entry count, total G-power) drops
    lexicographically, so the loop terminates and is deterministic.
    """
    while True:
        pot = _potential(b)
        candidates: list[tuple[str, str, str, str]] = []
        for x in sorted(b.gens, key=lambda g: (b.gens[g].tdeg, g)):
            row = b.out[x]
            if len(row) >= 2:
                keys = sorted(row)
                for y in keys:
                    for y2 in keys:
                        if y != y2 and _divides(row[y], row[y2]):
                            candidates.append(("row", x, y, y2))
            col = b.inc[x]
            if len(col) >= 2:
                keys = sorted(col)
                for s in keys:
                    for s2 in keys:
                        if s != s2 and _divides(col[s], col[s2]):
                            candidates.append(("col", s, x, s2))
        committed = False
        for kind, a1, a2, a3 in candidates:
            if kind == "row":
                p, q = b.entry(a1, a2), b.entry(a1, a3)
            else:
                p, q = b.entry(a1, a2), b.entry(a3, a2)
            if p.is_zero() or q.is_zero() or not _divides(p, q):
                continue
            trial = _snapshot(b)
            if kind == "row":
                _apply_row_move(b, a1, a2, a3)
            else:
                _apply_col_move(b, a1, a2, a3)
            if _potential(b) < pot:
                committed = True
                break
            _restore(b, trial)
        if not committed:
            return


def _snapshot(b: ComplexBuilder):
    return (
        {s: dict(row) for s, row in b.out.items()},
        {t: dict(col) for t, col in b.inc.items()},
    )


def _restore(b: ComplexBuilder, snap) -> None:
    out, inc = snap
    b.out = {s: dict(row) for s, row in out.items()}
    b.inc = {t: dict(col) for t, col in inc.items()}


def split_summands(complex: GradedComplex) -> list[GradedComplex]:
    """Direct summands visible as connected components.

    A divisibility-driven basis change runs first so that products which are
    isomorphic to a direct sum actually fall apart; the direct sum of the
    returned complexes is isomorphic to the input.
    """
    if complex.total_rank == 0:
        return []
    b = complex.builder()
    _sparsify(b)
    parent = {gid: gid for gid in b.gens}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, c: str) -> None:
        ra, rc = find(a), find(c)
        if ra != rc:
            parent[rc] = ra

    for src, row in b.out.items():
        for tgt in row:
            union(src, tgt)
    comps: dict[str, list[str]] = {}
    for gid in b.gens:
        comps.setdefault(find(gid), []).append(gid)
    parts = []
    for members in comps.values():
        mset = set(members)
        gens = [b.gens[g] for g in b.gens if g in mset]
        entries = {
            (s, t): v for s in members for t, v in b.out[s].items() if t in mset
        }
        parts.append(GradedComplex(gens, entries))
    parts.sort(key=lambda c: min((g.tdeg, g.qdeg, g.id) for g in c.generators))
    return parts


# ---------------------------------------------------------------------------
# normal form over F[G]


@dataclass(frozen=True)
class NormalForm:
    """Decomposition data over F[G]: the rank-one summand degree s and the
    (a_i, b_i, c_i) data of the two-generator pieces t^a q^b -> t^(a+1) q^(b+2c).

    s is None only for the empty complex, which has no distinguished summand.
    """

    s: int | None
    pieces: tuple[tuple[int, int, int], ...]


class FieldComplex:
    """A graded complex over F[G] for F the minimal field of a characteristic.

    Scalars are Fractions when characteristic is 0 and canonical residues
    0..p-1 when it is a prime p.
    """

    __slots__ = ("characteristic", "generators", "entries")

    def __init__(self, characteristic: int, generators, entries):
        self.characteristic = characteristic
        self.generators = tuple(generators)
        self.entries = dict(entries)

    def __eq__(self, other):
        return (
            isinstance(other, FieldComplex)
            and self.characteristic == other.characteristic
            and self.generators == other.generators
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"FieldComplex(char={self.characteristic}, rank={len(self.generators)}, "
            f"entries={len(self.entries)})"
        )


def check_characteristic(characteristic: int) -> None:
    if characteristic == 0:
        return
    if characteristic < 2 or any(characteristic % d == 0 for d in range(2, int(characteristic**0.5) + 1)):
        raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")


def field_normal_form(
    complex: GradedComplex, characteristic: int
) -> tuple[FieldComplex, NormalForm]:
    """Graded elimination of C (x) F[G] down to its decomposition.

    Repeatedly pick the nonzero entry of globally minimal G-power (ties by
    homological degree, then ids); it divides every entry in its row and
    column, so both can be cleared by homogeneous basis changes.  d^2 = 0
    then forces the split pair off the rest of the complex.  Untouched
    generators are the free rank-one summands; exactly one must remain, in
    homological degree 0, and its quantum degree is s.
    """
    check_characteristic(characteristic)
    p = characteristic

    def reduce_scalar(n: int):
        return Fraction(n) if p == 0 else n % p

    gens = {g.id: g for g in complex.generators}
    out: dict[str, dict[str, tuple]] = {gid: {} for gid in gens}
    inc: dict[str, dict[str, tuple]] = {gid: {} for gid in gens}
    for src, tgt, val in complex.iter_entries():
        scal = reduce_scalar(val.scalar)
        if scal:
            out[src][tgt] = (scal, val.gpow)
            inc[tgt][src] = (scal, val.gpow)

    def set_entry(src, tgt, scal, gpow):
        if scal:
            out[src][tgt] = (scal, gpow)
            inc[tgt][src] = (scal, gpow)
        else:
            out[src].pop(tgt, None)
            inc[tgt].pop(src, None)

    def inv(x):
        return 1 / x if p == 0 else pow(x, -1, p)

    pieces: list[tuple[int, int, int]] = []
    while True:
        best = None
        for src, row in out.items():
            for tgt, (scal, gpow) in row.items():
                key = (gpow, gens[src].tdeg, src, tgt)
                if best is None or key < best[0]:
                    best = (key, src, tgt)
        if best is None:
            break
        _, v, w = best
        lam, c = out[v][w]
        lam_inv = inv(lam)
        # clear every other entry into w (basis change on sources)
        for a in sorted(inc[w]):
            if a == v:
                continue
            mu, e = inc[w][a]
            fs = mu * lam_inv if p == 0 else (mu * lam_inv) % p
            fg = e - c
            # a := a - f*v kills a->w; updates d(a) and the entries into v
            for bgen, (s2, g2) in list(out[v].items()):
                if bgen == w:
                    continue
                old_s, old_g = out[a].get(bgen, (reduce_scalar(0), fg + g2))
                new_s = old_s - fs * s2 if p == 0 else (old_s - fs * s2) % p
                set_entry(a, bgen, new_s, fg + g2 if new_s else old_g)
            for u, (s2, g2) in list(inc[a].items()):
                old_s, old_g = out[u].get(v, (reduce_scalar(0), g2 + fg))
                new_s = old_s + fs * s2 if p == 0 else (old_s + fs * s2) % p
                set_entry(u, v, new_s, g2 + fg if new_s else old_g)
            set_entry(a, w, reduce_scalar(0), 0)
        # clear every other entry out of v (basis change on targets)
        for bgen in sorted(out[v]):
            if bgen == w:
                continue
            nu, e = out[v][bgen]
            fs = nu * lam_inv if p == 0 else (nu * lam_inv) % p
            fg = e - c
            # w := w + f*b absorbs v->b; updates d(w)
            for z, (s2, g2) in list(out[bgen].items()):
                old_s, old_g = out[w].get(z, (reduce_scalar(0), fg + g2))
                new_s = old_s + fs * s2 if p == 0 else (old_s + fs * s2) % p
                set_entry(w, z, new_s, fg + g2 if new_s else old_g)
            set_entry(v, bgen, reduce_scalar(0), 0)
        if inc[v] or out[w]:
            raise AssertionError("graded elimination left a non-split pair")
        if c > 0:
            pieces.append((gens[v].tdeg, gens[v].qdeg, c))
        for gid in (v, w):
            del out[gid], inc[gid], gens[gid]

    free = sorted(gens.values(), key=lambda g: (g.tdeg, g.qdeg, g.id))
    if not free and not pieces and complex.total_rank == 0:
        return FieldComplex(characteristic, [], {}), NormalForm(s=None, pieces=())
    if len(free) != 1 or free[0].tdeg != 0:
        raise NotKnotLikeError(
            f"input not knot-like over characteristic {characteristic}: "
            f"{len(free)} free summands at degrees {[(g.tdeg, g.qdeg) for g in free]}"
        )
    s = free[0].qdeg
    pieces.sort()
    nf = NormalForm(s=s, pieces=tuple(pieces))

    one = reduce_scalar(1)
    new_gens = [Generator("s", 0, s)]
    new_entries = {}
    for i, (a, bq, c) in enumerate(pieces):
        gs, gt = Generator(f"p{i}a", a, bq), Generator(f"p{i}b", a + 1, bq + 2 * c)
        new_gens += [gs, gt]
        new_entries[(gs.id, gt.id)] = (one, c)
    return FieldComplex(characteristic, new_gens, new_entries), nf
