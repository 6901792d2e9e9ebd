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
    Gaussian elimination on the entry of least G-power, which divides its
    whole row and column; G-powers are read off the quantum degrees, so the
    input must pass validate, and only field scalars are stored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ComplexBuilder, GElem, Generator, GradedComplex, _require_valid


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


def check_characteristic(characteristic: int) -> None:
    if characteristic == 0:
        return
    if characteristic < 2 or any(characteristic % d == 0 for d in range(2, int(characteristic**0.5) + 1)):
        raise ValueError(f"characteristic must be 0 or a prime, got {characteristic}")


def field_normal_form(
    complex: GradedComplex, characteristic: int
) -> tuple[GradedComplex, NormalForm]:
    """Gaussian elimination of C (x) F[G] down to its decomposition.

    The complex must pass validate: G-powers are read off the degrees, an
    entry v -> w being lambda*G^c with c = (q_w - q_v)/2, so only the field
    scalars lambda are stored.  Repeatedly pick the entry of least G-power
    (ties by homological degree, then ids); it divides every entry in its row
    and column, so the elimination lemma removes v and w and subtracts
    d(a,w) d(v,w)^-1 d(v,b) from every d(a,b).  A pair with c > 0 is a piece
    F[G] --G^c--> F[G].  Exactly one generator must survive, in homological
    degree 0, and its quantum degree is s.

    Returns the normal form as a complex over Z[G] (generator "s" and pieces
    "p<i>a" -> "p<i>b" of value G^c) together with its NormalForm data.
    """
    check_characteristic(characteristic)
    _require_valid(complex, "field_normal_form")
    p = characteristic
    if p == 0:
        scalar, inverse = Fraction, (lambda x: 1 / x)
    else:
        scalar, inverse = (lambda n: n % p), (lambda x: pow(x, -1, p))

    t = {g.id: g.tdeg for g in complex.generators}
    q = {g.id: g.qdeg for g in complex.generators}
    out: dict[str, dict[str, int | Fraction]] = {gid: {} for gid in t}
    inc: dict[str, dict[str, int | Fraction]] = {gid: {} for gid in t}
    for src, tgt, val in complex.iter_entries():
        x = scalar(val.scalar)
        if x:
            out[src][tgt] = inc[tgt][src] = x

    pieces: list[tuple[int, int, int]] = []
    while True:
        pivot = None
        for v, row in out.items():
            qv, tv = q[v], t[v]
            for w in row:
                key = (q[w] - qv, tv, v, w)
                if pivot is None or key < pivot:
                    pivot = key
        if pivot is None:
            break
        dq, _, v, w = pivot
        lam_inv = inverse(out[v][w])
        col = [(b, x * lam_inv) for b, x in out[v].items() if b != w]
        for a, y in inc[w].items():
            if a == v:
                continue
            row = out[a]
            for b, x in col:
                z = scalar(row.get(b, 0) - y * x)
                if z:
                    row[b] = inc[b][a] = z
                else:
                    row.pop(b, None)
                    inc[b].pop(a, None)
        if dq:
            pieces.append((t[v], q[v], dq // 2))
        for gid in (v, w):
            for b in out.pop(gid):
                inc[b].pop(gid, None)
            for a in inc.pop(gid):
                out[a].pop(gid, None)

    free = sorted(out, key=lambda g: (t[g], q[g], g))
    if complex.total_rank == 0:
        return GradedComplex([], {}), NormalForm(s=None, pieces=())
    if len(free) != 1 or t[free[0]] != 0:
        raise NotKnotLikeError(
            f"input not knot-like over characteristic {characteristic}: "
            f"{len(free)} free summands at degrees {[(t[g], q[g]) for g in free]}"
        )
    nf = NormalForm(s=q[free[0]], pieces=tuple(sorted(pieces)))
    new_gens = [Generator("s", 0, nf.s)]
    new_entries = {}
    for i, (a, bq, c) in enumerate(nf.pieces):
        new_gens += [Generator(f"p{i}a", a, bq), Generator(f"p{i}b", a + 1, bq + 2 * c)]
        new_entries[(f"p{i}a", f"p{i}b")] = GElem(1, c)
    return GradedComplex(new_gens, new_entries), nf
