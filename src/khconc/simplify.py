"""Chain-complex reduction over Z[G] and graded normal forms over F[G].

Three layers of simplification, in increasing strength:

  * cancel_pivot / reduce: Gaussian cancellation of +-1 entries.  This is a
    homotopy equivalence and the only simplification performed over Z[G].
    It runs on a private store of plain int scalars: the G-power of an entry
    is implied by the degrees, so the input's stored G-powers are checked
    once on loading and GElems are made again only for the result.
  * split_summands: connected components of the generator graph, preceded
    by a deterministic divisibility-driven change of basis that zeroes
    entries when a parallel entry divides them.  Basis changes are
    isomorphisms, so the direct sum of the parts is isomorphic to the input.
    It runs on the same int-scalar store, so its input needs homogeneous
    entries, and a rejected trial move is undone by its inverse move.
  * field_normal_form: over a field F the complex tensored with F[G]
    decomposes into a single free rank-one summand, two-generator pieces
    F[G] --G^c--> F[G] with c > 0, and an acyclic remainder.  Computed by
    Gaussian elimination on the entry of least G-power, which divides its
    whole row and column, taken from a heap of pivot keys; G-powers are
    read off the quantum degrees, so the input must pass validate, and only
    field scalars are stored.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .complexes import GElem, Generator, GradedComplex, _require_valid


class NotKnotLikeError(ValueError):
    """Raised when an operation requires a knot-like complex and the input is not."""


class _Store:
    """The mutable complex behind unit cancellation and summand splitting.

    Generators map to their (t, q) degrees and entries to plain int scalars:
    homogeneity fixes the G-power of an entry x -> y as (q_y - q_x)/2, so a
    unit is a +-1 entry with q_y = q_x, and GElems are made only in freeze.
    queue holds the (t_src, src, tgt) keys of unit entries; a key whose
    entry has since changed or gone is skipped when popped.
    """

    __slots__ = ("deg", "out", "inc", "queue")

    def __init__(self):
        self.deg: dict[str, tuple[int, int]] = {}
        self.out: dict[str, dict[str, int]] = {}
        self.inc: dict[str, dict[str, int]] = {}
        self.queue: list[tuple[int, str, str]] = []

    @classmethod
    def load(cls, complex: GradedComplex, layer: str) -> "_Store":
        """The complex as scalars; an entry whose G-power its degrees do not
        force raises ValueError naming the layer."""
        store = cls()
        deg, out, inc, queue = store.deg, store.out, store.inc, store.queue
        for g in complex.generators:
            deg[g.id] = (g.tdeg, g.qdeg)
            out[g.id] = {}
            inc[g.id] = {}
        for src, tgt, val in complex.iter_entries():
            ts, qs = deg[src]
            qt = deg[tgt][1]
            if 2 * val.gpow != qt - qs:
                raise ValueError(
                    f"{layer}: entry {src}->{tgt} = {val!r} is inhomogeneous: "
                    f"qdeg {qs} -> {qt} forces G-power ({qt} - {qs})/2"
                )
            out[src][tgt] = inc[tgt][src] = val.scalar
            if qt == qs and val.scalar in (1, -1):
                queue.append((ts, src, tgt))
        return store

    def cancel(self, src: str, tgt: str, unit: int) -> None:
        """Cancel the unit entry src -> tgt by the elimination lemma.

        Every d(a, z) with a -> tgt and src -> z becomes
        d(a, z) - d(a, tgt) * unit^-1 * d(src, z), then src and tgt go.
        Entries that become units are queued.
        """
        deg, out, inc, queue = self.deg, self.out, self.inc, self.queue
        col = [(z, -unit * x) for z, x in out[src].items() if z != tgt]
        for a, y in inc[tgt].items():
            if a == src:
                continue
            row = out[a]
            ta, qa = deg[a]
            for z, x in col:
                v = row.get(z, 0) + y * x
                if v:
                    row[z] = inc[z][a] = v
                    if (v == 1 or v == -1) and deg[z][1] == qa:
                        heapq.heappush(queue, (ta, a, z))
                else:
                    del row[z], inc[z][a]
        for gid in (src, tgt):
            for z in out.pop(gid):
                del inc[z][gid]
            for a in inc.pop(gid):
                del out[a][gid]
            del deg[gid]

    def cancel_units(self) -> None:
        """Cancel unit entries until none remain.

        Pivots are taken lowest homological degree first, then by source and
        target id, so the output representative is reproducible byte for
        byte.  The queue holds a key for every unit entry, so the least
        valid key popped is the least unit entry present.
        """
        queue, out = self.queue, self.out
        heapq.heapify(queue)
        while queue:
            _, src, tgt = heapq.heappop(queue)
            row = out.get(src)
            val = row.get(tgt) if row is not None else None
            if val == 1 or val == -1:
                self.cancel(src, tgt, val)

    def freeze(self) -> GradedComplex:
        deg = self.deg
        memo: dict[tuple[int, int], GElem] = {}
        entries = {}
        for src, row in self.out.items():
            qs = deg[src][1]
            for tgt, v in row.items():
                key = (v, (deg[tgt][1] - qs) // 2)
                val = memo.get(key)
                if val is None:
                    val = memo[key] = GElem(*key)
                entries[(src, tgt)] = val
        return GradedComplex([Generator(gid, t, q) for gid, (t, q) in deg.items()], entries)


def cancel_pivot(complex: GradedComplex, entry: tuple[str, str]) -> GradedComplex:
    """Cancel the generator pair joined by a +-1*G^0 entry.

    The surviving differential picks up the correction E - D*u^(-1)*C, which
    preserves the homotopy type and drops the total rank by two.  An entry
    whose G-power its degrees do not force raises ValueError.
    """
    src, tgt = entry
    store = _Store.load(complex, "cancel_pivot")
    val = store.out.get(src, {}).get(tgt)
    if val is None:
        raise KeyError(f"no such entry {src!r}->{tgt!r}")
    if val not in (1, -1) or store.deg[src][1] != store.deg[tgt][1]:
        raise ValueError(f"pivot {src!r}->{tgt!r} = {complex.entry(src, tgt)!r} is not a unit of Z[G]")
    store.cancel(src, tgt, val)
    return store.freeze()


def reduce(complex: GradedComplex) -> GradedComplex:
    """Cancel unit pivots until none remain.

    An entry whose G-power its degrees do not force raises ValueError.
    """
    store = _Store.load(complex, "reduce")
    store.cancel_units()
    return store.freeze()


# ---------------------------------------------------------------------------
# summand splitting


def _clear(out, inc, deg, y: str, y2: str, f: int) -> tuple[int, int]:
    """Subtract f times column y from column y2 and add f times row y2 to row y.

    This conjugates the differential by an elementary matrix: the change of
    basis y := y + f*y2.  Called again with -f it is undone exactly.  With
    out and inc swapped it acts on the transpose, as y2 := y2 - f*y.
    Returns the change in (entry count, total G-power), which only column
    y2 and row y see.  An entry's G-power is counted as the absolute
    difference of its ends' qdegs, twice the G-power (never negative),
    whichever of out and inc is passed first.
    """
    count = power = 0
    for a, v in list(inc[y].items()):
        d = _add(out, inc, a, y2, -f * v)
        count += d
        power += d * abs(deg[y2][1] - deg[a][1])
    for z, v in list(out[y2].items()):
        d = _add(out, inc, y, z, f * v)
        count += d
        power += d * abs(deg[z][1] - deg[y][1])
    return count, power


def _add(out, inc, a: str, z: str, v: int) -> int:
    """Add v to the entry a -> z; returns the change in entry count."""
    old = out[a].get(z, 0)
    v += old
    if v:
        out[a][z] = inc[z][a] = v
        return 0 if old else 1
    del out[a][z], inc[z][a]
    return -1


def _sparsify(store: _Store) -> None:
    """Greedy divisibility elimination under a strictly decreasing potential.

    An entry p of a row (or column) divides a parallel entry q when p | q
    as integers and p's G-power, read off the degrees, is at most q's;
    _clear with f = q/p then zeroes q.  Moves are tried in a fixed order
    (generators by (tdeg, id), each one's row, then its column, in sorted
    keys) and the first that makes (entry count, total G-power) drop
    lexicographically is kept; the others are undone.  The potential
    strictly drops, so the loop terminates, and it is deterministic.
    """
    deg, out, inc = store.deg, store.out, store.inc
    while True:
        moves = []
        for x in sorted(deg, key=lambda g: (deg[g][0], g)):
            qx = deg[x][1]
            for o, i in ((out, inc), (inc, out)):
                row = o[x]
                keys = sorted(row)
                for y in keys:
                    for y2 in keys:
                        p, q = row[y], row[y2]
                        if y != y2 and q % p == 0 and abs(deg[y][1] - qx) <= abs(deg[y2][1] - qx):
                            moves.append((o, i, y, y2, q // p))
        for o, i, y, y2, f in moves:
            if _clear(o, i, deg, y, y2, f) < (0, 0):
                break
            _clear(o, i, deg, y, y2, -f)
        else:
            return


def split_summands(complex: GradedComplex) -> list[GradedComplex]:
    """Direct summands visible as connected components.

    A divisibility-driven basis change runs first so that products which are
    isomorphic to a direct sum actually fall apart; the direct sum of the
    returned complexes is isomorphic to the input.  The basis change runs on
    int scalars with G-powers read off the degrees, so an entry whose
    G-power its degrees do not force raises ValueError.
    """
    store = _Store.load(complex, "split_summands")
    _sparsify(store)
    frozen = store.freeze()
    parent = {gid: gid for gid in store.deg}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for src, row in store.out.items():
        for tgt in row:
            parent[find(tgt)] = find(src)
    comps: dict[str, list[Generator]] = {}
    for g in frozen.generators:
        comps.setdefault(find(g.id), []).append(g)
    parts = [
        GradedComplex(gens, {(g.id, t): v for g in gens for t, v in frozen.out_of(g.id).items()})
        for gens in comps.values()
    ]
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
    (ties by homological degree, then ids; the keys depend only on degrees
    and ids, so a heap with every entry's key, pushed as elimination creates
    entries, yields them in order); it divides every entry in its row
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

    # pivot keys of every entry present; keys of eliminated entries are skipped
    heap = [(q[w] - q[v], t[v], v, w) for v, row in out.items() for w in row]
    heapq.heapify(heap)
    pieces: list[tuple[int, int, int]] = []
    while heap:
        dq, _, v, w = heapq.heappop(heap)
        if w not in out.get(v, ()):
            continue
        lam_inv = inverse(out[v][w])
        col = [(b, x * lam_inv) for b, x in out[v].items() if b != w]
        for a, y in inc[w].items():
            if a == v:
                continue
            row = out[a]
            for b, x in col:
                z = scalar(row.get(b, 0) - y * x)
                if z:
                    if b not in row:
                        heapq.heappush(heap, (q[b] - q[a], t[a], a, b))
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
