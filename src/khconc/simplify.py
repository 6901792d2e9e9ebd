"""Chain-complex reduction over Z[G] and graded normal forms over F[G].

Three layers of simplification, in increasing strength, all on one private
store of the complex's plain scalars, with G-powers implied by the degrees.

  * cancel_pivot / reduce: Gaussian cancellation of +-1 entries.  This is a
    homotopy equivalence and the only simplification performed over Z[G].
  * split_summands: connected components of the generator graph, preceded
    by a deterministic divisibility-driven change of basis that zeroes
    entries when a parallel entry divides them.  Basis changes are
    isomorphisms, so the direct sum of the parts is isomorphic to the input.
    A rejected trial move is undone by its inverse move.
  * field_normal_form: over a field F the complex tensored with F[G]
    decomposes into a single free rank-one summand, two-generator pieces
    F[G] --G^c--> F[G] with c > 0, and an acyclic remainder.  It cancels
    the units over Z as reduce does; then, on the same store over F, every
    entry is a pivot, and reduce's loop, taking the entry of least G-power
    first, leaves the free summand and reports the pieces.

_eliminate, the sparse integer elimination behind zeq's chain-map lattice
(and so behind the filtration tuple, whose levels are such lattices), takes
Euclid's steps on linear forms toward a Hermite form; a +-1 pivot ends its
equation in one round, as in reduce.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Generator, GradedComplex, _require_valid


class NotKnotLikeError(ValueError):
    """Raised when an operation requires a knot-like complex and the input is not."""


class _Store:
    """The mutable complex behind elimination and summand splitting.

    Generators map to their (t, q) degrees and entries to plain scalars:
    homogeneity fixes the G-power of an entry x -> y as (q_y - q_x)/2.  p
    selects the coefficients: int scalars over Z (None), Fractions over Q
    (0) or residues mod a prime p.  A pivot is an entry the elimination
    lemma may cancel: over Z a +-1 entry with q_y = q_x, over a field any
    entry.  heap holds the (q_y - q_x, t_x, x, y) keys of pivots, pushed
    when an entry becomes one; a key whose entry has since changed or gone
    is skipped when popped.
    """

    __slots__ = ("deg", "out", "inc", "heap", "p")

    def __init__(self):
        self.deg: dict[str, tuple[int, int]] = {}
        self.out: dict[str, dict[str, int | Fraction]] = {}
        self.inc: dict[str, dict[str, int | Fraction]] = {}
        self.heap: list[tuple[int, int, str, str]] = []
        self.p: int | None = None

    @classmethod
    def load(cls, complex: GradedComplex) -> "_Store":
        """The complex's int scalars, each generator's row read once."""
        store = cls()
        deg, out, inc, heap, pivot = store.deg, store.out, store.inc, store.heap, store.pivot
        for g in complex.generators:
            deg[g.id] = (g.tdeg, g.qdeg)
            inc[g.id] = {}
        for src, (ts, qs) in deg.items():
            row = out[src] = dict(complex.out_of(src))
            for tgt, v in row.items():
                inc[tgt][src] = v
                dq = deg[tgt][1] - qs
                if pivot(v, dq):
                    heap.append((dq, ts, src, tgt))
        return store

    def pivot(self, v: int | Fraction, dq: int) -> bool:
        """Whether an entry of scalar v and qdeg change dq is a pivot."""
        return self.p is not None or (dq == 0 and (v == 1 or v == -1))

    def cancel(self, src: str, tgt: str) -> None:
        """Cancel the pivot src -> tgt by the elimination lemma.

        Every d(a, z) with a -> tgt and src -> z becomes
        d(a, z) - d(a, tgt) * d(src, tgt)^-1 * d(src, z), then src and tgt go.
        Keys of entries that become pivots are pushed.
        """
        deg, out, inc, heap, p, pivot = self.deg, self.out, self.inc, self.heap, self.p, self.pivot
        u = out[src][tgt]
        inverse = u if p is None else 1 / u if p == 0 else pow(u, -1, p)
        col = [(z, -inverse * x) for z, x in out[src].items() if z != tgt]
        for a, y in inc[tgt].items():
            if a == src:
                continue
            row = out[a]
            ta, qa = deg[a]
            for z, x in col:
                old = row.get(z, 0)
                v = old + y * x
                if p:
                    v %= p
                if v:
                    row[z] = inc[z][a] = v
                    dq = deg[z][1] - qa
                    if not (old and pivot(old, dq)) and pivot(v, dq):
                        heapq.heappush(heap, (dq, ta, a, z))
                else:
                    del row[z], inc[z][a]
        for gid in (src, tgt):
            for z in out.pop(gid):
                del inc[z][gid]
            for a in inc.pop(gid):
                del out[a][gid]
            del deg[gid]

    def eliminate(self) -> list[tuple[int, int, int]]:
        """Cancel pivots until none remain; returns (t_x, q_x, q_y - q_x) of
        each cancelled pair x -> y in order.

        The least pivot present goes first: least qdeg change (always 0 over
        Z), then lowest homological degree, then ids, so the output is
        reproducible byte for byte.
        """
        heap, out, deg = self.heap, self.out, self.deg
        heapq.heapify(heap)
        cancelled = []
        while heap:
            dq, t, src, tgt = heapq.heappop(heap)
            v = out.get(src, {}).get(tgt)
            if v and self.pivot(v, dq):
                cancelled.append((t, deg[src][1], dq))
                self.cancel(src, tgt)
        return cancelled

    def freeze(self) -> GradedComplex:
        entries = {(src, tgt): v for src, row in self.out.items() for tgt, v in row.items()}
        return GradedComplex([Generator(gid, t, q) for gid, (t, q) in self.deg.items()], entries)


def cancel_pivot(complex: GradedComplex, entry: tuple[str, str]) -> GradedComplex:
    """Cancel the generator pair joined by a +-1*G^0 entry.

    The surviving differential picks up the correction E - D*u^(-1)*C, which
    preserves the homotopy type and drops the total rank by two.
    """
    src, tgt = entry
    store = _Store.load(complex)
    val = store.out.get(src, {}).get(tgt)
    if val is None:
        raise KeyError(f"no such entry {src!r}->{tgt!r}")
    dq = store.deg[tgt][1] - store.deg[src][1]
    if not store.pivot(val, dq):
        raise ValueError(f"pivot {src!r}->{tgt!r} = {val}*G^{dq // 2} is not a unit of Z[G]")
    store.cancel(src, tgt)
    return store.freeze()


def reduce(complex: GradedComplex) -> GradedComplex:
    """Cancel unit pivots until none remain."""
    store = _Store.load(complex)
    store.eliminate()
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


# a linear form in the unknowns: unknown index -> nonzero coefficient
_Form = dict[int, int]


def _eliminate(equations: list[_Form], weight: _Form) -> tuple[list[tuple[int, int, int]], _Form]:
    """Unimodular column operations, on copies, until no equation is left.

    The equations are taken in order.  The pivot of the current one is its
    least |coefficient| a, on unknown u (ties: the unknown in the fewest
    forms, then the lowest).  Every other unknown v, with coefficient b,
    gets column v -= q column u in every form, q = b // a; the step
    (u, v, q) maps values in the new unknowns back by x_u -= q x_v.  Once
    a x_u stands alone, x_u = 0 is forced and u is dropped from every form.
    Each round lowers the least |coefficient| or ends the equation.  The
    weight rides along as the last row and is never a pivot, so its image
    on the kernel does not change.  Returns the steps in order and what is
    left of the weight, over unknowns that are now free.  zeq._lattice
    builds the weight's block only; another block would change nothing.
    """
    out = [dict(form) for form in equations] + [dict(weight)]
    inc: dict[int, dict[int, int]] = defaultdict(dict)
    for k, form in enumerate(out):
        for u, c in form.items():
            inc[u][k] = c
    steps = []
    for eq in out[:-1]:
        while eq:
            u = min(eq, key=lambda u: (abs(eq[u]), len(inc[u]), u))
            a = eq[u]
            for v, b in list(eq.items()):
                if v != u:
                    q = b // a
                    for k, c in inc[u].items():
                        _add(out, inc, k, v, -q * c)
                    steps.append((u, v, q))
            if len(eq) == 1:
                for k in inc.pop(u):
                    del out[k][u]
    return steps, out[-1]


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
    the int scalars, with G-powers read off the degrees.
    """
    store = _Store.load(complex)
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


# Miller-Rabin to the first 13 prime bases is exact below this bound (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def check_characteristic(characteristic: int) -> None:
    n = characteristic
    if n >= _PRIME_BOUND:
        raise ValueError(f"characteristic must be below {_PRIME_BOUND}, got {n}")
    if n == 0 or n in _PRIME_BASES:
        return
    if n > 2 and all(n % a for a in _PRIME_BASES):
        r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * d, d odd
        d = (n - 1) >> r
        if all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r)) for a in _PRIME_BASES):
            return
    raise ValueError(f"characteristic must be 0 or a prime, got {n}")


def field_normal_form(
    complex: GradedComplex, characteristic: int
) -> tuple[GradedComplex, NormalForm]:
    """Gaussian elimination of C (x) F[G] down to its decomposition.

    The complex must pass validate.  An entry v -> w is lambda*G^c with
    c = (q_w - q_v)/2, so one store holds only the scalars lambda: ints while
    the +-1 units are cancelled as in reduce, then field scalars.  The entry
    of least G-power divides its row and column, so it is cancelled first; a
    cancelled pair with c > 0 is a piece F[G] --G^c--> F[G].  Exactly one
    generator must survive, in homological degree 0, its quantum degree s.

    Returns the normal form as a complex over Z[G] (generator "s" and pieces
    "p<i>a" -> "p<i>b" of value G^c) together with its NormalForm data.
    """
    check_characteristic(characteristic)
    _require_valid(complex, "field_normal_form")
    if complex.total_rank == 0:
        return GradedComplex([], {}), NormalForm(s=None, pieces=())
    store = _Store.load(complex)
    store.eliminate()
    store.p = p = characteristic
    deg, inc = store.deg, store.inc
    for src, row in store.out.items():
        for tgt, v in list(row.items()):
            v = Fraction(v) if p == 0 else v % p
            if v:
                row[tgt] = inc[tgt][src] = v
                store.heap.append((deg[tgt][1] - deg[src][1], deg[src][0], src, tgt))
            else:
                del row[tgt], inc[tgt][src]
    pieces = tuple(sorted((t, q, dq // 2) for t, q, dq in store.eliminate() if dq))
    free = sorted(deg, key=lambda g: (deg[g], g))
    if len(free) != 1 or deg[free[0]][0] != 0:
        raise NotKnotLikeError(
            f"input not knot-like over characteristic {characteristic}: "
            f"{len(free)} free summands at degrees {[deg[g] for g in free]}"
        )
    nf = NormalForm(s=deg[free[0]][1], pieces=pieces)
    new_gens = [Generator("s", 0, nf.s)]
    new_entries = {}
    for i, (a, bq, c) in enumerate(nf.pieces):
        new_gens += [Generator(f"p{i}a", a, bq), Generator(f"p{i}b", a + 1, bq + 2 * c)]
        new_entries[(f"p{i}a", f"p{i}b")] = 1
    return GradedComplex(new_gens, new_entries), nf
