"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it checks:
homology dimensions are computed by dense rank computations over Q or F_p,
and filtration subgroups by enumerating small integer cycles.
"""

import heapq
import itertools
import math
from fractions import Fraction

from khconc import ComplexBuilder, GElem, Generator, GradedComplex, direct_sum, generator_cycle, unit_complex
from khconc import intmat
from khconc.complexes import _require_valid
from khconc.invariants import g1_matrix, integer_homology_profile, tuple_from_filtration
from khconc.khovanov import PDCode
from khconc.simplify import NormalForm, NotKnotLikeError, check_characteristic, reduce
from khconc.zeq import default_distance_bound, z_iso_exists


def monomial(c, src, tgt):
    """The nonzero entry src -> tgt as a GElem, its G-power read off the degrees."""
    return GElem(c.entry(src, tgt), (c.gen(tgt).qdeg - c.gen(src).qdeg) // 2)


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


def far_acyclic_piece(t):
    """The unit plus an acyclic piece with no unit entries at t, t + 1, t + 2."""
    gens = [Generator("a", t, 0), Generator("b1", t + 1, 0), Generator("b2", t + 1, 0), Generator("c", t + 2, 0)]
    piece = GradedComplex(gens, {("a", "b1"): 2, ("a", "b2"): 3, ("b1", "c"): 3, ("b2", "c"): -2})
    return direct_sum(unit_complex(gid="x"), piece)


def far_generator(n):
    """The unit x plus a -> b = G^n, a at (0, -2n) and b at (1, 0)."""
    gens = [Generator("x", 0, 0), Generator("a", 0, -2 * n), Generator("b", 1, 0)]
    return GradedComplex(gens, {("a", "b"): 1})


def non_unit_squares(n):
    """The unit plus n squares a_i -> b_i = 2 at t = 2i + 1, 2i + 2: rank 2n + 1, not knot-like."""
    gens = [Generator("u", 0, 0)]
    for i in range(n):
        gens += [Generator(f"a{i}", 2 * i + 1, 0), Generator(f"b{i}", 2 * i + 2, 0)]
    return GradedComplex(gens, {(f"a{i}", f"b{i}"): 2 for i in range(n)})


def stretched_ck1(n):
    """C^1 with e and v moved to q = -2n and both G-entries G^n; C^1 at n = 1.

    Its filtration tuple is (0, 1, ..., 1, 2) with n entries after k0, and
    its distance to the unknot is n.
    """
    gens = [Generator("e", -1, -2 * n), Generator("v", 0, -2 * n)]
    gens += [Generator("u1", 0, 0), Generator("u2", 0, 0), Generator("w", 1, 0)]
    entries = {("e", "u2"): -1, ("e", "v"): 4, ("u1", "w"): 2, ("u2", "w"): 4, ("v", "w"): 1}
    return GradedComplex(gens, entries)


def reference_validate(complex: GradedComplex) -> list[str]:
    """validate as three separate scans (odd q, steps, d^2), through the public
    accessors; kept as the oracle for the one-walk validate."""
    problems: list[str] = []
    for g in complex.generators:
        if g.qdeg % 2 != 0:
            problems.append(f"generator {g.id}: odd quantum degree {g.qdeg}")
    for src, tgt, _ in complex.iter_entries():
        step = complex.gen(tgt).tdeg - complex.gen(src).tdeg
        if step != 1:
            problems.append(f"entry {src}->{tgt}: homological step {step} != 1")
    # d o d = 0: every path x -> y -> z has the G-power (q_z - q_x)/2, so
    # the scalars are summed per target
    for x in complex.ids():
        acc: dict[str, int] = {}
        for y, v1 in complex.out_of(x).items():
            for z, v2 in complex.out_of(y).items():
                acc[z] = acc.get(z, 0) + v1 * v2
        for z, scal in acc.items():
            if scal != 0:
                gp = (complex.gen(z).qdeg - complex.gen(x).qdeg) // 2
                problems.append(f"d^2 != 0: {x}->{z} residue {scal}*G^{gp}")
    return problems


def random_invalid(rng, rank=6, entries=9):
    """A complex with random degrees and entries: odd qdegs, steps other than
    1 and d^2 residues, alone or mixed.  Only entries the constructor admits
    (q rises by an even amount) are drawn."""
    gens = [Generator(f"g{i}", rng.randint(-1, 2), 2 * rng.randint(-1, 1) + (rng.random() < 0.1)) for i in range(rank)]
    out = {}
    for _ in range(entries):
        a, b = rng.sample(gens, 2)
        if b.qdeg >= a.qdeg and (b.qdeg - a.qdeg) % 2 == 0:
            out[(a.id, b.id)] = rng.choice((1, -1, 2, -3))
    return GradedComplex(gens, out)


def reference_distance_d(c1, c2, bound=None):
    """distance_d by scanning n = 0, 1, 2, ... up to the bound."""
    if bound is None:
        bound = default_distance_bound(c1, c2)
    for n in range(bound + 1):
        if z_iso_exists(c1, c2, -2 * n) and z_iso_exists(c2, c1, -2 * n):
            return n
    return None


def reference_reduce(c):
    """Unit cancellation on GElem entries through a ComplexBuilder.

    The least (tdeg, src, tgt) unit entry is cancelled first.  The heap
    starts with every unit entry and, after each cancellation, gets every
    unit entry of every row the cancellation touched; stale keys are skipped.
    """
    b = c.builder()
    heap = [(b.gens[s].tdeg, s, t) for s, row in b.out.items() for t, v in row.items() if v.is_unit()]
    heapq.heapify(heap)
    while heap:
        _, src, tgt = heapq.heappop(heap)
        if src not in b.gens or tgt not in b.gens:
            continue
        unit = b.entry(src, tgt)
        if not unit.is_unit():
            continue
        rows = [(a, v) for a, v in b.inc[tgt].items() if a != src]
        cols = [(z, v) for z, v in b.out[src].items() if z != tgt]
        for a, ca in rows:
            for z, dz in cols:
                b.add_entry(a, z, GElem(-unit.scalar * ca.scalar * dz.scalar, ca.gpow + dz.gpow))
        for gid in (src, tgt):
            for z in b.out.pop(gid):
                del b.inc[z][gid]
            for a in b.inc.pop(gid):
                del b.out[a][gid]
            del b.gens[gid]
        for a, _ in rows:
            for z, v in b.out[a].items():
                if v.is_unit():
                    heapq.heappush(heap, (b.gens[a].tdeg, a, z))
    return b.freeze()


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


def reference_split_summands(complex: GradedComplex) -> list[GradedComplex]:
    """split_summands on GElem entries through a ComplexBuilder, trial
    moves undone by restoring a snapshot of the whole complex.

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


def reference_knotlike(c) -> bool:
    """H(C at G=1) is Z in degree 0 alone, from the Smith forms of reduce(c)."""
    profile = integer_homology_profile(reduce(c))
    return 0 in profile and all(p == ((1 if t == 0 else 0), []) for t, p in profile.items())


def reference_h0_class_data(c):
    """(t = 0 ids, class covector phi, generator cycle z) of H_0(C at G=1)
    by dense integer work over every degree-0 generator.

    With the rows of K a basis of the cycles, the boundaries' coordinates in
    that basis are killed by one covector psi, the class map; phi solves
    K phi = psi, and z = x K for an x with psi . x = 1.
    """
    if not reference_knotlike(c):
        raise NotKnotLikeError("reference H_0 class data: not knot-like")
    d0, srcs, _ = g1_matrix(c, 0)
    dm1, _, _ = g1_matrix(c, -1)
    kernel = intmat.kernel_basis(d0, ncols=len(srcs))
    kmat = intmat.transpose(kernel)
    coords = [intmat.solve(kmat, bvec) for bvec in intmat.transpose(dm1)]
    (psi,) = intmat.kernel_basis(coords, ncols=len(kernel))
    z = intmat.matvec(kmat, intmat.solve([psi], [1]))
    return srcs, intmat.solve(kernel, psi), z


def reference_sz(c):
    """The filtration tuple by one dense kernel per level, on reference_h0_class_data.

    m_k is the gcd of phi over an intmat.kernel_basis of the degree-0 matrix
    at G = 1 restricted to the generators of quantum degree >= k.
    """
    c = reduce(c)
    srcs, phi, _ = reference_h0_class_data(c)
    d0, _, _ = g1_matrix(c, 0)
    qdegs = [c.gen(gid).qdeg for gid in srcs]
    m_by_k = {}
    for k in range(max(qdegs), min(qdegs) - 2, -2):
        keep = [j for j, q in enumerate(qdegs) if q >= k]
        sub = [[row[j] for j in keep] for row in d0]
        kern = intmat.kernel_basis(sub, ncols=len(keep))
        m_by_k[k] = math.gcd(*(sum(phi[j] * u for j, u in zip(keep, vec)) for vec in kern))
    return tuple_from_filtration(m_by_k)


def admissible_pairs(source: GradedComplex, target: GradedComplex, qdegree: int) -> list[tuple[str, str, int]]:
    """(x, y, gpow) triples a degree-qdegree map may connect, every one of them."""
    if qdegree % 2 != 0:
        raise ValueError(f"quantum degree must be even, got {qdegree}")
    out = []
    tgt_by_t: dict[int, list] = {}
    for g in target.generators:
        tgt_by_t.setdefault(g.tdeg, []).append(g)
    for gx in source.generators:
        for gy in tgt_by_t.get(gx.tdeg, []):
            c2 = gy.qdeg - gx.qdeg - qdegree
            if c2 >= 0 and c2 % 2 == 0:
                out.append((gx.id, gy.id, c2 // 2))
    return out


def reference_lattice_system(source: GradedComplex, target: GradedComplex, qdegree: int, src_h0, tgt_h0):
    """(pairs, equations, weight) of the full chain-map system, every block built.

    One unknown per admissible pair, in admissible_pairs order, and one
    sparse equation per source generator x and target generator z one degree
    up, taken in the order of x, then of z in the target, zero ones dropped;
    the weight of lambda is z[x] * phi[y] from the given _h0_class_data.
    zeq._lattice builds the weight's block of this system only.
    """
    ssrcs, _, cycle = src_h0
    tsrcs, phi, _ = tgt_h0
    pairs = [(x, y) for x, y, _ in admissible_pairs(source, target, qdegree)]
    pairs_by_source: dict[str, list[tuple[str, int]]] = {}
    for i, (x, y) in enumerate(pairs):
        pairs_by_source.setdefault(x, []).append((y, i))
    position = {g.id: k for k, g in enumerate(target.generators)}
    equations: list[dict[int, int]] = []
    for gx in source.generators:
        by_z: dict[str, dict[int, int]] = {}
        for y, v in source.out_of(gx.id).items():
            for z, i in pairs_by_source.get(y, ()):
                eq = by_z.setdefault(z, {})
                eq[i] = eq.get(i, 0) + v
        for w, i in pairs_by_source.get(gx.id, ()):
            for z, v in target.out_of(w).items():
                eq = by_z.setdefault(z, {})
                eq[i] = eq.get(i, 0) - v
        for z in sorted(by_z, key=position.__getitem__):
            eq = {i: c for i, c in by_z[z].items() if c}
            if eq:
                equations.append(eq)
    alpha = dict(zip(ssrcs, cycle))
    beta = dict(zip(tsrcs, phi))
    weight = {i: alpha[x] * beta[y] for i, (x, y) in enumerate(pairs) if alpha.get(x) and beta.get(y)}
    return pairs, equations, weight


def reference_image_gcd(source: GradedComplex, target: GradedComplex, qdegree: int) -> int:
    """The gcd of lambda over the chain-map lattice, through a dense kernel basis.

    The chain-map equations are built as dense rows, intmat.kernel_basis
    (a column echelon carrying an n x n transform) gives the kernel, and
    every kernel vector is dotted with the weight z[x] * phi[y].
    """
    ssrcs, _, cycle = reference_h0_class_data(source)
    tsrcs, phi, _ = reference_h0_class_data(target)
    triples = admissible_pairs(source, target, qdegree)
    pairs = [(x, y) for x, y, _ in triples]
    index = {pair: i for i, pair in enumerate(pairs)}
    n = len(pairs)

    pairs_by_source: dict[str, list[tuple[str, int]]] = {}
    for (x, y), i in index.items():
        pairs_by_source.setdefault(x, []).append((y, i))

    rows: list[list[int]] = []
    tgt_ids_by_t: dict[int, list[str]] = {}
    for g in target.generators:
        tgt_ids_by_t.setdefault(g.tdeg, []).append(g.id)
    for gx in source.generators:
        for z in tgt_ids_by_t.get(gx.tdeg + 1, []):
            row = [0] * n
            used = False
            for y, v in source.out_of(gx.id).items():
                i = index.get((y, z))
                if i is not None:
                    row[i] += v
                    used = True
            for w, i in pairs_by_source.get(gx.id, []):
                dv = target.entry(w, z)
                if dv:
                    row[i] -= dv
                    used = True
            if used and any(row):
                rows.append(row)
    basis = intmat.kernel_basis(rows, ncols=n) if n else []

    alpha = dict(zip(ssrcs, cycle))
    beta = dict(zip(tsrcs, phi))
    weight = [alpha.get(x, 0) * beta.get(y, 0) for x, y in pairs]
    return math.gcd(*(sum(u * w for u, w in zip(vec, weight)) for vec in basis))


# field_normal_form with its own scalar dicts, pivot heap and elimination loop,
# kept as the oracle for the one built on simplify._Store
def reference_field_normal_form(
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
        x = scalar(val)
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


def g0_homology_dims(c, char):
    """(t, q)-graded dims of H(C (x) F) at G = 0, F = Q (char 0) or F_char.

    Only the G^0 entries survive, and they keep q, so each quantum degree
    is a complex of its own; ranks come from the dense field_rank.
    """
    gens = {}
    for g in c.generators:
        gens.setdefault((g.tdeg, g.qdeg), []).append(g.id)

    def rank(t, q):
        srcs, tgts = gens.get((t, q), []), gens.get((t + 1, q), [])
        index = {gid: i for i, gid in enumerate(tgts)}
        mat = [[0] * len(srcs) for _ in tgts]
        for j, gid in enumerate(srcs):
            for tgt, val in c.out_of(gid).items():
                if c.gen(tgt).qdeg == q:  # G-power (q_tgt - q)/2 is 0
                    mat[index[tgt]][j] = val
        return field_rank(mat, char)

    dims = {(t, q): len(ids) - rank(t, q) - rank(t - 1, q) for (t, q), ids in gens.items()}
    return {key: d for key, d in dims.items() if d}


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
                gpow = (c.gen(tgt).qdeg - g.qdeg) // 2
                for k in range(m - gpow):
                    mat[i * m + k + gpow][j * m + k] = val
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
    """Sorted (G-power, |scalar|) of every entry."""
    return sorted(((c.gen(t).qdeg - c.gen(s).qdeg) // 2, abs(v)) for s, t, v in c.iter_entries())


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


# ---------------------------------------------------------------------------
# diagrams: the propagation-based orientation and knot-level closed forms


def reference_analyze_pd(crossings, basepoint=None):
    """analyze_pd by constraint propagation, then a traversal from the basepoint.

    Under slots are fixed (a in, c out); in/out roles spread across arcs and
    over-strands until every slot has one, and a second pass walks the knot.
    """
    occurrences = {}
    for ci, cross in enumerate(crossings):
        if len(cross) != 4:
            raise ValueError(f"crossing {cross!r} does not have 4 arcs")
        for slot, arc in enumerate(cross):
            occurrences.setdefault(arc, []).append((ci, slot))
    for arc, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"arc {arc} appears {len(occ)} times, expected 2")

    if not crossings:
        bp = basepoint if basepoint is not None else 0
        return PDCode(crossings=(), basepoint=bp, over_in_b=(), arc_order=(bp,))

    # role[ci][slot] in {"in", "out"}; under slots are fixed, over slots are
    # propagated until every crossing is oriented.
    role = {}
    for ci in range(len(crossings)):
        role[(ci, 0)] = "in"
        role[(ci, 2)] = "out"

    def other_occurrence(arc: int, here: tuple[int, int]) -> tuple[int, int]:
        a, b = occurrences[arc]
        return b if a == here else a

    pending = list(role.items())
    while pending:
        (ci, slot), what = pending.pop()
        arc = crossings[ci][slot]
        opp_ci, opp_slot = other_occurrence(arc, (ci, slot))
        opp_what = "out" if what == "in" else "in"
        key = (opp_ci, opp_slot)
        if key in role:
            if role[key] != opp_what:
                raise ValueError(f"arc {arc} cannot be oriented consistently")
            continue
        role[key] = opp_what
        pending.append((key, opp_what))
        # fixing one over slot fixes the other
        if opp_slot in (1, 3):
            partner = (opp_ci, 4 - opp_slot)
            partner_what = "out" if opp_what == "in" else "in"
            if partner in role:
                if role[partner] != partner_what:
                    raise ValueError(
                        f"crossing {crossings[opp_ci]!r} cannot be oriented consistently"
                    )
            else:
                role[partner] = partner_what
                pending.append((partner, partner_what))
    for ci in range(len(crossings)):
        if (ci, 1) not in role:
            raise ValueError(f"crossing {crossings[ci]!r} left unoriented")

    over_in_b = tuple(role[(ci, 1)] == "in" for ci in range(len(crossings)))

    # knot traversal: follow each arc through the crossing it enters
    exit_slot = {}
    for ci, cross in enumerate(crossings):
        exit_slot[(ci, 0)] = 2
        exit_slot[(ci, 1)] = 3
        exit_slot[(ci, 3)] = 1
    all_arcs = sorted(occurrences)
    bp = basepoint if basepoint is not None else all_arcs[0]
    if bp not in occurrences:
        raise ValueError(f"basepoint arc {bp} does not occur in the diagram")
    order = [bp]
    current = bp
    while True:
        entry = next(
            (ci, slot) for ci, slot in occurrences[current] if role[(ci, slot)] == "in"
        )
        ci, slot = entry
        nxt = crossings[ci][exit_slot[(ci, slot)]]
        if nxt == bp:
            break
        order.append(nxt)
        current = nxt
        if len(order) > len(all_arcs):
            raise ValueError("traversal does not close up")
    if len(order) != len(all_arcs):
        raise ValueError(
            f"knots only: diagram has {len(all_arcs)} arcs but one component of {len(order)}"
        )
    return PDCode(
        crossings=tuple(tuple(c) for c in crossings),
        basepoint=bp,
        over_in_b=over_in_b,
        arc_order=tuple(order),
    )


def braid_closure_crossings(strands, word):
    """Crossing tuples of the closure of a braid word, for any number of components.

    The crossing conventions are those of BR[...] input: for letter i > 0 the
    strand entering at position i + 1 passes under to position i.
    """
    current = list(range(1, strands + 1))
    initial = list(current)
    next_arc = strands + 1
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        left, right = current[i], current[i + 1]
        out_left, out_right = next_arc, next_arc + 1
        next_arc += 2
        if letter > 0:
            crossings.append((right, left, out_left, out_right))
        else:
            crossings.append((left, out_left, out_right, right))
        current[i], current[i + 1] = out_left, out_right
    relabel = dict(zip(current, initial))
    return [tuple(relabel.get(a, a) for a in cross) for cross in crossings]


def braid_is_knot(strands, word):
    """Does the braid closure have one component?"""
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cursor = {0}, perm[0]
    while cursor != 0:
        seen.add(cursor)
        cursor = perm[cursor]
    return len(seen) == strands


def resolution_circles(pd, vertex):
    """Circles of a resolution: bit i of vertex set joins (a, b) and (c, d) at crossing i, else (a, d) and (b, c)."""
    parent = {}

    def root(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            a = parent[a]
        return a

    for ci, (a, b, c, d) in enumerate(pd.crossings):
        pairs = ((a, b), (c, d)) if (vertex >> ci) & 1 else ((a, d), (b, c))
        for x, y in pairs:
            parent[root(x)] = root(y)
    return len({root(a) for a in parent}) if parent else 1


def positive_diagram_s(pd):
    """s_c = 1 + c - k on a positive diagram, k its Seifert circles (Rasmussen 2010)."""
    assert all(pd.over_in_b), "diagram is not positive"
    return 1 + len(pd.crossings) - resolution_circles(pd, 0)


def alternating_diagram_s0(pd):
    """s_0 = -sigma on a reduced alternating diagram, sigma = s_A - n+ - 1 (Traczyk 2004).

    s_A counts the circles of the all-A resolution, which is the all-0 vertex.
    """
    return -(resolution_circles(pd, 0) - pd.n_plus - 1)
