"""Exact decision of Z-isomorphism existence, Z-equivalence and the metric d.

A homogeneous chain map f: C -> C' of quantum degree Q sends a generator x
to sums u * G^c * y over generators y with tdeg y = tdeg x and
c = (qdeg y - qdeg x - Q) / 2 >= 0.  The chain-map condition f d = d f is a
homogeneous linear system over Z in the unknown coefficients u, so the set
of such maps is an integer lattice.  Setting G = 1, a chain map sends the
generator class of H_0(C at G=1) to an integer multiple lambda of the
generator class of the target; lambda is linear on the lattice, and a
Z-isomorphism of degree Q exists if and only if the image subgroup
lambda(lattice) = g Z has g = 1.  No enumeration of maps is needed.

g is found without a basis of the lattice, by simplify._eliminate:
unimodular column operations on the sparse equations, with the weight of
lambda as one more row.  Only the weight's block is built: the unknowns
and equations a walk from the weight's unknowns reaches through the
equations that hold them.  The other blocks share no unknown with it, and
lambda is 0 on their kernels.  Once no equation is left every unknown is
free, so g is the gcd of what remains of the weight.  A kernel basis of
the block is computed only if ChainMapLattice.basis is read.  The same
lattice from the unit complex in degree k gives level k of the filtration
tuple (invariants.schuetz_sz).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import intmat
from .complexes import GradedComplex, InternalInvariantError, _require_valid, dual, euler_char, tensor
from .invariants import _h0_class_data, _reduced
from .simplify import _Form, _eliminate


def generator_cycle(complex: GradedComplex) -> dict[str, int]:
    """An integer cycle at G = 1 whose class generates H_0; deterministic."""
    _require_valid(complex, "generator_cycle")
    srcs, _, z = _h0_class_data(complex)
    return {gid: coeff for gid, coeff in zip(srcs, z) if coeff}


@dataclass
class ChainMapLattice:
    """Lattice of homogeneous chain maps source -> target of one quantum degree.

    pairs[i] is the (source id, target id) generator pair of unknown i; the
    unknowns and equations are those of the weight's block only.  image_gcd
    generates the subgroup {lambda(f)} of Z, where lambda(f) is the
    multiplier that f induces on H_0(. at G=1): the target's class covector
    applied to the image of the source's generator cycle.  It is the gcd of
    what _eliminate leaves of the weight of lambda.  witness() gives one chain
    map f with lambda(f) = image_gcd by undoing _eliminate's column
    operations; every pair outside the block is 0 in it.  basis, integer
    kernel vectors of the block's equations over the block's unknowns, is
    computed only when it is read; image_gcd does not need it.
    """

    qdegree: int
    pairs: list[tuple[str, str]]
    image_gcd: int
    # the chain-map equations and the weight of lambda, as built
    _equations: list[_Form] = field(repr=False)
    _weight: _Form = field(repr=False)
    # _eliminate's column operations and what is left of the weight
    _steps: list[tuple[int, int, int]] = field(repr=False)
    _rest: _Form = field(repr=False)

    @functools.cached_property
    def basis(self) -> list[list[int]]:
        """intmat.kernel_basis of the block's equations as dense rows, over its unknowns."""
        n = len(self.pairs)
        rows = []
        for eq in self._equations:
            row = [0] * n
            for i, c in eq.items():
                row[i] = c
            rows.append(row)
        return intmat.kernel_basis(rows, ncols=n) if n else []

    def witness(self) -> dict[tuple[str, str], int]:
        """One chain map f with lambda(f) = image_gcd, as pair -> coefficient.

        Extended Euclid over the rest of the weight gives free values with
        lambda = image_gcd; the column operations are then undone in reverse
        order.  The map is checked against every chain-map equation and the
        weight before it is returned.
        """
        values: dict[int, int] = {}
        g = 0
        for v, c in self._rest.items():
            s, t = _bezout(g, c)
            values = {u: s * x for u, x in values.items()}
            values[v], g = t, s * g + t * c
        for u, v, q in reversed(self._steps):
            values[u] = values.get(u, 0) - q * values.get(v, 0)

        def apply(form: _Form) -> int:
            return sum(c * values.get(v, 0) for v, c in form.items())

        problem = None
        if any(map(apply, self._equations)):
            problem = "the witness is not a chain map"
        elif apply(self._weight) != self.image_gcd:
            problem = f"the witness has lambda = {apply(self._weight)}, not {self.image_gcd}"
        if problem:
            raise InternalInvariantError(
                "zeq",
                problem,
                unknowns=len(self.pairs),
                equations=len(self._equations),
                column_operations=len(self._steps),
            )
        return {self.pairs[i]: values[i] for i in sorted(values) if values[i]}


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s a + t b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s0, s1, t0, t1 = b, a - q * b, s1, s0 - q * s1, t1, t0 - q * t1
    return (s0, t0) if a >= 0 else (-s0, -t0)


def chain_map_lattice(
    source: GradedComplex, target: GradedComplex, qdegree: int
) -> ChainMapLattice:
    """Solve f d = d f exactly over Z and compute the H_0 functional.

    Both complexes are validated, and used as given.
    """
    _require_valid(source, "chain_map_lattice")
    _require_valid(target, "chain_map_lattice")
    return _lattice(source, target, qdegree, _side(source), _side(target))


def _side(complex: GradedComplex) -> tuple:
    """What _lattice reads of one complex: _h0_class_data, then each
    generator's position and the entries (w, d(w, .)) into it, w in
    generator order."""
    h0 = _h0_class_data(complex)
    into: dict[str, tuple[int, list[tuple[str, int]]]] = {gid: (k, []) for k, gid in enumerate(complex.ids())}
    for w, x, v in complex.iter_entries():
        into[x][1].append((w, v))
    return (*h0, into)


def _lattice(source: GradedComplex, target: GradedComplex, qdegree: int, src: tuple, tgt: tuple) -> ChainMapLattice:
    """chain_map_lattice given both complexes' _side; also each level of
    invariants.schuetz_sz, from the unit complex.

    Unknown (x, y) lies in the equations (w, y) for w -> x and (x, z) for
    y -> z; equation (x, z) holds the admissible (y, z) for x -> y and
    (x, w) for w -> z.  The walk from the weight's unknowns closes under
    both rules, so every equation holding a reached unknown is built.  Pairs
    (x, y) and (x, z) are ordered by source, then target position, and the
    keys of (x, z) by out_of(x), then the entries into z: the full build's
    forms and tie-breaks, restricted to the weight's block.
    """
    if qdegree % 2 != 0:
        raise ValueError(f"quantum degree must be even, got {qdegree}")
    ssrcs, _, cycle, s_in = src
    tsrcs, phi, _, t_in = tgt

    def admissible(x: str, y: str) -> bool:
        c2 = target.gen(y).qdeg - source.gen(x).qdeg - qdegree
        return c2 >= 0 and c2 % 2 == 0

    alpha = {x: a for x, a in zip(ssrcs, cycle) if a}
    beta = {y: b for y, b in zip(tsrcs, phi) if b}
    todo = [(x, y) for x in alpha for y in beta if admissible(x, y)]
    reached = set(todo)
    # (f d - d f)(x) = 0 at z, as (pair, coefficient) in the full build's key order
    forms: dict[tuple[str, str], list[tuple[tuple[str, str], int]]] = {}
    while todo:
        a, b = todo.pop()
        for x, z in [(w, b) for w, _ in s_in[a][1]] + [(a, z) for z in target.out_of(b)]:
            if (x, z) not in forms:
                form = [((y, z), v) for y, v in source.out_of(x).items() if admissible(y, z)]
                form += [((x, w), -v) for w, v in t_in[z][1] if admissible(x, w)]
                forms[x, z] = form
                todo += [pair for pair, _ in form if pair not in reached]
                reached.update(pair for pair, _ in form)

    def order(pair: tuple[str, str]) -> tuple[int, int]:
        return s_in[pair[0]][0], t_in[pair[1]][0]

    pairs = sorted(reached, key=order)
    index = {pair: i for i, pair in enumerate(pairs)}
    equations = [{index[pair]: c for pair, c in forms[key]} for key in sorted(forms, key=order)]
    # lambda(f) = phi . f(z), linear in the unknowns with weight z[x] * phi[y]
    weight = {i: alpha[x] * beta[y] for i, (x, y) in enumerate(pairs) if x in alpha and y in beta}
    steps, rest = _eliminate(equations, weight)
    return ChainMapLattice(qdegree, pairs, math.gcd(*rest.values()), equations, weight, steps, rest)


def z_iso_exists(source: GradedComplex, target: GradedComplex, qdegree: int) -> bool:
    """Is there a chain map of this quantum degree inducing +-1 on H_0(. at G=1)?

    Both complexes are validated, then reduced.
    """
    source, target = _reduced(source, "z_iso_exists"), _reduced(target, "z_iso_exists")
    return _lattice(source, target, qdegree, _side(source), _side(target)).image_gcd == 1


def z_equivalent(c1: GradedComplex, c2: GradedComplex) -> bool:
    """Z-isomorphisms of quantum degree 0 in both directions.

    Each complex is validated, reduced and given its H_0 class data and
    reverse map (_side) once.
    """
    c1, c2 = _reduced(c1, "z_equivalent"), _reduced(c2, "z_equivalent")
    h1, h2 = _side(c1), _side(c2)
    return _lattice(c1, c2, 0, h1, h2).image_gcd == 1 and _lattice(c2, c1, 0, h2, h1).image_gcd == 1


def default_distance_bound(c1: GradedComplex, c2: GradedComplex) -> int:
    q1lo, q1hi = c1.qdeg_range()
    q2lo, q2hi = c2.qdeg_range()
    return max(0, (q1hi - q2lo + q2hi - q1lo) // 2 + 2)


def distance_d(c1: GradedComplex, c2: GradedComplex, bound: int | None = None) -> int | None:
    """Least n <= bound with Z-isomorphisms of degree -2n both ways, else None.

    Success is monotone in n (multiply a witness by G), so n = 0, 1, 2, 4,
    ... is tried up to the bound, then the gap between the last failure and
    the first success is bisected.  The metric is only proven finite for
    complexes of knots, hence the explicit bound; None reports that the
    bound was hit.

    The default bound is taken from the complexes as given.  Both are then
    validated and reduced, and the H_0 class data and reverse map of each
    (_side) are computed once and reused at every degree.
    chain_map_lattice, by contrast, works on the complexes as given.
    """
    if bound is None:
        bound = default_distance_bound(c1, c2)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    c1, c2 = _reduced(c1, "distance_d"), _reduced(c2, "distance_d")
    h1, h2 = _side(c1), _side(c2)
    directions = ((c1, c2, h1, h2), (c2, c1, h2, h1))

    def both_ways(n: int) -> bool:
        return all(_lattice(a, b, -2 * n, ha, hb).image_gcd == 1 for a, b, ha, hb in directions)

    failed, n = -1, 0
    while not both_ways(n):
        if n == bound:
            return None
        failed, n = n, min(bound, max(1, 2 * n))
    while n - failed > 1:
        mid = (failed + n) // 2
        failed, n = (failed, mid) if both_ways(mid) else (mid, n)
    return n


# ---------------------------------------------------------------------------
# explicit inverse witness


def zeta(m: int) -> int:
    """0 for m = 0, 1 mod 4 and 1 for m = 2, 3 mod 4."""
    return 0 if m % 4 in (0, 1) else 1


@dataclass
class InverseWitness:
    """Verified section/retraction pair of the unit summand of C (x) dual(C)."""

    product: GradedComplex
    f: dict[str, int]
    g: dict[str, int]


def inverse_witness(complex: GradedComplex) -> InverseWitness:
    """The explicit maps showing C (x) dual(C) splits off t^0 q^0 Z[G].

    f(1) = sum_i (-1)^(zeta tdeg x_i) x_i (x) x_i*, and g is the matching
    functional scaled by 1/chi; both are verified to be chain maps with
    g(f(1)) = 1 before returning.
    """
    chi = euler_char(complex)
    if chi not in (1, -1):
        raise ValueError(f"Euler characteristic {chi} is not a unit of Z[G]")
    product = tensor(complex, dual(complex))
    f: dict[str, int] = {}
    gmap: dict[str, int] = {}
    for gen in complex.generators:
        diag = f"{gen.id}(x){gen.id}*"
        sign_f = -1 if zeta(gen.tdeg) else 1
        f[diag] = sign_f
        gmap[diag] = chi * sign_f * (-1 if gen.tdeg % 2 else 1)

    # the diagonal terms all sit in q = 0, so each sum below adds monomials
    # of one G-power and only the scalars are summed
    # f is a chain map iff d(f(1)) = 0
    residue: dict[str, int] = {}
    for gid, coeff in f.items():
        for tgt, val in product.out_of(gid).items():
            residue[tgt] = residue.get(tgt, 0) + coeff * val
    sizes = {"rank": complex.total_rank, "product_rank": product.total_rank}
    if any(residue.values()):
        raise InternalInvariantError("inverse_witness", "f is not a chain map", **sizes)
    # g is a chain map iff it kills every boundary from degree -1
    for gen in product.generators:
        if gen.tdeg == -1 and sum(val * gmap.get(tgt, 0) for tgt, val in product.out_of(gen.id).items()):
            raise InternalInvariantError("inverse_witness", "g is not a chain map", **sizes)
    total = sum(coeff * gmap.get(gid, 0) for gid, coeff in f.items())
    if total != 1:
        raise InternalInvariantError("inverse_witness", f"g(f(1)) = {total}, expected 1", **sizes)
    return InverseWitness(product=product, f=f, g=gmap)
