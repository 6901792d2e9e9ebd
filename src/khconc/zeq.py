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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import intmat
from .complexes import GElem, GradedComplex, tensor, dual
from .invariants import _h0_class_data, _reduced

# (t = 0 ids, class covector, generator cycle), as _h0_class_data returns it
_H0Data = tuple[list[str], list[int], list[int]]


def generator_cycle(complex: GradedComplex) -> dict[str, int]:
    """An integer cycle at G = 1 whose class generates H_0; deterministic."""
    srcs, _, z = _h0_class_data(complex)
    return {gid: coeff for gid, coeff in zip(srcs, z) if coeff}


@dataclass
class ChainMapLattice:
    """Lattice of homogeneous chain maps source -> target of one quantum degree.

    pairs[i] is the (source id, target id) generator pair of unknown i; basis
    holds integer kernel vectors of the chain-map equations; lam[j] is the
    induced multiplier on H_0(. at G=1) of basis vector j, the target's class
    covector applied to the image of the source's generator cycle, and
    image_gcd generates the subgroup {lambda(f)} of Z.
    """

    qdegree: int
    pairs: list[tuple[str, str]]
    basis: list[list[int]]
    lam: list[int]
    image_gcd: int

    def map_from_coeffs(self, coeffs: list[int]) -> dict[tuple[str, str], int]:
        out: dict[tuple[str, str], int] = {}
        for j, c in enumerate(coeffs):
            if c:
                for i, u in enumerate(self.basis[j]):
                    if u:
                        key = self.pairs[i]
                        out[key] = out.get(key, 0) + c * u
        return {k: v for k, v in out.items() if v}


def admissible_pairs(
    source: GradedComplex, target: GradedComplex, qdegree: int
) -> list[tuple[str, str, int]]:
    """(x, y, gpow) triples a degree-qdegree map may connect."""
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


def chain_map_lattice(
    source: GradedComplex, target: GradedComplex, qdegree: int
) -> ChainMapLattice:
    """Solve f d = d f exactly over Z and compute the H_0 functional."""
    return _lattice(source, target, qdegree, _h0_class_data(source), _h0_class_data(target))


def _lattice(
    source: GradedComplex, target: GradedComplex, qdegree: int, src_h0: _H0Data, tgt_h0: _H0Data
) -> ChainMapLattice:
    """chain_map_lattice given both complexes' _h0_class_data."""
    ssrcs, _, cycle = src_h0
    tsrcs, phi, _ = tgt_h0
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
                    row[i] += v.scalar
                    used = True
            for w, i in pairs_by_source.get(gx.id, []):
                dv = target.entry(w, z)
                if not dv.is_zero():
                    row[i] -= dv.scalar
                    used = True
            if used and any(row):
                rows.append(row)
    basis = intmat.kernel_basis(rows, ncols=n) if n else []

    # lambda(f) = phi . f(z), linear in the unknowns with weight z[x] * phi[y]
    alpha = dict(zip(ssrcs, cycle))
    beta = dict(zip(tsrcs, phi))
    weight = [alpha.get(x, 0) * beta.get(y, 0) for x, y in pairs]
    lam = [sum(u * w for u, w in zip(vec, weight)) for vec in basis]
    return ChainMapLattice(
        qdegree=qdegree, pairs=pairs, basis=basis, lam=lam, image_gcd=math.gcd(*lam)
    )


def z_iso_exists(source: GradedComplex, target: GradedComplex, qdegree: int) -> bool:
    """Is there a chain map of this quantum degree inducing +-1 on H_0(. at G=1)?

    Both complexes are validated, then reduced.
    """
    source, target = _reduced(source, "z_iso_exists"), _reduced(target, "z_iso_exists")
    return chain_map_lattice(source, target, qdegree).image_gcd == 1


def z_equivalent(c1: GradedComplex, c2: GradedComplex) -> bool:
    """Z-isomorphisms of quantum degree 0 in both directions."""
    return z_iso_exists(c1, c2, 0) and z_iso_exists(c2, c1, 0)


def default_distance_bound(c1: GradedComplex, c2: GradedComplex) -> int:
    q1lo, q1hi = c1.qdeg_range()
    q2lo, q2hi = c2.qdeg_range()
    return max(0, (q1hi - q2lo + q2hi - q1lo) // 2 + 2)


def distance_d(c1: GradedComplex, c2: GradedComplex, bound: int | None = None) -> int | None:
    """Least n <= bound with Z-isomorphisms of degree -2n both ways, else None.

    Success is monotone in n (multiply a witness by G), so scanning up from
    0 finds the minimum.  The metric is only proven finite for complexes of
    knots, hence the explicit bound; None reports that the bound was hit.

    The default bound is taken from the complexes as given.  Both are then
    validated and reduced, and the H_0 class data of each is computed once
    and reused at every degree.  chain_map_lattice, by contrast, works on
    the complexes as given.
    """
    if bound is None:
        bound = default_distance_bound(c1, c2)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    c1, c2 = _reduced(c1, "distance_d"), _reduced(c2, "distance_d")
    h1, h2 = _h0_class_data(c1), _h0_class_data(c2)
    for n in range(bound + 1):
        if (
            _lattice(c1, c2, -2 * n, h1, h2).image_gcd == 1
            and _lattice(c2, c1, -2 * n, h2, h1).image_gcd == 1
        ):
            return n
    return None


# ---------------------------------------------------------------------------
# explicit inverse witness


def zeta(m: int) -> int:
    """0 for m = 0, 1 mod 4 and 1 for m = 2, 3 mod 4."""
    return 0 if m % 4 in (0, 1) else 1


@dataclass
class InverseWitness:
    """Verified section/retraction pair of the unit summand of C (x) dual(C)."""

    product: GradedComplex
    f: dict[str, GElem]
    g: dict[str, GElem]


def inverse_witness(complex: GradedComplex) -> InverseWitness:
    """The explicit maps showing C (x) dual(C) splits off t^0 q^0 Z[G].

    f(1) = sum_i (-1)^(zeta tdeg x_i) x_i (x) x_i*, and g is the matching
    functional scaled by 1/chi; both are verified to be chain maps with
    g(f(1)) = 1 before returning.
    """
    chi = sum(-1 if g.tdeg % 2 else 1 for g in complex.generators)
    if chi not in (1, -1):
        raise ValueError(f"Euler characteristic {chi} is not a unit of Z[G]")
    product = tensor(complex, dual(complex))
    f: dict[str, GElem] = {}
    gmap: dict[str, GElem] = {}
    for gen in complex.generators:
        diag = f"{gen.id}(x){gen.id}*"
        sign_f = -1 if zeta(gen.tdeg) else 1
        sign_g = sign_f * (-1 if gen.tdeg % 2 else 1)
        f[diag] = GElem(sign_f, 0)
        gmap[diag] = GElem(chi * sign_g, 0)

    # f is a chain map iff d(f(1)) = 0
    residue: dict[str, GElem] = {}
    for gid, coeff in f.items():
        for tgt, val in product.out_of(gid).items():
            residue[tgt] = residue.get(tgt, GElem(0)).plus(coeff * val)
    if any(not v.is_zero() for v in residue.values()):
        raise AssertionError("inverse witness f is not a chain map")
    # g is a chain map iff it kills every boundary from degree -1
    for gen in product.generators:
        if gen.tdeg != -1:
            continue
        acc = GElem(0)
        for tgt, val in product.out_of(gen.id).items():
            coeff = gmap.get(tgt)
            if coeff is not None:
                acc = acc.plus(val * coeff)
        if not acc.is_zero():
            raise AssertionError("inverse witness g is not a chain map")
    total = GElem(0)
    for gid, coeff in f.items():
        other = gmap.get(gid)
        if other is not None:
            total = total.plus(coeff * other)
    if total != GElem(1, 0):
        raise AssertionError(f"g(f(1)) = {total!r}, expected 1")
    return InverseWitness(product=product, f=f, g=gmap)
