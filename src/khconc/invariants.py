"""Knot-likeness, Rasmussen invariants, and the quantum filtration tuple.

Setting G = 1 turns a complex over Z[G] into a complex of free abelian
groups; a complex is knot-like when that complex has homology Z in degree
0 and nothing else.  The Rasmussen invariant over a field of characteristic
c is the quantum degree of the unique free rank-one summand of the normal
form over F[G].  The tuple invariant reads off the filtration of
H_0(C at G=1) by classes of cycles supported in quantum degree >= k; we
take "supported in degree >= k" as the meaning of the filtration level k,
and the tuple entries are the successive subgroup indices.

Cancelling a unit entry is a homotopy equivalence over Z[G], so the
invariant entry points (rasmussen_s, schuetz_sz, and z_iso_exists and
distance_d in zeq) validate their input, then reduce it, and work on the
reduced complex.  Validation comes first because cancelling can turn an
invalid complex into a valid one.  The routines whose output names the
input's generators or describes it as given (the field normal form, the
homology profile, knot-likeness, the H_0 class data and zeq's chain-map
lattice) work on the complex as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import intmat
from .complexes import GradedComplex, _require_valid
from .simplify import NotKnotLikeError, field_normal_form, reduce


def _reduced(complex: GradedComplex, layer: str) -> GradedComplex:
    """The input validated, then with every unit entry cancelled."""
    _require_valid(complex, layer)
    return reduce(complex)


def g1_matrix(complex: GradedComplex, tdeg: int) -> tuple[list[list[int]], list[str], list[str]]:
    """Integer matrix of the differential C_t -> C_(t+1) at G = 1.

    Returns (matrix, source ids, target ids); rows are targets, columns
    sources, both in stored generator order.
    """
    srcs = [g.id for g in complex.generators if g.tdeg == tdeg]
    tgts = [g.id for g in complex.generators if g.tdeg == tdeg + 1]
    tix = {gid: i for i, gid in enumerate(tgts)}
    mat = [[0] * len(srcs) for _ in tgts]
    for j, src in enumerate(srcs):
        for tgt, val in complex.out_of(src).items():
            mat[tix[tgt]][j] = val.scalar
    return mat, srcs, tgts


def integer_homology_profile(complex: GradedComplex) -> dict[int, tuple[int, list[int]]]:
    """Per homological degree: (free rank, torsion orders > 1) of H(C at G=1)."""
    lo, hi = complex.tdeg_range()
    rank, kernel, torsion = {}, {}, {}
    for t in range(lo - 1, hi + 1):
        mat, srcs, _ = g1_matrix(complex, t)
        facs = intmat.smith_form(mat)
        rank[t] = len(facs)
        kernel[t] = len(srcs) - len(facs)
        torsion[t] = [f for f in facs if f > 1]
    return {t: (kernel[t] - rank[t - 1], torsion[t - 1]) for t in range(lo, hi + 1)}


def knotlike_check(complex: GradedComplex) -> bool:
    """Axiomatic knot-likeness: H(C at G=1) is Z in degree 0 and 0 elsewhere.

    Raises ValueError on a complex that fails validate.
    """
    _require_valid(complex, "knot-likeness")
    profile = integer_homology_profile(complex)
    for t, (free, torsion) in profile.items():
        if torsion:
            return False
        if free != (1 if t == 0 else 0):
            return False
    return bool(profile) and 0 in profile


def rasmussen_s(complex: GradedComplex, characteristic: int) -> int:
    """Quantum degree of the rank-one summand of C (x) F[G], char F given."""
    _, nf = field_normal_form(_reduced(complex, "rasmussen_s"), characteristic)
    if nf.s is None:
        raise NotKnotLikeError("empty complex has no distinguished summand")
    return nf.s


@dataclass(frozen=True)
class SZTuple:
    """Filtration tuple (k0, k_1, ..., k_n); gl is n."""

    k0: int
    ks: tuple[int, ...]

    @property
    def gl(self) -> int:
        return len(self.ks)

    def as_tuple(self) -> tuple[int, ...]:
        return (self.k0, *self.ks)

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.as_tuple())) + ")"


def tuple_from_filtration(m_by_k: dict[int, int]) -> SZTuple:
    """Encode a filtration {k: index m_k} with m_k Z = F_k into its tuple.

    k0 is the largest k with m_k nonzero; the remaining entries are the
    successive indices m_(k0-2(i-1)) / m_(k0-2i) down to the first full level.
    """
    nonzero = [k for k, m in m_by_k.items() if m]
    if not nonzero:
        raise ValueError("filtration is zero everywhere")
    k0 = max(nonzero)
    ks = []
    k = k0
    while m_by_k[k] != 1:
        below = m_by_k.get(k - 2)
        if not below or m_by_k[k] % below != 0:
            raise ValueError(f"filtration indices not nested at level {k}")
        ks.append(m_by_k[k] // below)
        k -= 2
    return SZTuple(k0=k0, ks=tuple(ks))


def _h0_class_data(complex: GradedComplex) -> tuple[list[str], list[int], list[int]]:
    """The t = 0 ids, a class covector phi and a generator cycle z of H_0(C at G=1).

    The complex must pass validate and be knot-like, so H_0 is Z; otherwise
    this raises ValueError or NotKnotLikeError.  With the rows of K a basis
    of the cycles, boundaries have coordinates in that basis, and the one
    covector psi on those coordinates that kills them all is the class map
    Z^k -> H_0 = Z.  Since the cycles are a saturated lattice, phi with
    K phi = psi is integral: phi kills every boundary and phi . v is the
    class of any cycle v.  z = x K for an x with psi . x = 1, so phi . z = 1.
    """
    if not knotlike_check(complex):
        raise NotKnotLikeError(
            f"H_0 class data: complex of rank {complex.total_rank} is not knot-like "
            "(H(C at G=1) is not Z in degree 0 alone)"
        )
    d0, srcs, _ = g1_matrix(complex, 0)
    dm1, _, _ = g1_matrix(complex, -1)
    kernel = intmat.kernel_basis(d0, ncols=len(srcs))
    kmat = intmat.transpose(kernel)
    coords = []
    for bvec in intmat.transpose(dm1):
        sol = intmat.solve(kmat, bvec)
        if sol is None:
            raise ValueError("H_0 class data: a boundary is not a cycle (d^2 != 0 at G=1)")
        coords.append(sol)
    (psi,) = intmat.kernel_basis(coords, ncols=len(kernel))
    x = intmat.solve([psi], [1])
    z = intmat.matvec(kmat, x)
    phi = intmat.solve(kernel, psi)
    return srcs, phi, z


def schuetz_sz(complex: GradedComplex) -> SZTuple:
    """The filtration tuple of H_0(C at G=1) by quantum-degree support.

    m_k is the gcd of phi over a kernel basis of d0 restricted to the
    generators of quantum degree >= k.
    """
    complex = _reduced(complex, "schuetz_sz")
    srcs, phi, _ = _h0_class_data(complex)
    qdegs = [complex.gen(gid).qdeg for gid in srcs]
    d0, _, _ = g1_matrix(complex, 0)
    m_by_k: dict[int, int] = {}
    for k in range(max(qdegs), min(qdegs) - 2, -2):
        keep = [j for j, q in enumerate(qdegs) if q >= k]
        sub = [[row[j] for j in keep] for row in d0]
        kern = intmat.kernel_basis(sub, ncols=len(keep))
        m_by_k[k] = math.gcd(*(sum(phi[j] * u for j, u in zip(keep, vec)) for vec in kern))
    return tuple_from_filtration(m_by_k)
