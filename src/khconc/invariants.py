"""Knot-likeness, Rasmussen invariants, and the quantum filtration tuple.

Setting G = 1 turns a complex over Z[G] into a complex of free abelian
groups; a complex is knot-like when that complex has homology Z in degree
0 and nothing else.  The Rasmussen invariant over a field of characteristic
c is the quantum degree of the unique free rank-one summand of the normal
form over F[G].  The tuple invariant reads off the filtration of
H_0(C at G=1) by classes of cycles supported in quantum degree >= k; we
take "supported in degree >= k" as the meaning of the filtration level k,
and the tuple entries are the successive subgroup indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import intmat
from .complexes import GradedComplex
from .simplify import NotKnotLikeError, field_normal_form


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
        facs = intmat.invariant_factors(mat) if mat and srcs else []
        rank[t] = len(facs)
        kernel[t] = len(srcs) - len(facs)
        torsion[t] = [f for f in facs if f > 1]
    return {t: (kernel[t] - rank[t - 1], torsion[t - 1]) for t in range(lo, hi + 1)}


def knotlike_check(complex: GradedComplex) -> bool:
    """Axiomatic knot-likeness: H(C at G=1) is Z in degree 0 and 0 elsewhere."""
    profile = integer_homology_profile(complex)
    for t, (free, torsion) in profile.items():
        if torsion:
            return False
        if free != (1 if t == 0 else 0):
            return False
    return bool(profile) and 0 in profile


def rasmussen_s(complex: GradedComplex, characteristic: int) -> int:
    """Quantum degree of the rank-one summand of C (x) F[G], char F given."""
    _, nf = field_normal_form(complex, characteristic)
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


def _h0_class_data(complex: GradedComplex):
    """Kernel basis at t=0, and the class functional of H_0(C at G=1).

    Returns (t0 ids, kernel basis columns, project) where project maps an
    integer cycle vector to its coefficient on a fixed generator of H_0.
    """
    d0, srcs, _ = g1_matrix(complex, 0)
    dm1, _, _ = g1_matrix(complex, -1)
    if d0:
        kernel = intmat.kernel_basis(d0)
    else:
        kernel = intmat.kernel_basis([], ncols=len(srcs))
    k = len(kernel)
    kmat = [[kernel[j][i] for j in range(k)] for i in range(len(srcs))]
    boundaries = intmat.transpose(dm1) if dm1 else []
    coords = []
    for bvec in boundaries:
        sol = intmat.solve(kmat, bvec) if k else ([] if not any(bvec) else None)
        if sol is None:
            raise AssertionError("boundary vector outside the kernel lattice")
        coords.append(sol)
    m = [[coords[j][i] for j in range(len(coords))] for i in range(k)]
    if coords:
        sf = intmat.smith_form(m)
        rank = sf.rank
        factors = [f for f in sf.factors if f]
        u = sf.u
        uinv = sf.uinv
    else:
        rank = 0
        factors = []
        u = intmat.identity(k)
        uinv = intmat.identity(k)
    if k - rank != 1 or any(f != 1 for f in factors):
        raise NotKnotLikeError(
            f"H_0(C at G=1) is not infinite cyclic (kernel rank {k}, boundary rank {rank}, "
            f"torsion {[f for f in factors if f != 1]})"
        )

    def project(vec: list[int]) -> int:
        xi = intmat.solve(kmat, vec)
        if xi is None:
            raise ValueError("vector is not a cycle")
        return sum(u[rank][j] * xi[j] for j in range(k))

    generator = [sum(kmat[i][j] * uinv[j][rank] for j in range(k)) for i in range(len(srcs))]
    return srcs, kmat, project, generator


def schuetz_sz(complex: GradedComplex) -> SZTuple:
    """The filtration tuple of H_0(C at G=1) by quantum-degree support."""
    if not knotlike_check(complex):
        raise NotKnotLikeError("filtration tuple requires a knot-like complex")
    srcs, _, project, _ = _h0_class_data(complex)
    qdegs = [complex.gen(gid).qdeg for gid in srcs]
    d0, _, _ = g1_matrix(complex, 0)
    qmax, qmin = max(qdegs), min(qdegs)
    m_by_k: dict[int, int] = {}
    for k in range(qmax, qmin - 2, -2):
        keep = [j for j, q in enumerate(qdegs) if q >= k]
        if not keep:
            m_by_k[k] = 0
            continue
        if d0:
            sub = [[row[j] for j in keep] for row in d0]
            kern = intmat.kernel_basis(sub)
        else:
            kern = intmat.kernel_basis([], ncols=len(keep))
        image = 0
        for vec in kern:
            full = [0] * len(srcs)
            for idx, j in enumerate(keep):
                full[j] = vec[idx]
            image = math.gcd(image, project(full))
        m_by_k[k] = image
    return tuple_from_filtration(m_by_k)
