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
invariant entry points (schuetz_sz, and z_iso_exists and distance_d in zeq)
validate their input, then reduce it, and work on the reduced complex.
Validation comes first because cancelling can turn an invalid complex into
a valid one.  rasmussen_s hands the complex as given to field_normal_form,
which validates it and then cancels the units on its own store.  The
routines whose output names the input's generators or describes it as
given (the homology profile, the H_0 class data and zeq's chain-map
lattice) work on the complex as given.  The entry points validate their
input once, in _reduced or field_normal_form; the H_0 class data, which
several of them share, assumes input that has passed validate.

At G = 1 every +-1 entry is a unit, whatever its G-power, so knot-likeness
and the H_0 class data cancel all of them first (Bar-Natan's Gaussian
elimination, "Fast Khovanov homology computations", JKTR 16, 2007).
Smith forms and dense kernels run on the small remainder only, and the
class data are mapped back through the logged cancellations.  Filtration
level k is the image gcd of zeq's chain-map lattice from q^k Z[G], one
sparse elimination (simplify._eliminate) per quantum degree that holds a
degree-0 generator, not per degree in the span between them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .complexes import Generator, GradedComplex, _require_valid, unit_complex
from .simplify import NotKnotLikeError, _Store, field_normal_form, reduce


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
    return _g1_matrix(complex, srcs, tgts), srcs, tgts


def _g1_matrix(complex: GradedComplex, srcs: list[str], tgts: list[str]) -> list[list[int]]:
    tix = {gid: i for i, gid in enumerate(tgts)}
    mat = [[0] * len(srcs) for _ in tgts]
    for j, src in enumerate(srcs):
        for tgt, val in complex.out_of(src).items():
            mat[tix[tgt]][j] = val
    return mat


def integer_homology_profile(complex: GradedComplex) -> dict[int, tuple[int, list[int]]]:
    """(free rank, torsion orders > 1) of H(C at G=1) per homological degree
    of a generator; the homology is zero in every other degree.  The
    generators are grouped by degree in one scan, not one scan per degree."""
    rank, kernel, torsion = {}, {}, {}
    by_t: dict[int, list[str]] = {}
    for g in complex.generators:
        by_t.setdefault(g.tdeg, []).append(g.id)
    degrees = sorted(by_t)
    for t in degrees:
        facs = intmat.smith_form(_g1_matrix(complex, by_t[t], by_t.get(t + 1, [])))
        rank[t] = len(facs)
        kernel[t] = len(by_t[t]) - len(facs)
        torsion[t] = [f for f in facs if f > 1]
    return {t: (kernel[t] - rank.get(t - 1, 0), torsion.get(t - 1, [])) for t in degrees}


def knotlike_check(complex: GradedComplex) -> bool:
    """Axiomatic knot-likeness: H(C at G=1) is Z in degree 0 and 0 elsewhere.

    Homology is a homotopy invariant, so it is taken of the remainder of
    _g1_eliminate.  Raises ValueError on a complex that fails validate.
    """
    _require_valid(complex, "knot-likeness")
    return _knotlike(_g1_eliminate(complex)[0])


class _G1Store(_Store):
    """The store at G = 1, where every +-1 entry is a unit whatever its G-power.

    Before x -> y of unit u is cancelled, log records what maps degree 0
    back: (x, u, True, the column of y) if t(x) = 0 and (y, u, False, the
    row of x) if t(y) = 0, x and y left out.
    """

    __slots__ = ("log",)

    def pivot(self, v: int, dq: int) -> bool:
        return v == 1 or v == -1

    def cancel(self, src: str, tgt: str) -> None:
        u = self.out[src][tgt]
        if self.deg[src][0] == 0:
            self.log.append((src, u, True, [(a, v) for a, v in self.inc[tgt].items() if a != src]))
        elif self.deg[tgt][0] == 0:
            self.log.append((tgt, u, False, [(w, v) for w, v in self.out[src].items() if w != tgt]))
        super().cancel(src, tgt)


def _g1_eliminate(complex: GradedComplex) -> tuple[GradedComplex, list]:
    """The complex at G = 1 with every +-1 entry cancelled, and the log of
    the cancellations.  The remainder has qdeg 0 and G-power 0 throughout:
    at G = 1 the q-grading means nothing, and an entry may go down in q."""
    store = _G1Store.load(complex)
    store.log = []
    store.eliminate()
    remainder = GradedComplex(
        [Generator(gid, t, 0) for gid, (t, _) in store.deg.items()],
        {(src, tgt): v for src, row in store.out.items() for tgt, v in row.items()},
    )
    return remainder, store.log


def _knotlike(remainder: GradedComplex) -> bool:
    """knotlike_check of the remainder of _g1_eliminate, which has the
    homology of the complex at G = 1."""
    profile = integer_homology_profile(remainder)
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


def _h0_class_data(complex: GradedComplex) -> tuple[list[str], list[int], list[int]]:
    """The t = 0 ids in stored order, and a class covector phi and a
    generator cycle z of H_0(C at G=1) over them.

    The complex must have passed validate, which is not repeated here, and
    be knot-like, so H_0 is Z; otherwise this raises NotKnotLikeError.  The
    +-1 entries are cancelled at G = 1 first (_g1_eliminate), and phi and z
    of the small remainder come from _dense_h0.  Each cancellation x -> y
    of unit u is then undone in reverse order: the inclusion of the
    elimination lemma sends a cycle to one with z[x] = -u sum_a z[a] d(a, y),
    and the class covector composed with the projection takes
    phi[y] = -u sum_w phi[w] d(x, w).  Both are chain maps with projection
    after inclusion the identity, so phi still kills every boundary and
    phi . z = 1.
    """
    remainder, log = _g1_eliminate(complex)
    if not _knotlike(remainder):
        raise NotKnotLikeError(
            f"H_0 class data: complex of rank {complex.total_rank} is not knot-like "
            "(H(C at G=1) is not Z in degree 0 alone)"
        )
    rsrcs, rphi, rz = _dense_h0(remainder)
    phi, z = dict(zip(rsrcs, rphi)), dict(zip(rsrcs, rz))
    for gid, u, into_z, pairs in reversed(log):
        vec = z if into_z else phi
        s = sum(vec.get(a, 0) * v for a, v in pairs)
        if s:
            vec[gid] = -u * s
    srcs = [g.id for g in complex.generators if g.tdeg == 0]
    return srcs, [phi.get(g, 0) for g in srcs], [z.get(g, 0) for g in srcs]


def _dense_h0(complex: GradedComplex) -> tuple[list[str], list[int], list[int]]:
    """The t = 0 ids, phi and z of a knot-like complex by dense integer work.

    With the rows of K a basis of the cycles, boundaries have coordinates in
    that basis, and the one covector psi on those coordinates that kills
    them all is the class map Z^k -> H_0 = Z.  Since the cycles are a
    saturated lattice, phi with K phi = psi is integral: phi kills every
    boundary and phi . v is the class of any cycle v.  z = x K for an x with
    psi . x = 1, so phi . z = 1.
    """
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


# the longest filtration tuple schuetz_sz writes out, not counting k0
_MAX_GL = 10**4
# unit_complex() and its zeq._side, written out: u is its own cycle and
# class covector, and no entry leads into it
_UNIT = unit_complex()
_UNIT_SIDE = (["u"], [1], [1], {"u": (0, [])})


def schuetz_sz(complex: GradedComplex) -> SZTuple:
    """The filtration tuple of H_0(C at G=1) by quantum-degree support.

    A chain map of quantum degree k from the unit t^0 q^0 Z[G] to C sends
    u to sum_y a_y G^((q_y - k)/2) y.  It is a chain map exactly when
    sum_y a_y y is an integer cycle supported in quantum degrees >= k, and
    lambda of it is phi . a.  So m_k, the gcd of phi on those cycles, is
    the image gcd of zeq's chain-map lattice from the unit in degree k.  It
    changes only at the qdegs of degree-0 generators, so it is computed
    once per qdeg.  A gl above _MAX_GL raises ValueError.
    """
    from . import zeq  # zeq imports this module

    complex = _reduced(complex, "schuetz_sz")
    side = zeq._side(complex)
    qdegs = {complex.gen(gid).qdeg for gid in side[0]}
    m_at = {k: zeq._lattice(_UNIT, complex, k, _UNIT_SIDE, side).image_gcd for k in qdegs}
    # phi . z = 1 for the cycle z on all of degree 0, so some m is 1
    top = max(k for k, m in m_at.items() if m)
    full = max(k for k, m in m_at.items() if m == 1)
    if (top - full) // 2 > _MAX_GL:
        raise ValueError(f"schuetz_sz: the filtration tuple has gl = {(top - full) // 2}, above {_MAX_GL}")
    m_by_k, m = {}, 0
    for k in range(top, full - 1, -2):  # m_k is m_at of the least level >= k
        m = m_by_k[k] = m_at.get(k, m)
    return tuple_from_filtration(m_by_k)
