"""The H_0 class data by +-1 elimination at G = 1, against the dense oracle.

invariants._h0_class_data cancels every +-1 entry at G = 1, runs dense
integer work on the remainder only, and maps phi and z back through the
cancellations.  support.reference_h0_class_data is the dense routine over
every degree-0 generator that it replaced, and support.reference_sz the
dense kernel per filtration level that the sparse schuetz_sz replaced.
The two class data may pick different phi (by a covector vanishing on
cycles) and z (by a boundary), so they are compared through what the
invariants read: phi . z, knot-likeness, the filtration tuple and the
lattice image gcd.
"""

import random

import pytest

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    NotKnotLikeError,
    build_ck,
    build_complex,
    build_staircase,
    chain_map_lattice,
    dual,
    empty_complex,
    knotlike_check,
    parse_braid,
    reduce,
    schuetz_sz,
    shift,
    tensor,
    unit_complex,
    z_equivalent,
)
from khconc import intmat, invariants, zeq
from khconc.invariants import _h0_class_data, g1_matrix

import support


def remainder_case():
    """a (q 0), b (q 2) -> c (q 4) with d a = 2G^2 c and d b = 3G c: knot-like,
    with no +-1 entry, so its G = 1 remainder keeps all three generators."""
    return GradedComplex(
        [Generator("a", 0, 0), Generator("b", 0, 2), Generator("c", 1, 4)],
        {("a", "c"): GElem(2, 2), ("b", "c"): GElem(3, 1)},
    )


def knot(word):
    return reduce(build_complex(parse_braid(word)))


def knotlike_cases():
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        c = support.random_knotlike(rng, max_pieces=3)
        s = support.scramble(c, rng, moves=12)
        cases += [c, s, dual(s)]
    cases += [build_ck(k) for k in (1, 2, 3)] + [dual(build_ck(k)) for k in (1, 2, 3)]
    cases += [dual(build_staircase(chain)) for chain in ((2, 4), (2, 2, 2), (3,), (3, 9))]
    cases += [build_staircase((2, 4)), shift(unit_complex(), 0, 4)]
    trefoil, fig8 = knot("BR[2; 1,1,1]"), knot("BR[3; 1,-2,1,-2]")
    cases += [tensor(trefoil, dual(trefoil)), tensor(trefoil, trefoil), tensor(fig8, fig8)]
    cases.append(tensor(build_ck(1), fig8))
    with_ck = tensor(remainder_case(), build_ck(1))
    cases += [remainder_case(), with_ck, dual(with_ck)]
    return cases


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_class_data_against_dense_oracle():
    for c in knotlike_cases():
        srcs, phi, z = _h0_class_data(c)
        rsrcs, rphi, rz = support.reference_h0_class_data(c)
        d0, dsrcs, _ = g1_matrix(c, 0)
        assert srcs == rsrcs == dsrcs
        assert not any(intmat.matvec(d0, z))
        dm1, _, _ = g1_matrix(c, -1)
        assert all(dot(phi, col) == 0 for col in intmat.transpose(dm1))
        assert dot(phi, z) == 1
        # both are class maps and generators, so they agree up to one sign
        assert dot(rphi, z) == dot(phi, rz) in (1, -1)


def test_invariants_equal_the_reference(monkeypatch):
    cases = knotlike_cases()
    ours = [(schuetz_sz(c), knotlike_check(c)) for c in cases]
    pairs = [(cases[i], cases[i + 1]) for i in range(0, 30, 3)]
    pairs.append((remainder_case(), tensor(remainder_case(), build_ck(1))))
    gcds = [chain_map_lattice(a, b, q).image_gcd for a, b in pairs for q in (0, -2)]
    monkeypatch.setattr(invariants, "_h0_class_data", support.reference_h0_class_data)
    monkeypatch.setattr(zeq, "_h0_class_data", support.reference_h0_class_data)
    assert ours == [(schuetz_sz(c), support.reference_knotlike(c)) for c in cases]
    assert gcds == [chain_map_lattice(a, b, q).image_gcd for a, b in pairs for q in (0, -2)]
    assert all(verdict for _, verdict in ours)


def test_remainder_without_units_keeps_every_generator():
    c = remainder_case()
    remainder, log = invariants._g1_eliminate(c)
    assert remainder.total_rank == 3 and log == []
    srcs, phi, z = _h0_class_data(c)
    assert dict(zip(srcs, z)) in ({"a": 3, "b": -2}, {"a": -3, "b": 2})
    assert dot(phi, z) == 1
    assert schuetz_sz(c).as_tuple() == support.bruteforce_sz(c)


@pytest.mark.parametrize(
    "bad",
    [
        support.torsion_h0(),
        support.acyclic_square(),
        GradedComplex([Generator("a", 0, 0), Generator("b", 1, 2)], {("a", "b"): GElem(1, 1)}),
        shift(unit_complex(), 1, 0),
        empty_complex(),
    ],
    ids=["torsion", "acyclic", "pure-G-edge", "wrong-degree", "empty"],
)
def test_not_knotlike_is_rejected(bad):
    assert not knotlike_check(bad) and not support.reference_knotlike(bad)
    with pytest.raises(NotKnotLikeError):
        _h0_class_data(bad)


def test_schuetz_sz_equals_the_dense_loop():
    """The lattice from the unit per level against one dense kernel per level.

    random_knotlike has tuples of length one, so 30 of them are also
    tensored with a complex of longer tuple and scrambled again.
    """
    rng = random.Random(26)
    cases = [support.scramble(support.random_knotlike(rng, max_pieces=3), rng, moves=12) for _ in range(150)]
    factors = [build_ck(1), build_ck(2), build_staircase((2, 4))]
    factors += [dual(build_staircase(chain)) for chain in ((2, 4), (3,), (2, 2, 2), (3, 9))]
    cases += [support.scramble(tensor(c, rng.choice(factors)), rng, moves=12) for c in cases[:30]]
    cases += [build_ck(k) for k in (1, 2, 3)]
    cases += [dual(build_staircase(chain)) for chain in ((2, 4), (2, 2, 2), (3,))]
    for word in ("BR[2; 1,1,1]", "BR[3; 1,-2,1,-2]", "BR[2; 1,1,1,1,1]"):
        c = knot(word)
        cases += [c, tensor(c, dual(c)), tensor(c, c)]
    double = build_complex(support.double_pd(parse_braid("BR[2; 1,1,1]"), clasp="A"), cap=14)
    cases.append(tensor(double, dual(double)))
    for c in cases:
        assert schuetz_sz(c) == support.reference_sz(c), c.total_rank


def test_dense_work_only_on_the_remainder(monkeypatch):
    """On the rank-125 lattice input no intmat call takes more columns than
    the G = 1 remainder has generators, in the class data, the filtration
    tuple or the lattice."""
    fig8 = knot("BR[3; 1,-2,1,-2]")
    big = tensor(tensor(build_ck(1), fig8), fig8)
    cols = []
    for name in ("kernel_basis", "solve", "smith_form", "transpose", "matvec"):
        real = getattr(intmat, name)

        def recorded(a, *args, _real=real, **kwargs):
            cols.append(len(a[0]) if a else kwargs.get("ncols", 0))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(intmat, name, recorded)
    _h0_class_data(big)
    schuetz_sz(big)
    z_equivalent(big, build_ck(1))
    monkeypatch.undo()
    assert big.total_rank == 125
    assert cols and max(cols) <= invariants._g1_eliminate(big)[0].total_rank, cols
