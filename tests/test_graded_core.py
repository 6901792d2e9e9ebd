import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    LaurentBiPoly,
    build_staircase,
    direct_sum,
    dual,
    empty_complex,
    euler_char,
    from_json,
    graded_rank,
    parse_braid,
    shift,
    tensor,
    to_json,
    unit_complex,
    validate,
)

import support
from cube import exact_cube
from support import monomial


def rand_staircase(rng):
    n = rng.randint(0, 3)
    chain = []
    val = rng.choice([2, 3, 5])
    for _ in range(n):
        chain.append(val)
        val *= rng.choice([1, 2, 3])
    return build_staircase(tuple(chain))


class TestGElem:
    def test_zero_canonical(self):
        assert GElem(0, 5) == GElem(0, 0)

    def test_negative_gpow_rejected(self):
        with pytest.raises(ValueError):
            GElem(1, -1)

    def test_unit(self):
        assert GElem(-1, 0).is_unit()
        assert not GElem(1, 1).is_unit()
        assert not GElem(2, 0).is_unit()

    def test_add_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            GElem(1, 0).plus(GElem(1, 1))


class TestValidate:
    def test_staircase_valid(self):
        assert validate(build_staircase((2,))) == []

    def test_empty_valid(self):
        assert validate(empty_complex()) == []

    def test_homogeneity_violation(self):
        # the constructor is where a G-power is checked, so validate never sees one
        gens = [Generator("a", 0, 0), Generator("b", 1, 0), Generator("c", 1, 2)]
        with pytest.raises(ValueError, match="entry a->b: G-power 1, homogeneity forces 0"):
            GradedComplex(gens, {("a", "b"): GElem(1, 1)})
        for tgt, q in (("b", 1), ("c", 4)):
            bad = [Generator("a", 0, q)] + gens[1:]
            with pytest.raises(ValueError, match=f"entry a->{tgt}: no homogeneous monomial fits"):
                GradedComplex(bad, {("a", tgt): 1})
        c = GradedComplex(gens, {("a", "c"): GElem(3, 1), ("a", "b"): 0})
        assert list(c.iter_entries()) == [("a", "c", 3)] and c.entry("a", "b") == 0

    def test_square_zero_violation(self):
        gens = [Generator("a", 0, 0), Generator("b", 1, 0), Generator("c", 2, 0)]
        c = GradedComplex(gens, {("a", "b"): GElem(1, 0), ("b", "c"): GElem(1, 0)})
        problems = validate(c)
        assert any("d^2" in p for p in problems)

    def test_odd_qdeg_flagged(self):
        c = GradedComplex([Generator("a", 0, 1)], {})
        assert any("odd" in p for p in validate(c))

    def test_homological_step_flagged(self):
        gens = [Generator("a", 0, 0), Generator("b", 0, 0), Generator("c", 2, 0)]
        c = GradedComplex(gens, {("a", "b"): 1, ("a", "c"): 2})
        assert validate(c) == ["entry a->b: homological step 0 != 1", "entry a->c: homological step 2 != 1"]

    def test_non_int_scalar_rejected(self):
        gens = [Generator("a", 0, 0), Generator("b", 1, 0), Generator("c", 0, 2)]
        for bad in (0.5, 1.0, True, Fraction(1), "1"):
            for val in (bad, GElem(bad, 0)):
                with pytest.raises(ValueError, match=f"entry a->b: scalar {re.escape(repr(bad))} is not an int"):
                    GradedComplex(gens, {("a", "b"): val})

    def test_matches_reference_on_invalid_complexes(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(300):
            c = support.random_invalid(rng)
            problems = validate(c)
            assert problems == support.reference_validate(c)
            seen.update(kind for kind in ("odd quantum", "homological step", "d^2") if any(kind in p for p in problems))
        assert seen == {"odd quantum", "homological step", "d^2"}

    def test_matches_reference_on_valid_complexes(self):
        rng = random.Random(31)
        cases = [exact_cube(parse_braid(b)) for b in ("BR[2; 1,1,1]", "BR[3; 1,-2,1,-2]")]
        for _ in range(20):
            cases += [support.random_knotlike(rng), rand_staircase(rng)]
            cases.append(support.scramble(support.random_knotlike(rng), rng))
            cases.append(support.scramble(rand_staircase(rng), rng))
        for c in cases:
            assert validate(c) == support.reference_validate(c) == []


class TestGradedRank:
    def test_staircase_formula(self):
        # t^0 (q^2n + ... + q^0) + t^1 (q^2n + ... + q^2)
        for n, chain in [(1, (2,)), (2, (2, 4)), (3, (2, 4, 8))]:
            expected = LaurentBiPoly(
                {(0, 2 * k): 1 for k in range(n + 1)}
            ) + LaurentBiPoly({(1, 2 * k): 1 for k in range(1, n + 1)})
            assert graded_rank(build_staircase(chain)) == expected

    def test_unit(self):
        assert graded_rank(unit_complex()) == LaurentBiPoly.monomial(0, 0)

    def test_tensor_multiplicative(self):
        rng = random.Random(3)
        for _ in range(10):
            a, b = rand_staircase(rng), rand_staircase(rng)
            assert graded_rank(tensor(a, b)) == graded_rank(a) * graded_rank(b)

    def test_sum_additive(self):
        rng = random.Random(4)
        for _ in range(10):
            a, b = rand_staircase(rng), rand_staircase(rng)
            assert graded_rank(direct_sum(a, b)) == graded_rank(a) + graded_rank(b)

    def test_dual_inverts_variables(self):
        rng = random.Random(5)
        for _ in range(10):
            a = rand_staircase(rng)
            assert graded_rank(dual(a)) == graded_rank(a).inverted()


class TestShift:
    def test_identity(self):
        c = build_staircase((2, 4))
        assert shift(c, 0, 0) == c

    def test_inverse(self):
        c = build_staircase((3,))
        assert shift(shift(c, 1, 2), -1, -2) == c

    def test_odd_shift_rejected(self):
        with pytest.raises(ValueError):
            shift(unit_complex(), 0, 1)

    def test_shift_of_trivial_matches_zero_staircase_ranks(self):
        # Sigma_(0) has the graded rank of q^2 Z[G] plus an acyclic edge
        c0 = build_staircase((0,))
        assert validate(c0) == []
        q2 = shift(unit_complex(), 0, 2)
        assert graded_rank(q2) == LaurentBiPoly.monomial(0, 2)
        assert (0, 2) in graded_rank(c0).terms


class TestDual:
    def test_involution(self):
        c = build_staircase((2, 4))
        dd = dual(dual(c))
        assert graded_rank(dd) == graded_rank(c)
        strip = lambda gid: gid.rstrip("*")
        entries = {(strip(s), strip(t)): v for s, t, v in dd.iter_entries()}
        assert entries == {(s, t): v for s, t, v in c.iter_entries()}

    def test_dual_staircase_transpose(self):
        d = dual(build_staircase((2,)))
        assert validate(d) == []
        tm1 = [g for g in d.generators if g.tdeg == -1]
        assert len(tm1) == 1
        out = d.out_of(tm1[0].id)
        assert sorted(out.values()) == [1, 2]

    def test_euler_char_invariant(self):
        rng = random.Random(6)
        for _ in range(10):
            c = rand_staircase(rng)
            assert euler_char(dual(c)) == euler_char(c)


class TestTensor:
    def test_unit_is_neutral(self):
        c = build_staircase((2, 4))
        t = tensor(c, unit_complex(gid="one"))
        assert graded_rank(t) == graded_rank(c)
        entries = {
            (s.replace("(x)one", ""), tt.replace("(x)one", "")): v
            for s, tt, v in t.iter_entries()
        }
        assert entries == {(s, tt): v for s, tt, v in c.iter_entries()}

    def test_koszul_signs_match_coprime_product(self):
        # d0 and d1 of Sigma_(a) (x) Sigma_(b) in the standard ordered basis
        a, b = 2, 3
        t = tensor(build_staircase((a,)), build_staircase((b,)))
        assert validate(t) == []

        def e(src_l, src_r, tgt_l, tgt_r):
            return monomial(t, f"{src_l}(x){src_r}", f"{tgt_l}(x){tgt_r}")

        # left factor generators x1, x2, y1; right factor x1, x2, y1,
        # playing the roles of x1, x2, x3 and y1, y2, y3 below.
        # d0 columns on the basis (x1y1, x1y2, x2y1, x2y2):
        assert e("x1", "x1", "x1", "y1") == GElem(b, 0)
        assert e("x1", "x1", "y1", "x1") == GElem(a, 0)
        assert e("x1", "x2", "x1", "y1") == GElem(1, 1)
        assert e("x1", "x2", "y1", "x2") == GElem(a, 0)
        assert e("x2", "x1", "y1", "x1") == GElem(1, 1)
        assert e("x2", "x1", "x2", "y1") == GElem(b, 0)
        assert e("x2", "x2", "x2", "y1") == GElem(1, 1)
        assert e("x2", "x2", "y1", "x2") == GElem(1, 1)
        # d1 row (a, -b, G, -G) on the basis (x1y3, x3y1, x2y3, x3y2)
        assert e("x1", "y1", "y1", "y1") == GElem(a, 0)
        assert e("y1", "x1", "y1", "y1") == GElem(-b, 0)
        assert e("x2", "y1", "y1", "y1") == GElem(1, 1)
        assert e("y1", "x2", "y1", "y1") == GElem(-1, 1)

    def test_square_zero_on_products(self):
        rng = random.Random(7)
        for _ in range(6):
            t = tensor(rand_staircase(rng), rand_staircase(rng))
            assert validate(t) == []

    def test_associative_reassociation(self):
        a, b, c = build_staircase((2,)), build_staircase((3,)), build_staircase((0,))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        relabel = {}
        for g1 in a.generators:
            for g2 in b.generators:
                for g3 in c.generators:
                    relabel[f"{g1.id}(x){g2.id}(x){g3.id}"] = (g1.id, g2.id, g3.id)
        lmap = {(s, t): v for s, t, v in left.iter_entries()}
        rmap = {(s, t): v for s, t, v in right.iter_entries()}
        assert {(relabel[s], relabel[t]): v for (s, t), v in lmap.items()} == {
            (relabel[s], relabel[t]): v for (s, t), v in rmap.items()
        }


class TestEulerChar:
    def test_staircases_are_one(self):
        for chain in [(), (2,), (2, 4), (3, 9, 9)]:
            assert euler_char(build_staircase(chain)) == 1

    def test_empty_zero(self):
        assert euler_char(empty_complex()) == 0

    def test_multiplicative_under_tensor(self):
        rng = random.Random(8)
        for _ in range(8):
            a, b = rand_staircase(rng), rand_staircase(rng)
            assert euler_char(tensor(a, b)) == euler_char(a) * euler_char(b)

    def test_direct_sum_additive(self):
        a, b = build_staircase((2,)), dual(build_staircase((4,)))
        assert euler_char(direct_sum(a, b)) == euler_char(a) + euler_char(b)


scalars = st.integers(-(10**30), 10**30).filter(lambda x: x != 0)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6), scalars), max_size=6))
@settings(max_examples=80, deadline=None)
def test_json_roundtrip(spec):
    gens = []
    entries = {}
    for i, (t, q, scal) in enumerate(spec):
        gens.append(Generator(f"g{i}", t, 2 * q))
    for i in range(len(spec) - 1):
        src, tgt = gens[i], gens[i + 1]
        if tgt.tdeg == src.tdeg + 1 and tgt.qdeg >= src.qdeg:
            entries[(src.id, tgt.id)] = GElem(spec[i][2], (tgt.qdeg - src.qdeg) // 2)
    c = GradedComplex(gens, entries)
    assert from_json(to_json(c)) == c


def test_json_coeff_precision():
    big = 2**300 + 1
    c = GradedComplex(
        [Generator("a", 0, 0), Generator("b", 1, 0)],
        {("a", "b"): GElem(big, 0)},
    )
    assert from_json(to_json(c)).entry("a", "b") == big
