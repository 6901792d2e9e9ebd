import random

import pytest
from hypothesis import given, settings, strategies as st

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    NotKnotLikeError,
    build_ck,
    build_staircase,
    cancel_pivot,
    direct_sum,
    dual,
    euler_char,
    field_normal_form,
    graded_rank,
    rasmussen_s,
    reduce,
    shift,
    split_summands,
    tensor,
    to_json,
    unit_complex,
    validate,
)

from support import (
    acyclic_square,
    entry_multiset,
    expected_truncated_dims,
    g1_field_homology_dims,
    monomial,
    random_knotlike,
    reference_split_summands,
    scramble,
    truncated_homology_dims,
)


def g1_homology_dims(c):
    """G = 1 homology dims over Q and small prime fields, by field ranks."""
    return {char: g1_field_homology_dims(c, char) for char in (0, 2, 3, 5)}


class TestCancelPivot:
    def test_acyclic_pair_vanishes(self):
        c = acyclic_square()
        out = cancel_pivot(c, (f"sq.a", f"sq.b"))
        assert out.total_rank == 0

    def test_non_unit_rejected(self):
        c = build_staircase((2,))
        with pytest.raises(ValueError):
            cancel_pivot(c, ("x1", "y1"))

    def test_missing_entry_rejected(self):
        c = build_staircase((2,))
        with pytest.raises(KeyError):
            cancel_pivot(c, ("x1", "nope"))

    def test_euler_char_preserved(self):
        c = direct_sum(build_staircase((2, 4)), acyclic_square())
        out = cancel_pivot(c, ("sq.a", "sq.b"))
        assert euler_char(out) == euler_char(c)
        assert out.total_rank == c.total_rank - 2

    def test_coprime_product_cancels_to_displayed_shape(self):
        # the basis-changed tensor differential with its 1 and -1 pivots:
        # cancelling both leaves a 3 x 2 complex with rows (0 b G) (a 0 G)
        a, b = 2, 3
        gens = [
            Generator("c1", 0, 4), Generator("c2", 0, 2),
            Generator("c3", 0, 2), Generator("c4", 0, 0),
            Generator("m1", 1, 4), Generator("m2", 1, 4),
            Generator("m3", 1, 2), Generator("m4", 1, 2),
            Generator("top", 2, 4),
        ]
        alpha, beta = -1, 1  # b*beta + a*alpha = 1
        assert b * beta + a * alpha == 1
        entries = {
            ("c1", "m1"): GElem(1, 0),
            ("c2", "m1"): GElem(beta, 1),
            ("c3", "m1"): GElem(-alpha, 1),
            ("c2", "m2"): GElem(-a, 1),
            ("c3", "m2"): GElem(b, 1),
            ("c3", "m3"): GElem(b, 0),
            ("c4", "m3"): GElem(1, 1),
            ("c2", "m4"): GElem(a, 0),
            ("c4", "m4"): GElem(1, 1),
            ("m2", "top"): GElem(-1, 0),
            ("m3", "top"): GElem(1, 1),
            ("m4", "top"): GElem(-1, 1),
        }
        c = GradedComplex(gens, entries)
        assert validate(c) == []
        step1 = cancel_pivot(c, ("c1", "m1"))
        step2 = cancel_pivot(step1, ("m2", "top"))
        assert validate(step2) == []
        assert step2.total_rank == 5
        t0 = sorted(g.id for g in step2.generators if g.tdeg == 0)
        assert t0 == ["c2", "c3", "c4"]
        assert monomial(step2, "c3", "m3") == GElem(b, 0)
        assert monomial(step2, "c2", "m4") == GElem(a, 0)
        assert monomial(step2, "c4", "m3") == GElem(1, 1)
        assert monomial(step2, "c4", "m4") == GElem(1, 1)
        assert step2.entry("c2", "m3") == 0
        assert step2.entry("c3", "m4") == 0


class TestReduce:
    def test_staircase_untouched(self):
        c = build_staircase((2, 4))
        assert reduce(c) == c

    def test_idempotent(self):
        c = direct_sum(build_staircase((2,)), acyclic_square())
        once = reduce(c)
        assert reduce(once) == once

    def test_deterministic(self):
        c = direct_sum(direct_sum(acyclic_square(tag="s1"), acyclic_square(tag="s2")), build_staircase((3,)))
        assert to_json(reduce(c)) == to_json(reduce(c))

    def test_preserves_g1_homology(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_unit_riddled_complex(rng)
            assert validate(c) == []
            r = reduce(c)
            assert validate(r) == []
            assert g1_homology_dims(c) == g1_homology_dims(r)
            assert not any(monomial(r, s, t).is_unit() for s, t, _ in r.iter_entries())
            assert euler_char(r) == euler_char(c)

    def test_inhomogeneous_entry_rejected(self):
        # the degrees force G^0 on a -> b, so no complex holds a stored G there
        # and reduce, cancel_pivot and split_summands never see one
        gens = [Generator("a", 0, 0), Generator("b", 1, 0)]
        with pytest.raises(ValueError, match="^entry a->b: G-power 1, homogeneity forces 0"):
            GradedComplex(gens, {("a", "b"): GElem(1, 1)})


def random_unit_riddled_complex(rng):
    """Random valid complex with plenty of unit entries to cancel."""
    gens = []
    for t in range(0, 3):
        for i in range(rng.randint(1, 3)):
            gens.append(Generator(f"t{t}g{i}", t, 2 * rng.randint(0, 2)))
    by_t = {}
    for g in gens:
        by_t.setdefault(g.tdeg, []).append(g)
    entries = {}
    for t in (0, 1):
        for gs in by_t.get(t, []):
            for gt in by_t.get(t + 1, []):
                if gt.qdeg >= gs.qdeg and rng.random() < 0.6:
                    entries[(gs.id, gt.id)] = GElem(
                        rng.choice([1, -1, 2, 3]), (gt.qdeg - gs.qdeg) // 2
                    )
    c = GradedComplex(gens, entries)
    # repair d^2 = 0 by dropping t1 -> t2 entries that break it, greedily
    b = c.builder()
    for x in list(b.gens):
        if b.gens[x].tdeg != 0:
            continue
        # every path x -> y -> z has the G-power (q_z - q_x)/2, so scalars add
        acc = {}
        for y, v1 in list(b.out[x].items()):
            for z, v2 in list(b.out[y].items()):
                acc[z] = acc.get(z, 0) + v1.scalar * v2.scalar
        for z, residue in acc.items():
            if residue:
                # remove one contributing middle edge
                for y, v1 in list(b.out[x].items()):
                    if z in b.out[y]:
                        b.set_entry(y, z, GElem(0))
                        break
    return b.freeze()


class TestFieldNormalForm:
    def test_power_of_two_staircase_char2(self):
        for n in (1, 2, 3):
            _, nf = field_normal_form(build_staircase((2**n,)), 2)
            assert nf.s == 2
            assert nf.pieces == ((0, 0, 1),)

    def test_power_of_two_staircase_char0_char3(self):
        for char in (0, 3):
            _, nf = field_normal_form(build_staircase((2**2,)), char)
            assert nf.s == 0

    def test_unit_complex(self):
        for char in (0, 2, 5):
            fc, nf = field_normal_form(unit_complex(), char)
            assert nf.s == 0 and nf.pieces == ()
            assert len(fc.generators) == 1

    def test_empty_complex_marker(self):
        from khconc import empty_complex

        _, nf = field_normal_form(empty_complex(), 0)
        assert nf.s is None

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            field_normal_form(unit_complex(), 4)

    def test_characteristic_check_is_exact_and_bounded(self):
        from khconc.simplify import check_characteristic

        for p in (10**401 + 1, 3317044064679887385961981):
            with pytest.raises(ValueError, match="below 3317044064679887385961981"):
                check_characteristic(p)
        # strong pseudoprimes to the first 7, 9 and 12 prime bases; Carmichael numbers
        for n in (341550071728321, 3825123056546413051, 318665857834031151167461, 561, 41041, 1, -3):
            with pytest.raises(ValueError, match="0 or a prime"):
                check_characteristic(n)
        for p in (0, 2, 41, 43, 2**61 - 1, 10**18 + 3, 10**24 + 7):
            check_characteristic(p)
        assert field_normal_form(unit_complex(qdeg=4), 2**61 - 1)[1].s == 4

    def test_not_knotlike_detected(self):
        c = acyclic_square()
        with pytest.raises(NotKnotLikeError):
            field_normal_form(c, 0)

    def test_invalid_complex_is_value_error(self):
        # library callers that skip validate get a ValueError, not an internal assertion
        chain = [Generator(x, t, 0) for t, x in enumerate("abc")]
        d_squared = GradedComplex(chain, {("a", "b"): GElem(1), ("b", "c"): GElem(1)})
        with pytest.raises(ValueError, match="d\\^2"):
            rasmussen_s(d_squared, 0)
        # a wrong G-power is rejected when the complex is built
        with pytest.raises(ValueError, match="G-power"):
            GradedComplex(
                [Generator("a", 0, 0), Generator("b", 1, 2), Generator("c", 0, 2)],
                {("a", "b"): GElem(1, 2)},
            )

    def test_rank_accounting_and_parity(self):
        rng = random.Random(17)
        for _ in range(15):
            c = random_knotlike(rng)
            for char in (0, 2, 3):
                fc, nf = field_normal_form(c, char)
                assert nf.s is not None and nf.s % 2 == 0
                assert all(cexp >= 1 for _, _, cexp in nf.pieces)
                assert all(b % 2 == 0 for _, b, _ in nf.pieces)
                assert 2 * len(nf.pieces) + 1 == len(fc.generators)

    def test_invariant_under_basis_change(self):
        rng = random.Random(19)
        for _ in range(12):
            base = random_knotlike(rng)
            scrambled = scramble(base, rng, moves=6)
            assert validate(scrambled) == []
            for char in (0, 2, 3, 5):
                _, nf1 = field_normal_form(base, char)
                # reduce cancels in another order, so this checks the elimination too
                for other in (scrambled, reduce(scrambled)):
                    _, nf2 = field_normal_form(other, char)
                    assert nf1 == nf2

    def test_matches_brute_force_filtration_homology(self):
        rng = random.Random(23)
        for _ in range(12):
            c = scramble(random_knotlike(rng), rng, moves=6)
            for char in (0, 2, 3):
                _, nf = field_normal_form(c, char)
                mmax = max([cexp for _, _, cexp in nf.pieces], default=0) + 2
                for m in range(1, mmax + 1):
                    assert truncated_homology_dims(c, char, m) == expected_truncated_dims(
                        nf, m
                    ), (nf, char, m)


class TestSplitSummands:
    def test_direct_sum_splits(self):
        a = build_staircase((2, 4))
        b = shift(build_ck(1), 0, 4)
        parts = split_summands(direct_sum(a, b))
        assert len(parts) == 2
        ranks = sorted(p.total_rank for p in parts)
        assert ranks == [5, 5]

    def test_staircase_is_single(self):
        assert len(split_summands(build_staircase((2, 4, 8)))) == 1

    def test_empty(self):
        from khconc import empty_complex

        assert split_summands(empty_complex()) == []

    def test_ck_family_splits_off(self):
        # Sigma_(2^k) (x) dual(Sigma_(2^(k+1))) is isomorphic to the direct
        # sum of a q^2-shifted four-generator square and C^k
        for k in (1, 2, 3):
            t = tensor(build_staircase((2**k,)), dual(build_staircase((2 ** (k + 1),))))
            parts = split_summands(reduce(t))
            assert len(parts) == 2, k
            bysize = {p.total_rank: p for p in parts}
            assert set(bysize) == {4, 5}
            ck = build_ck(k)
            assert graded_rank(bysize[5]) == graded_rank(ck)
            assert entry_multiset(bysize[5]) == entry_multiset(ck)
            square = bysize[4]
            sq_expected = GradedComplex(
                [
                    Generator("s3", -1, -2),
                    Generator("s1", 0, 0),
                    Generator("s4", 0, -2),
                    Generator("s2", 1, 0),
                ],
                {
                    ("s3", "s1"): GElem(-1, 1),
                    ("s3", "s4"): GElem(2**k, 0),
                    ("s1", "s2"): GElem(2**k, 0),
                    ("s4", "s2"): GElem(1, 1),
                },
            )
            assert graded_rank(square) == graded_rank(shift(sq_expected, 0, 2))
            assert entry_multiset(square) == entry_multiset(sq_expected)
            # the two parts together exhaust the tensor product
            assert graded_rank(parts[0]) + graded_rank(parts[1]) == graded_rank(t)


STAIRCASE_SPECS = [(), (1,), (2,), (3,), (4,), (2, 4), (1, 2), (2, 2), (3, 9)]


@st.composite
def split_inputs(draw):
    """Scrambled random knot-like complexes, direct sums with shifted copies,
    and Sigma_A (x) dual(Sigma_B), reduced or not."""
    kind = draw(st.sampled_from(["knotlike", "sum", "staircases"]))
    if kind == "staircases":
        a, b = draw(st.sampled_from(STAIRCASE_SPECS)), draw(st.sampled_from(STAIRCASE_SPECS))
        t = tensor(build_staircase(a), dual(build_staircase(b)))
        return reduce(t) if draw(st.booleans()) else t
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c = scramble(random_knotlike(rng, max_pieces=3), rng, moves=rng.randint(0, 12))
    if kind == "sum":
        other = scramble(random_knotlike(rng), rng)
        c = direct_sum(c, shift(other, rng.randint(-1, 1), 2 * rng.randint(-2, 2)))
    return c


@settings(max_examples=200, deadline=None)
@given(c=split_inputs())
def test_split_summands_matches_reference(c):
    parts = split_summands(c)
    expected = reference_split_summands(c)
    assert parts == expected
    assert [p.ids() for p in parts] == [p.ids() for p in expected]


@settings(max_examples=60, deadline=None)
@given(c=split_inputs(), data=st.data())
def test_clear_returns_the_change_in_potential(c, data):
    from khconc.simplify import _Store, _clear

    def potential(store):
        entries = [(a, z) for a, row in store.out.items() for z in row]
        return len(entries), sum(store.deg[z][1] - store.deg[a][1] for a, z in entries)

    store = _Store.load(c)
    deg, out, inc = store.deg, store.out, store.inc
    # every divisibility move of every row and column, as _sparsify lists them
    moves = [
        (o, i, y, y2, o[x][y2] // o[x][y])
        for x in sorted(deg)
        for o, i in ((out, inc), (inc, out))
        for y in o[x]
        for y2 in o[x]
        if y != y2
        and o[x][y2] % o[x][y] == 0
        and abs(deg[y][1] - deg[x][1]) <= abs(deg[y2][1] - deg[x][1])
    ]
    for o, i, y, y2, f in data.draw(st.lists(st.sampled_from(moves), max_size=6)) if moves else []:
        before = potential(store)
        count, power = _clear(o, i, deg, y, y2, f)
        after = potential(store)
        assert (after[0] - before[0], after[1] - before[1]) == (count, power)
