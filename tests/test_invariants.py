import random

import pytest

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    NotKnotLikeError,
    build_ck,
    build_staircase,
    direct_sum,
    distance_d,
    dual,
    generator_cycle,
    knotlike_check,
    rasmussen_s,
    schuetz_sz,
    shift,
    tensor,
    unit_complex,
    z_iso_exists,
)
from khconc.invariants import tuple_from_filtration

import support


class TestKnotlike:
    def test_staircases(self):
        for chain in [(), (2,), (2, 4), (3, 0), (2, 2, 2)]:
            assert knotlike_check(build_staircase(chain))

    def test_unit(self):
        assert knotlike_check(unit_complex())
        assert knotlike_check(shift(unit_complex(), 0, 4))

    def test_pure_g_edge_not_knotlike(self):
        c = GradedComplex(
            [Generator("a", 0, 0), Generator("b", 1, 2)],
            {("a", "b"): GElem(1, 1)},
        )
        assert not knotlike_check(c)

    def test_torsion_not_knotlike(self):
        c = GradedComplex(
            [Generator("a", 0, 0), Generator("b", 1, 0), Generator("u", 0, 0)],
            {("a", "b"): GElem(2, 0)},
        )
        assert not knotlike_check(c)

    def test_empty_not_knotlike(self):
        from khconc import empty_complex

        assert not knotlike_check(empty_complex())

    def test_wrong_degree_not_knotlike(self):
        assert not knotlike_check(shift(unit_complex(), 1, 0))


class TestRasmussen:
    def test_power_staircases(self):
        for n in (1, 2, 3):
            c = build_staircase((2**n,))
            assert rasmussen_s(c, 2) == 2
            assert rasmussen_s(c, 0) == 0
            assert rasmussen_s(c, 3) == 0

    def test_unit(self):
        for char in (0, 2, 3, 5):
            assert rasmussen_s(unit_complex(), char) == 0
        assert rasmussen_s(shift(unit_complex(), 0, 6), 0) == 6

    def test_additive_under_tensor(self):
        rng = random.Random(41)
        chains = [(2,), (3,), (4,), (2, 4), (9,)]
        for _ in range(8):
            a = build_staircase(rng.choice(chains))
            b = build_staircase(rng.choice(chains))
            t = tensor(a, b)
            for char in (0, 2, 3):
                assert rasmussen_s(t, char) == rasmussen_s(a, char) + rasmussen_s(b, char)

    def test_dual_negates(self):
        for chain in [(2,), (4,), (2, 4), (3, 9)]:
            c = build_staircase(chain)
            for char in (0, 2, 3):
                assert rasmussen_s(dual(c), char) == -rasmussen_s(c, char)

    def test_composite_char_rejected(self):
        with pytest.raises(ValueError):
            rasmussen_s(unit_complex(), 6)

    def test_staircase_char_dependence(self):
        # s_p sees exactly the prime p part of the steps
        c = build_staircase((6,))
        assert rasmussen_s(c, 2) == 2
        assert rasmussen_s(c, 3) == 2
        assert rasmussen_s(c, 5) == 0
        assert rasmussen_s(c, 0) == 0


class TestTupleFromFiltration:
    def test_worked_example(self):
        # 0 subset 6Z subset 2Z subset Z reading k = 4, 2, 0
        t = tuple_from_filtration({6: 0, 4: 6, 2: 2, 0: 1, -2: 1})
        assert t.as_tuple() == (4, 3, 2)
        assert t.gl == 2

    def test_immediate_full(self):
        t = tuple_from_filtration({2: 0, 0: 1})
        assert t.as_tuple() == (0,)
        assert t.gl == 0

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            tuple_from_filtration({0: 0})


class TestSchuetzSz:
    def test_staircases_trivial(self):
        for chain in [(2,), (2, 4), (3, 9), (2, 2)]:
            assert schuetz_sz(build_staircase(chain)).as_tuple() == (0,)

    def test_dual_staircase_reads_steps_reversed(self):
        assert schuetz_sz(dual(build_staircase((2, 4)))).as_tuple() == (0, 4, 2)
        assert schuetz_sz(dual(build_staircase((2, 2, 2)))).as_tuple() == (0, 2, 2, 2)
        assert schuetz_sz(dual(build_staircase((3,)))).as_tuple() == (0, 3)

    def test_ck_family(self):
        for k in (1, 2, 3):
            assert schuetz_sz(build_ck(k)).as_tuple() == (0, 2)
            assert schuetz_sz(dual(build_ck(k))).as_tuple() == (0,)

    def test_rank_one(self):
        assert schuetz_sz(shift(unit_complex(), 0, 4)).as_tuple() == (4,)

    def test_k0_equals_s0(self):
        cases = [
            build_staircase((2, 4)),
            dual(build_staircase((2, 4))),
            build_ck(2),
            tensor(build_staircase((2,)), dual(build_staircase((4,)))),
            shift(unit_complex(), 0, -2),
        ]
        for c in cases:
            assert schuetz_sz(c).k0 == rasmussen_s(c, 0)

    def test_acyclic_padding_invariance(self):
        pad = GradedComplex(
            [Generator("z0", 0, 4), Generator("z1", 1, 4)],
            {("z0", "z1"): GElem(1, 0)},
        )
        c = dual(build_staircase((2, 4)))
        assert schuetz_sz(direct_sum(c, pad)) == schuetz_sz(c)

    def test_not_knotlike_rejected(self):
        with pytest.raises(NotKnotLikeError):
            schuetz_sz(GradedComplex([Generator("a", 1, 0)], {}))

    def test_invalid_complex_is_value_error(self):
        # d^2 != 0 through a -> b -> c, yet the G = 1 ranks look knot-like
        c = GradedComplex(
            [Generator("a", -1, 0), Generator("b", 0, 0), Generator("x", 0, 0),
             Generator("y", 0, 0), Generator("c", 1, 0)],
            {("a", "b"): GElem(1, 0), ("b", "c"): GElem(1, 0)},
        )
        calls = [
            schuetz_sz,
            generator_cycle,
            lambda c: z_iso_exists(c, unit_complex(), 0),
            lambda c: z_iso_exists(unit_complex(), c, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="invalid complex: d\\^2 != 0"):
                call(c)
        with pytest.raises(ValueError, match="knot-likeness: invalid complex: d\\^2 != 0"):
            knotlike_check(c)

    def test_validation_precedes_reduction(self):
        c = support.invalid_reducing_to_unit()
        calls = [
            ("rasmussen_s", lambda c: rasmussen_s(c, 0)),
            ("schuetz_sz", schuetz_sz),
            ("knot-likeness", knotlike_check),
            ("z_iso_exists", lambda c: z_iso_exists(c, unit_complex(), 0)),
            ("z_iso_exists", lambda c: z_iso_exists(unit_complex(), c, 0)),
            ("distance_d", lambda c: distance_d(c, unit_complex())),
        ]
        for layer, call in calls:
            with pytest.raises(ValueError, match=f"^{layer}: invalid complex: d\\^2 != 0"):
                call(c)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(43)
        cases = [
            dual(build_staircase((2, 4))),
            build_ck(1),
            dual(build_ck(1)),
            tensor(build_staircase((2,)), dual(build_staircase((4,)))),
        ]
        for c in cases:
            assert c.total_rank <= 9
            expected = support.bruteforce_sz(c)
            assert expected is not None
            assert schuetz_sz(c).as_tuple() == expected

    def test_divisibility_of_indices(self):
        for c in [dual(build_staircase((2, 4, 8))), build_ck(2)]:
            t = schuetz_sz(c)
            assert all(k >= 1 for k in t.ks)

