import random

import pytest

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    NotKnotLikeError,
    build_ck,
    build_staircase,
    chain_map_lattice,
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
    z_equivalent,
    z_iso_exists,
)
from khconc import complexes, intmat, invariants, parse_braid, reduce, simplify, zeq
from khconc.invariants import g1_matrix, integer_homology_profile, tuple_from_filtration

import support
from cube import exact_cube


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

    def test_verdict_is_that_of_the_complex_as_given(self, monkeypatch):
        """Reducing first changes no verdict, and the profile sees only the
        G = 1 remainder, which is at most the reduced rank."""

        def as_given(c):
            profile = integer_homology_profile(c)
            return profile.get(0) == (1, []) and all(p == (0, []) for t, p in profile.items() if t)

        rng = random.Random(12)
        cases = [exact_cube(parse_braid(w)) for w in ("BR[2; 1,1,1]", "BR[3; 1,-2,1,-2]")]
        cases += [support.torsion_h0(), direct_sum(build_ck(1), shift(unit_complex(), 1, 0))]
        for _ in range(12):
            a, b = support.random_knotlike(rng), support.scramble(support.random_knotlike(rng), rng)
            cases += [tensor(a, b), direct_sum(a, b), support.scramble(tensor(a, dual(b)), rng)]
        ranks = []

        def recording(c):
            ranks.append(c.total_rank)
            return integer_homology_profile(c)

        monkeypatch.setattr(invariants, "integer_homology_profile", recording)
        for c in cases:
            ranks.clear()
            verdict = knotlike_check(c)
            assert verdict == as_given(c) == knotlike_check(reduce(c))
            assert ranks[0] == invariants._g1_eliminate(c)[0].total_rank <= reduce(c).total_rank
        assert {knotlike_check(c) for c in cases} == {True, False}


def test_homology_profile_has_the_degrees_of_generators_only():
    t = 10**7
    assert integer_homology_profile(support.far_acyclic_piece(t)) == {
        0: (1, []), t: (0, []), t + 1: (0, []), t + 2: (0, [])
    }
    assert knotlike_check(support.far_acyclic_piece(t))
    torsion = GradedComplex([Generator("a", 3, 0), Generator("b", 4, 0)], {("a", "b"): 2})
    assert integer_homology_profile(torsion) == {3: (0, []), 4: (0, [2])}


def test_homology_profile_is_that_of_one_matrix_per_degree():
    """The profile groups the generators by degree once; it still equals the
    Smith forms of g1_matrix taken degree by degree, on the staircase family
    and on complexes with torsion at G = 1."""

    def per_degree(c):
        degrees = sorted({g.tdeg for g in c.generators})
        facs = {t: intmat.smith_form(g1_matrix(c, t)[0]) for t in degrees}
        kernel = {t: len(g1_matrix(c, t)[1]) - len(facs[t]) for t in degrees}
        return {t: (kernel[t] - len(facs.get(t - 1, [])), [f for f in facs.get(t - 1, []) if f > 1]) for t in degrees}

    chains = [(), (0,), (2,), (3,), (2, 4), (3, 9), (2, 4, 8), (2, 2, 2)]
    stairs = [build_staircase(chain) for chain in chains]
    cases = stairs + [tensor(a, dual(b)) for a in stairs[2:5] for b in stairs[2:5]]
    cases += [support.torsion_h0(), support.non_unit_squares(5), support.far_acyclic_piece(3)]
    profiles = [integer_homology_profile(c) for c in cases]
    assert profiles == [per_degree(c) for c in cases]
    assert any(torsion for p in profiles for _, torsion in p.values())


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
            ("field_normal_form", lambda c: rasmussen_s(c, 0)),
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

    def test_stretched_ck1_tuple_and_its_bound(self):
        for n in range(1, 7):
            c = support.stretched_ck1(n)
            assert schuetz_sz(c).as_tuple() == support.reference_sz(c).as_tuple() == (0, *[1] * (n - 1), 2)
        assert schuetz_sz(support.stretched_ck1(invariants._MAX_GL)).gl == invariants._MAX_GL
        with pytest.raises(ValueError, match="^schuetz_sz: the filtration tuple has gl = 10001, above 10000$"):
            schuetz_sz(support.stretched_ck1(invariants._MAX_GL + 1))

    def test_one_level_per_qdeg_of_a_degree_zero_generator(self, monkeypatch):
        # x at q = 0, a at q = -2 * 10^7: two levels, not 10^7
        levels = []
        real = zeq._lattice

        def counting(source, target, qdegree, src, tgt):
            levels.append(qdegree)
            return real(source, target, qdegree, src, tgt)

        monkeypatch.setattr(zeq, "_lattice", counting)
        assert schuetz_sz(support.far_generator(10**7)).as_tuple() == (0,)
        assert sorted(levels) == [-2 * 10**7, 0]

    def test_divisibility_of_indices(self):
        for c in [dual(build_staircase((2, 4, 8))), build_ck(2)]:
            t = schuetz_sz(c)
            assert all(k >= 1 for k in t.ks)


def test_validate_once_per_entry_point(monkeypatch):
    expected = {
        "schuetz_sz": (schuetz_sz, 1),
        "knotlike_check": (knotlike_check, 1),
        "generator_cycle": (generator_cycle, 1),
        "rasmussen_s": (lambda c: rasmussen_s(c, 0), 1),
        "z_equivalent": (lambda c: z_equivalent(c, c), 2),
        "distance_d": (lambda c: distance_d(c, c, 1), 2),
        "z_iso_exists": (lambda c: z_iso_exists(c, c, 0), 2),
        "chain_map_lattice": (lambda c: chain_map_lattice(c, c, 0), 2),
    }
    calls = []
    validate = complexes.validate

    def counted(c):
        calls.append(c)
        return validate(c)

    monkeypatch.setattr(complexes, "validate", counted)
    counts = {}
    for name, (call, _) in expected.items():
        calls.clear()
        call(build_ck(1))
        counts[name] = len(calls)
    assert counts == {name: n for name, (_, n) in expected.items()}


def test_rasmussen_s_loads_one_store_and_does_not_reduce(monkeypatch):
    loads, reduces = [], []
    load, reduce_ = simplify._Store.load.__func__, simplify.reduce

    def counted_load(cls, c):
        loads.append(c)
        return load(cls, c)

    def counted_reduce(c):
        reduces.append(c)
        return reduce_(c)

    monkeypatch.setattr(simplify._Store, "load", classmethod(counted_load))
    for module in (simplify, invariants):
        monkeypatch.setattr(module, "reduce", counted_reduce)
    c = exact_cube(parse_braid("BR[2; 1,1,1]"))
    for ch in (0, 2, 3):
        loads.clear()
        assert rasmussen_s(c, ch) == 2
        assert (len(loads), reduces) == (1, [])
