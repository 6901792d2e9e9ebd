"""Cross-module property tests: group laws, metric behavior, and the
hand-built seven-generator complex that mixes a shifted C^1 with an extra
hook.
"""

import itertools
import random

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    build_ck,
    build_complex,
    build_staircase,
    chain_map_lattice,
    direct_sum,
    distance_d,
    dual,
    field_normal_form,
    knotlike_check,
    parse_braid,
    rasmussen_s,
    reduce,
    schuetz_sz,
    shift,
    tensor,
    unit_complex,
    validate,
    z_equivalent,
)
from khconc import intmat, invariants
from khconc.invariants import _h0_class_data, g1_matrix, integer_homology_profile

import support


def small_pool():
    return [
        unit_complex(),
        shift(unit_complex(), 0, 2),
        build_staircase((2,)),
        build_staircase((3,)),
        dual(build_staircase((2,))),
        build_ck(1),
    ]


class TestEquivalenceRelation:
    def test_reflexive_symmetric(self):
        for c in small_pool():
            assert z_equivalent(c, c)
        for a, b in itertools.combinations(small_pool(), 2):
            assert z_equivalent(a, b) == z_equivalent(b, a)

    def test_transitive_on_sampled_triples(self):
        pool = [
            build_staircase((2,)),
            direct_sum(build_staircase((2,)), support.acyclic_square(q=2)),
            reduce(tensor(build_staircase((2,)), unit_complex(gid="one"))),
            build_staircase((3,)),
            unit_complex(),
        ]
        for a, b, c in itertools.permutations(pool, 3):
            if z_equivalent(a, b) and z_equivalent(b, c):
                assert z_equivalent(a, c)


class TestGroupLaws:
    def test_commutativity(self):
        a, b = build_staircase((2,)), dual(build_staircase((4,)))
        assert z_equivalent(reduce(tensor(a, b)), reduce(tensor(b, a)))

    def test_associativity_instance(self):
        a, b, c = build_staircase((2,)), build_staircase((3,)), dual(build_staircase((2,)))
        left = reduce(tensor(reduce(tensor(a, b)), c))
        right = reduce(tensor(a, reduce(tensor(b, c))))
        assert z_equivalent(left, right)

    def test_unit_neutral(self):
        a = build_ck(1)
        assert z_equivalent(reduce(tensor(a, unit_complex(gid="one"))), a)

    def test_inverse_law(self):
        for c in [build_staircase((2,)), build_staircase((2, 4))]:
            assert z_equivalent(reduce(tensor(c, dual(c))), unit_complex())


class TestMetricProperties:
    def test_monotone_in_degree(self):
        pairs = [
            (build_staircase((2,)), build_staircase((4,))),
            (unit_complex(), shift(unit_complex(), 0, 4)),
            (build_ck(1), build_ck(2)),
        ]
        for a, b in pairs:
            found = None
            for n in range(0, 4):
                ok = (
                    chain_map_lattice(a, b, -2 * n).image_gcd == 1
                    and chain_map_lattice(b, a, -2 * n).image_gcd == 1
                )
                if found is not None:
                    assert ok, (n, found)
                if ok and found is None:
                    found = n

    def test_triangle_inequality_samples(self):
        pool = [
            unit_complex(),
            shift(unit_complex(), 0, 2),
            build_staircase((2,)),
            build_ck(1),
        ]
        dist = {}
        for a, b in itertools.product(range(len(pool)), repeat=2):
            dist[(a, b)] = distance_d(pool[a], pool[b], 6)
    # metric axioms on the sampled table
        for a, b in itertools.product(range(len(pool)), repeat=2):
            assert dist[(a, b)] == dist[(b, a)]
            assert (dist[(a, b)] == 0) == z_equivalent(pool[a], pool[b])
        for a, b, c in itertools.product(range(len(pool)), repeat=3):
            assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)]


def example_seven_generator_complex():
    """The seven-generator representative with a shifted C^1 inside.

    Dropping the two extra generators (h, z) leaves exactly q^4 * C^1.
    """
    gens = [
        Generator("e", -1, 2),
        Generator("h", -1, 0),
        Generator("v", 0, 2),
        Generator("u1", 0, 4),
        Generator("u2", 0, 4),
        Generator("z", 0, 2),
        Generator("w", 1, 4),
    ]
    entries = {
        ("e", "u2"): GElem(-1, 1),
        ("e", "v"): GElem(4, 0),
        ("e", "z"): GElem(2, 0),
        ("h", "z"): GElem(1, 1),
        ("u1", "w"): GElem(2, 0),
        ("u2", "w"): GElem(4, 0),
        ("v", "w"): GElem(1, 1),
    }
    return GradedComplex(gens, entries)


class TestExampleComplex:
    def test_valid_and_knotlike(self):
        c = example_seven_generator_complex()
        assert validate(c) == []
        assert knotlike_check(c)

    def test_subcomplex_is_shifted_ck(self):
        c = example_seven_generator_complex()
        keep = {"e", "v", "u1", "u2", "w"}
        sub = GradedComplex(
            [g for g in c.generators if g.id in keep],
            {
                (s, t): v
                for s, t, v in c.iter_entries()
                if s in keep and t in keep
            },
        )
        expected = shift(build_ck(1), 0, 4)
        assert {(g.tdeg, g.qdeg) for g in sub.generators} == {
            (g.tdeg, g.qdeg) for g in expected.generators
        }
        assert support.entry_multiset(sub) == support.entry_multiset(expected)

    def test_rasmussen_equal_across_characteristics(self):
        c = example_seven_generator_complex()
        values = {char: rasmussen_s(c, char) for char in (0, 2, 3, 5)}
        assert len(set(values.values())) == 1

    def test_filtration_tuple_sees_more_than_s0(self):
        c = example_seven_generator_complex()
        t = schuetz_sz(c)
        assert t.k0 == rasmussen_s(c, 0)
        assert t.gl >= 1

    def test_not_equivalent_to_its_rank_one_class(self):
        c = example_seven_generator_complex()
        assert not z_equivalent(c, shift(unit_complex(), 0, rasmussen_s(c, 0)))


class TestLatticeMonotonicity:
    def test_g_multiplication_lambda_stable(self):
        rng = random.Random(99)
        for _ in range(5):
            a = support.scramble(support.random_knotlike(rng), rng, moves=4)
            b = support.scramble(support.random_knotlike(rng), rng, moves=4)
            g0 = chain_map_lattice(a, b, 0).image_gcd
            g2 = chain_map_lattice(a, b, -2).image_gcd
            if g0 == 1:
                assert g2 == 1
            elif g0 > 1:
                assert g2 == 0 or g2 % 1 == 0  # defined; divisibility below
                if g2:
                    assert g0 % g2 == 0


class TestH0ClassData:
    def test_covector_kills_boundaries_and_takes_one_on_cycle(self):
        rng = random.Random(61)
        base = [support.scramble(support.random_knotlike(rng), rng) for _ in range(100)]
        big = sorted(base, key=lambda c: c.total_rank)[-2:]
        for c in [*base, *map(dual, base), tensor(*big)]:
            _, phi, z = _h0_class_data(c)
            d0, _, _ = g1_matrix(c, 0)
            dm1, _, _ = g1_matrix(c, -1)
            assert not any(intmat.matvec(d0, z))
            assert all(intmat.matvec([phi], col) == [0] for col in intmat.transpose(dm1))
            assert intmat.matvec([phi], z) == [1]


def reduction_invariants(c):
    """s_c through rasmussen_s and on the normal form of c as given, the
    tuple, knot-likeness and the nonzero part of the homology profile."""
    s = [(rasmussen_s(c, ch), field_normal_form(c, ch)[1].s) for ch in (0, 2, 3, 5)]
    profile = {t: v for t, v in integer_homology_profile(c).items() if v != (0, [])}
    return s, schuetz_sz(c), knotlike_check(c), profile


class TestReductionInvariance:
    """Unit cancellation is a homotopy equivalence, so the invariants
    agree on C, on a scrambled C and on its reduction, and the entry points
    that reduce first agree with the unreduced computation."""

    def test_random_knotlike(self, monkeypatch):
        rng = random.Random(17)
        for _ in range(150):
            c = support.random_knotlike(rng)
            scrambled = support.scramble(c, rng)
            expected = reduction_invariants(c)
            assert reduction_invariants(scrambled) == expected
            assert reduction_invariants(reduce(scrambled)) == expected
            with monkeypatch.context() as m:
                m.setattr(invariants, "reduce", lambda c: c)
                assert reduction_invariants(scrambled) == expected

    def test_unreduced_cubes(self, monkeypatch):
        for braid in ("BR[2; 1,1,1]", "BR[3; 1,-2,1,-2]", "BR[2; 1,1,1,1,1]", "BR[3; 1,1,1,-2,1,-2]"):
            cube = build_complex(parse_braid(braid))
            expected = reduction_invariants(reduce(cube))
            assert reduction_invariants(cube) == expected
            with monkeypatch.context() as m:
                m.setattr(invariants, "reduce", lambda c: c)
                assert reduction_invariants(cube) == expected
