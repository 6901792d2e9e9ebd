import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest

from khconc import (
    GElem,
    Generator,
    GradedComplex,
    InternalInvariantError,
    NotKnotLikeError,
    build_ck,
    build_complex,
    build_staircase,
    chain_map_lattice,
    direct_sum,
    distance_d,
    dual,
    generator_cycle,
    inverse_witness,
    parse_braid,
    reduce,
    shift,
    tensor,
    unit_complex,
    z_equivalent,
    z_iso_exists,
)
from khconc import intmat, zeq
from khconc.invariants import _h0_class_data
from khconc.simplify import _eliminate
from khconc.zeq import zeta

import support


def acyclic_square(q=0, t=0, tag="sq"):
    return GradedComplex(
        [Generator(f"{tag}.a", t, q), Generator(f"{tag}.b", t + 1, q)],
        {(f"{tag}.a", f"{tag}.b"): GElem(1, 0)},
    )


class TestGeneratorCycle:
    def test_staircase_closed_form(self):
        for chain in [(2,), (2, 4), (3, 9), (2, 4, 8)]:
            c = build_staircase(chain)
            cyc = generator_cycle(c)
            n = len(chain)
            expected = {}
            prod = 1
            for i in range(n + 1):
                expected[f"x{i+1}"] = prod * (-1) ** i
                if i < n:
                    prod *= chain[i]
            signs = {1, -1}
            assert any(
                all(cyc.get(k, 0) == s * v for k, v in expected.items())
                for s in signs
            ), (cyc, expected)

    def test_unit(self):
        assert generator_cycle(unit_complex()) in ({"u": 1}, {"u": -1})

    def test_zero_step_staircase(self):
        cyc = generator_cycle(build_staircase((0,)))
        assert cyc in ({"x1": 1}, {"x1": -1})

    def test_not_knotlike_rejected(self):
        with pytest.raises(NotKnotLikeError):
            generator_cycle(acyclic_square())


class TestChainMapLattice:
    def test_identity_always_present(self):
        for c in [build_staircase((2, 4)), build_ck(1)]:
            lat = chain_map_lattice(c, c, 0)
            assert lat.image_gcd == 1

    def test_divisibility_obstruction(self):
        lat = chain_map_lattice(build_staircase((2,)), build_staircase((3,)), 0)
        assert lat.image_gcd not in (0, 1) or lat.image_gcd == 0 or lat.image_gcd > 1

    def test_g_multiplication_preserves_lambda(self):
        src, tgt = build_staircase((2,)), build_staircase((2,))
        lat0 = chain_map_lattice(src, tgt, 0)
        lat2 = chain_map_lattice(src, tgt, -2)
        # multiplying any degree-0 map by G lands in degree -2 with equal lambda
        assert lat2.image_gcd == lat0.image_gcd

    def test_map_reconstruction_is_chain_map(self):
        src, tgt = build_staircase((2,)), build_staircase((6,))
        lat = chain_map_lattice(src, tgt, 0)
        for vec in lat.basis:
            fmap = {lat.pairs[i]: u for i, u in enumerate(vec) if u}
            assert_chain_map(src, tgt, 0, fmap)

    def test_basis_vectors_are_chain_maps_on_random_pairs(self):
        rng = random.Random(53)
        checked = 0
        # basis covers the weight's block only, so 25 draws reach the 100 vectors
        for _ in range(25):
            a = support.random_knotlike(rng)
            b = support.scramble(support.random_knotlike(rng), rng)
            for src, tgt in ((a, b), (b, a), (a, support.scramble(a, rng))):
                for qdeg in (0, -2):
                    lat = chain_map_lattice(src, tgt, qdeg)
                    for vec in lat.basis:
                        assert_chain_map(src, tgt, qdeg, {lat.pairs[i]: u for i, u in enumerate(vec) if u})
                    checked += len(lat.basis)
        assert checked >= 100, checked


@pytest.fixture(scope="module")
def fig8_pair():
    """C^1 (x) 4_1 (x) 4_1 (rank 125) and a scramble of it: 1553 admissible pairs at
    q = 0, of which the weight's block holds 9."""
    fig8 = reduce(build_complex(parse_braid("BR[3; 1,-2,1,-2]")))
    big = tensor(tensor(build_ck(1), fig8), fig8)
    return big, support.scramble(big, random.Random(5), moves=60)


def small_lattice_pairs():
    """Random knot-like pairs and their scrambles, staircases, C^1 and C^2."""
    rng = random.Random(61)
    pairs = []
    for _ in range(12):
        a = support.random_knotlike(rng)
        b = support.scramble(support.random_knotlike(rng), rng)
        pairs += [(a, b), (b, a), (a, support.scramble(a, rng))]
    stairs = [build_staircase(spec) for spec in [(), (0,), (2,), (3,), (4,), (6,), (2, 4)]]
    pairs += itertools.product(stairs, repeat=2)
    c1, c2 = build_ck(1), build_ck(2)
    return pairs + [(c1, c2), (c2, c1), (c2, c2)]


def test_image_gcd_matches_dense_reference(fig8_pair):
    big, sheared = fig8_pair
    cases = [(a, b, q) for a, b in small_lattice_pairs() for q in (0, -2, -4)]
    # the dense reference spends seconds on each rank-125 case, so that pair
    # runs both ways at q = 0 and one way at each lower degree
    cases += [(big, sheared, 0), (sheared, big, 0), (big, sheared, -2), (sheared, big, -4)]
    seen = Counter()
    for a, b, q in cases:
        g = chain_map_lattice(a, b, q).image_gcd
        assert g == support.reference_image_gcd(a, b, q), (a, b, q)
        seen[min(g, 2)] += 1
    assert seen[0] and seen[1] and seen[2], seen


def assert_witness(src, tgt, qdeg):
    """lat.witness() is a chain map whose lambda, phi . f(z), is image_gcd."""
    lat = chain_map_lattice(src, tgt, qdeg)
    fmap = lat.witness()
    assert_chain_map(src, tgt, qdeg, fmap)
    cycle = generator_cycle(src)
    tsrcs, phi, _ = _h0_class_data(tgt)
    covector = dict(zip(tsrcs, phi))
    assert sum(cycle.get(x, 0) * u * covector.get(y, 0) for (x, y), u in fmap.items()) == lat.image_gcd
    return lat.image_gcd


def test_witness_is_a_chain_map_with_lambda_image_gcd(fig8_pair):
    assert assert_witness(build_staircase((2,)), build_staircase((6,)), 0) == 1
    assert assert_witness(build_staircase((6,)), build_staircase((2,)), 0) == 3
    gcds = Counter(assert_witness(a, b, q) for a, b in small_lattice_pairs() for q in (0, -2))
    assert gcds[1] and gcds[0] and len(gcds) > 2, gcds
    assert assert_witness(*fig8_pair, 0) == 1


def test_elimination_stays_in_the_weights_block(fig8_pair):
    big, sheared = fig8_pair
    lat = chain_map_lattice(big, sheared, 0)
    # the blocks of the full system, from the oracle's build of every equation
    pairs, equations, weight = support.reference_lattice_system(
        big, sheared, 0, _h0_class_data(big), _h0_class_data(sheared)
    )
    parent = list(range(len(pairs)))

    def root(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    for eq in equations:
        first, *others = eq
        for v in others:
            parent[root(v)] = root(first)
    roots = {root(u) for u in weight}
    block = {pairs[u] for u in range(len(pairs)) if root(u) in roots}
    assert len(block) < len(pairs) // 10, len(block)
    # the lattice builds exactly the weight's block
    assert set(lat.pairs) == block
    assert lat._steps and all(lat.pairs[u] in block and lat.pairs[v] in block for u, v, _ in lat._steps)
    # the witness is still checked against every equation of the block
    assert lat.witness() and lat.image_gcd == 1


def full_lattice(src, tgt, qdeg):
    """The ChainMapLattice of the oracle's full system, eliminated as zeq does."""
    pairs, equations, weight = support.reference_lattice_system(
        src, tgt, qdeg, _h0_class_data(src), _h0_class_data(tgt)
    )
    steps, rest = _eliminate(equations, weight)
    return zeq.ChainMapLattice(qdeg, pairs, math.gcd(*rest.values()), equations, weight, steps, rest)


def test_walk_gives_the_full_builds_answer_and_witness(fig8_pair):
    cases = [fig8_pair, fig8_pair[::-1]] + small_lattice_pairs()
    for a, b in cases:
        for q in (0, -2, -4):
            lat, full = chain_map_lattice(a, b, q), full_lattice(a, b, q)
            assert lat.image_gcd == full.image_gcd, (a, b, q)
            assert list(lat.witness().items()) == list(full.witness().items()), (a, b, q)
            # closed: every full equation that holds a walked unknown is walked,
            # with the same coefficients, keys in the same order, in the same order
            walked = set(lat.pairs)
            touching = [
                [(full.pairs[i], c) for i, c in eq.items()]
                for eq in full._equations
                if any(full.pairs[i] in walked for i in eq)
            ]
            assert touching == [[(lat.pairs[i], c) for i, c in eq.items()] for eq in lat._equations]


def test_large_self_lattice_builds_a_twentieth_of_the_pairs():
    """C (x) C for the clasped 3_1 double C, reduced to rank 1225."""
    double = build_complex(support.double_pd(parse_braid("BR[2; 1,1,1]"), clasp="A"), cap=14)
    product = reduce(tensor(double, double))
    assert product.total_rank == 1225
    assert z_equivalent(product, product)
    lat = chain_map_lattice(product, product, 0)
    admissible = len(support.admissible_pairs(product, product, 0))
    assert len(lat.pairs) < admissible // 20, (len(lat.pairs), admissible)
    assert lat.image_gcd == full_lattice(product, product, 0).image_gcd == 1


def test_broken_witness_is_internal_error():
    lat = chain_map_lattice(build_staircase((2,)), build_staircase((4,)), 0)
    assert lat.image_gcd == 1
    sizes = r"\(unknowns \d+, equations \d+, column_operations \d+\)$"
    doubled = dataclasses.replace(lat, _weight={i: 2 * c for i, c in lat._weight.items()})
    with pytest.raises(InternalInvariantError, match=r"^zeq: .*the witness has lambda = 2, not 1 " + sizes):
        doubled.witness()
    used = next(iter(lat.witness()))
    extra = dataclasses.replace(lat, _equations=lat._equations + [{lat.pairs.index(used): 1}])
    with pytest.raises(InternalInvariantError, match=r"^zeq: .*the witness is not a chain map " + sizes):
        extra.witness()


def test_lattice_takes_no_kernel_basis_over_its_unknowns(monkeypatch, fig8_pair):
    cols = []
    kernel_basis = intmat.kernel_basis

    def recorded(a, ncols=None):
        cols.append(len(a[0]) if a else ncols)
        return kernel_basis(a, ncols)

    monkeypatch.setattr(intmat, "kernel_basis", recorded)
    big, sheared = fig8_pair
    for a, b in [(build_ck(1), build_ck(2)), (big, sheared), (big, build_ck(1))]:
        cols.clear()
        lat = chain_map_lattice(a, b, 0)
        assert lat.image_gcd >= 0
        # only the H_0 class data's small kernels
        assert cols and max(cols) < len(lat.pairs), (cols, len(lat.pairs))
        cols.clear()
        z_equivalent(a, b)
        ra, rb = reduce(a), reduce(b)
        unknowns = min(len(support.admissible_pairs(ra, rb, 0)), len(support.admissible_pairs(rb, ra, 0)))
        assert cols and max(cols) < unknowns, (cols, unknowns)
    # basis alone pays for a kernel over every unknown, and only when read
    lat = chain_map_lattice(build_ck(1), build_ck(2), 0)
    cols.clear()
    assert lat.basis and cols == [len(lat.pairs)]
    # once the H_0 data are known, the lattice echelons nothing densely
    h0 = zeq._side(big), zeq._side(sheared)
    echelons = []
    echelon = intmat._echelon
    monkeypatch.setattr(intmat, "_echelon", lambda *args: echelons.append(args) or echelon(*args))
    assert zeq._lattice(big, sheared, 0, *h0).image_gcd == 1
    assert not echelons


@pytest.mark.parametrize("bad", [acyclic_square(), support.torsion_h0()], ids=["acyclic", "torsion"])
def test_lattice_layer_rejects_non_knotlike(bad):
    good = build_staircase((2,))
    calls = [
        lambda a, b: chain_map_lattice(a, b, 0),
        lambda a, b: z_iso_exists(a, b, 0),
        distance_d,
    ]
    for a, b in ((bad, good), (good, bad)):
        for call in calls:
            with pytest.raises(NotKnotLikeError):
                call(a, b)


def assert_chain_map(src, tgt, qdeg, fmap):
    tgt_ids = set(tgt.ids())
    for x in src.ids():
        lhs = {}
        for y, v in src.out_of(x).items():
            for (yy, z), u in fmap.items():
                if yy == y:
                    lhs[z] = lhs.get(z, 0) + v * u
        for (xx, w), u in fmap.items():
            if xx == x:
                for z, v in tgt.out_of(w).items():
                    lhs[z] = lhs.get(z, 0) - u * v
        assert all(val == 0 for val in lhs.values()), (x, lhs)
    for (x, y) in fmap:
        gx, gy = src.gen(x), tgt.gen(y)
        assert gx.tdeg == gy.tdeg
        assert (gy.qdeg - gx.qdeg - qdeg) % 2 == 0
        assert (gy.qdeg - gx.qdeg - qdeg) // 2 >= 0


class TestZIso:
    def test_reflexive(self):
        for c in [unit_complex(), build_staircase((2, 4)), build_ck(2)]:
            assert z_iso_exists(c, c, 0)

    def test_two_three_blocked_both_ways(self):
        s2, s3 = build_staircase((2,)), build_staircase((3,))
        assert not z_iso_exists(s2, s3, 0)
        assert not z_iso_exists(s3, s2, 0)

    def test_two_four_blocked_one_way(self):
        s2, s4 = build_staircase((2,)), build_staircase((4,))
        assert z_iso_exists(s2, s4, 0)
        assert not z_iso_exists(s4, s2, 0)

    def test_coprime_product_equivalent_to_merged(self):
        t = reduce(tensor(build_staircase((2,)), build_staircase((3,))))
        s6 = build_staircase((6,))
        assert z_iso_exists(t, s6, 0)
        assert z_iso_exists(s6, t, 0)

    def test_matches_bruteforce_when_bruteforce_finds(self):
        rng = random.Random(47)
        pool = [
            unit_complex(),
            shift(unit_complex(), 0, 2),
            build_staircase((2,)),
            build_staircase((3,)),
            build_staircase((0,)),
            dual(build_staircase((2,))),
        ]
        for a, b in itertools.product(pool, repeat=2):
            if a.total_rank + b.total_rank > 6:
                continue
            if bruteforce_z_iso(a, b, 0):
                assert z_iso_exists(a, b, 0), (a, b)


def bruteforce_z_iso(src, tgt, qdeg, bound=3):
    triples = support.admissible_pairs(src, tgt, qdeg)
    pairs = [(x, y) for x, y, _ in triples]
    if len(pairs) > 6:
        return False
    alpha = generator_cycle(src)
    beta = generator_cycle(tgt)
    tgt_t0 = [g.id for g in tgt.generators if g.tdeg == 0]
    for combo in itertools.product(range(-bound, bound + 1), repeat=len(pairs)):
        fmap = {pairs[i]: combo[i] for i in range(len(pairs)) if combo[i]}
        try:
            assert_chain_map(src, tgt, qdeg, fmap)
        except AssertionError:
            continue
        image = {}
        for (x, y), u in fmap.items():
            if x in alpha:
                image[y] = image.get(y, 0) + alpha[x] * u
        # compare against +-beta on the nose; beta spans H_0 for these inputs
        if all(image.get(g, 0) == beta.get(g, 0) for g in tgt_t0):
            return True
        if all(image.get(g, 0) == -beta.get(g, 0) for g in tgt_t0):
            return True
    return False


class TestZEquivalent:
    def test_ck_pairwise_distinct(self):
        c1, c2 = build_ck(1), build_ck(2)
        assert z_equivalent(c1, c1)
        assert not z_equivalent(c1, c2)

    def test_acyclic_padding(self):
        c = build_staircase((2, 4))
        padded = direct_sum(c, acyclic_square(q=2))
        assert z_equivalent(padded, c)

    def test_tensor_with_dual_is_trivial(self):
        c = build_staircase((2,))
        prod = reduce(tensor(c, dual(c)))
        assert z_equivalent(prod, unit_complex())

    def test_independence_family(self):
        assert not z_equivalent(build_staircase((2,)), build_staircase((3,)))
        assert not z_equivalent(build_staircase((2,)), build_staircase((4,)))
        t = reduce(tensor(build_staircase((2,)), build_staircase((4,))))
        assert z_equivalent(build_staircase((2, 4)), t)

    def test_commutativity_of_tensor(self):
        a, b = build_staircase((2,)), build_staircase((3,))
        assert z_equivalent(reduce(tensor(a, b)), reduce(tensor(b, a)))

    def test_shift_classes_distinct(self):
        assert not z_equivalent(unit_complex(), shift(unit_complex(), 0, 2))
        assert z_equivalent(build_staircase((0,)), shift(unit_complex(), 0, 2))


class TestDistance:
    def test_h0_data_once_per_complex(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return h0_class_data(c)

        h0_class_data = zeq._h0_class_data
        monkeypatch.setattr(zeq, "_h0_class_data", counted)
        assert distance_d(build_ck(1), build_ck(2)) == 1
        assert len(calls) == 2
        calls.clear()
        # 4_1 is amphichiral, so C^1 (x) 4_1 (x) 4_1 is Z-equivalent to C^1
        fig8 = reduce(build_complex(parse_braid("BR[3; 1,-2,1,-2]")))
        assert z_equivalent(tensor(tensor(build_ck(1), fig8), fig8), build_ck(1))
        assert len(calls) == 2

    def test_self_distance_zero(self):
        for c in [unit_complex(), build_staircase((2, 4))]:
            assert distance_d(c, c, 5) == 0

    def test_rank_one_isometric_embedding(self):
        for m, n in [(0, 1), (0, 3), (2, 3), (-1, 2)]:
            a = shift(unit_complex(), 0, 2 * m)
            b = shift(unit_complex(), 0, 2 * n)
            assert distance_d(a, b, 10) == abs(m - n)

    def test_bound_sentinel(self):
        a = unit_complex()
        b = shift(unit_complex(), 0, 8)
        assert distance_d(a, b, 2) is None

    def test_monotone_once_found(self):
        from khconc.zeq import chain_map_lattice

        a, b = build_staircase((2,)), build_staircase((2,))
        d = distance_d(a, b, 4)
        assert d == 0
        for n in (1, 2):
            assert chain_map_lattice(a, b, -2 * n).image_gcd == 1

    def test_default_bound_used(self):
        assert distance_d(unit_complex(), shift(unit_complex(), 0, 4)) == 2

    def test_staircase_vs_unknot(self):
        # |s_0 difference| / 2 = 0 but s_2 differs: distance exactly 1
        c = build_staircase((2,))
        assert distance_d(c, unit_complex(), 4) == 1

    def test_small_distances_build_the_lattices_of_a_linear_scan(self, monkeypatch):
        # the lattice workload's two dist pairs, d = 1 and d = 2
        degrees = []
        real = zeq._lattice

        def recording(a, b, qdegree, ha, hb):
            degrees.append(qdegree)
            return real(a, b, qdegree, ha, hb)

        monkeypatch.setattr(zeq, "_lattice", recording)
        s24 = build_staircase((2, 4))
        sigma = tensor(tensor(s24, dual(build_staircase((2,)))), dual(build_staircase((4,))))
        assert distance_d(build_ck(1), build_ck(2)) == 1
        assert degrees == [0, 0, -2, -2]
        degrees.clear()
        assert distance_d(sigma, s24) == 2
        assert degrees == [0, 0, -2, -2, -4, -4]

    def test_search_matches_linear_scan(self):
        """The doubling search and bisection agree with n = 0, 1, 2, ... on every
        distance case above, the lattice workload's pairs, the stretched C^1 and
        seeded random pairs, bounds and None answers included."""
        q = lambda n: shift(unit_complex(), 0, 2 * n)
        s24 = build_staircase((2, 4))
        sigma = tensor(tensor(s24, dual(build_staircase((2,)))), dual(build_staircase((4,))))
        stretched = [(support.stretched_ck1(n), unit_complex(), None) for n in range(1, 7)]
        cases = stretched + [(build_ck(1), build_ck(2), None), (unit_complex(), q(2), None), (sigma, s24, None)]
        cases += [(q(m), q(n), 10) for m, n in [(0, 1), (0, 3), (2, 3), (-1, 2)]]
        cases += [(unit_complex(), q(4), 2), (build_staircase((2,)), unit_complex(), 4), (unit_complex(), q(2), 1)]
        cases += [(c, c, 5) for c in [unit_complex(), s24]]
        pool = [unit_complex(), q(1), build_staircase((2,)), build_ck(1)]
        cases += [(a, b, 6) for a, b in itertools.product(pool, repeat=2)]
        cases += [(unit_complex(), support.stretched_ck1(n), n - 1) for n in range(1, 7)]
        rng = random.Random(41)
        for _ in range(40):
            a = support.random_knotlike(rng)
            b = support.scramble(shift(support.random_knotlike(rng), 0, 2 * rng.randint(-3, 3)), rng)
            cases.append((a, b, rng.choice([None, 0, 1, 2, 3, 5])))
        answers = [distance_d(a, b, bound) for a, b, bound in cases]
        assert answers == [support.reference_distance_d(a, b, bound) for a, b, bound in cases]
        assert answers[: len(stretched)] == [1, 2, 3, 4, 5, 6]
        assert None in answers and len(set(answers)) > 4


class TestInverseWitness:
    def test_zeta_values(self):
        assert [zeta(m) for m in (0, 1, 2, 3)] == [0, 0, 1, 1]
        assert zeta(4) == 0 and zeta(-1) == 1 and zeta(-2) == 1

    def test_unit_complex(self):
        w = inverse_witness(unit_complex())
        assert list(w.f.values()) == [1]
        assert list(w.g.values()) == [1]

    def test_staircases_and_ck(self):
        for c in [build_staircase((2,)), build_staircase((2, 4)), build_ck(1)]:
            w = inverse_witness(c)
            assert w.product.total_rank == c.total_rank**2
            diag = [gid for gid, v in w.f.items() if v]
            assert len(diag) == c.total_rank

    def test_broken_product_is_internal_error(self, monkeypatch):
        def negated_dual(c):
            d = dual(c)
            return GradedComplex(d.generators, {(s, t): -v for s, t, v in d.iter_entries()})

        monkeypatch.setattr(zeq, "dual", negated_dual)
        with pytest.raises(
            InternalInvariantError,
            match=r"^inverse_witness: .*f is not a chain map \(rank 3, product_rank 9\)",
        ):
            inverse_witness(build_staircase((2,)))

    def test_euler_char_obstruction(self):
        with pytest.raises(ValueError):
            inverse_witness(direct_sum(unit_complex(gid="a"), unit_complex(gid="b")))
