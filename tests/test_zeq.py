import itertools
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
    inverse_witness,
    reduce,
    shift,
    tensor,
    unit_complex,
    z_equivalent,
    z_iso_exists,
)
from khconc import zeq
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
        assert set(lat2.lam) >= {0} or lat2.image_gcd == lat0.image_gcd
        assert lat2.image_gcd == lat0.image_gcd

    def test_map_reconstruction_is_chain_map(self):
        src, tgt = build_staircase((2,)), build_staircase((6,))
        lat = chain_map_lattice(src, tgt, 0)
        for j in range(len(lat.basis)):
            coeffs = [1 if i == j else 0 for i in range(len(lat.basis))]
            fmap = lat.map_from_coeffs(coeffs)
            assert_chain_map(src, tgt, 0, fmap)


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
                    lhs[z] = lhs.get(z, 0) + v.scalar * u
        for (xx, w), u in fmap.items():
            if xx == x:
                for z, v in tgt.out_of(w).items():
                    lhs[z] = lhs.get(z, 0) - u * v.scalar
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
    from khconc.zeq import admissible_pairs

    triples = admissible_pairs(src, tgt, qdeg)
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


class TestInverseWitness:
    def test_zeta_values(self):
        assert [zeta(m) for m in (0, 1, 2, 3)] == [0, 0, 1, 1]
        assert zeta(4) == 0 and zeta(-1) == 1 and zeta(-2) == 1

    def test_unit_complex(self):
        w = inverse_witness(unit_complex())
        assert list(w.f.values()) == [GElem(1, 0)]
        assert list(w.g.values()) == [GElem(1, 0)]

    def test_staircases_and_ck(self):
        for c in [build_staircase((2,)), build_staircase((2, 4)), build_ck(1)]:
            w = inverse_witness(c)
            assert w.product.total_rank == c.total_rank**2
            diag = [gid for gid, v in w.f.items() if not v.is_zero()]
            assert len(diag) == c.total_rank

    def test_euler_char_obstruction(self):
        with pytest.raises(ValueError):
            inverse_witness(direct_sum(unit_complex(gid="a"), unit_complex(gid="b")))
