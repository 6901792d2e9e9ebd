import random

import pytest

from khconc import (
    GElem,
    build_ck,
    build_staircase,
    graded_rank,
    knotlike_check,
    parse_stair_expr,
    stair_normal_form,
    validate,
)

from support import monomial

class TestBuildStaircase:
    def test_conjectured_doubles_shape(self):
        # q^2 t^0 --2^n--> q^2 t^1 <--G-- q^0 t^0
        for n in (1, 2, 3):
            c = build_staircase((2**n,))
            assert validate(c) == []
            assert monomial(c, "x1", "y1") == GElem(2**n, 0)
            assert monomial(c, "x2", "y1") == GElem(1, 1)
            assert [(g.tdeg, g.qdeg) for g in c.generators] == [
                (0, 2),
                (0, 0),
                (1, 2),
            ]

    def test_empty_is_unit(self):
        c = build_staircase(())
        assert c.total_rank == 1
        g = c.generators[0]
        assert (g.tdeg, g.qdeg) == (0, 0)

    def test_all_valid_chains_knotlike(self):
        for chain in [(), (2,), (0,), (2, 4), (3, 9), (2, 2, 2), (5, 0), (2, 4, 0, 0), (1, 2)]:
            c = build_staircase(chain)
            assert validate(c) == []
            assert knotlike_check(c), chain

    def test_broken_chain_rejected(self):
        for chain in [(0, 2), (2, 3), (4, 2), (-2,)]:
            with pytest.raises(ValueError):
                build_staircase(chain)

    def test_bidiagonal_pattern(self):
        c = build_staircase((2, 4, 8))
        assert monomial(c, "x2", "y2") == GElem(4, 0)
        assert monomial(c, "x3", "y2") == GElem(1, 1)
        assert monomial(c, "x4", "y3") == GElem(1, 1)
        assert c.entry("x1", "y2") == 0
        assert c.entry("x3", "y1") == 0


class TestBuildCk:
    def test_degrees_and_entries(self):
        for k in (1, 2, 3):
            c = build_ck(k)
            assert validate(c) == []
            assert knotlike_check(c)
            assert sorted((g.tdeg, g.qdeg) for g in c.generators) == [
                (-1, -2),
                (0, -2),
                (0, 0),
                (0, 0),
                (1, 0),
            ]
            assert monomial(c, "e", "u2") == GElem(-1, 1)
            assert monomial(c, "e", "v") == GElem(2 ** (k + 1), 0)
            assert monomial(c, "u1", "w") == GElem(2**k, 0)
            assert monomial(c, "u2", "w") == GElem(2 ** (k + 1), 0)
            assert monomial(c, "v", "w") == GElem(1, 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_ck(0)

    def test_rank_matches_tensor_remainder(self):
        from khconc import dual, tensor

        t = tensor(build_staircase((2,)), dual(build_staircase((4,))))
        assert graded_rank(build_ck(1)).total() + 4 == graded_rank(t).total()


class TestStairNormalForm:
    def test_coprime_merge(self):
        nf = stair_normal_form({(2,): 1, (3,): 1})
        assert nf.a_side == (6,) and nf.b_side == () and nf.shift == 0

    def test_chain_splits_into_factors(self):
        nf = stair_normal_form({(2, 4): 1, (2,): -1, (4,): -1})
        assert nf.is_trivial()

    def test_distinct_powers_do_not_cancel(self):
        nf = stair_normal_form({(2,): 1, (4,): -1})
        assert nf.a_side == (2,) and nf.b_side == (4,) and nf.shift == 0

    def test_powers_of_one_prime_stack(self):
        # a prime's square is told apart from a prime by a divisor at its square root
        assert stair_normal_form({(2,): 1, (4,): 1}).a_side == (2, 4)
        assert stair_normal_form({(3,): 1, (9,): 1, (2,): 1}).a_side == (3, 18)
        p = 999983
        assert stair_normal_form({(p,): 1, (p * p,): 1}).a_side == (p, p * p)

    def test_zero_factors_become_shifts(self):
        nf = stair_normal_form({(0,): 1})
        assert nf.a_side == () and nf.shift == 2
        nf = stair_normal_form({(1, 1, 2, 0, 0): 1})
        assert nf.a_side == (2,) and nf.shift == 4
        nf = stair_normal_form({(2, 0): 1, (0,): -1})
        assert nf.a_side == (2,) and nf.shift == 0

    def test_ones_vanish(self):
        assert stair_normal_form({(1,): 1}).is_trivial()
        assert stair_normal_form({(1, 2): 1, (2,): -1}).is_trivial()

    def test_invariant_under_reordering(self):
        rng = random.Random(31)
        specs = [(2, 4), (3,), (6,), (0,), (2, 2)]
        for _ in range(10):
            items = [(spec, rng.choice([-2, -1, 1, 2])) for spec in specs]
            rng.shuffle(items)
            nf1 = stair_normal_form(dict(items))
            rng.shuffle(items)
            nf2 = stair_normal_form(dict(items))
            assert nf1 == nf2

    def test_reassembly_divisibility(self):
        rng = random.Random(37)
        pool = [0, 2, 3, 4, 5, 7, 8, 9]
        for _ in range(30):
            product = {}
            for _ in range(rng.randint(1, 3)):
                chain = random_chain(rng, pool)
                product[chain] = product.get(chain, 0) + rng.choice([-1, 1])
            nf = stair_normal_form(product)
            for side in (nf.a_side, nf.b_side):
                assert all(x >= 2 for x in side)
                for x, y in zip(side, side[1:]):
                    assert y % x == 0
            assert nf.shift % 2 == 0

    def test_large_input_is_bounded(self):
        # a prime near 10^7 is found by trial division to its square root
        assert stair_normal_form({(10000019,): 1}).a_side == (10000019,)
        assert stair_normal_form({(2,): 10**4}).a_side == (2,) * 10**4
        with pytest.raises(ValueError, match="entry 1000000000039"):
            stair_normal_form({(10**12 + 39,): 1})
        with pytest.raises(ValueError, match="add up to 1000000000"):
            stair_normal_form(parse_stair_expr("S(2)^1000000000"))
        with pytest.raises(ValueError, match="add up to 10001"):
            stair_normal_form({(0,): 10**4, (2,): 1})
        # exponents that cancel do not count
        assert stair_normal_form({(2,): 10**9, (2, 2): -(10**9) // 2}).is_trivial()

    def test_group_inverse(self):
        assert stair_normal_form({(2, 4): 0}).is_trivial()
        combined = stair_normal_form({(2, 4): 1, (4,): -1, (2,): -1})
        assert combined.is_trivial()


def random_chain(rng, pool):
    n = rng.randint(0, 3)
    chain = []
    candidates = [x for x in pool if x != 0]
    val = None
    for _ in range(n):
        if val is None:
            val = rng.choice(candidates)
        else:
            mult = [x for x in candidates if x % val == 0 and x >= val]
            if not mult:
                break
            val = rng.choice(mult)
        chain.append(val)
    while rng.random() < 0.2:
        chain.append(0)
    return tuple(chain)


class TestParseStairExpr:
    def test_simple(self):
        assert parse_stair_expr("S(2,4) * S(6)^-1") == {(2, 4): 1, (6,): -1}

    def test_empty_spec(self):
        assert parse_stair_expr("S()") == {(): 1}

    def test_powers_accumulate(self):
        assert parse_stair_expr("S(2) * S(2)^2") == {(2,): 3}

    def test_bad_expression(self):
        for text in ["S(2", "T(2)", "S(2,3)", ""]:
            with pytest.raises(ValueError):
                parse_stair_expr(text)

    def test_str_rendering(self):
        assert str(stair_normal_form(parse_stair_expr("S(2)*S(3)"))) == "Σ_(6)"
        assert "Σ*_(4)" in str(stair_normal_form(parse_stair_expr("S(2) * S(4)^-1")))
        assert str(stair_normal_form({(): 1})) == "Σ_()"
