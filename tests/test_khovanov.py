import dataclasses

import pytest

from khconc import (
    InternalInvariantError,
    ResourceCapError,
    build_complex,
    connected_sum_pd,
    dual,
    knotlike_check,
    mirror_pd,
    parse_braid,
    parse_pd,
    positive_diagram_degree_check,
    rasmussen_s,
    reduce,
    schuetz_sz,
    shift,
    tensor,
    to_json,
    unit_complex,
    validate,
    z_equivalent,
)
from khconc.khovanov import _build, frobenius_consistent, seifert_circle_count
from khconc.invariants import integer_homology_profile

RIGHT_TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
FIGURE_EIGHT = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"


def test_frobenius_tables_consistent():
    assert frobenius_consistent()


class TestParsePD:
    def test_trefoil_parses_all_positive(self):
        pd = parse_pd(RIGHT_TREFOIL)
        assert len(pd.crossings) == 3
        assert pd.signs == (1, 1, 1)
        assert pd.basepoint == 1
        assert len(pd.arc_order) == 6

    def test_crossingless(self):
        pd = parse_pd("PD[]")
        assert pd.crossings == ()

    def test_basepoint_override(self):
        pd = parse_pd(RIGHT_TREFOIL, basepoint=3)
        assert pd.basepoint == 3

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_pd("PD[X(1,2,3)]")
        with pytest.raises(ValueError):
            parse_pd("PD[Y(1,2,3,4)]")

    def test_arc_count_violation(self):
        with pytest.raises(ValueError):
            parse_pd("PD[X(1,2,3,4),X(1,2,3,5)]")

    def test_link_rejected(self):
        # Hopf link: two components
        with pytest.raises(ValueError):
            parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")

    def test_figure_eight_mixed_signs(self):
        pd = parse_pd(FIGURE_EIGHT)
        assert sorted(pd.signs) == [-1, -1, 1, 1]


class TestBraids:
    def test_trefoil_word(self):
        pd = parse_braid("BR[2; 1,1,1]")
        assert len(pd.crossings) == 3
        assert pd.signs == (1, 1, 1)

    def test_unknot_word(self):
        pd = parse_braid("BR[2; 1]")
        c = reduce(build_complex(pd))
        assert z_equivalent(c, unit_complex())

    def test_multi_component_closure_rejected(self):
        with pytest.raises(ValueError):
            parse_braid("BR[2;]")
        with pytest.raises(ValueError):
            parse_braid("BR[3; 1,1]")

    def test_bad_word(self):
        with pytest.raises(ValueError):
            parse_braid("BR[2; 2]")
        with pytest.raises(ValueError):
            parse_braid("BR[0;]")

    def test_braid_matches_pd_trefoil(self):
        a = reduce(build_complex(parse_braid("BR[2; 1,1,1]")))
        b = reduce(build_complex(parse_pd(RIGHT_TREFOIL)))
        assert z_equivalent(a, b)


class TestAnchors:
    def test_unknot_exact(self):
        c = build_complex(parse_pd("PD[]"))
        assert c.total_rank == 1
        g = c.generators[0]
        assert (g.tdeg, g.qdeg) == (0, 0)
        assert not list(c.iter_entries())

    def test_kinks_reduce_to_unit(self):
        for word in ("BR[2; 1]", "BR[2; -1]"):
            c = reduce(build_complex(parse_braid(word)))
            assert c.total_rank == 1
            g = c.generators[0]
            assert (g.tdeg, g.qdeg) == (0, 0)

    def test_right_trefoil_s_is_plus_two(self):
        c = reduce(build_complex(parse_pd(RIGHT_TREFOIL)))
        for char in (0, 2, 3, 5):
            assert rasmussen_s(c, char) == 2

    def test_trefoil_class_is_q2(self):
        c = reduce(build_complex(parse_pd(RIGHT_TREFOIL)))
        assert z_equivalent(c, shift(unit_complex(), 0, 2))

    def test_figure_eight_trivial_class(self):
        c = reduce(build_complex(parse_pd(FIGURE_EIGHT)))
        for char in (0, 2, 3):
            assert rasmussen_s(c, char) == 0
        assert z_equivalent(c, unit_complex())


class TestCubeStructure:
    @pytest.mark.parametrize(
        "code",
        [RIGHT_TREFOIL, FIGURE_EIGHT, "BR[2; 1,1,1,1,1]", "BR[3; 1,-2,1,-2]"],
    )
    def test_valid_and_knotlike(self, code):
        pd = parse_pd(code) if code.startswith("PD") else parse_braid(code)
        c = build_complex(pd)
        assert validate(c) == []
        assert knotlike_check(c)

    def test_integer_homology_profile_axiom(self):
        c = reduce(build_complex(parse_pd(RIGHT_TREFOIL)))
        profile = integer_homology_profile(c)
        assert profile.get(0) == (1, [])
        for t, (free, torsion) in profile.items():
            if t != 0:
                assert free == 0 and torsion == []

    def test_basepoint_invariance(self):
        base = reduce(build_complex(parse_pd(RIGHT_TREFOIL)))
        for bp in (2, 3, 6):
            other = reduce(build_complex(parse_pd(RIGHT_TREFOIL, basepoint=bp)))
            assert z_equivalent(base, other)
            assert rasmussen_s(other, 2) == 2

    def test_reidemeister_one_and_two_invariance(self):
        plain = reduce(build_complex(parse_braid("BR[2; 1,1,1]")))
        stabilized = reduce(build_complex(parse_braid("BR[3; 1,1,1,2]")))
        poked = reduce(build_complex(parse_braid("BR[2; 1,1,1,-1,1]")))
        assert z_equivalent(plain, stabilized)
        assert z_equivalent(plain, poked)
        assert schuetz_sz(plain) == schuetz_sz(stabilized)

    def test_crossing_cap(self):
        with pytest.raises(ResourceCapError):
            build_complex(parse_braid("BR[2; 1,1,1,1,1]"), cap=4)

    def test_streamed_build_equals_reduced_cube(self):
        pds = [parse_pd(RIGHT_TREFOIL, basepoint=bp) for bp in (2, 3, 6)]
        pds += [parse_pd(FIGURE_EIGHT)]
        pds += [parse_braid(w) for w in ("BR[3; 1,1,1,-2,1,-2]", "BR[2; 1,1,1,1,1]", "BR[3; 1,2,1,2,1,2,1,2]")]
        pds += [connected_sum_pd(parse_braid("BR[2; 1,1,1]"), parse_braid("BR[2; -1,-1,-1]"))]
        for pd in pds:
            streamed = _build(pd, stream=True)
            assert to_json(streamed) == to_json(reduce(_build(pd, stream=False)))
            assert validate(streamed) == []


class TestMirrorAndSum:
    def test_mirror_complex_is_dual(self):
        for code in (RIGHT_TREFOIL, "BR[3; 1,-2,1,-2]"):
            pd = parse_pd(code) if code.startswith("PD") else parse_braid(code)
            c = reduce(build_complex(pd))
            m = reduce(build_complex(mirror_pd(pd)))
            assert z_equivalent(m, reduce(dual(c)))

    def test_mirror_flips_signs(self):
        pd = parse_pd(RIGHT_TREFOIL)
        assert mirror_pd(pd).signs == (-1, -1, -1)

    def test_connected_sum_is_tensor(self):
        pd1 = parse_braid("BR[2; 1,1,1]")
        pd2 = parse_braid("BR[2; -1,-1,-1]")
        both = connected_sum_pd(pd1, pd2)
        assert len(both.crossings) == 6
        c = reduce(build_complex(both))
        t = reduce(tensor(reduce(build_complex(pd1)), reduce(build_complex(pd2))))
        assert z_equivalent(c, t)
        assert rasmussen_s(c, 0) == 0

    def test_granny_sum_adds_s(self):
        pd1 = parse_braid("BR[2; 1,1,1]")
        both = connected_sum_pd(pd1, pd1)
        c = reduce(build_complex(both))
        assert rasmussen_s(c, 0) == 4

    def test_missing_arrival_slot_is_internal_error(self):
        # a PDCode made by hand, basepointed on an arc the diagram lacks
        pd = parse_braid("BR[2; 1,1,1]")
        broken = dataclasses.replace(pd, basepoint=99)
        with pytest.raises(
            InternalInvariantError, match=r"^connected_sum_pd: .*arc 99 has no arrival slot \(crossings 3\)"
        ):
            connected_sum_pd(broken, pd)


class TestPositiveDiagramBound:
    def test_trefoil(self):
        pd = parse_pd(RIGHT_TREFOIL)
        assert seifert_circle_count(pd) == 2
        assert positive_diagram_degree_check(pd)

    def test_unknot(self):
        assert positive_diagram_degree_check(parse_pd("PD[]"))

    def test_t25(self):
        pd = parse_braid("BR[2; 1,1,1,1,1]")
        assert seifert_circle_count(pd) == 2
        # bound is 1 + 5 - 2 = 4 = 2 g_4
        assert positive_diagram_degree_check(pd)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            positive_diagram_degree_check(parse_pd(FIGURE_EIGHT))
