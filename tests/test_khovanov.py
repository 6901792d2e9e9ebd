import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from khconc.khovanov import analyze_pd
from khconc.simplify import field_normal_form
from khconc import tangle
from khconc.tangle import assemble
from khconc.invariants import integer_homology_profile

import support
from cube import (
    LABEL_BP,
    LABEL_ONE,
    LABEL_X,
    MERGE,
    SPLIT,
    exact_cube,
    frobenius_consistent,
    positive_diagram_degree_check,
    seifert_circle_count,
)

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

    def test_strand_count_is_checked_before_allocating(self):
        # the smaller count first, so that code which allocates per strand fails
        # before it reaches the larger one
        for strands in (10**6, 10**7):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="knots only"):
                    parse_braid(f"BR[{strands}; 1]")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (strands, peak)

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
        for c in (build_complex(pd), exact_cube(pd)):
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

    def test_tangle_assembly_equals_reduced_cube(self):
        pds = [parse_pd(RIGHT_TREFOIL, basepoint=bp) for bp in (2, 3, 6)]
        pds += [parse_pd(FIGURE_EIGHT)]
        pds += [parse_braid(w) for w in ("BR[3; 1,1,1,-2,1,-2]", "BR[2; 1,1,1,1,1]", "BR[3; 1,2,1,2,1,2,1,2]")]
        pds += [connected_sum_pd(parse_braid("BR[2; 1,1,1]"), parse_braid("BR[2; -1,-1,-1]"))]
        # the crossingless diagram and the two 10-crossing knots_small jobs, T(3,5) and T(2,5) # -T(2,5)
        pds += [parse_pd("PD[]"), parse_braid("BR[3; 1,2,1,2,1,2,1,2,1,2]")]
        pds += [connected_sum_pd(parse_braid("BR[2; 1,1,1,1,1]"), parse_braid("BR[2; -1,-1,-1,-1,-1]"))]
        assert [len(pd.crossings) for pd in pds[-3:]] == [0, 10, 10]
        rng = random.Random(15)
        while len(pds) < 41:
            strands = rng.randint(2, 4)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 9))]
            if not support.braid_is_knot(strands, word):
                continue
            crossings = support.braid_closure_crossings(strands, word)
            rng.shuffle(crossings)
            arcs = sorted({a for cross in crossings for a in cross})
            pds.append(analyze_pd(crossings, basepoint=rng.choice(arcs)))
        for pd in pds:
            assembled = assemble(pd)
            cube = reduce(exact_cube(pd))
            assert validate(assembled) == [], pd
            for char in (0, 2, 3, 5, 7):
                assert field_normal_form(assembled, char)[1] == field_normal_form(cube, char)[1], (pd, char)
            for char in (0, 2, 3):
                assert support.g0_homology_dims(assembled, char) == support.g0_homology_dims(cube, char), (pd, char)
            assert schuetz_sz(assembled) == schuetz_sz(cube), pd
            assert z_equivalent(assembled, cube), pd


class TestTangleAssembly:
    DETERMINISM_SCRIPT = (
        "import hashlib, support\n"
        "from khconc import build_complex, parse_braid, to_json\n"
        "pds = [parse_braid('BR[3; 1,2,1,2,1,2,1,2,1,2]'), parse_braid('BR[4; 1,-2,3,1,-2,3,-1,-2,3,2,1]'),\n"
        "       support.double_pd(parse_braid('BR[2; 1,1,1]'), clasp='A')]\n"
        "print([hashlib.sha256(to_json(build_complex(pd, cap=14)).encode()).hexdigest() for pd in pds])\n"
    )

    def test_output_is_byte_identical_across_hash_seeds_and_calls(self):
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", self.DETERMINISM_SCRIPT], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout)
        assert runs[0] == runs[1]
        pds = [parse_braid("BR[3; 1,2,1,2,1,2,1,2,1,2]"), parse_braid("BR[4; 1,-2,3,1,-2,3,-1,-2,3,2,1]")]
        pds.append(support.double_pd(parse_braid("BR[2; 1,1,1]")))
        assert [len(pd.crossings) for pd in pds] == [10, 11, 14]
        for pd in pds:
            assert to_json(build_complex(pd, cap=14)) == to_json(build_complex(pd, cap=14))

    def test_importing_the_package_loads_no_assembly_code(self):
        # build_complex imports tangle on first use, so importing the package
        # does not compile it where bytecode is not cached
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = "import sys, khconc\nprint(sorted(m for m in sys.modules if m.startswith('khconc')))\n"
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "'khconc.khovanov'" in done.stdout
        assert "khconc.tangle" not in done.stdout

    def test_gluing_reproduces_the_frobenius_tables(self):
        # source loops labelled 1 or X (a set label bit) fed through a cylinder
        # and through pants (three disks on four seams: chi -1, three circles)
        # must give the cube's merge and split at G = 1; a set output bit is X
        sizes = {"crossings": 0, "boundary": 0, "rank": 0}
        bit = {LABEL_ONE: 0, LABEL_X: 1}
        pants = [(0, 1), (1, 2), (0, 2), (0, 1)]
        cylinder = tangle._Gluing(2, [(0, 1), (0, 1)], [0, 1], 1, sizes)
        assert [cylinder.evaluate(0, label) for label in (0, 1)] == [{0: 1}, {1: 1}]
        merge = tangle._Gluing(3, pants, [0, 1, 2], 2, sizes)
        for (l1, l2), rows in MERGE.items():
            if LABEL_BP not in (l1, l2):
                expected = {bit[label]: scalar for label, scalar, _ in rows}
                assert merge.evaluate(0, bit[l1] | bit[l2] << 1) == expected, (l1, l2)
        split = tangle._Gluing(3, pants, [0, 1, 2], 1, sizes)
        for label, rows in SPLIT.items():
            if label != LABEL_BP:
                expected = {bit[old] | bit[new] << 1: scalar for old, new, scalar, _ in rows}
                assert split.evaluate(0, bit[label]) == expected, label

    def test_composition_through_a_handle(self):
        # any two of these matchings of six points close up to one circle, so two
        # undotted disks glued along m2's three arcs make a once-punctured torus:
        # h = 2X + G, and X * h = -GX; at G = 1 mask 1 is the dotted disk
        m1, m2, m3 = ((1, 2), (3, 4), (5, 6)), ((1, 6), (2, 3), (4, 5)), ((1, 4), (2, 5), (3, 6))
        t, plans = tangle._Tangle(0), {}
        assert t.compose(plans, m1, m2, m3, {0: 1}, {0: 1}) == {0: 1, 1: 2}
        assert t.compose(plans, m1, m2, m3, {1: 1}, {0: 1}) == {1: -1}
        assert t.compose(plans, m1, m2, m3, {0: 3}, {1: -1}) == {1: 3}

    def test_memos_hold_only_the_current_boundary(self, monkeypatch):
        # a matching names every point of its boundary, and a boundary once
        # left never comes back, so after each crossing every memo the tangle
        # still holds must be keyed by matchings of the boundary it is on
        complex_fields = {"crossings", "boundary", "match", "weight", "q", "out", "inc"}
        cancel_units = tangle._Tangle.cancel_units
        checked = []

        def cancel_and_check(t):
            cancel_units(t)
            keys = [key for name, memo in vars(t).items() if name not in complex_fields for key in memo]
            for key in keys:
                for m in key:
                    assert sorted(a for pair in m for a in pair) == list(t.boundary), key
            checked.append(len(keys))

        monkeypatch.setattr(tangle._Tangle, "cancel_units", cancel_and_check)
        pd = support.double_pd(parse_braid("BR[2; 1,1,1]"), clasp="A")
        assemble(pd)
        assert len(checked) == 14 and all(checked)

    def test_cut_arc_missing_from_final_boundary_is_internal_error(self):
        # a PDCode made by hand, basepointed on an arc the diagram lacks, so nothing is cut
        broken = dataclasses.replace(parse_braid("BR[2; 1,1,1]"), basepoint=99)
        with pytest.raises(
            InternalInvariantError,
            match=r"^khovanov tangle assembly: .*final boundary \[\] is not the cut arc \[99, 7\] "
            r"\(crossings 3, boundary 0, rank \d+\)",
        ):
            assemble(broken)

    def test_odd_genus_count_is_internal_error(self):
        # one disk bounded by two circles would have genus -1/2
        sizes = {"crossings": 5, "boundary": 4, "rank": 6}
        with pytest.raises(
            InternalInvariantError, match=r"chi 1 and 2 boundary circles \(crossings 5, boundary 4, rank 6\)"
        ):
            tangle._Gluing(1, [], [0, 0], 0, sizes)

    def test_negative_g_power_is_internal_error(self):
        t = tangle._Tangle(3)
        arc = ((1, 7),)
        t.boundary = arc[0]
        t.match, t.weight, t.q = {0: arc, 1: arc}, {0: 0, 1: 1}, {0: 2, 1: 0}
        t.out, t.inc = {0: {1: {0: 1}}, 1: {}}, {0: {}, 1: {0: None}}
        with pytest.raises(
            InternalInvariantError, match=r"negative G-power \(crossings 3, boundary 2, rank 2\)"
        ):
            t.close(arc, 3, 0)


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
