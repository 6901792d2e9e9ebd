"""Stretch item: the 3-twisted positively clasped double of the trefoil.

The 14-crossing diagram is the blackboard double of the standard 3-crossing
right-trefoil diagram plus a 2-crossing clasp.  Its class is expected to be
the staircase Sigma_(2): s_2 = 2, s_0 = s_3 = 0 and filtration tuple (0).
The tangle assembly builds it in a fraction of a second; an assembly that
overruns the budget fails the test.  C (x) dual(C) of a knot is
Z-equivalent to the unit; on the doubles of 3_1 and 4_1 that product has
rank 1225 and 9409, which the H_0 class data's elimination at G = 1
decides in well under a second.
"""

import time

import pytest

from khconc import (
    build_complex,
    build_staircase,
    dual,
    tensor,
    unit_complex,
    knotlike_check,
    parse_braid,
    rasmussen_s,
    schuetz_sz,
    validate,
    z_equivalent,
)

import support

BUDGET_SECONDS = 1800


def test_stretch_whitehead_double_of_trefoil():
    start = time.perf_counter()
    trefoil = parse_braid("BR[2; 1,1,1]")
    pd = support.double_pd(trefoil, clasp="A")
    assert len(pd.crossings) == 14
    c = build_complex(pd, cap=14)
    assembly = time.perf_counter() - start
    assert assembly < BUDGET_SECONDS, f"assembly took {assembly:.1f}s, budget {BUDGET_SECONDS}s"
    assert validate(c) == []
    assert knotlike_check(c)
    assert rasmussen_s(c, 2) == 2
    assert rasmussen_s(c, 0) == 0
    assert rasmussen_s(c, 3) == 0
    assert schuetz_sz(c).as_tuple() == (0,)
    sigma2 = build_staircase((2,))
    assert z_equivalent(c, sigma2)
    assert not z_equivalent(c, dual(sigma2))
    elapsed = time.perf_counter() - start
    print(f"[acceptance 11] PASS in {elapsed:6.2f}s (budget {BUDGET_SECONDS}s): "
          "3-twisted clasped double of the trefoil is Z-equivalent to Sigma_(2)")
    assert elapsed < BUDGET_SECONDS


@pytest.mark.parametrize(
    "word, crossings", [("BR[2; 1,1,1]", 14), ("BR[3; 1,-2,1,-2]", 18)], ids=["3_1", "4_1"]
)
def test_double_times_its_dual_is_z_equivalent_to_the_unit(word, crossings):
    pd = support.double_pd(parse_braid(word), clasp="A")
    assert len(pd.crossings) == crossings
    c = build_complex(pd, cap=crossings)
    product = tensor(c, dual(c))
    assert product.total_rank == c.total_rank**2
    assert z_equivalent(product, unit_complex())
    if crossings == 14:
        assert schuetz_sz(product).as_tuple() == (0,)
