"""From a planar diagram to concordance invariants.

Builds reduced universal Khovanov complexes over Z[G] for small knots and
reads off the Rasmussen invariants per characteristic and the quantum
filtration tuple.  Mirrors become duals and connected sums become tensor
products, which we confirm with the exact Z-equivalence test.
"""

from khconc import (
    build_complex,
    connected_sum_pd,
    dual,
    graded_rank,
    mirror_pd,
    parse_braid,
    parse_pd,
    rasmussen_s,
    schuetz_sz,
    tensor,
    z_equivalent,
)

RIGHT_TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
FIGURE_EIGHT = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"

print("== right trefoil ==")
pd = parse_pd(RIGHT_TREFOIL)
print("crossing signs:", pd.signs)
tref = build_complex(pd)
print("reduced graded rank:", graded_rank(tref))
print("s_c for c in {0,2,3,5}:", [rasmussen_s(tref, c) for c in (0, 2, 3, 5)])
print("filtration tuple:", schuetz_sz(tref))

print()
print("== figure eight ==")
fig8 = build_complex(parse_pd(FIGURE_EIGHT))
print("reduced graded rank:", graded_rank(fig8))
print("s_c for c in {0,2,3}:", [rasmussen_s(fig8, c) for c in (0, 2, 3)])

print()
print("== mirrors and sums ==")
mirror = build_complex(mirror_pd(pd))
print("mirror trefoil ~ dual(trefoil):", z_equivalent(mirror, dual(tref)))
square_knot = connected_sum_pd(parse_braid("BR[2; 1,1,1]"), parse_braid("BR[2; -1,-1,-1]"))
sq = build_complex(square_knot)
print("trefoil # mirror: s_0 =", rasmussen_s(sq, 0))
print("sum complex ~ tensor of factors:",
      z_equivalent(sq, tensor(tref, mirror)))

print()
print("== braid input ==")
t25 = build_complex(parse_braid("BR[2; 1,1,1,1,1]"))
print("T(2,5) from a braid word: s_0 =", rasmussen_s(t25, 0))
