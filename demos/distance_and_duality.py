"""The metric on knot-like classes and the duality witness.

The distance between two classes is the least n admitting degree -2n chain
maps inducing isomorphisms on H_0 at G = 1 in both directions.  Duals are
inverses: the explicit section and retraction of the unit summand inside
C (x) dual(C) are produced and verified by inverse_witness.
"""

from khconc import (
    build_ck,
    build_staircase,
    distance_d,
    dual,
    inverse_witness,
    rasmussen_s,
    reduce,
    schuetz_sz,
    shift,
    tensor,
    unit_complex,
    z_equivalent,
)

print("== rank-one classes embed isometrically ==")
for m, n in [(0, 1), (0, 3), (2, 3)]:
    a, b = shift(unit_complex(), 0, 2 * m), shift(unit_complex(), 0, 2 * n)
    print(f"  d(q^{2*m}, q^{2*n}) = {distance_d(a, b, 8)}")

print()
print("== a staircase sits at distance 1 from the unknot class ==")
s2 = build_staircase((2,))
print("  d(Sigma_(2), unit) =", distance_d(s2, unit_complex(), 4))

print()
print("== the five-generator family: same s_c and tuple, distinct classes ==")
c1, c2 = build_ck(1), build_ck(2)
print("  s_0, s_2 of both:",
      [(rasmussen_s(c, 0), rasmussen_s(c, 2)) for c in (c1, c2)])
print("  filtration tuples:", schuetz_sz(c1), schuetz_sz(c2))
print("  Z-equivalent?", z_equivalent(c1, c2))
print("  d(C^1, C^2) =", distance_d(c1, c2, 4))

print()
print("== duals are inverses, with an explicit witness ==")
for c, name in [(s2, "Sigma_(2)"), (build_staircase((2, 4)), "Sigma_(2,4)")]:
    w = inverse_witness(c)
    nonzero = sum(1 for v in w.f.values() if v)
    print(f"  {name}: witness over {w.product.total_rank} generators, "
          f"{nonzero} diagonal terms, g(f(1)) = 1 verified")
    print(f"  {name} (x) dual ~ unit:", z_equivalent(reduce(tensor(c, dual(c))), unit_complex()))
