"""Staircase complexes, the C^k family, and the closed staircase calculus.

A staircase spec A = (a_1, ..., a_n) requires a_i >= 0 and a_i | a_(i+1),
with the conventions that everything divides 0 and 0 divides only 0.  The
complex Sigma_A has n+1 generators in homological degree 0 (quantum degrees
2n, 2n-2, ..., 0) and n in degree 1 (2n, ..., 2), with the bidiagonal
differential (a_i on the diagonal, G below it).

The subgroup generated by staircases is free abelian on Sigma_(r) for r
zero or a nontrivial prime power; stair_normal_form rewrites a formal
product into that basis and reassembles the two sides as divisibility
chains, tracking pure q-shifts (one q^2 per Sigma_(0) factor) separately.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .complexes import Generator, GradedComplex


def check_staircase_spec(a: tuple[int, ...]) -> None:
    for x in a:
        if x < 0:
            raise ValueError(f"staircase entries must be >= 0, got {x}")
    for x, y in zip(a, a[1:]):
        if x == 0:
            if y != 0:
                raise ValueError(f"broken divisibility chain: 0 does not divide {y}")
        elif y % x != 0:
            raise ValueError(f"broken divisibility chain: {x} does not divide {y}")


def build_staircase(a: tuple[int, ...] | list[int]) -> GradedComplex:
    """The staircase complex Sigma_A."""
    a = tuple(int(x) for x in a)
    check_staircase_spec(a)
    n = len(a)
    gens = []
    for i in range(1, n + 2):
        gens.append(Generator(f"x{i}", 0, 2 * (n - i + 1)))
    for i in range(1, n + 1):
        gens.append(Generator(f"y{i}", 1, 2 * (n - i + 1)))
    entries: dict[tuple[str, str], int] = {}
    for i in range(1, n + 1):
        if a[i - 1] != 0:
            entries[(f"x{i}", f"y{i}")] = a[i - 1]
        entries[(f"x{i+1}", f"y{i}")] = 1
    return GradedComplex(gens, entries)


def build_ck(k: int) -> GradedComplex:
    """The five-generator complex C^k (k >= 1).

    Degrees (t, q): e (-1, -2), v (0, -2), u1 (0, 0), u2 (0, 0), w (1, 0);
    entries 2^k, 2^(k+1) twice, -G and G.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gens = [
        Generator("e", -1, -2),
        Generator("v", 0, -2),
        Generator("u1", 0, 0),
        Generator("u2", 0, 0),
        Generator("w", 1, 0),
    ]
    entries = {
        ("e", "u2"): -1,
        ("e", "v"): 2 ** (k + 1),
        ("u1", "w"): 2**k,
        ("u2", "w"): 2 ** (k + 1),
        ("v", "w"): 1,
    }
    return GradedComplex(gens, entries)


# ---------------------------------------------------------------------------
# formal staircase calculus

# The calculus factors each entry by trial division to its square root and
# writes a chain as long as the net exponents; these bound both.
_MAX_ENTRY = 10**12
_MAX_EXPONENT = 10**4


def prime_power_factors(n: int) -> list[int]:
    """Prime power factorization of n by trial division; empty below 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                q *= d
                n //= d
            out.append(q)
        d += 1
    if n > 1:
        out.append(n)
    return sorted(out)


def _chain_factors(a: tuple[int, ...]) -> tuple[dict[int, int], int]:
    """Multiset of nonzero prime-power factors of Sigma_A plus its q-shift."""
    factors: dict[int, int] = {}
    for x, mult in Counter(a).items():
        if x > _MAX_ENTRY:
            raise ValueError(f"staircase entry {x} is above {_MAX_ENTRY}")
        for q in prime_power_factors(x):
            factors[q] = factors.get(q, 0) + mult
    return factors, 2 * a.count(0)


def chain_from_prime_powers(factors: dict[int, int]) -> tuple[int, ...]:
    """Reassemble a prime-power multiset into the divisibility-chain form."""
    by_prime: dict[int, list[int]] = {}
    for q, mult in factors.items():
        if mult <= 0:
            continue
        prime = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        by_prime.setdefault(prime, []).extend([q] * mult)
    for lst in by_prime.values():
        lst.sort(reverse=True)
    depth = max((len(lst) for lst in by_prime.values()), default=0)
    chain = []
    for level in range(depth):
        val = 1
        for lst in by_prime.values():
            if level < len(lst):
                val *= lst[level]
        chain.append(val)
    return tuple(reversed(chain))


@dataclass(frozen=True)
class StairNormalForm:
    """q^shift * (Sigma_a_side (x) dual(Sigma_b_side)), both sides 0- and 1-free."""

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    shift: int

    def is_trivial(self) -> bool:
        return not self.a_side and not self.b_side and self.shift == 0

    def __str__(self) -> str:
        bits = []
        if self.a_side or not self.b_side:
            bits.append("Σ_(" + ",".join(map(str, self.a_side)) + ")")
        if self.b_side:
            bits.append("Σ*_(" + ",".join(map(str, self.b_side)) + ")")
        body = " ⊗ ".join(bits)
        return f"q^{self.shift} {body}" if self.shift else body


def stair_normal_form(product: dict[tuple[int, ...], int]) -> StairNormalForm:
    """Normal form of a signed formal product of staircases.

    Every factor is split into its Sigma_(prime power) and Sigma_(0) parts,
    matched factors cancel between the positive and negative sides, and each
    side is reassembled as the unique divisibility chain without 0s and 1s.
    The input is Z-equivalent to q^shift * Sigma_A (x) dual(Sigma_B), and it
    is trivial exactly when both sides are empty and the shift is zero.
    """
    net: dict[int, int] = {}
    shift = 0
    for spec, exponent in product.items():
        spec = tuple(int(x) for x in spec)
        check_staircase_spec(spec)
        factors, spec_shift = _chain_factors(spec)
        shift += exponent * spec_shift
        for q, mult in factors.items():
            net[q] = net.get(q, 0) + exponent * mult
    size = abs(shift) // 2 + sum(map(abs, net.values()))
    if size > _MAX_EXPONENT:
        raise ValueError(f"net staircase exponents add up to {size}, above {_MAX_EXPONENT}")
    pos = {q: m for q, m in net.items() if m > 0}
    neg = {q: -m for q, m in net.items() if m < 0}
    return StairNormalForm(
        a_side=chain_from_prime_powers(pos),
        b_side=chain_from_prime_powers(neg),
        shift=shift,
    )


_TERM_RE = re.compile(r"^S\(([-\d,\s]*)\)(?:\^(-?\d+))?$")


def parse_stair_expr(text: str) -> dict[tuple[int, ...], int]:
    """Parse expressions like "S(2,4) * S(6)^-1" into a formal product."""
    product: dict[tuple[int, ...], int] = {}
    for raw in text.split("*"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty factor in staircase expression: {text!r}")
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse staircase factor {term!r}")
        body = m.group(1).strip()
        spec = tuple(int(x) for x in body.split(",")) if body else ()
        check_staircase_spec(spec)
        exponent = int(m.group(2)) if m.group(2) else 1
        product[spec] = product.get(spec, 0) + exponent
    return product
