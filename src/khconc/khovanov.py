"""The reduced universal Khovanov complex of a knot diagram over Z[G].

Input is a planar diagram code: crossings X(a, b, c, d) list the four arc
labels counterclockwise starting from the incoming under-strand, so the
under-strand runs a -> c and the over-strand occupies b and d.  One walk
along the knot, starting out of crossing 0's under-strand, fixes the
orientation of every arc and the order of the arcs; a crossing is positive
when its over-strand runs b -> d.  Under that convention the code
PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)] is the right-handed trefoil.

The complex is the cube of resolutions of the Frobenius algebra
Z[G][X]/(X^2 + GX), reduced at X = 0: the circle through the basepoint
carries the rank-one module spanned by X, every other circle the rank-two
module with basis 1 (qdeg +1) and X (qdeg -1).  Resolution 0 of a crossing
joins slots (a, d) and (b, c), resolution 1 joins (a, b) and (c, d); with
n+ positive and n- negative crossings, a cube vertex v contributes at
homological degree |v| - n- with quantum shift |v| + n+ - 2n-.  Edge signs
follow the parity of the 1-bits below the flipped coordinate.  These
conventions are pinned by two anchors, checked in the test suite: the
crossingless diagram yields exactly t^0 q^0 Z[G], and the right trefoil has
Rasmussen invariant +2 in every characteristic.

build_complex returns a complex homotopy equivalent to that cube, built by
tangle.assemble crossing by crossing under the same degree conventions; it
never visits the 2^n vertices.  The cube itself is kept in the test suite
as the oracle the assembly is checked against.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .complexes import GradedComplex, InternalInvariantError

DEFAULT_CROSSING_CAP = 12
CAP_ENV_VAR = "KHCONC_CROSSING_CAP"


class ResourceCapError(RuntimeError):
    """Crossing count exceeds the configured cap."""


@dataclass(frozen=True)
class PDCode:
    """A validated planar diagram of an oriented knot.

    over_in_b[i] is True when crossing i's over-strand arrives at slot b
    (the positive case); arc_order lists the arcs along the knot starting
    at the basepoint.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    basepoint: int
    over_in_b: tuple[bool, ...]
    arc_order: tuple[int, ...]

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if b else -1 for b in self.over_in_b)

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)


def analyze_pd(
    crossings: list[tuple[int, int, int, int]], basepoint: int | None = None
) -> PDCode:
    """Validate crossing data, orient the knot and list its arcs from the basepoint.

    One walk fixes the orientation.  It leaves crossing 0 along its
    under-strand and follows the arcs; a strand entering at slot a, b or d
    leaves at c, d or b, and the over-strand's entry slot gives the sign.
    The step from one entry slot to the next is injective, so within 2n + 1
    steps the walk re-enters crossing 0 at a, or it enters a crossing at c or
    crosses one over-strand twice and the diagram cannot be oriented.  A
    walk that misses arcs has found a link.
    """
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, cross in enumerate(crossings):
        if len(cross) != 4:
            raise ValueError(f"crossing {cross!r} does not have 4 arcs")
        for slot, arc in enumerate(cross):
            occurrences.setdefault(arc, []).append((ci, slot))
    for arc, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"arc {arc} appears {len(occ)} times, expected 2")

    bp = basepoint if basepoint is not None else min(occurrences, default=0)
    if not crossings:
        return PDCode(crossings=(), basepoint=bp, over_in_b=(), arc_order=(bp,))
    if bp not in occurrences:
        raise ValueError(f"basepoint arc {bp} does not occur in the diagram")

    over_in_b: list[bool | None] = [None] * len(crossings)
    order: list[int] = []
    ci, slot = 0, 2  # the exit slot of crossing 0's under-strand
    while True:
        arc = crossings[ci][slot]
        order.append(arc)
        first, second = occurrences[arc]
        ci, slot = second if first == (ci, slot) else first
        if (ci, slot) == (0, 0):
            break
        if slot == 2 or (slot and over_in_b[ci] is not None):
            raise ValueError(f"crossing {crossings[ci]!r} cannot be oriented consistently")
        if slot:
            over_in_b[ci] = slot == 1
        slot = (slot + 2) % 4
    if len(order) != len(occurrences):
        raise ValueError(f"knots only: diagram has {len(occurrences)} arcs but one component of {len(order)}")
    start = order.index(bp)
    return PDCode(
        crossings=tuple(tuple(c) for c in crossings),
        basepoint=bp,
        over_in_b=tuple(over_in_b),
        arc_order=tuple(order[start:] + order[:start]),
    )


_PD_CROSSING_RE = re.compile(r"X\s*[\(\[]\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*[\)\]]", re.I)


def parse_pd(text: str, basepoint: int | None = None) -> PDCode:
    """Parse PD bracket notation, e.g. "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"."""
    s = text.strip()
    m = re.match(r"^PD\s*[\(\[](.*)[\)\]]$", s, re.I | re.S)
    body = m.group(1) if m else s
    body = body.strip()
    if body == "":
        return analyze_pd([], basepoint=basepoint)
    crossings = []
    pos = 0
    while pos < len(body):
        m = _PD_CROSSING_RE.match(body, pos)
        if not m:
            raise ValueError(f"cannot parse PD code at: {body[pos:pos+30]!r}")
        crossings.append(tuple(int(m.group(i)) for i in range(1, 5)))
        pos = m.end()
        while pos < len(body) and body[pos] in ", \t\n":
            pos += 1
    return analyze_pd(crossings, basepoint=basepoint)


def parse_braid(text: str) -> PDCode:
    """Braid closure input "BR[k; w1,w2,...]": positive wi is sigma_i.

    The closure is taken strand by strand and the basepoint sits on the
    first strand's initial arc.
    """
    m = re.match(r"^BR\s*[\[\(]\s*(\d+)\s*;\s*([-\d,\s]*)[\]\)]$", text.strip(), re.I)
    if not m:
        raise ValueError(f"cannot parse braid word {text!r}")
    strands = int(m.group(1))
    if strands < 1:
        raise ValueError("braid needs at least one strand")
    body = m.group(2).strip()
    word = [int(x) for x in body.split(",")] if body else []
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise ValueError(f"braid letter {letter} out of range for {strands} strands")
    if strands > len(word) + 1:  # each letter joins at most two of the strands' components
        raise ValueError("knots only: this braid closure has more than one component")
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = {0}
    cursor = 0
    for _ in range(strands):
        cursor = perm[cursor]
        seen.add(cursor)
    if len(seen) != strands:
        raise ValueError("knots only: this braid closure has more than one component")
    initial = list(range(1, strands + 1))
    current = list(initial)
    next_arc = strands + 1
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        left_in, right_in = current[i], current[i + 1]
        out_left, out_right = next_arc, next_arc + 1
        next_arc += 2
        if letter > 0:
            # strand entering on the right goes under to the left
            crossings.append((right_in, left_in, out_left, out_right))
        else:
            crossings.append((left_in, out_left, out_right, right_in))
        current[i], current[i + 1] = out_left, out_right
    # close up: identify the final arc at each position with the initial one
    relabel = {final: first for final, first in zip(current, initial)}
    closed = [tuple(relabel.get(a, a) for a in cross) for cross in crossings]
    return analyze_pd(closed, basepoint=initial[0])


def mirror_pd(pd: PDCode) -> PDCode:
    """Switch every crossing; the incoming over-strand becomes the under in."""
    crossings = []
    for cross, over_b in zip(pd.crossings, pd.over_in_b):
        a, b, c, d = cross
        if over_b:
            crossings.append((b, c, d, a))
        else:
            crossings.append((d, a, b, c))
    return analyze_pd(crossings, basepoint=pd.basepoint)


def _arrival_slot(pd: PDCode, arc: int) -> tuple[int, int]:
    """The crossing and slot where the arc arrives: a, or the over-strand's in slot."""
    for ci, (cross, over_b) in enumerate(zip(pd.crossings, pd.over_in_b)):
        for slot in (0, 1 if over_b else 3):
            if cross[slot] == arc:
                return ci, slot
    raise InternalInvariantError(
        "connected_sum_pd", f"arc {arc} has no arrival slot", crossings=len(pd.crossings)
    )


def connected_sum_pd(pd1: PDCode, pd2: PDCode) -> PDCode:
    """Splice the two diagrams along their basepoint arcs.

    Cutting the arcs P1 -> Q1 and P2 -> Q2 and rejoining as P1 -> Q2 and
    P2 -> Q1 keeps one oriented circle and adds no crossings.  The second
    diagram's labels are shifted past the first's, which moves no slot.
    """
    if not pd1.crossings:
        return pd2
    if not pd2.crossings:
        return pd1
    offset = max(max(c) for c in pd1.crossings) + 1
    cut1, cut2 = pd1.basepoint, pd2.basepoint + offset
    crossings1 = [list(c) for c in pd1.crossings]
    crossings2 = [[a + offset for a in c] for c in pd2.crossings]
    ci, slot = _arrival_slot(pd1, cut1)
    crossings1[ci][slot] = cut2
    ci, slot = _arrival_slot(pd2, pd2.basepoint)
    crossings2[ci][slot] = cut1
    return analyze_pd([tuple(c) for c in crossings1 + crossings2], basepoint=cut1)


def _crossing_cap(cap: int | None) -> int:
    """The cap given, else KHCONC_CROSSING_CAP, else the default; a negative
    cap is a malformed value, not a cap to exceed."""
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CROSSING_CAP
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
        if cap < 0:
            raise ValueError(f"{CAP_ENV_VAR} must be nonnegative, got {env!r}")
    elif cap < 0:
        raise ValueError(f"crossing cap must be nonnegative, got {cap}")
    return cap


def build_complex(pd: PDCode, cap: int | None = None) -> GradedComplex:
    """The reduced universal Khovanov complex of the diagram, up to homotopy.

    tangle.assemble adds the crossings one at a time to the knot cut at its
    basepoint, delooping closed circles and cancelling unit entries after
    every crossing, so it never visits the 2^n resolutions; its result is
    homotopy equivalent to the cube, with no unit entries left.
    """
    n = len(pd.crossings)
    limit = _crossing_cap(cap)
    if n > limit:
        raise ResourceCapError(
            f"diagram has {n} crossings, cap is {limit} (raise it explicitly to proceed)"
        )
    # imported on first use, so that importing the package compiles no
    # assembly code
    from .tangle import assemble

    return assemble(pd)
