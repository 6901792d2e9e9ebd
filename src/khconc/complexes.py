"""Bigraded chain complexes of free Z[G]-modules with monomial differentials.

The coefficient ring is Z[G] with quantum degree qdeg(G) = -2.  A complex
is a finite set of generators, each carrying a homological degree t and an
even quantum degree q, together with a sparse differential whose entries
are homogeneous monomials m*G^c.  Homogeneity pins the G-power of an entry
from x to y: a map q^a -> q^b given by m*G^c has quantum degree -a + b - 2c,
and the differential must have tq-degree (1, 0), so c = (b - a) / 2.

A GradedComplex stores only the int scalar m of each entry and reads every
G-power off the degrees (expected_gpow); its constructor is the one place
that checks them.  GElem is the staging and input type of ComplexBuilder
and from_json.  Complexes are immutable once constructed; all algebra
below (shift, dual, sum, tensor) returns fresh values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class InternalInvariantError(RuntimeError):
    """An invariant the code itself guarantees failed: a bug, not bad input.

    The message names the layer and the sizes involved.
    """

    def __init__(self, layer: str, problem: str, **sizes: int):
        detail = ", ".join(f"{name} {size}" for name, size in sizes.items())
        super().__init__(f"{layer}: internal invariant failed: {problem} ({detail})")


@dataclass(frozen=True)
class GElem:
    """A homogeneous element m*G^c of Z[G]; zero is canonically (0, 0)."""

    scalar: int
    gpow: int = 0

    def __post_init__(self):
        if self.gpow < 0:
            raise ValueError(f"negative G-power {self.gpow}")
        if self.scalar == 0 and self.gpow != 0:
            object.__setattr__(self, "gpow", 0)

    def is_zero(self) -> bool:
        return self.scalar == 0

    def is_unit(self) -> bool:
        return self.gpow == 0 and self.scalar in (1, -1)

    def plus(self, other: "GElem") -> "GElem":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.gpow != other.gpow:
            raise ValueError(f"adding inhomogeneous monomials G^{self.gpow} and G^{other.gpow}")
        return GElem(self.scalar + other.scalar, self.gpow)

    def __repr__(self) -> str:
        if self.gpow == 0:
            return str(self.scalar)
        g = "G" if self.gpow == 1 else f"G^{self.gpow}"
        if self.scalar == 1:
            return g
        if self.scalar == -1:
            return f"-{g}"
        return f"{self.scalar}{g}"


@dataclass(frozen=True)
class Generator:
    id: str
    tdeg: int
    qdeg: int


class LaurentBiPoly:
    """Laurent polynomial in t, q with nonnegative integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if coeff < 0:
                raise ValueError("coefficients must be nonnegative")
            if coeff:
                clean[(int(key[0]), int(key[1]))] = int(coeff)
        self.terms = clean

    @classmethod
    def monomial(cls, t: int, q: int, coeff: int = 1) -> "LaurentBiPoly":
        return cls({(t, q): coeff})

    def __add__(self, other: "LaurentBiPoly") -> "LaurentBiPoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return LaurentBiPoly(out)

    def __mul__(self, other: "LaurentBiPoly") -> "LaurentBiPoly":
        out: dict[tuple[int, int], int] = {}
        for (t1, q1), c1 in self.terms.items():
            for (t2, q2), c2 in other.terms.items():
                key = (t1 + t2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentBiPoly(out)

    def inverted(self) -> "LaurentBiPoly":
        """Substitute (t, q) -> (1/t, 1/q)."""
        return LaurentBiPoly({(-t, -q): c for (t, q), c in self.terms.items()})

    def total(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentBiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (t, q) in sorted(self.terms):
            c = self.terms[(t, q)]
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}t^{t}*q^{q}")
        return " + ".join(bits)


class GradedComplex:
    """Immutable bigraded complex of int scalars, built from int or GElem
    entries: a scalar whose type is not int, or a G-power its ends do not
    force (or admit, for an int), raises ValueError naming the entry, and
    zero entries are dropped."""

    __slots__ = ("_gens", "_out")

    def __init__(
        self,
        generators: Iterable[Generator],
        entries: Mapping[tuple[str, str], int | GElem],
    ):
        gens: dict[str, Generator] = {}
        for g in generators:
            if g.id in gens:
                raise ValueError(f"duplicate generator id {g.id!r}")
            gens[g.id] = g
        out: dict[str, dict[str, int]] = {gid: {} for gid in gens}
        for (src, tgt), val in entries.items():
            if src not in gens or tgt not in gens:
                raise ValueError(f"entry {src!r}->{tgt!r} references unknown generator")
            gs, gt = gens[src], gens[tgt]
            val, gpow = (val.scalar, val.gpow) if isinstance(val, GElem) else (val, None)
            if type(val) is not int:
                raise ValueError(f"entry {src}->{tgt}: scalar {val!r} is not an int")
            if not val:
                continue
            diff = gt.qdeg - gs.qdeg
            if diff < 0 or diff & 1:
                raise ValueError(f"entry {src}->{tgt}: no homogeneous monomial fits qdeg {gs.qdeg}->{gt.qdeg}")
            if gpow is not None and gpow != diff >> 1:
                raise ValueError(f"entry {src}->{tgt}: G-power {gpow}, homogeneity forces {diff >> 1}")
            out[src][tgt] = val
        self._gens = gens
        self._out = out

    @property
    def generators(self) -> tuple[Generator, ...]:
        return tuple(self._gens.values())

    def ids(self) -> tuple[str, ...]:
        return tuple(self._gens)

    def gen(self, gid: str) -> Generator:
        return self._gens[gid]

    def __contains__(self, gid: str) -> bool:
        return gid in self._gens

    def out_of(self, gid: str) -> Mapping[str, int]:
        return self._out[gid]

    def entry(self, src: str, tgt: str) -> int:
        return self._out[src].get(tgt, 0)

    def iter_entries(self) -> Iterator[tuple[str, str, int]]:
        for src, row in self._out.items():
            for tgt, val in row.items():
                yield src, tgt, val

    @property
    def total_rank(self) -> int:
        return len(self._gens)

    def tdeg_range(self) -> tuple[int, int]:
        if not self._gens:
            return (0, -1)
        ts = [g.tdeg for g in self._gens.values()]
        return (min(ts), max(ts))

    def qdeg_range(self) -> tuple[int, int]:
        if not self._gens:
            return (0, -1)
        qs = [g.qdeg for g in self._gens.values()]
        return (min(qs), max(qs))

    def builder(self) -> "ComplexBuilder":
        b = ComplexBuilder()
        for g in self._gens.values():
            b.add_gen(g.id, g.tdeg, g.qdeg)
        for src, tgt, val in self.iter_entries():
            b.set_entry(src, tgt, GElem(val, expected_gpow(self._gens[src], self._gens[tgt])))
        return b

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedComplex):
            return NotImplemented
        return self._gens == other._gens and self._out == other._out

    def __repr__(self) -> str:
        return f"GradedComplex(rank={self.total_rank}, entries={sum(len(r) for r in self._out.values())})"


class ComplexBuilder:
    """Mutable staging area for a GradedComplex, confined to one thread.

    Entries are GElem values, checked by GradedComplex when frozen.  Its
    users are GradedComplex.builder(), the benchmark's shear and the oracles.
    """

    def __init__(self):
        self.gens: dict[str, Generator] = {}
        self.out: dict[str, dict[str, GElem]] = {}
        self.inc: dict[str, dict[str, GElem]] = {}

    def add_gen(self, gid: str, tdeg: int, qdeg: int) -> None:
        if gid in self.gens:
            raise ValueError(f"duplicate generator id {gid!r}")
        self.gens[gid] = Generator(gid, tdeg, qdeg)
        self.out[gid] = {}
        self.inc[gid] = {}

    def set_entry(self, src: str, tgt: str, val: GElem) -> None:
        if val.is_zero():
            self.out[src].pop(tgt, None)
            self.inc[tgt].pop(src, None)
        else:
            self.out[src][tgt] = val
            self.inc[tgt][src] = val

    def add_entry(self, src: str, tgt: str, val: GElem) -> None:
        self.set_entry(src, tgt, self.out[src].get(tgt, GElem(0)).plus(val))

    def entry(self, src: str, tgt: str) -> GElem:
        return self.out[src].get(tgt, GElem(0))

    def freeze(self) -> GradedComplex:
        entries = {(s, t): v for s, row in self.out.items() for t, v in row.items()}
        return GradedComplex(self.gens.values(), entries)


def empty_complex() -> GradedComplex:
    return GradedComplex([], {})


def unit_complex(tdeg: int = 0, qdeg: int = 0, gid: str = "u") -> GradedComplex:
    """The rank-one complex t^tdeg q^qdeg Z[G]."""
    return GradedComplex([Generator(gid, tdeg, qdeg)], {})


def expected_gpow(src: Generator, tgt: Generator) -> int | None:
    """G-power forced on an entry src -> tgt by homogeneity, or None."""
    diff = tgt.qdeg - src.qdeg
    if diff < 0 or diff % 2 != 0:
        return None
    return diff // 2


def validate(complex: GradedComplex) -> list[str]:
    """All invariant violations of the complex, found in one walk over each row:
    odd qdegs, steps other than 1, then d^2 residues; [] means admissible."""
    gens, out = complex._gens, complex._out
    problems = [f"generator {g.id}: odd quantum degree {g.qdeg}" for g in gens.values() if g.qdeg % 2]
    residues: list[str] = []
    for x, row in out.items():
        tx, qx = gens[x].tdeg, gens[x].qdeg
        # d o d = 0: every path x -> y -> z has the G-power (q_z - q_x)/2, so
        # the scalars are summed per target
        acc: dict[str, int] = {}
        for y, v1 in row.items():
            step = gens[y].tdeg - tx
            if step != 1:
                problems.append(f"entry {x}->{y}: homological step {step} != 1")
            for z, v2 in out[y].items():
                acc[z] = acc.get(z, 0) + v1 * v2
        for z, scal in acc.items():
            if scal:
                residues.append(f"d^2 != 0: {x}->{z} residue {scal}*G^{(gens[z].qdeg - qx) // 2}")
    return problems + residues


def _require_valid(complex: GradedComplex, layer: str) -> None:
    """Raise ValueError naming the layer and the first problems validate finds."""
    problems = validate(complex)
    if problems:
        raise ValueError(f"{layer}: invalid complex: " + "; ".join(problems[:3]))


def graded_rank(complex: GradedComplex) -> LaurentBiPoly:
    out: dict[tuple[int, int], int] = {}
    for g in complex.generators:
        key = (g.tdeg, g.qdeg)
        out[key] = out.get(key, 0) + 1
    return LaurentBiPoly(out)


def euler_char(complex: GradedComplex) -> int:
    return sum(-1 if g.tdeg % 2 else 1 for g in complex.generators)


def shift(complex: GradedComplex, dt: int, dq: int) -> GradedComplex:
    """Shift all generator degrees by (dt, dq); dq must stay even."""
    if dq % 2 != 0:
        raise ValueError(f"quantum shift must be even, got {dq}")
    gens = [Generator(g.id, g.tdeg + dt, g.qdeg + dq) for g in complex.generators]
    entries = {(s, t): v for s, t, v in complex.iter_entries()}
    return GradedComplex(gens, entries)


def dual(complex: GradedComplex) -> GradedComplex:
    """Dual complex: degrees negated, differential transposed."""
    gens = [Generator(g.id + "*", -g.tdeg, -g.qdeg) for g in complex.generators]
    entries = {(t + "*", s + "*"): v for s, t, v in complex.iter_entries()}
    return GradedComplex(gens, entries)


def direct_sum(c1: GradedComplex, c2: GradedComplex) -> GradedComplex:
    """Disjoint union; ids are prefixed only when they would collide."""
    collide = set(c1.ids()) & set(c2.ids())
    ren1 = (lambda gid: "l." + gid) if collide else (lambda gid: gid)
    ren2 = (lambda gid: "r." + gid) if collide else (lambda gid: gid)
    gens = [Generator(ren1(g.id), g.tdeg, g.qdeg) for g in c1.generators]
    gens += [Generator(ren2(g.id), g.tdeg, g.qdeg) for g in c2.generators]
    entries: dict[tuple[str, str], int] = {}
    for s, t, v in c1.iter_entries():
        entries[(ren1(s), ren1(t))] = v
    for s, t, v in c2.iter_entries():
        entries[(ren2(s), ren2(t))] = v
    return GradedComplex(gens, entries)


def tensor_id(left: str, right: str) -> str:
    return f"{left}(x){right}"


def tensor(c1: GradedComplex, c2: GradedComplex) -> GradedComplex:
    """Tensor product over Z[G] with the Koszul sign convention:
    d(x (x) y) = d(x) (x) y + (-1)^(tdeg x) x (x) d(y).
    """
    gens = []
    for g1 in c1.generators:
        for g2 in c2.generators:
            gens.append(Generator(tensor_id(g1.id, g2.id), g1.tdeg + g2.tdeg, g1.qdeg + g2.qdeg))
    entries: dict[tuple[str, str], int] = {}
    for g1 in c1.generators:
        sign = -1 if g1.tdeg % 2 else 1
        for g2 in c2.generators:
            src = tensor_id(g1.id, g2.id)
            for y, v in c1.out_of(g1.id).items():
                entries[(src, tensor_id(y, g2.id))] = v
            for y, v in c2.out_of(g2.id).items():
                entries[(src, tensor_id(g1.id, y))] = sign * v
    return GradedComplex(gens, entries)


def to_json(complex: GradedComplex, indent: int | None = None) -> str:
    """Serialize; scalars are string encoded so precision is never lost."""
    gen = complex.gen
    payload = {
        "generators": [{"id": g.id, "t": g.tdeg, "q": g.qdeg} for g in complex.generators],
        "diff": [
            {"from": s, "to": t, "coeff": str(v), "gpow": expected_gpow(gen(s), gen(t))}
            for s, t, v in sorted(complex.iter_entries(), key=lambda e: (e[0], e[1]))
        ],
    }
    return json.dumps(payload, indent=indent)


def from_json(text: str) -> GradedComplex:
    """Parse to_json output; a malformed payload, or a gpow the degrees do
    not force, raises ValueError naming the field or entry.

    The complex is not validated here; see validate.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("complex JSON must be an object with a 'generators' list")

    def field(obj, key: str, kind, where: str):
        try:
            x = obj[key]
            if kind in (int, str) and type(x) is not kind:  # no int() of 0.9 or true, no str() of null
                raise TypeError(x)
            return kind(x)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: missing or malformed field {key!r}") from exc

    gens = []
    for i, g in enumerate(field(payload, "generators", list, "complex")):
        where = f"generator {i}"
        gens.append(Generator(field(g, "id", str, where), field(g, "t", int, where), field(g, "q", int, where)))
    entries = {}
    for i, e in enumerate(field(payload, "diff", list, "complex") if "diff" in payload else []):
        where = f"entry {i}"
        coeff, gpow = field(e, "coeff", lambda c: int(str(c)), where), field(e, "gpow", int, where)
        pair = (field(e, "from", str, where), field(e, "to", str, where))
        if pair in entries:
            raise ValueError(f"{where}: duplicate entry {pair[0]}->{pair[1]}")
        if gpow < 0:
            raise ValueError(f"{where}: entry {pair[0]}->{pair[1]} has negative G-power {gpow}")
        entries[pair] = GElem(coeff, gpow)
    return GradedComplex(gens, entries)
