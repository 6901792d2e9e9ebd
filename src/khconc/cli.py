"""Command line front door.

Subcommands: kh, s, sz, stair, zeq, dist, validate.  Knots are given as PD
codes ("PD[X(1,4,2,5),...]"), braid closures ("BR[2; 1,1,1]"), or paths to
complex JSON files, so abstract complexes are first-class inputs.  Exit
codes: 0 success, 1 input error, 2 resource cap exceeded.

The quantum filtration behind the sz command is taken by support: level k
holds the homology classes of cycles supported on generators of quantum
degree at least k, and the printed tuple lists the successive subgroup
indices below the top level.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import complexes, invariants, khovanov, simplify, staircase, zeq


class InputError(ValueError):
    pass


def _load_complex(token: str, cap: int | None, basepoint: int | None) -> complexes.GradedComplex:
    """The reduced complex of a PD/BR code or of a complex JSON file.

    A file is validated first and reduced only once validate accepts it,
    since cancelling can turn an invalid complex into a valid one.  The
    invariants reduce their input again, which is cheap on a reduced
    complex; the chain-map lattice behind zeq works on the complex as given.
    """
    stripped = token.strip()
    upper = stripped.upper()
    if upper.startswith("PD"):
        pd = khovanov.parse_pd(stripped, basepoint=basepoint)
        return simplify.reduce(khovanov.build_complex(pd, cap=cap))
    if upper.startswith("BR"):
        pd = khovanov.parse_braid(stripped)
        return simplify.reduce(khovanov.build_complex(pd, cap=cap))
    if os.path.exists(stripped):
        with open(stripped, "r", encoding="utf-8") as fh:
            c = complexes.from_json(fh.read())
        problems = complexes.validate(c)
        if problems:
            raise InputError(f"{stripped} is not a valid complex: " + "; ".join(problems))
        return simplify.reduce(c)
    raise InputError(f"cannot interpret input {token!r}: not PD/BR notation or a readable file")


def _parse_chars(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            c = int(piece)
        except ValueError as exc:
            raise InputError(f"bad characteristic {piece!r}") from exc
        try:
            simplify.check_characteristic(c)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        out.append(c)
    if not out:
        raise InputError("no characteristics given")
    return out


def _pretty_grid(c: complexes.GradedComplex) -> str:
    if c.total_rank == 0:
        return "(empty complex)"
    tmin, tmax = c.tdeg_range()
    qs = sorted({g.qdeg for g in c.generators}, reverse=True)
    counts = {}
    for g in c.generators:
        counts[(g.tdeg, g.qdeg)] = counts.get((g.tdeg, g.qdeg), 0) + 1
    width = max(4, *(len(str(t)) for t in range(tmin, tmax + 1)))
    lines = []
    header = "q\\t".rjust(6) + "".join(str(t).rjust(width + 1) for t in range(tmin, tmax + 1))
    lines.append(header)
    for q in qs:
        row = str(q).rjust(6)
        for t in range(tmin, tmax + 1):
            n = counts.get((t, q), 0)
            row += (str(n) if n else ".").rjust(width + 1)
        lines.append(row)
    lines.append("")
    lines.append("entries:")
    for src, tgt, val in sorted(c.iter_entries(), key=lambda e: (c.gen(e[0]).tdeg, e[0], e[1])):
        lines.append(f"  {src} -> {tgt}: {val!r}")
    return "\n".join(lines)


def _cmd_kh(args) -> int:
    pd_token = args.input.strip()
    if pd_token.upper().startswith("PD"):
        pd = khovanov.parse_pd(pd_token, basepoint=args.basepoint)
    elif pd_token.upper().startswith("BR"):
        pd = khovanov.parse_braid(pd_token)
    else:
        raise InputError(f"kh needs a PD or BR code, got {pd_token!r}")
    c = simplify.reduce(khovanov.build_complex(pd, cap=args.cap))
    if args.json:
        print(complexes.to_json(c, indent=2))
    else:
        print(_pretty_grid(c))
    return 0


def _resolve_input(args):
    token = getattr(args, "complex", None) or args.input
    if token is None:
        raise InputError("no input given (positional PD/BR/path or --complex FILE)")
    return token


def _cmd_s(args) -> int:
    chars = _parse_chars(args.char)
    c = _load_complex(_resolve_input(args), args.cap, args.basepoint)
    values = [f"s_{ch} = {invariants.rasmussen_s(c, ch)}" for ch in chars]
    print(", ".join(values))
    return 0


def _cmd_sz(args) -> int:
    c = _load_complex(_resolve_input(args), args.cap, args.basepoint)
    t = invariants.schuetz_sz(c)
    print(f"{t}, gl = {t.gl}")
    return 0


def _cmd_stair(args) -> int:
    try:
        product = staircase.parse_stair_expr(args.expr)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    nf = staircase.stair_normal_form(product)
    print(str(nf))
    return 0


def _cmd_zeq(args) -> int:
    c1 = _load_complex(args.a, args.cap, None)
    c2 = _load_complex(args.b, args.cap, None)
    fwd = zeq.chain_map_lattice(c1, c2, 0)
    bwd = zeq.chain_map_lattice(c2, c1, 0)
    verdict = fwd.image_gcd == 1 and bwd.image_gcd == 1
    print(f"Z-equivalent: {'yes' if verdict else 'no'}")
    print(f"lattice image forward: {fwd.image_gcd}Z, backward: {bwd.image_gcd}Z")
    return 0


def _cmd_dist(args) -> int:
    c1 = _load_complex(args.a, args.cap, None)
    c2 = _load_complex(args.b, args.cap, None)
    d = zeq.distance_d(c1, c2, bound=args.bound)
    if d is None:
        bound = args.bound if args.bound is not None else zeq.default_distance_bound(c1, c2)
        print(f"d > {bound}")
    else:
        print(f"d = {d}")
    return 0


def _cmd_validate(args) -> int:
    if not os.path.exists(args.input):
        raise InputError(f"no such file {args.input!r}")
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            c = complexes.from_json(fh.read())
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    problems = complexes.validate(c)
    if problems:
        for p in problems:
            print(p)
        return 1
    print("valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khconc",
        description="Concordance invariants from universal Khovanov complexes over Z[G].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_basepoint=True):
        p.add_argument("--cap", type=int, default=None, help="crossing cap (default 12, env KHCONC_CROSSING_CAP)")
        if with_basepoint:
            p.add_argument("--basepoint", type=int, default=None, help="basepoint arc label")

    p = sub.add_parser("kh", help="print the reduced complex of a knot")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the grid")
    add_common(p)
    p.set_defaults(func=_cmd_kh)

    p = sub.add_parser("s", help="Rasmussen invariants per characteristic")
    p.add_argument("input", nargs="?")
    p.add_argument("--char", default="0", help="comma separated, each 0 or prime")
    p.add_argument("--complex", help="complex JSON file (alternative to the positional input)")
    add_common(p)
    p.set_defaults(func=_cmd_s)

    p = sub.add_parser("sz", help="quantum filtration tuple and gl")
    p.add_argument("input", nargs="?")
    p.add_argument("--complex", help="complex JSON file (alternative to the positional input)")
    add_common(p)
    p.set_defaults(func=_cmd_sz)

    p = sub.add_parser("stair", help="staircase normal form of an expression like 'S(2,4) * S(6)^-1'")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_stair)

    p = sub.add_parser("zeq", help="decide Z-equivalence of two inputs")
    p.add_argument("a")
    p.add_argument("b")
    add_common(p, with_basepoint=False)
    p.set_defaults(func=_cmd_zeq)

    p = sub.add_parser("dist", help="distance d between two inputs")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--bound", type=int, default=None)
    add_common(p, with_basepoint=False)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("validate", help="validate a complex JSON file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except khovanov.ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
