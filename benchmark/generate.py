"""Seeded inputs for the benchmark workloads, kept apart from the timed code.

Inputs come in several presentations, which differ only in the cyclic
rotation of each braid word, the basepoint arc of each diagram and the basis
shear of an abstract complex.  The knots and complexes stay the same, so
every job's expected answer holds for every presentation and seed.  The
jobs receive only what this module makes: PD text with a basepoint,
complexes, or complex JSON text.

The running time depends on the presentation (T(2,5)#-T(2,5) takes 2.3 to
3.0 s of CPU over eight presentations, T(2,11) 9.6 to 14.1 s over basepoint
arcs 1 to 4).  If the seed drew the presentations, a run's figures would
follow the draw, so every seed gets the same pool of PRESENTATIONS job lists
and the seed picks the order: which list a run's passes start from and the
order of the jobs inside each list.  A run whose passes cover most of the
pool then measures nearly the same work for every seed.  knots_large fits
one pass in a run, so its diagrams are the braid closures as written.

    python3 benchmark/generate.py --workload knots_small --seed 3

prints the generated inputs of one workload.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

WORKLOADS = ("knots_small", "knots_large", "lattice", "json")

# name -> (strands, braid word); a leading "-" in a job names the mirror
BRAIDS = {
    "3_1": (2, (1, 1, 1)),
    "4_1": (3, (1, -2, 1, -2)),
    "6_2": (3, (1, 1, 1, -2, 1, -2)),
    "T(2,5)": (2, (1,) * 5),
    "T(2,7)": (2, (1,) * 7),
    "T(2,9)": (2, (1,) * 9),
    "T(2,11)": (2, (1,) * 11),
    "T(3,4)": (3, (1, 2) * 4),
    "T(3,5)": (3, (1, 2) * 5),
}


def torus_s(p: int, q: int) -> int:
    return (p - 1) * (q - 1)


# s_c in every characteristic.  Torus knots T(p,q) have s = (p-1)(q-1); 4_1
# is amphichiral, so s = -s = 0; 6_2 is alternating with signature -2, so
# s = -signature = 2.
S_VALUE = {
    "3_1": torus_s(2, 3),
    "4_1": 0,
    "6_2": 2,
    "T(2,5)": torus_s(2, 5),
    "T(2,7)": torus_s(2, 7),
    "T(2,9)": torus_s(2, 9),
    "T(2,11)": torus_s(2, 11),
    "T(3,4)": torus_s(3, 4),
    "T(3,5)": torus_s(3, 5),
}

# connected sums of these names (as lists of summands) make up the knot jobs
KNOT_JOBS = {
    "knots_small": [
        ["3_1"], ["4_1"], ["T(2,5)"], ["6_2"], ["T(2,7)"], ["T(3,4)"],
        ["T(2,9)"], ["T(3,5)"], ["T(2,5)", "-T(2,5)"],
    ],
    "knots_large": [["T(2,11)"], ["4_1", "T(2,7)"], ["T(3,4)", "-3_1"]],
}
TINY_KNOT_JOBS = {
    "knots_small": [["3_1"], ["4_1"]],
    "knots_large": [["3_1", "-3_1"]],
}

CHARS = (0, 2, 3)
SHEAR_MOVES = 8
PRESENTATIONS = 4


@dataclass(frozen=True)
class Job:
    """One unit of work: `kind` selects the pipeline, `expect` its answer."""

    name: str
    kind: str
    payload: Any
    expect: Any


def knot_expectation(summands: list[str]) -> tuple:
    """s_c is additive under connected sum and flips sign under mirroring;
    each knot here has the filtration tuple (s)."""
    s = sum(-S_VALUE[n[1:]] if n.startswith("-") else S_VALUE[n] for n in summands)
    return (s,) * len(CHARS), (s,)


def present_braid(name: str, rng: random.Random | None):
    """The named knot as a PDCode, rotated and basepointed by rng if given."""
    from khconc.khovanov import analyze_pd, parse_braid

    mirror = name.startswith("-")
    strands, word = BRAIDS[name.lstrip("-")]
    if mirror:
        word = tuple(-w for w in word)
    if rng is not None:
        r = rng.randrange(len(word))
        word = word[r:] + word[:r]
    pd = parse_braid(f"BR[{strands}; {','.join(map(str, word))}]")
    if rng is None:
        return pd
    arcs = sorted({a for cross in pd.crossings for a in cross})
    return analyze_pd(list(pd.crossings), basepoint=rng.choice(arcs))


def pd_text(pd) -> str:
    return "PD[" + ",".join("X({},{},{},{})".format(*c) for c in pd.crossings) + "]"


def shear(complex, rng: random.Random):
    """Seeded homogeneous degree-(0,0) basis changes x := x + m G^c y.

    Each move is an automorphism, so the result is isomorphic to the input.
    """
    from khconc.complexes import GElem

    b = complex.builder()
    ids = list(b.gens)
    for _ in range(SHEAR_MOVES):
        x, y = rng.choice(ids), rng.choice(ids)
        gx, gy = b.gens[x], b.gens[y]
        if x == y or gx.tdeg != gy.tdeg or gy.qdeg < gx.qdeg:
            continue
        m, c = rng.choice((1, -1, 2)), (gy.qdeg - gx.qdeg) // 2
        for z, v in list(b.out[y].items()):
            b.add_entry(x, z, GElem(m * v.scalar, c + v.gpow))
        for u, v in list(b.inc[x].items()):
            b.add_entry(u, y, GElem(-m * v.scalar, c + v.gpow))
    return b.freeze()


def _reduced_braid(name: str):
    from khconc import build_complex, reduce

    return reduce(build_complex(present_braid(name, None)))


def _c1_fig8_fig8():
    """C^1 (x) 4_1 (x) 4_1, rank 125; 4_1 is amphichiral, so this is
    Z-equivalent to C^1 and has the filtration tuple of C^1, (0, 2)."""
    from khconc import build_ck, tensor

    fig8 = _reduced_braid("4_1")
    return tensor(tensor(build_ck(1), fig8), fig8)


def knot_jobs(workload: str, rng: random.Random | None, tiny: bool) -> list[Job]:
    jobs = []
    for summands in (TINY_KNOT_JOBS if tiny else KNOT_JOBS)[workload]:
        payload = []
        for name in summands:
            pd = present_braid(name, rng)
            payload.append((pd_text(pd), pd.basepoint))
        jobs.append(Job("#".join(summands), "knot", tuple(payload), knot_expectation(summands)))
    return jobs


def lattice_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    from khconc import build_ck, build_staircase, dual, tensor, unit_complex

    c1, c2 = build_ck(1), build_ck(2)
    ck_zeq = Job("zeq C1 ~ C2", "zeq", (c1, c2), False)
    ck_dist = Job("dist C1, C2", "dist", (c1, c2), 1)
    if tiny:
        return [ck_zeq, ck_dist]
    big = _c1_fig8_fig8()
    sheared = shear(big, rng)
    trefoil = _reduced_braid("3_1")
    s24 = build_staircase((2, 4))
    # S(2,4) = S(2) (x) S(4), so this is X (x) X^-1
    sigma = tensor(tensor(s24, dual(build_staircase((2,)))), dual(build_staircase((4,))))
    return [
        Job("lattice C1.4_1.4_1 -> shear", "lattice", (big, sheared), 1),
        Job("lattice shear -> C1.4_1.4_1", "lattice", (sheared, big), 1),
        Job("zeq C1.4_1.4_1 ~ C1", "zeq", (big, c1), True),
        ck_zeq,
        Job("zeq S(2,4).S(2)^-1.S(4)^-1 ~ 1", "zeq", (sigma, unit_complex()), True),
        Job("zeq C2.3_1.3_1^-1 ~ C2", "zeq", (tensor(tensor(c2, trefoil), dual(trefoil)), c2), True),
        ck_dist,
        Job("dist S(2,4).S(2)^-1.S(4)^-1, S(2,4)", "dist", (sigma, s24), 2),
    ]


def json_jobs(rng: random.Random, tiny: bool) -> list[Job]:
    from khconc import build_complex, to_json

    jobs = []
    for name in ("T(2,5)",) if tiny else ("T(2,7)", "T(3,4)"):
        cube = build_complex(present_braid(name, rng))
        jobs.append(Job(f"{name} cube", "json", to_json(cube), knot_expectation([name])))
    if not tiny:
        text = to_json(shear(_c1_fig8_fig8(), rng))
        jobs.append(Job("shear of C1.4_1.4_1", "json", text, ((0,) * len(CHARS), (0, 2))))
    return jobs


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[list[Job]]:
    """The job lists of one workload in the seed's order; same seed, same jobs."""
    if workload == "knots_large":
        pool = [knot_jobs(workload, None, tiny)]
    else:
        make = {
            "knots_small": lambda rng: knot_jobs(workload, rng, tiny),
            "lattice": lambda rng: lattice_jobs(rng, tiny),
            "json": lambda rng: json_jobs(rng, tiny),
        }[workload]
        pool = [make(random.Random(f"{workload}:{p}")) for p in range(PRESENTATIONS)]
    order = random.Random(f"{workload}:order:{seed}")
    first = order.randrange(len(pool))
    lists = pool[first:] + pool[:first]
    for jobs in lists:
        order.shuffle(jobs)
    return lists


def _describe(job: Job):
    from khconc import to_json
    from khconc.complexes import GradedComplex

    def plain(x):
        if isinstance(x, GradedComplex):
            return json.loads(to_json(x))
        if isinstance(x, tuple):
            return [plain(v) for v in x]
        return x

    return {"name": job.name, "kind": job.kind, "payload": plain(job.payload), "expect": plain(job.expect)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small subset")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    lists = make_jobs(args.workload, args.seed, args.tiny)
    print(json.dumps([[_describe(j) for j in jobs] for jobs in lists], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
