"""The timed pipelines, one per job kind, as the CLI runs them.

Each pipeline takes `call(span, fn, *args)`, which either calls fn directly
or records a span around it, and returns an answer comparable with the
job's `expect`.  The package is looked up at call time, so the traced run's
wrapped module attributes are seen.
"""

from __future__ import annotations

from generate import CHARS, Job


def _invariants(call, complex):
    from khconc import invariants

    s = tuple(call("invariants.rasmussen_s", invariants.rasmussen_s, complex, ch) for ch in CHARS)
    return s, call("invariants.sz", invariants.schuetz_sz, complex).as_tuple()


def diagram(call, summands):
    """Parse each summand's PD text and splice them into one diagram."""
    from khconc import khovanov

    pds = [call("khovanov.parse", khovanov.parse_pd, text, basepoint=bp) for text, bp in summands]
    pd = pds[0]
    for other in pds[1:]:
        pd = call("khovanov.parse", khovanov.connected_sum_pd, pd, other)
    return pd


def knot(call, summands):
    """`khconc s` and `sz` on PD text: parse, build (auto), reduce, invariants."""
    from khconc import khovanov, simplify

    built = call("khovanov.build", khovanov.build_complex, diagram(call, summands))
    return _invariants(call, call("simplify.reduce", simplify.reduce, built))


def from_json(call, text):
    """`khconc validate`, `s` and `sz` on a complex file; files are not reduced."""
    from khconc import complexes

    complex = call("complexes.from_json", complexes.from_json, text)
    problems = call("complexes.validate", complexes.validate, complex)
    if problems:
        return problems
    return _invariants(call, complex)


def lattice(call, pair):
    """One direction of `khconc zeq`: the image gcd of the chain-map lattice."""
    from khconc import zeq

    # chain_map_lattice is a wrapped attribute, so it records its own span
    return zeq.chain_map_lattice(*pair, 0).image_gcd


def z_equivalent(call, pair):
    from khconc import zeq

    return call("zeq.z_equivalent", zeq.z_equivalent, *pair)


def distance(call, pair):
    from khconc import zeq

    return call("zeq.distance_d", zeq.distance_d, *pair)


PIPELINES = {
    "knot": knot,
    "json": from_json,
    "lattice": lattice,
    "zeq": z_equivalent,
    "dist": distance,
}


def run(call, job: Job):
    return PIPELINES[job.kind](call, job.payload)
