"""What benchmark/spans.py and generate.py use of the package, checked in the fast suite.

The traced benchmark run wraps package attributes by name and reads fields
of their outputs, and the set-up builds its inputs through the package; a
refactor that renames one or changes an output's shape would otherwise only
show in the benchmark's own self-test.
"""

import importlib
import importlib.util
import random
import sys
from pathlib import Path

from khconc import build_ck, chain_map_lattice, parse_pd, reduce, unit_complex, validate, z_equivalent
from khconc import intmat, invariants, khovanov, simplify, zeq
from khconc.invariants import g1_matrix

from cube import exact_cube

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
RIGHT_TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_benchmark_module("spans")


def test_setup_builds_every_workload():
    generate = load_benchmark_module("generate")
    for workload in generate.WORKLOADS:
        lists = generate.make_jobs(workload, 1, tiny=True)
        assert lists and all(lists), workload
    c1 = build_ck(1)
    sheared = generate.shear(c1, random.Random(0))
    assert validate(sheared) == []
    assert z_equivalent(sheared, c1)


def test_wrapped_attributes_resolve():
    spans = load_spans()
    for module, attr, _ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_counters_read_real_outputs():
    spans = load_spans()
    c1 = build_ck(1)
    # the exact cube, so that reduce has units to cancel
    built = exact_cube(parse_pd(RIGHT_TREFOIL))
    calls = {
        "khovanov.build": (khovanov.build_complex, parse_pd(RIGHT_TREFOIL)),
        "simplify.reduce": (reduce, built),
        "simplify.field_nf": (simplify.field_normal_form, c1, 2),
        "zeq.lattice": (chain_map_lattice, c1, c1, 0),
        "intmat.kernel_basis": (intmat.kernel_basis, g1_matrix(c1, 0)[0]),
    }
    assert set(calls) == set(spans.COUNTERS)
    tracer = spans.Tracer()
    for span, (fn, *args) in calls.items():
        tracer.call(span, fn, *args)
    tracer.call("intmat.kernel_basis", intmat.kernel_basis, [], ncols=3)
    assert all(tracer.counters[name] > 0 for name in spans.COUNT_METRICS), tracer.counters


def test_wrapped_pass_records_every_layer():
    spans = load_spans()
    tracer = spans.Tracer()
    c1 = build_ck(1)
    with tracer.wrapped():
        tracer.call("invariants.rasmussen_s", invariants.rasmussen_s, c1, 0)
        tracer.call("invariants.sz", invariants.schuetz_sz, c1)
        tracer.call("zeq.z_equivalent", zeq.z_equivalent, c1, unit_complex())
        # as benchmark/pipelines.py's lattice job, through the wrapped attribute
        zeq.chain_map_lattice(c1, c1, 0)
    recorded = {name for name, *_ in tracer.spans}
    assert {span for _, _, span in spans.WRAPPED} <= recorded
    metrics = tracer.pass_metrics(0, wall_s=1.0)
    for name in ("zeq.lattice_unknowns", "intmat.kernel_basis_calls", "intmat.smith_calls", "intmat.solve_calls"):
        assert metrics[name] > 0, name
