"""Spans and counters for the traced run, recorded from outside the package.

The jobs call public functions through `Tracer.call`, which records one span
per call.  Inside a traced pass `Tracer.wrapped()` also replaces the
functions listed in WRAPPED on their modules, so that calls the package
makes through module attributes get spans too.  Nothing under src/ changes.

A span is (name, start ns, end ns, parent span index, job name).  Spans and
counters stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, span name): lookups the package makes at call time
WRAPPED = (
    ("khconc.zeq", "chain_map_lattice", "zeq.lattice"),
    ("khconc.invariants", "field_normal_form", "simplify.field_nf"),
    ("khconc.invariants", "integer_homology_profile", "invariants.homology"),
    ("khconc.intmat", "kernel_basis", "intmat.kernel_basis"),
    ("khconc.intmat", "smith_form", "intmat.smith"),
    ("khconc.intmat", "solve", "intmat.solve"),
)


def _entry_count(complex) -> int:
    return sum(len(complex.out_of(g)) for g in complex.ids())


def _count_build(c: Counter, args, kwargs, out) -> None:
    c["khovanov.build_rank"] += out.total_rank
    c["khovanov.build_entries"] += _entry_count(out)


def _count_reduce(c: Counter, args, kwargs, out) -> None:
    c["simplify.reduce_cancelled"] += (args[0].total_rank - out.total_rank) // 2


def _count_field_nf(c: Counter, args, kwargs, out) -> None:
    c["simplify.field_nf_pieces"] += len(out[1].pieces)


def _count_lattice(c: Counter, args, kwargs, out) -> None:
    c["zeq.lattice_unknowns"] += len(out.pairs)
    c["zeq.lattice_basis"] += len(out.basis)


def _count_kernel(c: Counter, args, kwargs, out) -> None:
    def cols(a, ncols=None):
        return len(a[0]) if a else ncols

    c["intmat.kernel_cols"] += cols(*args, **kwargs)


# span name -> counter update, run after the span has closed
COUNTERS = {
    "khovanov.build": _count_build,
    "simplify.reduce": _count_reduce,
    "simplify.field_nf": _count_field_nf,
    "zeq.lattice": _count_lattice,
    "intmat.kernel_basis": _count_kernel,
}

# per-layer metric -> span whose summed duration it reports
TIME_METRICS = {
    "khovanov.parse_s": "khovanov.parse",
    "khovanov.build_s": "khovanov.build",
    "simplify.reduce_s": "simplify.reduce",
    "simplify.field_nf_s": "simplify.field_nf",
    "invariants.homology_s": "invariants.homology",
    "invariants.sz_s": "invariants.sz",
    "complexes.from_json_s": "complexes.from_json",
    "complexes.validate_s": "complexes.validate",
    "zeq.lattice_s": "zeq.lattice",
    "intmat.kernel_basis_s": "intmat.kernel_basis",
    "intmat.smith_s": "intmat.smith",
    "intmat.solve_s": "intmat.solve",
}
# per-layer metric -> span whose self time (duration minus direct children) it reports
SELF_METRICS = {"zeq.lattice_self_s": "zeq.lattice"}
# per-layer metric -> span whose calls it counts
CALL_METRICS = {
    "intmat.kernel_basis_calls": "intmat.kernel_basis",
    "intmat.smith_calls": "intmat.smith",
    "intmat.solve_calls": "intmat.solve",
}
COUNT_METRICS = (
    "khovanov.build_rank",
    "khovanov.build_entries",
    "simplify.reduce_cancelled",
    "simplify.field_nf_pieces",
    "zeq.lattice_unknowns",
    "zeq.lattice_basis",
    "intmat.kernel_cols",
)


def direct(_span: str, fn, *args, **kwargs):
    """The untraced stand-in for Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters = Counter()
        self.job = ""
        self._open: list[int] = []

    def call(self, span: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [span, 0, 0, self._open[-1] if self._open else -1, self.job]
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()
        count = COUNTERS.get(span)
        if count is not None:
            count(self.counters, args, kwargs, out)
        return out

    @contextmanager
    def wrapped(self):
        """Route the WRAPPED module attributes through self.call."""
        saved = []
        for module_name, attr, span in WRAPPED:
            module = sys.modules[module_name]
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, functools.wraps(fn)(functools.partial(self.call, span, fn)))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def begin_pass(self) -> int:
        """Reset the counters; returns the index of the pass's first span."""
        self.counters = Counter()
        return len(self.spans)

    def pass_metrics(self, first_span: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass whose spans start at first_span."""
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        children: dict[int, int] = defaultdict(int)
        spans = self.spans[first_span:]
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                children[parent] += end - start
        root_ns = 0
        for index, (name, start, end, parent, _) in enumerate(spans, first_span):
            total[name] += end - start
            own[name] += end - start - children[index]
            calls[name] += 1
            if parent < first_span:
                root_ns += end - start
        out = {m: total[s] / 1e9 for m, s in TIME_METRICS.items()}
        out.update({m: own[s] / 1e9 for m, s in SELF_METRICS.items()})
        out.update({m: calls[s] for m, s in CALL_METRICS.items()})
        out.update({m: self.counters[m] for m in COUNT_METRICS})
        out["trace.coverage"] = root_ns / 1e9 / wall_s
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
