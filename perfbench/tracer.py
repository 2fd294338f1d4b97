"""Outside-in tracing of fampersist's public entry points.

The tracer replaces public functions under the names their consuming
modules look them up by (``fampersist.module3.slab_sublevel``,
``fampersist.stability.betti``, ``Module3.rank`` and so on), records one
span per call in memory, and puts every original back on exit.  Private
helpers are never wrapped: tracing inside the package is out of scope.

A span is ``(span_id, name, start, end, parent_id, job_id)``.  Its name is
the layer key that per-layer metrics are aggregated under, so a function
reached through several module namespaces lands in one layer.  Observers
turn a call's arguments and result into exact counts; the time they take
is recorded as a ``trace.observe`` child span so that it never inflates a
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute path, span name).  The attribute path is looked up on
# the module; a dotted path such as "Module3.rank" wraps a class attribute.
WRAPS = (
    ("fampersist.cli", "main", "cli"),
    ("fampersist.cli", "load_samples", "io.load"),
    ("fampersist.cli", "kde_family", "family.build"),
    ("fampersist.cli", "build_module", "module3.build"),
    ("fampersist.cli", "thin_decompose", "module3.thin"),
    ("fampersist.cli", "dump_json", "io.serialize"),
    ("fampersist.cli", "write_text", "io.serialize"),
    ("fampersist.io", "load_family", "io.load"),
    ("fampersist.io", "dump_json", "io.serialize"),
    ("fampersist.io", "write_text", "io.serialize"),
    ("fampersist.family", "wrinkled_cylinder_family", "family.build"),
    ("fampersist.family", "PLFamily.shifted", "family.build"),
    ("fampersist.family", "build_prism", "simplicial.prism"),
    ("fampersist.module3", "slab_sublevel", "simplicial.slab"),
    ("fampersist.module3", "betti", "homology.betti"),
    ("fampersist.module3", "induced_rank", "homology.induced_rank"),
    ("fampersist.module3", "build_module", "module3.build"),
    ("fampersist.module3", "betti_report", "module3.build"),
    ("fampersist.module3", "Module3.rank", "module3.rank"),
    ("fampersist.module3", "Module3.to_csv", "io.serialize"),
    ("fampersist.module3", "Module3.to_json_dict", "io.serialize"),
    ("fampersist.module3", "finite_subdiagram", "module3.query"),
    ("fampersist.module3", "check_indecomposable_sufficient",
     "module3.query"),
    ("fampersist.module3", "thin_decompose", "module3.thin"),
    ("fampersist.homology", "staged_reduce", "homology.staged_reduce"),
    ("fampersist.stability", "slab_sublevel", "simplicial.slab"),
    ("fampersist.stability", "betti", "homology.betti"),
    ("fampersist.stability", "induced_rank", "homology.induced_rank"),
    ("fampersist.stability", "sup_distance", "stability.check"),
    ("fampersist.stability", "check_interleaving_necessary",
     "stability.check"),
    ("fampersist.stability", "PerturbationReport.to_json_dict",
     "io.serialize"),
    ("fampersist.cerf", "betti", "homology.betti"),
    ("fampersist.cerf", "trace_cerf", "cerf.trace"),
    ("fampersist.cerf", "classify_cobordism", "cerf.classify"),
    ("fampersist.cerf", "CerfDiagram.to_json_dict", "io.serialize"),
)

OBSERVE = "trace.observe"
JOB = "job"


def _resolve(module_name, attr_path):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Counters:
    """Exact per-job counts gathered by observers."""

    def __init__(self):
        self.slab_simplices = 0
        self.slab_distinct = set()
        self.filtration_len = 0
        self.edge_calls = 0
        self.edge_nonzero = 0
        self.grid_points = 0
        self.window_edges = 0
        self.level_edges = 0
        self.checks = 0
        self.bytes_out = 0


def _observe_slab(counters, span, args, kwargs, result):
    counters.slab_simplices += len(result.simplices)
    counters.slab_distinct.add(
        (id(result.parent), len(result.simplices), hash(result.simplices)))


def _observe_staged(counters, span, args, kwargs, result):
    filtration = args[0] if args else kwargs["filtration"]
    counters.filtration_len += len(filtration)


def _observe_induced(counters, span, args, kwargs, result):
    if span.parent is not None and span.parent.name == "module3.build":
        counters.edge_calls += 1
        counters.edge_nonzero += result > 0


def _observe_build(counters, span, args, kwargs, result):
    if not hasattr(result, "dims"):  # betti_report wraps build_module calls
        return
    nt, nl = len(result.time_values), len(result.level_values)
    counters.grid_points += nt * (nt + 1) // 2 * nl
    for x in result.dims:
        for y in result.neighbors_up(x):
            if y in result.dims:
                if x[2] == y[2]:
                    counters.window_edges += 1
                else:
                    counters.level_edges += 1


def _observe_check(counters, span, args, kwargs, result):
    checks = getattr(result, "checks", None)
    if checks is not None:
        counters.checks += len(checks)


def _observe_write(counters, span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None:
        counters.bytes_out += len(result.encode())


OBSERVERS = {
    "simplicial.slab": _observe_slab,
    "homology.staged_reduce": _observe_staged,
    "homology.induced_rank": _observe_induced,
    "module3.build": _observe_build,
    "stability.check": _observe_check,
}
WRITE_FUNCTIONS = ("dump_json", "write_text")


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "job")

    def __init__(self, span_id, name, parent, job):
        self.span_id = span_id
        self.name = name
        self.start = self.end = None
        self.parent = parent
        self.job = job

    def as_json(self):
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end,
                "parent": None if self.parent is None else self.parent.span_id,
                "job": self.job}


class Tracer:
    """Context manager that wraps every entry in WRAPS while active.

    ``delays`` maps a span name to seconds spent inside each such span
    before the wrapped call; it exists so a self-test can check that an
    injected cost shows up in the right layer.
    """

    def __init__(self, delays=None):
        self.delays = dict(delays or {})
        self.spans = []
        self.counters = {}
        self._stack = []
        self._job = None
        self._saved = []

    # ----- wrapping --------------------------------------------------------

    def __enter__(self):
        for module_name, attr_path, name in WRAPS:
            owner, attr = _resolve(module_name, attr_path)
            original = owner.__dict__[attr]
            observer = OBSERVERS.get(name)
            if attr in WRITE_FUNCTIONS:
                observer = _observe_write
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observer))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name, observer):
        delay = self.delays.get(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                if delay:  # spin: sleep() overshoots by up to a timer tick
                    until = time.perf_counter() + delay
                    while time.perf_counter() < until:
                        pass
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observer is not None and self._job is not None:
                obs = self._open(OBSERVE)
                try:
                    observer(self.counters[self._job], span, args, kwargs,
                             result)
                finally:
                    self._close(obs)
            return result

        return traced

    # ----- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """Open one job's root span; spans and counts inside carry job_id."""
        self._job = job_id
        self.counters[job_id] = Counters()
        root = self._open(JOB)
        try:
            yield root
        finally:
            self._close(root)
            self._job = None

    # ----- results ---------------------------------------------------------

    def self_times(self, job_id):
        """Self time per span name for one job (duration minus children)."""
        out = {}
        for span in self.spans:
            if span.job != job_id:
                continue
            d = span.end - span.start
            out[span.name] = out.get(span.name, 0.0) + d
            if span.parent is not None:
                out[span.parent.name] = out.get(span.parent.name, 0.0) - d
        return out

    def inclusive_times(self, job_id, name):
        """Total time of outermost spans named ``name`` in one job."""
        total = 0.0
        for span in self.spans:
            if span.job != job_id or span.name != name:
                continue
            p = span.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                total += span.end - span.start
        return total

    def call_counts(self, job_id):
        out = {}
        for span in self.spans:
            if span.job == job_id:
                out[span.name] = out.get(span.name, 0) + 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
