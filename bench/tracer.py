"""Span tracer for the benchmark's traced runs.

The tracer wraps, from outside the program, every public function of each
`edmsphere` module at every module binding (the library modules import one
another's functions by name, so patching only the defining module would miss
most calls), plus `numpy.linalg.eigh` and `Graph.has_edge`.  A span records
its name, start, end, parent span, op id and matrix order n; spans stay in
memory and are written out when the run ends.  A function's self time is its
span minus the time its child spans cover.

Layer = module.  Public = exported by the `edmsphere` package, plus the CLI's
`main` and its subcommand handlers (one span name, `cli.handler`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("spectral", "edm", "graphs", "orthorep", "decomposition", "matrixio", "cli")

# Per-layer metrics reported by the traced run, per op unless the unit says
# otherwise: (name, unit, better, end-to-end metrics it should move, workload).
LAYER_METRICS = [
    ("spectral.eigh.calls", "count/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("spectral.eigh.s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("spectral.eigh.n3", "count/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("edm.centering_gram.s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("edm.validate_edm.self_s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("edm.gram_factor.self_s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("spectral.self_s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("edm.self_s", "s/op", "lower", "ops_per_s, op_p90_ms", "dense-certify"),
    ("edm.gen_random_spherical.s", "s/op", "lower", "peak_rss_mb, op_p90_ms", "dense-certify"),
    ("spectral.eigh.distinct_ratio", "ratio", "higher", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("spectral.eig.self_s", "s/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("spectral.is_psd.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("spectral.numerical_rank.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("spectral.perron.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("spectral.solve_linear.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("edm.spherical_certificate.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("decomposition.kuperberg_decompose.self_s", "s/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("decomposition.crosspolytope_recognize.self_s", "s/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("decomposition.certify_simplex.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("decomposition.rankin_codimension2_check.calls", "count/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("decomposition.self_s", "s/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("graphs.is_irreducible.s", "s/op", "lower", "op_p90_ms, op_p50_ms", "cli-batch"),
    ("graphs.has_edge.calls", "count/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("orthorep.verify_sign_pattern.s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("graphs.components.calls", "count/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("graphs.components.s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("graphs.adjacency.s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("orthorep.construct_orthorep.self_s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("orthorep.minimality_bound.self_s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("graphs.self_s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("orthorep.self_s", "s/op", "lower", "op_p90_ms, ops_per_s", "graph-orthorep"),
    ("matrixio.parse_matrix.s", "s/op", "lower", "op_p50_ms, op_p90_ms", "cli-batch"),
    ("matrixio.bytes_parsed", "B/op", "lower", "op_p50_ms, op_p90_ms", "cli-batch"),
    ("cli.main.self_s", "s/op", "lower", "op_p50_ms, op_p90_ms", "cli-batch"),
    ("cli.handler.self_s", "s/op", "lower", "op_p50_ms, op_p90_ms", "cli-batch"),
    ("cli.report_bytes", "B/op", "lower", "op_p50_ms, op_p90_ms", "cli-batch"),
    ("cli.process_start_s", "s", "lower", "none: the floor under op_p50_ms", "cli-batch"),
    ("trace.overhead_ratio", "ratio", "higher", "none: discounts the layer numbers", "all"),
]


def order_of(x):
    """Matrix order of a span's first argument, when it has one."""
    if isinstance(x, np.ndarray):
        return int(x.shape[0]) if x.ndim else None
    for attr in ("n", "node_count"):
        n = getattr(x, attr, None)
        if isinstance(n, int):
            return n
    return None


def public_functions():
    """(span name, function) for every public function of each layer."""
    import edmsphere
    import edmsphere.cli  # noqa: F401  (registers the module)

    exported = set(edmsphere.__all__)
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"edmsphere.{layer}"]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if layer == "cli":
                if attr == "main":
                    out.append(("cli.main", obj))
                elif attr.startswith("cmd_"):
                    out.append(("cli.handler", obj))
            elif attr in exported:
                out.append((f"{layer}.{attr}", obj))
    return out


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # (sid, parent, op, name, n, t0, t1)
        self.counts = defaultdict(Counter)  # op -> counted-only events
        self.eigh_inputs = defaultdict(set)  # op -> keys of distinct eigh inputs
        self.op = None
        self._stack = []
        self._next = 0
        self._undo = []

    # -- patching
    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, order_of(args[0]) if args else None, t0, t1))

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import edmsphere
        from edmsphere.graphs import Graph

        wrapped = {id(fn): self._wrap(name, fn) for name, fn in public_functions()}
        for mod in [edmsphere] + [sys.modules[f"edmsphere.{layer}"] for layer in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

        parse = sys.modules["edmsphere.matrixio"].parse_matrix

        def parse_matrix(text):
            self.counts[self.op]["matrixio.bytes_parsed"] += len(text.encode())
            return parse(text)

        for mod in (edmsphere, sys.modules["edmsphere.matrixio"]):
            self._patch(mod, "parse_matrix", parse_matrix)

        eigh = self._wrap("spectral.eigh", np.linalg.eigh)

        def counted_eigh(a, *args, **kwargs):
            a = np.asarray(a)
            self.eigh_inputs[self.op].add((a.shape, a.dtype.str, hash(a.tobytes())))
            return eigh(a, *args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

        has_edge = Graph.has_edge

        def counted_has_edge(g, i, j):
            self.counts[self.op]["graphs.has_edge.calls"] += 1
            return has_edge(g, i, j)

        self._patch(Graph, "has_edge", counted_has_edge)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis
    def per_op(self):
        """op -> Counter of calls, inclusive seconds, self seconds and extra counts."""
        child = defaultdict(float)
        for sid, parent, op, name, n, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(Counter)
        for sid, parent, op, name, n, t0, t1 in self.spans:
            c = out[op]
            dur = t1 - t0
            self_s = dur - child.get(sid, 0.0)
            layer = name.split(".", 1)[0]
            c[name + ".calls"] += 1
            c[name + ".s"] += dur
            c[name + ".self_s"] += self_s
            c[layer + ".self_s"] += self_s
            if name == "spectral.eigh" and n is not None:
                c["spectral.eigh.n3"] += n ** 3
        for op, extra in self.counts.items():
            out[op].update(extra)
        for op, digests in self.eigh_inputs.items():
            out[op]["spectral.eigh.distinct"] += len(digests)
        return out

    def write_spans(self, path, op_ids):
        """Spans as JSON lines: [sid, parent, op id, name, n, t0, t1]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, n, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, op_ids.get(op, op), name, n, t0, t1]) + "\n")


@contextlib.contextmanager
def count_eigh():
    """Count numpy.linalg.eigh calls without recording spans."""
    calls = Counter()
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    np.linalg.eigh = counted
    try:
        yield calls
    finally:
        np.linalg.eigh = eigh


def layer_metrics(totals: Counter, ops: int) -> dict:
    """Per-op layer metrics from counters summed over `ops` traced ops."""
    out = {}
    for name, *_ in LAYER_METRICS:
        if name == "spectral.eigh.distinct_ratio":
            calls = totals["spectral.eigh.calls"]
            out[name] = totals["spectral.eigh.distinct"] / calls if calls else 0.0
        elif name.startswith("trace.") or name == "cli.process_start_s":
            continue  # measured by the runner
        else:
            out[name] = totals[name] / ops
    return out
