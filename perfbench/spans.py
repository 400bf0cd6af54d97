"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each traced function or method of the ``foldylax``
modules with a wrapper that records a span (name, start, end, parent, request
id) and, where the layer has one, a count taken from the call's arguments.
Every module attribute that refers to the function is replaced, so calls
made through names imported into other modules are traced too.  Spans stay
in memory; `Tracer.dump` writes them out when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls on one thread nest, so the children's durations never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function or Class.method, span name, count name, count from args)
TARGETS = [
    ("geometry", "cluster_from_dict", "geometry.cluster", None, None),
    ("geometry", "compute_epsilon_delta", None, "geometry.pairs",
     lambda bodies: len(bodies) * (len(bodies) - 1) // 2),
    ("greens", "coupling_kernels", "greens.kernel", "greens.kernel_pairs",
     lambda k, d, self_mask=None: int(len(d.reshape(-1, 3)))),
    ("layerops", "assemble_adjoint_np", "layerops.kstar", "layerops.panels",
     lambda mesh: mesh.n_panels),
    ("layerops", "polarization_tensor", "layerops.tensor_solve", None, None),
    ("layerops", "virtual_mass_tensor", "layerops.tensor_solve", None, None),
    ("foldy", "assemble", "foldy.assemble", None, None),
    ("foldy", "solve_direct", "foldy.direct", None, None),
    ("foldy", "solve_neumann", "foldy.neumann", None, None),
    ("foldy", "SystemBlocks.materialize", "foldy.materialize", None, None),
    ("foldy", "SystemBlocks.apply", "foldy.apply", None, None),
    ("foldy", "SystemBlocks.coupling_sums", "foldy.coupling_sums", None, None),
    ("fields", "near_field", "fields.near_field", "fields.near_points",
     lambda solution, cluster, wave, points: int(len(points))),
]

# per-layer metrics, in the order BENCHMARK.json lists them
METRICS = [
    ("geometry.cluster_s", "s"), ("geometry.pairs", "count"),
    ("greens.kernel_s", "s"), ("greens.kernel_pairs", "count"),
    ("layerops.kstar_s", "s"), ("layerops.kstar_calls", "count"),
    ("layerops.tensor_solve_s", "s"), ("layerops.panels", "count"),
    ("foldy.assemble_s", "s"), ("foldy.materialize_s", "s"), ("foldy.direct_s", "s"),
    ("foldy.neumann_s", "s"), ("foldy.iterations", "count"),
    ("foldy.apply_s", "s"), ("foldy.apply_calls", "count"), ("foldy.apply_total_s", "s"),
    ("fields.near_field_s", "s"), ("fields.near_points", "count"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"),
    ("trace.spans", "count"), ("trace.instrument_s", "s"),
    ("trace.request_s.p50", "s"), ("trace.overhead_s", "s"),
]
OPERATOR = ("foldy.apply", "foldy.coupling_sums")


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[tuple[int, str, int]] = []  # (request, name, value)
        self._stack: list[int] = []
        self._request = -1
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name, count_name, count_of):
        def traced(*args, **kwargs):
            if count_name is not None:
                self.counts.append((self._request, count_name, count_of(*args, **kwargs)))
            if span_name is None:
                return fn(*args, **kwargs)
            return self._run(span_name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _run(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = {"name": name, "request": self._request,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every target wherever a ``foldylax`` module refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "foldylax" or n.startswith("foldylax.")]
        for module_name, attr, span_name, count_name, count_of in TARGETS:
            owner = sys.modules[f"foldylax.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span_name, count_name, count_of))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span_name, count_name, count_of)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def request(self, request_id: int, fn, *args):
        """Run one request under a top-level ``cli`` span."""
        self._request = request_id
        try:
            return self._run("cli", fn, args, {})
        finally:
            self._request = -1

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, from timing a wrapped no-op."""
        def noop():
            return None

        wrapped = self._wrap(noop, "calibration", None, None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        del self.spans[-calls:]
        return max(traced - plain, 0.0) / calls

    def dump(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans,
                       "counts": [list(c) for c in self.counts]}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def request_layers(tracer: Tracer, request_id: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced request (the `METRICS` names)."""
    spans = tracer.spans
    own = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s["request"] == request_id]
    total = defaultdict(float)
    for i in mine:
        total[spans[i]["name"]] += own[i]
    counts = defaultdict(int)
    for req, name, value in tracer.counts:
        if req == request_id:
            counts[name] += value

    def parent_name(i):
        parent = spans[i]["parent"]
        return None if parent is None else spans[parent]["name"]

    # one operator application = an apply or coupling_sums span not inside another
    applies = [i for i in mine if spans[i]["name"] in OPERATOR
               and parent_name(i) not in OPERATOR]
    durations = [spans[i]["end"] - spans[i]["start"] for i in applies]
    return {
        "geometry.cluster_s": total["geometry.cluster"],
        "geometry.pairs": counts["geometry.pairs"],
        "greens.kernel_s": total["greens.kernel"],
        "greens.kernel_pairs": counts["greens.kernel_pairs"],
        "layerops.kstar_s": total["layerops.kstar"],
        "layerops.kstar_calls": sum(1 for i in mine if spans[i]["name"] == "layerops.kstar"),
        "layerops.tensor_solve_s": total["layerops.tensor_solve"],
        "layerops.panels": counts["layerops.panels"],
        "foldy.assemble_s": total["foldy.assemble"],
        "foldy.materialize_s": total["foldy.materialize"],
        "foldy.direct_s": total["foldy.direct"],
        "foldy.neumann_s": total["foldy.neumann"],
        # the fixed-point loop calls coupling_sums once per iteration; the
        # final residual goes through apply
        "foldy.iterations": sum(1 for i in applies if spans[i]["name"] == "foldy.coupling_sums"
                                and parent_name(i) == "foldy.neumann"),
        "foldy.apply_s": statistics.median(durations) if durations else 0.0,
        "foldy.apply_calls": len(applies),
        "foldy.apply_total_s": sum(total[name] for name in OPERATOR),
        "fields.near_field_s": total["fields.near_field"],
        "fields.near_points": counts["fields.near_points"],
        "cli.self_s": total["cli"],
        "cli.output_bytes": output_bytes,
        "trace.spans": len(mine),
    }
