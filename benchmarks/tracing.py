"""Spans around calls into privgraph's layers, recorded from outside the package.

A ``Tracer`` replaces every reference to a public function in every loaded
``privgraph.*`` module with a wrapper and puts the originals back on
``restore()``. The package itself is never edited.

Two levels:

* ``layers=False`` (end-to-end runs) times only the replicate boundary: each
  ``fn(r, rng)`` that ``run_replicates`` executes, or each step of the
  ``spawn_streams`` loop that ``mc_expected_fgw`` iterates. ``resolve`` is
  wrapped only to keep its result, untimed, for the output checks.
* ``layers=True`` (traced runs) also records a span for every call into the
  functions in ``LAYER_FUNCTIONS``, with its parent span, so that
  ``layer_summary`` can split time into self time per layer.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) pairs whose calls are spans in a traced run.
LAYER_FUNCTIONS = [
    ("privgraph.space", "load_points_csv"),
    ("privgraph.experiments", "make_recipe_dataset"),
    ("privgraph.measures", "run_private_measure"),
    ("privgraph.generator", "generate_coupled_graphs"),
    ("privgraph.fgw", "matched_plan_cost"),
    ("privgraph.fgw", "plan_cost_exact"),
    ("privgraph.fgw", "plan_coupling"),
    ("privgraph.fgw", "fgw_upper_bound"),
    ("privgraph.fgw", "graph_to_measure"),
    ("privgraph.fgw", "ipm_lower_bound"),
    ("privgraph.fgw", "fgw_to_reference"),
]
RUNNER = ("privgraph.experiments", "run_replicates")
STREAMS = ("privgraph.fgw", "spawn_streams")
RESOLVE = ("privgraph.experiments", "resolve")

# Which functions make up each reported layer. A layer is unmeasured when one
# of its functions cannot be found.
LAYERS = {
    "measures": ["run_private_measure"],
    "generator": ["generate_coupled_graphs"],
    "fgw.matched_plan_cost": ["matched_plan_cost"],
    "fgw.plan_cost_exact": ["plan_cost_exact"],
    "fgw.refine": ["plan_coupling", "fgw_upper_bound"],
    "fgw.graph_to_measure": ["graph_to_measure"],
    "fgw.ipm": ["ipm_lower_bound", "fgw_to_reference", "fgw_upper_bound"],
    "runner": ["run_replicates"],
    "setup": ["resolve", "load_points_csv", "make_recipe_dataset"],
}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _privgraph_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "privgraph" or name.startswith("privgraph."))
    ]


class _TimedStreams(list):
    """The replicate streams list; iterating it marks each replicate's start."""

    def __init__(self, streams, tracer: "Tracer"):
        super().__init__(streams)
        self._tracer = tracer

    def __iter__(self):
        span = None
        for rng in super().__iter__():
            now = time.perf_counter()
            if span is not None:
                self._tracer.record(span, now)
            span = Span("stream_step", None, threading.get_ident(), start=now)
            yield rng
        if span is not None:
            self._tracer.record(span, time.perf_counter())


class Tracer:
    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.resolved = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and restoring -------------------------------------------

    def install(self) -> None:
        self._patch(RUNNER, self._wrap_runner)
        self._patch(STREAMS, self._wrap_streams)
        self._patch(RESOLVE, self._wrap_resolve)
        if self.layers:
            for target in LAYER_FUNCTIONS:
                self._patch(target, self._wrap_span)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, target: tuple[str, str], make_wrapper) -> None:
        mod_name, fn_name = target
        original = getattr(sys.modules.get(mod_name), fn_name, None)
        if original is None:
            self.missing.append(f"{mod_name}.{fn_name}")
            return
        wrapper = make_wrapper(fn_name, original)
        for mod in _privgraph_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)
        try:
            _annotate(span, args, kwargs, result)
        except (AttributeError, IndexError, KeyError):
            span.info = {}  # the metrics that read this call's sizes become unmeasured
        return result

    def record(self, span: Span, end: float) -> None:
        """Close a span that has no call to wrap (a step of the streams loop)."""
        span.end = end
        with self._lock:
            self.spans.append(span)

    def _wrap_span(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapped

    def _wrap_runner(self, name, fn):
        @functools.wraps(fn)
        def wrapped(replicate_fn, *args, **kwargs):
            def timed_replicate(*r_args, **r_kwargs):
                return self._call("replicate", replicate_fn, r_args, r_kwargs)

            if self.layers:
                return self._call(name, fn, (timed_replicate, *args), kwargs)
            return fn(timed_replicate, *args, **kwargs)

        return wrapped

    def _wrap_streams(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return _TimedStreams(fn(*args, **kwargs), self)

        return wrapped

    def _wrap_resolve(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.layers:
                result = self._call(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            self.resolved = result
            return result

        return wrapped

    # -- results ---------------------------------------------------------------

    def replicates(self) -> list[Span]:
        """Replicate spans from the runner's fn if it ran, else from the streams loop."""
        reps = [s for s in self.spans if s.name == "replicate"]
        if not reps:
            reps = [s for s in self.spans if s.name == "stream_step"]
        return sorted(reps, key=lambda s: s.start)


def _annotate(span: Span, args, kwargs, result) -> None:
    """Record the sizes that the generator and IPM metrics are computed from."""
    if span.name == "generate_coupled_graphs":
        span.info = {
            "N": result.true_graph.n_vertices,
            "M": result.synthetic_graph.n_vertices,
            "S": result.shared_count,
        }
    elif span.name == "fgw_to_reference":
        ref = kwargs["ref"] if "ref" in kwargs else args[0]
        span.info = {"ref_n": ref.n_vertices}


def _in_ipm(span: Span) -> bool:
    node = span.parent
    while node is not None:
        if node.name == "ipm_lower_bound":
            return True
        node = node.parent
    return False


_LAYER_BY_NAME = {fn: layer for layer, fns in LAYERS.items() for fn in fns}


def _layer_of(span: Span) -> str | None:
    # the transport solver belongs to whichever caller drives it
    if span.name in ("plan_coupling", "fgw_upper_bound"):
        return "fgw.ipm" if _in_ipm(span) else "fgw.refine"
    return _LAYER_BY_NAME.get(span.name)


def layer_summary(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced invocation, plus each layer's call count.

    Self time is a span's duration minus the time covered by its child spans.
    A metric computed from call sizes is None when a call did not carry them.
    generator.dense_bytes is computed, not measured: the float64 edge
    uniforms (N^2 + M^2 + S^2) and kernel probabilities (N^2 + M^2) of the
    largest call, where S is the shared vertex count.
    """
    by_layer: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for span in spans:
        layer = _layer_of(span)
        if layer is not None:
            by_layer[layer].append(span)

    def named(layer, *names):
        return [s for s in by_layer[layer] if s.name in names]

    def self_s(items):
        return sum(s.self_s for s in items)

    def errors(items):
        return sum(1 for s in items if s.error)

    out: dict[str, float] = {}
    calls: dict[str, int] = {}

    mech = by_layer["measures"]
    out["measures.calls"] = len(mech)
    out["measures.self_s"] = self_s(mech)
    out["measures.ms_p50"] = _median_ms(mech)
    out["measures.errors"] = errors(mech)
    calls["measures"] = len(mech)

    gen = by_layer["generator"]
    pairs = dense = rate = None
    if all(s.info for s in gen):
        sizes = [(s.info["N"], s.info["M"], s.info["S"]) for s in gen]
        pairs = sum(n * (n - 1) // 2 + m * (m - 1) // 2 for n, m, _ in sizes)
        dense = max((8 * (n * n + m * m + k * k) + 8 * (n * n + m * m) for n, m, k in sizes), default=0)
        rate = pairs / self_s(gen) if gen else 0.0
    out["generator.calls"] = len(gen)
    out["generator.self_s"] = self_s(gen)
    out["generator.ms_p50"] = _median_ms(gen)
    out["generator.vertex_pairs"] = pairs
    out["generator.vertex_pairs_per_s"] = rate
    out["generator.dense_bytes"] = dense
    out["generator.errors"] = errors(gen)
    calls["generator"] = len(gen)

    for layer in ("fgw.matched_plan_cost", "fgw.plan_cost_exact", "fgw.graph_to_measure"):
        items = by_layer[layer]
        out[f"{layer}.calls"] = len(items)
        out[f"{layer}.self_s"] = self_s(items)
        out[f"{layer}.errors"] = errors(items)
        calls[layer] = len(items)

    refine = by_layer["fgw.refine"]
    out["fgw.refine.calls"] = len(named("fgw.refine", "fgw_upper_bound"))
    out["fgw.refine.self_s"] = self_s(refine)
    out["fgw.refine.errors"] = errors(refine)
    calls["fgw.refine"] = out["fgw.refine.calls"]

    ipm = by_layer["fgw.ipm"]
    refs = named("fgw.ipm", "fgw_to_reference")
    out["fgw.ipm.calls"] = len(refs)
    out["fgw.ipm.self_s"] = self_s(ipm)
    sized = all(s.info for s in refs)
    out["fgw.ipm.single_ref_s"] = sum(s.duration for s in refs if s.info["ref_n"] == 1) if sized else None
    out["fgw.ipm.multi_ref_s"] = sum(s.duration for s in refs if s.info["ref_n"] > 1) if sized else None
    out["fgw.ipm.errors"] = errors(ipm)
    calls["fgw.ipm"] = len(refs)

    runner = by_layer["runner"]
    reps = [s for s in spans if s.name == "replicate"]
    wall = sum(s.duration for s in runner)
    workers = len({s.thread for s in reps}) if runner else 0
    out["runner.wall_s"] = wall
    out["runner.workers"] = workers
    out["runner.busy_frac"] = sum(s.duration for s in reps) / (wall * workers) if runner and workers else 0.0
    out["runner.errors"] = errors(runner) + (errors(reps) if runner else 0)
    calls["runner"] = len(runner)

    setup = by_layer["setup"]
    out["setup.load_s"] = sum(s.duration for s in named("setup", "load_points_csv", "make_recipe_dataset"))
    out["setup.resolve_s"] = self_s(named("setup", "resolve"))
    out["setup.errors"] = errors(setup)
    calls["setup"] = len(named("setup", "resolve"))
    return out, calls


def _median_ms(spans: list[Span]) -> float:
    return 1000.0 * statistics.median(s.self_s for s in spans) if spans else 0.0
