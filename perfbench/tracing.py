"""Span tracing of the sparselink layers from outside the package.

The package binds its helpers with ``from .x import y``, so a function such
as ``descend`` lives under several names (``sparselink.sparse.descend``,
``sparselink.structured.descend``, ...). ``Tracer.install`` replaces every
binding of each traced function in every loaded ``sparselink`` module with a
wrapper that records a span, and ``Tracer.uninstall`` puts the originals
back. No file of the package is changed.

A span is (name, start, end, parent, item). Spans are kept in memory and
turned into per-layer metrics by ``layer_metrics``: call counts, total time,
and self time (duration minus the time covered by direct child spans).
Spans are only recorded while ``Tracer.active`` is set, so the benchmark's
own correctness checks, which call the same public functions, stay out of
the numbers.
"""
from __future__ import annotations

import functools
import math
import sys
import time

# (module, attribute, span name). The module is the one defining the
# function; every other binding of the same object is found and wrapped too.
TRACED_FUNCTIONS = (
    ("h2", "closed_loop_cost", "h2.closed_loop_cost"),
    ("h2", "is_stabilizing", "h2.is_stabilizing"),
    ("h2", "lqr_centralized", "h2.lqr_centralized"),
    ("descent", "descend", "descent.descend"),
    ("sparse", "sparsity_sweep", "sparse.sparsity_sweep"),
    ("sparse", "sparse_gain", "sparse.sparse_gain"),
    ("sparse", "block_frobenius", "sparse.block_frobenius"),
    ("sparse", "block_soft_threshold", "sparse.block_soft_threshold"),
    ("structured", "synthesize_structured_info", "structured.synth"),
    ("priority", "rank_links", "priority.rank_links"),
    ("priority", "removal_loss", "priority.removal_loss"),
    ("scenario", "select_reroute", "reroute.select_reroute"),
    ("reroute", "pattern_from", "reroute.pattern_from"),
    ("scenario", "run_pipeline", "scenario.run_pipeline"),
    ("scenario", "write_artifacts", "scenario.write_artifacts"),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical"),
    ("render", "render_pattern", "render.render_pattern"),
)

DESCENT_STATUSES = ("converged", "max_iter", "stalled", "lost_stability")


class Tracer:
    """In-memory span recorder plus the counters read off return values."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.counters: dict[str, int] = {}
        self.bindings: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of each traced function in loaded sparselink
        modules. Raises if a traced function is missing."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sparselink" or name.startswith("sparselink."))
        ]
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"sparselink.{module_name}"], attr)
            wrapper = self._wrapper(span_name, original)
            bound = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[span_name] = bound

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def _wrapper(self, span_name: str, original):
        post = _POST_HOOKS.get(span_name)
        if span_name == "descent.descend":
            return self._descend_wrapper(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            idx = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return traced

    def _descend_wrapper(self, original):
        """descend gets its objective as a callable; wrap that callable so
        each closed-loop evaluation and each gradient is a span."""
        tracer = self

        class _TracedEval:
            __slots__ = ("value", "_ev")

            def __init__(self, ev):
                self._ev = ev
                self.value = ev.value

            def gradient(self):
                idx = tracer.begin("h2.grad")
                try:
                    return self._ev.gradient()
                finally:
                    tracer.end(idx)

        @functools.wraps(original)
        def traced(make_eval, *args, **kwargs):
            if not self.active:
                return original(make_eval, *args, **kwargs)

            def traced_eval(x):
                idx = tracer.begin("h2.eval")
                try:
                    ev = make_eval(x)
                finally:
                    tracer.end(idx)
                return _TracedEval(ev)

            idx = self.begin("descent.descend")
            try:
                result = original(traced_eval, *args, **kwargs)
            finally:
                self.end(idx)
            self.count("descent.iterations", result.iterations)
            self.count(f"descent.status.{result.status}")
            return result

        return traced


def _post_sweep(tracer, result, args, kwargs):
    tracer.count("sparse.empty_entries", sum(1 for e in result.entries if e.nnz_blocks == 0))


def _post_synth(tracer, result, args, kwargs):
    init = kwargs["init"] if "init" in kwargs else (args[3] if len(args) > 3 else None)
    tracer.count("structured.cold_calls" if init is None else "structured.warm_calls")
    tracer.count("structured.al_outer", result.iterations)
    tracer.count("structured.not_converged", int(not result.converged))


def _post_removal_loss(tracer, result, args, kwargs):
    tracer.count("priority.removal_loss.inf", int(math.isinf(result)))


_POST_HOOKS = {
    "sparse.sparsity_sweep": _post_sweep,
    "structured.synth": _post_synth,
    "priority.removal_loss": _post_removal_loss,
}


def span_totals(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    n = len(tracer.names)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            covered[p] += durations[i]
    totals: dict[str, list] = {}
    for i in range(n):
        t = totals.setdefault(tracer.names[i], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += durations[i]
        t[2] += durations[i] - covered[i]
    return {k: (v[0], v[1], v[2]) for k, v in totals.items()}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values by name (units are in BENCHMARK.json)."""
    totals = span_totals(tracer)
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_secs(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    evals = calls("h2.eval")
    descents = calls("descent.descend")
    iterations = counters.get("descent.iterations", 0)
    trial_evals = evals - descents
    out = {
        "h2.eval.count": evals,
        "h2.eval.s": secs("h2.eval"),
        "h2.grad.count": calls("h2.grad"),
        "h2.grad.s": secs("h2.grad"),
        "descent.calls": descents,
        "descent.iterations": iterations,
        "descent.backtracks": trial_evals - iterations,
        "descent.accept_ratio": iterations / trial_evals if trial_evals else 0.0,
        "descent.self_s": self_secs("descent.descend"),
    }
    for status in DESCENT_STATUSES:
        out[f"descent.status.{status}"] = counters.get(f"descent.status.{status}", 0)
    for name in ("h2.closed_loop_cost", "h2.is_stabilizing", "h2.lqr_centralized",
                 "sparse.sparse_gain", "sparse.block_frobenius",
                 "sparse.block_soft_threshold", "structured.synth",
                 "priority.removal_loss"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = secs(name)
    for name in ("sparse.sparse_gain", "structured.synth", "scenario.run_pipeline"):
        out[f"{name}.self_s"] = self_secs(name)
    for name in ("sparse.sparsity_sweep", "priority.rank_links",
                 "reroute.select_reroute", "reroute.pattern_from",
                 "scenario.write_artifacts", "serialize.dumps_canonical",
                 "render.render_pattern"):
        out[f"{name}.s"] = secs(name)
    for name in ("sparse.empty_entries", "structured.cold_calls",
                 "structured.warm_calls", "structured.al_outer",
                 "structured.not_converged", "priority.removal_loss.inf"):
        out[name] = counters.get(name, 0)
    return out
