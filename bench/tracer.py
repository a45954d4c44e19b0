"""Spans around the public functions of the dpprofile layers, from outside.

`install(tracer)` replaces every public function of the layer modules
(cli, mechanism, circulant, reconstruct, evaluation, twoparty) with a
wrapper that records a span: name, start, end and the span that was open
when it started.  Names one module imports from another (for example
`evaluation.cached_operator`) are replaced too, so every call path is seen.
Spans stay in memory; `layer_metrics` turns them into per-layer figures.

Run as a script, it is a traced stand-in for `python -m dpprofile`:

    python3 bench/tracer.py SPANS.json sketch --input ... --output ...

runs the CLI with tracing on and writes the spans to SPANS.json at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("cli", "mechanism", "circulant", "reconstruct", "evaluation", "twoparty")

# Worker threads the benchmark gives the evaluation sweep (DP_PROFILE_THREADS).
EVAL_THREADS = 2


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, items)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counts_items = name == "mechanism.privatize"  # items: the histogram's d

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's outermost span belongs to whatever the main
            # thread has open (the sweep that submitted it)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            items = args[0].d if counts_items else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, items))

        return traced


def install(tracer: Tracer) -> None:
    """Swap every public layer function, wherever it is bound, for a wrapper."""
    package = importlib.import_module("dpprofile")
    modules = {layer: importlib.import_module(f"dpprofile.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    for mod in [package, *modules.values()]:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(span_sets: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of one or more processes.

    Function times are inclusive; a layer's self time is the time inside its
    spans not covered by their child spans.
    """
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    cache_misses = 0
    for spans in span_sets:
        children: dict[int, list] = {}
        for s in spans:
            children.setdefault(s[4], []).append(s)
        for sid, name, start, end, _parent, n_items in spans:
            kids = children.get(sid, [])
            incl[name] = incl.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            items[name] = items.get(name, 0) + n_items
            layer = name.split(".")[0]
            self_time[layer] += (end - start) - _covered([(k[2], k[3]) for k in kids], start, end)
            if name == "reconstruct.cached_operator":
                cache_misses += any(k[1] == "circulant.build_operator" for k in kids)

    def t(name):
        return incl.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    cached = c("reconstruct.cached_operator")
    sweep_busy = t("evaluation.sweep") * EVAL_THREADS
    return {
        "cli.self_s": self_time["cli"],
        "mechanism.self_s": self_time["mechanism"],
        "mechanism.read_histogram_s": t("mechanism.read_histogram"),
        "mechanism.write_sketch_s": t("mechanism.write_sketch"),
        "mechanism.read_sketch_s": t("mechanism.read_sketch"),
        "mechanism.privatize_s": t("mechanism.privatize"),
        "mechanism.privatize_items": items.get("mechanism.privatize", 0),
        "mechanism.unfold_s": t("mechanism.unfold"),
        "mechanism.update_s": t("mechanism.update"),
        "mechanism.empirical_profile_s": t("mechanism.empirical_profile"),
        "circulant.self_s": self_time["circulant"],
        "circulant.build_operator_s": t("circulant.build_operator"),
        "circulant.build_operator_calls": c("circulant.build_operator"),
        "circulant.apply_inverse_s": t("circulant.apply_inverse"),
        "circulant.apply_inverse_calls": c("circulant.apply_inverse"),
        "circulant.left_apply_inverse_s": t("circulant.left_apply_inverse"),
        "circulant.apply_s": t("circulant.apply"),
        "reconstruct.self_s": self_time["reconstruct"],
        "reconstruct.fast_inversion_s": t("reconstruct.fast_inversion"),
        "reconstruct.rounding_s": t("reconstruct.rounding"),
        "reconstruct.write_profile_csv_s": t("reconstruct.write_profile_csv"),
        "reconstruct.cached_operator_calls": cached,
        "reconstruct.operator_cache_hit_ratio": (cached - cache_misses) / cached if cached else 0.0,
        "evaluation.self_s": self_time["evaluation"],
        "evaluation.synth_histogram_s": t("evaluation.synth_histogram"),
        "evaluation.synth_histogram_calls": c("evaluation.synth_histogram"),
        "evaluation.true_profile_s": t("evaluation.true_profile"),
        "evaluation.theoretical_bounds_s": t("evaluation.theoretical_bounds"),
        "evaluation.run_trial_s": t("evaluation.run_trial"),
        "evaluation.trials": c("evaluation.run_trial"),
        "evaluation.sweep_s": t("evaluation.sweep"),
        "evaluation.sweep_parallel_efficiency": t("evaluation.run_trial") / sweep_busy if sweep_busy else 0.0,
        "twoparty.self_s": self_time["twoparty"],
        "twoparty.alice_message_s": t("twoparty.alice_message"),
        "twoparty.bob_estimate_s": t("twoparty.bob_estimate"),
        "trace.spans": sum(len(s) for s in span_sets),
    }


def metric_unit(name: str) -> str:
    if name.endswith(("_ratio", "_efficiency", "_share")):
        return "ratio"
    if name.endswith(("_calls", "_items", ".trials", ".spans")):
        return "count"
    return "s"


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)


def _main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from dpprofile import cli

    try:
        return cli.main(cli_args)
    finally:
        dump(tracer, out)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
