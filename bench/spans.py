"""Spans around calls into rootline's public functions, from outside.

``install`` wraps each function named in ``TRACED`` and rebinds the
wrapper under every name by which a ``rootline`` module holds the
original: ``maxroot`` imports ``power_sums_from_elementary`` and
``lowerbounds`` imports ``max_root`` by name, so patching the defining
module alone would miss those calls.  Methods are rebound on their
class.  A name that no longer exists is skipped and reported, so an API
change costs one metric, not the trace.

Each call records one span (function, start, end, parent span) in
memory; ``write_spans`` saves them when the run ends.  ``per_layer``
turns the spans into the per-layer metrics of ``BENCHMARK.json``:

* ``<layer>.calls``: calls of the layer's functions, nested ones included;
* ``<layer>.s``: time inside the layer, a call nested in another call of
  the same layer counted once;
* ``<layer>.self_s``: time inside the layer minus the time of its
  direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) of every wrapped function
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("symfuncs.newton", "rootline.symfuncs", "power_sums_from_elementary"),
    ("symfuncs.newton", "rootline.symfuncs", "extended_power_sums"),
    ("maxroot.approx", "rootline.maxroot", "approx_max_root"),
    ("ratutil", "rootline.ratutil", "ln_bounds"),
    ("ratutil", "rootline.ratutil", "le_ln"),
    ("ratutil", "rootline.ratutil", "ln_upper_dyadic"),
    ("ratutil", "rootline.ratutil", "cos_pi_bounds"),
    ("ratutil", "rootline.ratutil", "nth_root_lower"),
    ("ratutil", "rootline.ratutil", "nth_root_upper"),
    ("chebyshev", "rootline.chebyshev", "cheb_poly"),
    ("chebyshev", "rootline.chebyshev", "cheb_eval"),
    ("poly.charpoly", "rootline.poly", "char_poly"),
    ("poly.charpoly", "rootline.poly", "char_poly_int_rows"),
    ("isolation.isolate", "rootline.isolation", "isolate_real_roots"),
    ("isolation.isolate", "rootline.isolation", "max_root"),
    ("isolation.squarefree", "rootline.isolation", "squarefree_decomposition"),
    ("isolation.compare", "rootline.isolation", "compare_roots"),
    ("isolation.threshold", "rootline.isolation", "max_root_leq"),
    ("isolation.threshold", "rootline.isolation", "max_root_geq"),
    ("interlacing.oracle", "rootline.interlacing", "KSOracle.coeffs"),
    ("interlacing.round", "rootline.interlacing", "round_family"),
    ("interlacing.leaf", "rootline.interlacing", "ks_leaf_poly"),
    ("graphs.scan", "rootline.graphs", "sign_invariance_report"),
    ("graphs.best_signing", "rootline.graphs", "best_signing_search"),
    ("lowerbounds.generate", "rootline.lowerbounds", "weak_pair"),
    ("lowerbounds.generate", "rootline.lowerbounds", "noisy_pair"),
    ("lowerbounds.generate", "rootline.lowerbounds", "boosted_pair"),
    ("lowerbounds.generate", "rootline.lowerbounds", "girth_pair"),
    ("lowerbounds.verify", "rootline.lowerbounds", "verify_pair"),
)

#: methods whose calls are counted without a span (too many to record)
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("isolation.refine_steps", "rootline.isolation", "RootInterval.refine_step"),
)


class Tracer:
    def __init__(self):
        #: [function, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.skipped: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                try:
                    after(self.counts, args, result, record[2] - record[1])
                except (AttributeError, IndexError, TypeError) as exc:
                    note = f"count after {name}: {type(exc).__name__}: {exc}"
                    if note not in self.skipped:
                        self.skipped.append(note)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


# ---------------------------------------------------------------------------
# counts taken from the arguments and results of a call
# ---------------------------------------------------------------------------


def _after_approx(counts, args, result, duration):
    counts["maxroot.loop_iterations"] += result.iterations


def _after_round(counts, args, result, duration):
    counts["interlacing.candidates_scored"] += sum(s.candidates for s in result.steps)


def _after_scan(counts, args, result, duration):
    if result.agree:  # a scan that agrees has visited every signing
        counts["graphs.scan.full_signings"] += 1 << args[0].num_edges
        counts["graphs.scan.full_s"] += duration


def _after_isolate(counts, args, result, duration):
    counts["isolation.polys"] += 1
    if args[0].coeffs and args[0].coeffs[0] == 0:
        counts["isolation.zero_root_polys"] += 1


AFTER = {
    "approx_max_root": _after_approx,
    "round_family": _after_round,
    "sign_invariance_report": _after_scan,
    "isolate_real_roots": _after_isolate,
}


def _resolve(module: str, path: str):
    """(owner, attribute name, object) or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` under every name a rootline module holds it by."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "rootline" or modname.startswith("rootline.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    for layer, module, path in TRACED:
        found = _resolve(module, path)
        if found is None:
            tracer.skipped.append(f"{module}.{path}")
            continue
        owner, attr, obj = found
        name = f"{module}.{path}"
        tracer.layer_of[name] = layer
        wrapper = tracer.span(name, obj, AFTER.get(attr))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind_everywhere(obj, wrapper)
    for counter, module, path in COUNTED:
        found = _resolve(module, path)
        if found is None:
            tracer.skipped.append(f"{module}.{path}")
            continue
        owner, attr, obj = found
        setattr(owner, attr, tracer.counter(counter, obj))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _layer_times(tracer: Tracer) -> Tuple[Counter, Counter, Counter]:
    """(calls, time with same-layer nesting counted once, self time) per layer."""
    spans = tracer.spans
    layers = [tracer.layer_of[s[0]] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls, total, self_time = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        layer = layers[i]
        duration = s[2] - s[1]
        calls[layer] += 1
        self_time[layer] += duration - child_time[i]
        parent = s[3]
        while parent >= 0 and layers[parent] != layer:
            parent = spans[parent][3]
        if parent < 0:
            total[layer] += duration
    return calls, total, self_time


def per_layer(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json, as name -> (value, unit)."""
    calls, total, self_time = _layer_times(tracer)
    c = tracer.counts
    full_s = c["graphs.scan.full_s"]
    return {
        "symfuncs.newton.calls": (calls["symfuncs.newton"], "count"),
        "symfuncs.newton.s": (total["symfuncs.newton"], "s"),
        "maxroot.approx.calls": (calls["maxroot.approx"], "count"),
        "maxroot.approx.self_s": (self_time["maxroot.approx"], "s"),
        "maxroot.loop_iterations": (c["maxroot.loop_iterations"], "count"),
        "ratutil.calls": (calls["ratutil"], "count"),
        "ratutil.s": (total["ratutil"], "s"),
        "chebyshev.s": (total["chebyshev"], "s"),
        "poly.charpoly.calls": (calls["poly.charpoly"], "count"),
        "poly.charpoly.s": (total["poly.charpoly"], "s"),
        "isolation.isolate.calls": (calls["isolation.isolate"], "count"),
        "isolation.isolate.self_s": (self_time["isolation.isolate"], "s"),
        "isolation.squarefree.s": (total["isolation.squarefree"], "s"),
        "isolation.refine_steps": (c["isolation.refine_steps"], "count"),
        "isolation.compare.calls": (calls["isolation.compare"], "count"),
        "isolation.compare.s": (total["isolation.compare"], "s"),
        "isolation.threshold.s": (total["isolation.threshold"], "s"),
        "interlacing.oracle.calls": (calls["interlacing.oracle"], "count"),
        "interlacing.oracle.s": (total["interlacing.oracle"], "s"),
        "interlacing.round.self_s": (self_time["interlacing.round"], "s"),
        "interlacing.candidates_scored": (c["interlacing.candidates_scored"], "count"),
        "interlacing.leaf.self_s": (self_time["interlacing.leaf"], "s"),
        "graphs.scan.s": (total["graphs.scan"], "s"),
        "graphs.scan.signings_per_s": (
            c["graphs.scan.full_signings"] / full_s if full_s else 0.0, "1/s"),
        "graphs.best_signing.self_s": (self_time["graphs.best_signing"], "s"),
        "lowerbounds.generate.self_s": (self_time["lowerbounds.generate"], "s"),
        "lowerbounds.verify.self_s": (self_time["lowerbounds.verify"], "s"),
    }


def zero_root_share(tracer: Tracer, before: Counter) -> Optional[float]:
    """Share of the polynomials given to isolate_real_roots since the counts
    ``before`` that have a factor x^j, j >= 1."""
    polys = tracer.counts["isolation.polys"] - before["isolation.polys"]
    zero = tracer.counts["isolation.zero_root_polys"] - before["isolation.zero_root_polys"]
    return zero / polys if polys else None


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"fn": name, "layer": tracer.layer_of[name], "start": start,
                                 "end": end, "parent": parent}) + "\n")
