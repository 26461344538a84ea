"""In-memory span tracer that wraps qrg's public functions from outside.

Each layer is a list of targets: (module, function name) or (module, class,
method name).  Installing the tracer replaces a target function at every
qrg module that binds it, since `from .gf import ff_inv` makes
qrg.engine.ff_inv a second name for the same object.  A target that no
longer exists is recorded as absent instead of raising, so a refactor that
removes or renames a function leaves the tracer working.

Spans are tuples (layer, start, end, parent, query id) kept in a list.  A
layer's self time is the sum over its spans of duration minus the part of
that interval covered by child spans.  Counters are plain integers.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# Layers timed with spans: metric prefix -> targets.
SPAN_LAYERS = {
    "cli": [("qrg.cli", "main")],
    "groupspec": [("qrg.groupspec", "parse_spec"), ("qrg.groupspec", "build_group"),
                  ("qrg.groupspec", "render_spec")],
    "constructions": [("qrg.constructions", name) for name in (
        "solve_two_prime", "brenner_sigma", "perm_matrix", "double_embed",
        "symplectic_check", "jordan_of_sigma")],
    "engine.enumerate": [("qrg.engine", "enumerate_group")],
    "engine.classes": [("qrg.engine", "GroupTable", "_ensure_classes")],
    "engine.lattice": [("qrg.engine", "normal_subgroups")],
    "engine.closure": [("qrg.engine", "GroupTable", "normal_closure_bits")],
    "engine.quotient": [("qrg.engine", "quotient")],
    "engine.derived": [("qrg.engine", "commutator_subgroup")],
    "engine.center": [("qrg.engine", "center")],
    "engine.dense": [("qrg.engine", "GroupTable", "dense")],
    "gf.elim": [("qrg.gf", name) for name in ("ff_rank", "ff_det", "ff_inv", "ff_nullspace")],
    "gf.jordan_length": [("qrg.gf", "jordan_length")],
    "covering.covering_number": [("qrg.covering", "covering_number")],
    "covering.property": [("qrg.covering", "covering_property")],
    "covering.double": [("qrg.covering", "double_covering_feasible")],
    "covering.inflation": [("qrg.covering", "verify_cosocle_inflation")],
    "covering.preservation": [("qrg.covering", "verify_product_preservation")],
    "chars.degrees": [("qrg.chars", "character_degrees")],
    "chars.mixing": [("qrg.chars", "gowers_mixing")],
    "unitgeom.haar": [("qrg.unitgeom", "haar_unitary")],
    "unitgeom.axioms": [("qrg.unitgeom", "length_axioms_check")],
    "unitgeom.power_witness": [("qrg.unitgeom", "power_length_witness")],
}
# Layers that are only counted: they run too often for a span each.
COUNT_LAYERS = {
    "engine.mul": [("qrg.engine", "GroupTable", "mul")],
    "engine.power": [("qrg.engine", "GroupTable", "power")],
    "engine.batch_mul": [("qrg.engine", "GroupTable", name)
                         for name in ("mul_left_batch", "mul_right_batch", "mul_pairwise")],
    "engine.class_pair_product": [("qrg.engine", "GroupTable", "class_pair_product_bits")],
    "engine.class_set_product": [("qrg.engine", "GroupTable", "class_set_product_bits")],
}
# Span layers that also report their call count.
COUNTED_SPANS = ("gf.elim", "gf.jordan_length", "engine.closure", "unitgeom.haar")


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = [f"{layer}.self_s" for layer in SPAN_LAYERS]
    names += [f"{layer}.calls" for layer in COUNTED_SPANS]
    names += [f"{layer}.calls" for layer in COUNT_LAYERS]
    names += ["engine.enumerate.elements", "engine.batch_mul.elements",
              "engine.closure.repeat_frac", "engine.class_pair_product.unique_frac"]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.query_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # Seeds of normal closures and class pairs already asked of each group.
        self._closure_seen = weakref.WeakKeyDictionary()
        self._pair_seen = weakref.WeakKeyDictionary()

    # -- recording ----------------------------------------------------------

    def _count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _span(self, layer: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (layer, start, end, parent, self.query_id)

    def _wrap(self, layer: str, fn):
        tracer = self
        counted = layer in COUNTED_SPANS
        if layer == "engine.classes":
            @functools.wraps(fn)
            def wrapper(self_, *args, **kwargs):
                # Only the first access partitions; later ones return at once.
                if getattr(self_, "_classes", None) is not None:
                    return fn(self_, *args, **kwargs)
                return tracer._span(layer, fn, (self_,) + args, kwargs)
        elif layer == "engine.enumerate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                g = tracer._span(layer, fn, args, kwargs)
                tracer._count("engine.enumerate.elements", g.order)
                return g
        elif layer == "engine.closure":
            @functools.wraps(fn)
            def wrapper(self_, seed_class_idxs, *args, **kwargs):
                seeds = [int(c) for c in seed_class_idxs]
                seen = tracer._closure_seen.setdefault(self_, set())
                key = frozenset(seeds)
                tracer._count("engine.closure.repeats", key in seen)
                seen.add(key)
                tracer._count("engine.closure.calls")
                return tracer._span(layer, fn, (self_, seeds) + args, kwargs)
        elif layer in SPAN_LAYERS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counted:
                    tracer._count(f"{layer}.calls")
                return tracer._span(layer, fn, args, kwargs)
        elif layer == "engine.batch_mul":
            @functools.wraps(fn)
            def wrapper(self_, a, b, *rest):
                tracer._count("engine.batch_mul.calls")
                # The batch is whichever argument is an array; the other may
                # be a scalar index.
                arr = b if getattr(a, "ndim", 1 if hasattr(a, "__len__") else 0) == 0 else a
                size = getattr(arr, "size", None)
                tracer._count("engine.batch_mul.elements", len(arr) if size is None else size)
                return fn(self_, a, b, *rest)
        elif layer == "engine.class_pair_product":
            @functools.wraps(fn)
            def wrapper(self_, ci, cj):
                seen = tracer._pair_seen.setdefault(self_, set())
                key = (int(ci), int(cj))
                tracer._count("engine.class_pair_product.calls")
                tracer._count("engine.class_pair_product.unique", key not in seen)
                seen.add(key)
                return fn(self_, ci, cj)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._count(f"{layer}.calls")
                return fn(*args, **kwargs)
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        qrg_modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "qrg" or name.startswith("qrg."))]
        for layer, targets in list(SPAN_LAYERS.items()) + list(COUNT_LAYERS.items()):
            for target in targets:
                module = sys.modules.get(target[0])
                if len(target) == 3:
                    owner = getattr(module, target[1], None)
                    fn = owner.__dict__.get(target[2]) if isinstance(owner, type) else None
                    if fn is None:
                        self.absent.append(".".join(target))
                        continue
                    self._patched.append((owner, target[2], fn))
                    setattr(owner, target[2], self._wrap(layer, fn))
                    continue
                fn = getattr(module, target[1], None)
                if fn is None:
                    self.absent.append(".".join(target))
                    continue
                wrapper = self._wrap(layer, fn)
                for mod in qrg_modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, name, fn))
                            setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and counters over everything recorded."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_LAYERS, 0.0)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
        out = {f"{layer}.self_s": value for layer, value in self_s.items()}
        c = self.counts
        for name in metric_names():
            if name not in out:
                out[name] = float(c.get(name, 0))
        closure_calls = c.get("engine.closure.calls", 0)
        out["engine.closure.repeat_frac"] = (
            c.get("engine.closure.repeats", 0) / closure_calls if closure_calls else 0.0
        )
        pair_calls = c.get("engine.class_pair_product.calls", 0)
        out["engine.class_pair_product.unique_frac"] = (
            c.get("engine.class_pair_product.unique", 0) / pair_calls if pair_calls else 0.0
        )
        return out
