"""Outside-in tracing of the `dualgain` layers.

The tracer replaces module attributes and class attributes of the library
with wrappers from this file; `src/` is not edited.  Names that one library
module imports from another (`from .transcendental import dual_cos`) are
separate bindings, so every binding of a wrapped function in every
`dualgain` module is replaced, and callers that go through a module
attribute see the wrapper.  Spans stay in memory as (name, start, end,
parent, query) tuples until `write` saves them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> the per-layer self-time metric it adds to
SELF_METRIC = {}
for _metric, _names in {
    "cli.self_s": ["cli.run"],
    "graph_io.parse.self_s": ["graph_io.load", "graph_io.parse"],
    "graph_io.serialize.self_s": ["graph_io.save", "graph_io.serialize"],
    "gain_graph.validate.self_s": ["gain_graph.GainGraph.__init__"],
    "gain_graph.balance.self_s": ["gain_graph.GainGraph.balance_certificate"],
    "transcendental.self_s": ["transcendental.dual_exp", "transcendental.dual_log",
                              "transcendental.unit_to_angle", "transcendental.dual_cos",
                              "transcendental.unit_nth_roots",
                              "transcendental.reduce_to_complex"],
    "spectra.assemble.self_s": ["spectra.adjacency_matrix", "spectra.laplacian_matrix",
                                "spectra.gain_matrix"],
    "spectra.underlying_radius.self_s": ["spectra.underlying_radius"],
    "spectra.self_s": ["spectra.spectrum", "spectra.check_interlacing",
                       "spectra.radius_report", "spectra.spectral_radius",
                       "spectra.cycle_spectrum_closed_form",
                       "spectra.path_spectrum_closed_form"],
    "linalg.eigdec.self_s": ["linalg.hermitian_eigendecomposition"],
    "linalg.mdet.self_s": ["linalg.moore_determinant"],
    "rings.eigh.self_s": ["_rings.eigh"],
    "rings.matmul.self_s": ["_rings.matmul"],
    "char_poly.enumerate.self_s": ["char_poly.enumerate_cycles",
                                   "char_poly.enumerate_basic_subgraphs"],
    "char_poly.self_s": ["char_poly.coefficients", "char_poly.mdet_via_subgraphs",
                         "char_poly.char_poly_from_eigenvalues",
                         "char_poly.real_gain_of_cycle"],
    "sampling.self_s": ["sampling.random_unit_scalar", "sampling.random_scalar",
                        "sampling.random_dual_quaternion", "sampling.random_switching",
                        "sampling.random_hermitian_matrix",
                        "sampling.random_connected_graph", "sampling.random_gain_graph",
                        "sampling.random_balanced_gain_graph",
                        "sampling.random_unbalanced_connected"],
}.items():
    for _name in _names:
        SELF_METRIC[_name] = _metric

# count-only wrappers: (module, class or None, attribute, counter)
COUNTED = [
    ("gain_graph", "UnderlyingGraph", "neighbors", "gain_graph.neighbors.calls"),
    ("gain_graph", "UnderlyingGraph", "has_edge", "gain_graph.has_edge.calls"),
    ("scalars", "DualScalar", "__mul__", "scalars.mul.calls"),
    ("scalars", "DualScalar", "__rmul__", "scalars.mul.calls"),
    ("scalars", "DualNumber", "__mul__", "scalars.mul.calls"),
    ("scalars", "DualNumber", "__rmul__", "scalars.mul.calls"),
    ("quaternion", "Quaternion", "__mul__", "quaternion.mul.calls"),
    ("quaternion", "Quaternion", "__rmul__", "quaternion.mul.calls"),
]

# real flops of one base-ring product element: a real multiply-add is 2,
# complex 8, and a split quaternion product is four complex products
_FLOPS_PER_MAC = {"real": 2.0, "complex": 8.0, "quaternion": 32.0}


class Tracer:
    """Installs span and counter wrappers on the `dualgain` modules."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.query = -1
        self.counts: Counter = Counter()
        self.cycles_returned = 0
        self.cycles_seen: set = set()
        self.real_gain_seen: set = set()
        self._patches: list = []   # (owner, attribute, original, wrapper)
        self._plan()

    # --- wrappers --------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bindings(self, modules, original, wrapper):
        """Every binding of `original` in the library, paired with `wrapper`."""
        for mod in modules:
            for attr, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    # --- observers for counts that need arguments or results -------------

    def _on_eigdec(self, args, kwargs, result):
        self.counts["linalg.eigdec.calls"] += 1
        self.counts["linalg.eigdec.order_sum"] += args[0].n_rows

    def _on_eigh(self, args, kwargs, result):
        self.counts["rings.eigh.calls"] += 1

    def _on_matmul(self, args, kwargs, result):
        ring, x, y = args[:3]
        rows, inner = x.shape[0], x.shape[1]
        cols = y.shape[1] if y.ndim > (2 if ring == "quaternion" else 1) else 1
        self.counts["rings.matmul.calls"] += 1
        self.counts["rings.matmul.gflop_computed"] += (
            _FLOPS_PER_MAC[ring] * rows * inner * cols / 1e9)

    def _on_cycles(self, args, kwargs, result):
        graph = args[0]
        self.cycles_returned += len(result)
        for cyc in result:
            self.cycles_seen.add((self.query, id(graph), cyc))

    def _on_basic(self, args, kwargs, result):
        self.counts["char_poly.basic_subgraphs"] += len(result)

    def _on_real_gain(self, args, kwargs, result):
        self.counts["char_poly.real_gain_calls"] += 1
        self.real_gain_seen.add((self.query, id(args[0]), result.cycle))

    def _on_validate(self, args, kwargs, result):
        self.counts["gain_graph.validate.calls"] += 1

    # --- install / remove --------------------------------------------------

    def _plan(self):
        """Build every wrapper once; install and uninstall only swap them."""
        import dualgain  # noqa: F401  (loads every submodule)

        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("dualgain.")}
        modules = list(mods.values()) + [sys.modules["dualgain"]]
        observers = {
            "linalg.hermitian_eigendecomposition": self._on_eigdec,
            "_rings.eigh": self._on_eigh,
            "_rings.matmul": self._on_matmul,
            "char_poly.enumerate_cycles": self._on_cycles,
            "char_poly.enumerate_basic_subgraphs": self._on_basic,
            "char_poly.real_gain_of_cycle": self._on_real_gain,
            "gain_graph.GainGraph.__init__": self._on_validate,
        }
        for name in SELF_METRIC:
            parts = name.split(".")
            mod = mods[parts[0]]
            observe = observers.get(name)
            if len(parts) == 3:
                cls = getattr(mod, parts[1])
                original = cls.__dict__[parts[2]]
                self._patches.append((cls, parts[2], original,
                                      self._span(name, original, observe)))
            else:
                original = getattr(mod, parts[1])
                self._bindings(modules, original, self._span(name, original, observe))
        for mod_name, cls_name, attr, counter in COUNTED:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._count(counter, original)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per span name: duration minus the time its
        direct child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out

    def metrics(self) -> dict:
        per_name = self.self_times()
        out = dict.fromkeys(SELF_METRIC.values(), 0.0)
        for name, seconds in per_name.items():
            if name in SELF_METRIC:
                out[SELF_METRIC[name]] += seconds
        for counter in ("gain_graph.validate.calls", "gain_graph.neighbors.calls",
                        "gain_graph.has_edge.calls", "scalars.mul.calls",
                        "quaternion.mul.calls", "linalg.eigdec.calls",
                        "linalg.eigdec.order_sum", "rings.eigh.calls",
                        "rings.matmul.calls", "rings.matmul.gflop_computed",
                        "char_poly.basic_subgraphs"):
            out[counter] = float(self.counts[counter])
        out["char_poly.cycles_useful_ratio"] = (
            len(self.cycles_seen) / self.cycles_returned if self.cycles_returned else 1.0)
        calls = self.counts["char_poly.real_gain_calls"]
        out["char_poly.real_gain_useful_ratio"] = (
            len(self.real_gain_seen) / calls if calls else 1.0)
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent span index
        (-1 for a root) and the query the span belongs to."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps([name, start, end, parent, query]) + "\n")
