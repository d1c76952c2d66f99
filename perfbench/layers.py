"""Per-layer time and counts for the traced run.

The wrappers live here, not in gafunc: ``Tracer.install`` replaces each
traced function wherever a loaded gafunc module binds it (``from .x import
y`` makes a second binding), and the two product operators on their
classes.  Only a traced run installs them; the untraced run that gives the
end-to-end metrics calls the program untouched.  A name that a later
version of gafunc no longer has is skipped, and its metric reads 0.

Layer times are inclusive and counted once for nested calls of the same
layer.  ``mvfunc.self_ms`` is the time in ``mv_function`` minus the time
its calls spent in the mu, chi, roots, spectral and tower layers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute, rebind): rebind "all" replaces every binding in
# the loaded gafunc modules, "own" only the one in ``module``.
TARGETS = (
    ("io.parse", "gafunc.io", "parse_mv", "all"),
    ("io.parse", "gafunc.io", "parse_matrix", "all"),
    ("io.format", "gafunc.io", "format_mv", "all"),
    ("io.format", "gafunc.io", "mv_record", "all"),
    ("io.format", "gafunc.io", "poly_record", "all"),
    ("io.format", "gafunc.io", "canonical_json", "all"),
    ("io.format", "gafunc.poly", "format_poly", "all"),
    ("minpoly", "gafunc.minpoly", "minimal_poly", "all"),
    ("minpoly", "gafunc.matfunc", "matrix_minimal_poly", "all"),
    ("charpoly", "gafunc.charpoly", "char_poly", "all"),
    ("roots", "gafunc.roots", "extract_roots", "all"),
    ("roots.aberth", "gafunc.roots", "aberth_roots", "all"),
    ("spectral", "gafunc.spectral", "build_spectral_basis", "all"),
    ("tower", "gafunc.mvfunc", "mv_powers", "own"),
    ("mvfunc", "gafunc.mvfunc", "mv_function", "all"),
    ("matfunc", "gafunc.matfunc", "matrix_function", "all"),
)
METHODS = (
    ("ga.product", "gafunc.ga", "Multivector", "__mul__"),
    ("matfunc.product", "gafunc.matfunc", "ExactMatrix", "__mul__"),
)
MU_LAYERS = ("minpoly", "charpoly")
MVFUNC_CHILDREN = ("minpoly", "charpoly", "roots", "spectral", "tower")

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.import_ms": "ms",
    "io.parse_ms": "ms",
    "io.format_ms": "ms",
    "ga.products": "count",
    "ga.product_ms": "ms",
    "minpoly.ms": "ms",
    "mvfunc.tower_ms": "ms",
    "charpoly.ms": "ms",
    "roots.ms": "ms",
    "roots.numeric_factors": "count",
    "roots.escalations": "count",
    "spectral.ms": "ms",
    "mvfunc.self_ms": "ms",
    "mvfunc.reuse_ratio": "ratio",
    "matfunc.ms": "ms",
    "matfunc.products": "count",
}


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)  # layer -> inclusive seconds
        self.calls = Counter()  # layer -> outermost calls
        self.depth = Counter()
        self.active = False
        self.precision = None  # requested digits of the extract_roots call in progress

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or tracer.depth[layer]:
                return fn(*args, **kwargs)
            before = tracer._enter(layer, args, kwargs)
            tracer.depth[layer] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.depth[layer] -= 1
                tracer.seconds[layer] += elapsed
                tracer.calls[layer] += 1
                tracer._leave(layer, elapsed, before)

        traced.__wrapped__ = fn
        return traced

    def _enter(self, layer, args, kwargs):
        if layer == "roots":
            self.precision = args[1] if len(args) > 1 else kwargs.get("precision", 50)
        elif layer == "roots.aberth":
            dps = args[1] if len(args) > 1 else kwargs["dps"]
            key = "roots.escalations" if self.precision and dps > self.precision else "roots.numeric_factors"
            self.calls[key] += 1
        elif layer == "mvfunc":
            return (
                sum(self.calls[m] for m in MU_LAYERS),
                sum(self.seconds[c] for c in MVFUNC_CHILDREN),
            )
        return None

    def _leave(self, layer, elapsed, before):
        if layer == "mvfunc":
            mu_calls, child_seconds = before
            if sum(self.calls[m] for m in MU_LAYERS) == mu_calls:
                self.calls["mvfunc.reused"] += 1
            self.seconds["mvfunc.self"] += elapsed - (
                sum(self.seconds[c] for c in MVFUNC_CHILDREN) - child_seconds
            )

    def install(self):
        """Wrap every target in the loaded gafunc modules."""
        loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gafunc" and m]
        for layer, module, attr, rebind in TARGETS:
            mod = sys.modules.get(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            traced = self._wrap(layer, fn)
            for m in loaded if rebind == "all" else [mod]:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, traced)
        for layer, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self._wrap(layer, vars(cls)[attr]))

    # -- results ------------------------------------------------------------

    def raw(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls)}


def merge(raws) -> dict:
    total = {"seconds": Counter(), "calls": Counter()}
    for r in raws:
        total["seconds"].update(r["seconds"])
        total["calls"].update(r["calls"])
    return total


def per_layer(raw: dict, ops: int, import_ms: float) -> dict:
    """The PER_LAYER metrics per operation, from (merged) raw records."""
    s, c = raw["seconds"], raw["calls"]
    ms = lambda layer: 1000 * s.get(layer, 0.0) / ops  # noqa: E731
    count = lambda key: c.get(key, 0) / ops  # noqa: E731
    values = {
        "cli.import_ms": import_ms,
        "io.parse_ms": ms("io.parse"),
        "io.format_ms": ms("io.format"),
        "ga.products": count("ga.product"),
        "ga.product_ms": ms("ga.product"),
        "minpoly.ms": ms("minpoly"),
        "mvfunc.tower_ms": ms("tower"),
        "charpoly.ms": ms("charpoly"),
        "roots.ms": ms("roots"),
        "roots.numeric_factors": count("roots.numeric_factors"),
        "roots.escalations": count("roots.escalations"),
        "spectral.ms": ms("spectral"),
        "mvfunc.self_ms": ms("mvfunc.self"),
        "mvfunc.reuse_ratio": c.get("mvfunc.reused", 0) / c["mvfunc"] if c.get("mvfunc") else 0.0,
        "matfunc.ms": ms("matfunc"),
        "matfunc.products": count("matfunc.product"),
    }
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
