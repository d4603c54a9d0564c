"""Runtime spans and counters around the package's layers, owned by the benchmark.

``Tracer.install`` replaces module attributes of an imported ``cmc_annuli``
with wrappers; the package sources are not touched. A function is replaced
under every name it is bound to in ``cmc_annuli`` or any of its modules, so
calls made through ``from .profiles import height`` are seen as well. Two kinds of
wrapper exist:

* a span records name, start, end, parent span and run id, and keeps a running
  total of duration and self time (duration minus the time its children
  cover);
* a counter only counts calls, keyed by the innermost open span, for the
  per-call hot paths (slope, height, radius checks, integrand evaluations)
  where a span each would dominate what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name); "Class.method" patches a class attribute.
SPANS = [
    ("cli", "main", "cli.main"),
    ("quadrature", "adaptive_quad", "quadrature.adaptive_quad"),
    ("profiles", "sample_profile", "profiles.sample_profile"),
    ("estimates", "dirichlet_feasibility", "estimates.dirichlet_feasibility"),
    ("estimates", "bounding_box", "estimates.bounding_box"),
    ("estimates", "AprioriBounds.sample", "estimates.sample"),
    ("radial", "solve_radial", "radial.solve_radial"),
    ("radial", "extremal_drops", "radial.extremal_drops"),
    ("pde2d", "solve_dirichlet_2d", "pde2d.solve"),
    ("pde2d", "cmc_residual", "pde2d.cmc_residual"),
    ("pde2d", "newton_krylov", "pde2d.newton_krylov"),
    ("svgfig", "family_figure", "svgfig.figure"),
    ("svgfig", "box_figure", "svgfig.figure"),
]

COUNTERS = [
    ("profiles", "height", "profiles.height"),
    ("profiles", "slope", "profiles.slope"),
    ("profiles", "boundary_radius", "profiles.boundary_radius"),
    ("hyperbolic", "check_radius", "hyperbolic.check_radius"),
    ("radial", "integrate_radial", "radial.integrate_radial"),
]

#: Spans kept for the JSON-lines file; totals keep counting past it.
MAX_KEPT_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.run_id))
        else:
            self.dropped += 1

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return wrapper

    def counter(self, name: str, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, stack[-1][1] if stack else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def measure(self, name: str):
        """A span around a block of benchmark code."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("cmc_annuli.") and mod is not None
        }

        package = [sys.modules["cmc_annuli"]]

        def replace(original, wrapper):
            for mod in list(modules.values()) + package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        for module, attr, name in SPANS:
            mod = modules.get(module)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.span(name, getattr(cls, meth)))
            elif hasattr(mod, attr):
                original = getattr(mod, attr)
                replace(original, self.span(name, original))
        for module, attr, name in COUNTERS:
            original = getattr(modules.get(module), attr, None)
            if original is not None:
                replace(original, self.counter(name, original))

        # every scipy.sparse.linalg solver entry point bound in pde2d
        pde2d = modules.get("pde2d")
        if pde2d is not None:
            for attr, value in list(vars(pde2d).items()):
                if callable(value) and getattr(value, "__module__", "").startswith("scipy.sparse.linalg"):
                    setattr(pde2d, attr, self.span("pde2d.linear_solve", value))

        timed_quad = getattr(modules.get("quadrature"), "adaptive_quad", None)
        if timed_quad is None:
            return
        counts, stack = self.counts, self._stack

        def counted_quad(f, *args, **kwargs):
            def integrand(x):
                counts[("quadrature.integrand", stack[-1][1] if stack else None)] += 1
                return f(x)

            return timed_quad(integrand, *args, **kwargs)

        replace(timed_quad, functools.wraps(timed_quad)(counted_quad))

    # -- export --------------------------------------------------------------
    def count(self, name: str, parent: str | None = "*") -> int:
        """Calls counted for ``name``; ``parent`` restricts to one enclosing span."""
        return sum(n for (key, par), n in self.counts.items()
                   if key == name and (parent == "*" or par == parent))

    def state(self) -> dict:
        """Totals and counts in a JSON-ready form (for merging across processes)."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": [[k, p, n] for (k, p), n in self.counts.items()],
            "dropped": self.dropped,
        }

    def merge(self, state: dict, spans: list, run_id: int) -> None:
        for name, (calls, total, self_time) in state["totals"].items():
            t = self.totals[name]
            t[0] += calls
            t[1] += total
            t[2] += self_time
        for name, parent, n in state["counts"]:
            self.counts[(name, parent)] += n
        self.dropped += state["dropped"]
        room = MAX_KEPT_SPANS - len(self.spans)
        self.spans.extend(tuple(s[:5]) + (run_id,) for s in spans[:room])
        self.dropped += max(0, len(spans) - room)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
