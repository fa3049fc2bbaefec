"""Per-layer spans recorded from outside the program.

A layer is one `fbasis` module.  `Tracer.install` wraps every public
function a layer defines (plus the methods named in `METHODS`) and
rebinds each wrapped object wherever it appears in any `fbasis.*`
namespace, matched by identity, so calls through from-import aliases
such as `vectors.weight_sum` or `cli.emit_report` are seen too.  Spans
nest on a stack: a span's self time is its duration minus the full time
of the spans it encloses, so recursion (`check_admissible` ->
`_trace_case` -> `check_admissible`) is not counted twice, and the
layers' self times never add up to more than the outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "fbasis"
LAYERS = (
    "parsing", "natset", "sequences", "series", "filters", "admissibility",
    "witnesses", "lp_operators", "basis_builder", "separation", "vectors",
    "reports", "cli",
)
METHODS = {"witnesses": {"GreedyBlockSet": ("materialized_blocks",)}}


class Tracer:
    def __init__(self, layers=LAYERS, methods=METHODS):
        self.layers = tuple(layers)
        self.methods = methods
        self.calls = defaultdict(int)  # "layer" and "layer.name" -> calls
        self.self_s = defaultdict(float)  # same keys -> self seconds
        self.counters = defaultdict(float)  # filled by hooks
        self.hooks = {}  # "layer.name" -> fn(tracer, args, kwargs, result)
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        prefix = PACKAGE + "."
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(prefix))]
        by_id = {}
        for layer in self.layers:
            mod = sys.modules.get(prefix + layer)
            if mod is None:
                self.absent.append(layer)
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    by_id[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
            for cls_name, names in self.methods.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for name in names:
                    fn = vars(cls).get(name) if isinstance(cls, type) else None
                    if not inspect.isfunction(fn):
                        self.absent.append(f"{layer}.{cls_name}.{name}")
                        continue
                    self._patch(cls, name, fn, self._wrap(fn, layer, f"{layer}.{name}"))
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, name, value, hit[1])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def require(self, names) -> None:
        """Record as absent each "layer.name" that was not wrapped."""
        for name in names:
            if name not in self.wrapped and name not in self.absent:
                self.absent.append(name)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer: str, qual: str):
        self.wrapped.add(qual)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hooks = self.hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                own = perf_counter() - start - frame[0]
                stack.pop()
                calls[layer] += 1
                calls[qual] += 1
                self_s[layer] += own
                self_s[qual] += own
                hook = hooks.get(qual)
                if returned and hook is not None:
                    hook(self, args, kwargs, result)
                # the parent's self time excludes this whole wrapper
                if stack:
                    stack[-1][0] += perf_counter() - entered
            return result

        return traced

    def layer_self_total(self) -> float:
        return sum(self.self_s[layer] for layer in self.layers)
