"""In-memory span tracer for the spanforge benchmark.

The tracer wraps public spanforge functions from the outside.  A module
often imports a function by name (``from .fincat import check_functor``),
so the wrapper replaces the function at every ``spanforge.*`` binding, not
only in the module that defines it.  Each call records one span
(layer, start, end, parent) in flat lists; nothing is written until the
run ends.  A layer's self time is its span durations minus the time its
direct child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# layer name -> (module, functions); names follow the defining module
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    # enumerate
    "fincat.functor_category": ("fincat", ("functor_category",)),
    "spans.end_monoidal": ("spans", ("end_monoidal",)),
    "spans.module_structures_on": ("spans", ("module_structures_on",)),
    "fincat.product_category": ("fincat", ("product_category",)),
    # construct
    "spans.build_span": ("spans", ("build_span",)),
    "limits.fiber_product": ("limits", ("fiber_product",)),
    "limits.comma": ("limits", ("comma",)),
    "limits.mediate": ("limits", ("mediate",)),
    "limits.mediate_2cell": ("limits", ("mediate_2cell",)),
    "laxators.laxator": ("laxators", ("laxator",)),
    "laxators.laxator_coherence": ("laxators", ("laxator_coherence",)),
    "laxators.quadruple_pasting_check": ("laxators", ("quadruple_pasting_check",)),
    "laxators.normalization_check": ("laxators", ("normalization_check",)),
    "laxators.monoidal_fiber_product": ("laxators", ("monoidal_fiber_product",)),
    "centers.drinfeld_center": ("centers", ("drinfeld_center",)),
    # check
    "monoidal.check_monoidal": ("monoidal", ("check_monoidal",)),
    "monoidal.check_mon_functor": ("monoidal", ("check_mon_functor",)),
    "monoidal.check_braiding": ("monoidal", ("check_braiding",)),
    "fincat.check_functor": ("fincat", ("check_functor",)),
    "fincat.check_category": ("fincat", ("check_category",)),
    "spans.check_module_functor": ("spans", ("check_module_functor",)),
    # serialize
    "docs.parse": ("docs", ("parse",)),
    "docs.serialize": ("docs", ("serialize",)),
    "docs.decode": ("docs", ("decode_category", "decode_functor",
                             "decode_nat_trans", "decode_monoidal",
                             "decode_braiding", "decode_mon_functor",
                             "decode_module", "decode_module_functor",
                             "decode_module_nattrans")),
    "docs.encode": ("docs", ("encode_category", "encode_functor",
                             "encode_nat_trans", "encode_monoidal",
                             "encode_braiding", "encode_mon_functor",
                             "encode_module", "encode_module_functor",
                             "encode_module_nattrans", "encode_span")),
    # argument parsing and dispatch
    "cli.main": ("cli", ("main",)),
}

# counts taken at a layer boundary, keyed by counter name
COUNTERS = ("fincat.product_category.square_morphisms",
            "spans.build_span.distinct_inputs", "docs.bytes_in",
            "docs.bytes_out", "cli.exit_0", "cli.exit_1", "cli.exit_2")


def _module_key(md) -> tuple:
    """Value key of a module: acting base, carrier, and the action tables."""
    under = md.action.underlying
    return (md.acting.base, md.carrier, under.object_map, under.morphism_map,
            md.action.mult, md.action.unit_iso)


def _span_input_key(fd) -> tuple:
    """Value key of a build_span input, cheap enough to take on every call."""
    return (_module_key(fd.dom), _module_key(fd.cod), fd.f.object_map,
            fd.f.morphism_map, tuple(t.components for t in fd.xi))


class Tracer:
    """Records spans around the LAYERS functions while installed."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._span_inputs: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._before = {"fincat.product_category": self._count_square,
                        "spans.build_span": self._count_span_input,
                        "docs.parse": self._count_bytes_in}
        self._after = {"docs.serialize": self._count_bytes_out,
                       "cli.main": self._count_exit}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function at every spanforge.* binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spanforge"
                                         or name.startswith("spanforge."))]
        for index, (layer, (module, functions)) in enumerate(LAYERS.items()):
            home = sys.modules["spanforge." + module]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(index, layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, index: int, layer: str, fn):
        layers, starts, ends, parents = (self.layer, self.start, self.end,
                                         self.parent)
        stack = self._stack
        clock = time.perf_counter
        before = self._before.get(layer)
        after = self._after.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = len(starts)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters taken at layer boundaries --------------------------------

    def _count_square(self, args, kwargs) -> None:
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        self.counts["fincat.product_category.square_morphisms"] += \
            a.num_morphisms * b.num_morphisms

    def _count_span_input(self, args, kwargs) -> None:
        key = _span_input_key(args[0] if args else kwargs["fd"])
        if key not in self._span_inputs:
            self._span_inputs.add(key)
            self.counts["spans.build_span.distinct_inputs"] += 1

    def _count_bytes_in(self, args, kwargs) -> None:
        text = args[0] if args else kwargs["text"]
        self.counts["docs.bytes_in"] += len(text.encode("utf-8"))

    def _count_bytes_out(self, text) -> None:
        self.counts["docs.bytes_out"] += len(text.encode("utf-8"))

    def _count_exit(self, code) -> None:
        key = f"cli.exit_{code}"
        if key in self.counts:
            self.counts[key] += 1

    # -- phases and summaries ---------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Start a phase: a position to summarise from, with a copy of the
        counters.  Distinct build_span inputs are counted per phase."""
        self._span_inputs.clear()
        return len(self.start), dict(self.counts)

    def summary(self, since: tuple[int, dict]) -> dict:
        """Per-layer self time and calls, root time and counter deltas for
        the spans recorded after ``since``."""
        first, counts0 = since
        n = len(self.names)
        self_s = [0.0] * n
        calls = [0] * n
        root_s = 0.0
        for span in range(first, len(self.start)):
            duration = self.end[span] - self.start[span]
            layer = self.layer[span]
            self_s[layer] += duration
            calls[layer] += 1
            parent = self.parent[span]
            if parent >= first:
                self_s[self.layer[parent]] -= duration
            else:
                root_s += duration
        return {
            "self_s": dict(zip(self.names, self_s)),
            "calls": dict(zip(self.names, calls)),
            "root_s": root_s,
            "counts": {k: self.counts[k] - counts0[k] for k in COUNTERS},
        }

    def write(self, path) -> int:
        """Write every span as [layer, start, end, parent]; returns the count."""
        origin = self.start[0] if self.start else 0.0
        rows = [[self.layer[i], round(self.start[i] - origin, 7),
                 round(self.end[i] - origin, 7), self.parent[i]]
                for i in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.names, "clock": "perf_counter",
                       "columns": ["layer", "start_s", "end_s", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))
            handle.write("\n")
        return len(rows)
