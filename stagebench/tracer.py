"""Per-layer call counts and self times, recorded from outside the program.

The tracer replaces each layer function at every module binding that holds
it: the twkern modules import each other's functions by name, so patching
only the defining module would miss most calls.  Spans are aggregated per
layer as they close (calls, self time, layer-specific counts) instead of being
kept one by one, which keeps memory flat on workloads with hundreds of
thousands of calls.  A layer's self time is its wall-clock span minus the
spans of traced layers called beneath it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function) of every traced layer, named <module>.<function> in the
# output.  A layer the program no longer defines reads zero calls.
LAYERS = (
    ("treedec", "minfill_order"),
    ("treedec", "exact_treewidth"),
    ("protrusions", "iter_protrusions"),
    ("protrusions", "build_pd"),
    ("replacement", "replace_protrusion"),
    ("replacement", "kernelize"),
    ("replacement", "certify_pair"),
    ("replacement", "certificate_contexts"),
    ("replacement", "compute_signature"),
    ("graphs", "glue"),
    ("problems", "opt_fast"),
    ("enumeration", "canonical_key"),
    ("enumeration", "boundaried_universe"),
    ("dp", "run_dp"),
    ("harness", "reference_oracle"),
    ("modulators", "recursive_modulator"),
)

# layer-specific counts: layer -> {count name: f(args, kwargs, result) -> increment}
EXTRA_COUNTS = {
    "replacement.replace_protrusion": {
        "applied": lambda args, kwargs, result: int(result.graph.n < args[0].graph.n),
    },
    "replacement.certify_pair": {
        "probes": lambda args, kwargs, result: len(
            args[4] if len(args) > 4 else kwargs["contexts"]
        ),
    },
}


class _Stat:
    __slots__ = ("calls", "self_ns", "extra")

    def __init__(self, extra_names):
        self.calls = 0
        self.self_ns = 0
        self.extra = dict.fromkeys(extra_names, 0)


class Tracer:
    """Install with `install()`, run the work, then `remove()` and read
    `metrics()`."""

    PACKAGE = "twkern"

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[int] = []  # child span time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.PACKAGE or name.startswith(self.PACKAGE + "."))
        ]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, fn_name in LAYERS:
            name = f"{mod_name}.{fn_name}"
            extra = EXTRA_COUNTS.get(name, {})
            stat = self.stats[name] = _Stat(
                ("yielded",) if fn_name == "iter_protrusions" else tuple(extra)
            )
            home = sys.modules.get(f"{self.PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, stat)
            else:
                wrapper = self._wrap(original, stat, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _close_span(self, stat: _Stat, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        stat.self_ns += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, fn, stat: _Stat, extra: dict):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(stat, start)
            for key, count in extra.items():
                stat.extra[key] += count(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, stat: _Stat):
        """Time each resumption of the generator; the consumer's work between
        items belongs to the consumer."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(0)
                    start = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close_span(stat, start)
                    stat.extra["yielded"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_ns / 1e9, "s")
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = (value, "count")
            if "applied" in stat.extra:
                ratio = stat.extra["applied"] / stat.calls if stat.calls else 0.0
                out[f"{name}.applied_ratio"] = (ratio, "ratio")
        return out
