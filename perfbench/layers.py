"""Spans around the calls the command line makes into each library layer.

The tracer replaces the layer functions that `cavent.cli` imported with
wrappers that record a span per call: id, parent id, invocation id, layer,
function, start and end (ns), whether it raised, and the terms it processed.
Only calls made from `cavent.cli` are wrapped, so calls a layer makes
internally (e.g. `entanglement_of_formation` -> `concurrence`) are inside the
caller's span and not counted twice.  The benchmark opens one `cli` span per
invocation, opened and closed right around `cavent.cli.main`; a span's self
time is its duration minus the durations of its child spans.  The wrapper's
own bookkeeping falls outside every child span, so it lands in the caller's
self time; `wrapper_cost_ns` measures it per call, so that the benchmark can
take it out of the `cli` self time.  A layer function that `cavent.cli` no
longer has is skipped (and listed in `Tracer.missing`): it reads as zero calls.

With `alloc=True` every ALLOC_EVERY-th call of each function (the first
included) also runs under tracemalloc, which records the peak of the memory
it allocates.  A call's allocations depend on the size of the photon
distribution, not on gt, so sampled calls give the peak of all of them, for
each distribution an invocation uses, while the rest run at full speed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from collections import defaultdict

# layer -> functions of that layer that cavent.cli calls
LAYERS = {
    "fields": ("coherent_distribution", "squeezed_distribution"),
    "dynamics": ("gamma_coefficients", "assemble_rho"),
    "entanglement": ("entanglement_of_formation", "concurrence"),
    "oracle": ("tripartite_state", "trace_out_field"),
}

# Per-call terms: the length of the photon distribution made or consumed.
_TERMS = {
    "coherent_distribution": lambda args, out: len(out.probs),
    "squeezed_distribution": lambda args, out: len(out.probs),
    "gamma_coefficients": lambda args, out: len(args[0].probs),
}

ALLOC_EVERY = 16

ID, PARENT, INVOCATION, LAYER, NAME, START, END, ERROR, TERMS = range(9)


class Tracer:
    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []
        self.invocation = -1
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self._alloc = alloc
        self._calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.missing: set[str] = set()

    def begin(self, layer: str, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self.invocation, layer, name, 0, 0, False, 0]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer: str, fn):
        terms = _TERMS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = self._alloc and self._calls[fn.__name__] % ALLOC_EVERY == 0
            self._calls[fn.__name__] += 1
            if alloc:
                tracemalloc.start()
            span = self.begin(layer, fn.__name__)
            try:
                out = fn(*args, **kwargs)
                if terms is not None:
                    span[TERMS] = terms(args, out)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                self.end(span)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[layer] = max(self.alloc_peak[layer], peak)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, module):
        """Wrap the layer functions bound in `module` for the duration of the block."""
        saved = {}
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                saved[name] = fn
                setattr(module, name, self.wrap(layer, fn))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def per_invocation(self) -> dict[int, dict]:
        """Self time (ns) per layer and function, and exact counts, per invocation."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[PARENT] is not None:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[int, dict] = {}
        for s in self.spans:
            inv = out.setdefault(s[INVOCATION], {"self_ns": defaultdict(int), "counts": defaultdict(int)})
            self_ns = s[END] - s[START] - child_ns[s[ID]]
            inv["self_ns"][s[LAYER]] += self_ns
            inv["self_ns"][s[NAME]] += self_ns
            if s[LAYER] != "cli":
                inv["counts"][f"{s[LAYER]}.calls"] += 1
                inv["counts"][f"{s[LAYER]}.terms"] += s[TERMS]
                inv["counts"][f"{s[LAYER]}.errors"] += s[ERROR]
        return out


def wrapper_cost_ns() -> float:
    """Median time (ns) one wrapped call adds to its caller's self time."""
    calls = 20_000
    costs = []
    for _ in range(5):
        probe = Tracer()
        noop = probe.wrap("probe", lambda: None)
        outer = probe.begin("cli", "probe")
        for _ in range(calls):
            noop()
        probe.end(outer)
        costs.append(probe.per_invocation()[-1]["self_ns"]["cli"] / calls)
    return statistics.median(costs)
