"""Span recorder that times gusim's layers from outside the package.

Each traced function is replaced, in every ``gusim`` module that binds it,
by a wrapper that records a span: name, start, end, parent span and trial
id. The trial id is the ``rng_seed`` of the scenario being processed, set
whenever ``generate_scenario`` returns. Spans stay in memory until the
caller writes them out with ``write_spans``.

A function that no longer exists is skipped and reported with zero calls,
so the benchmark keeps working when a later change removes it from the
package or takes it off the hot path.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed as layer spans. The module is where the
# function is defined; the wrapper is installed wherever it is bound.
TRACED = (
    ("gscm", "generate_scenario"),
    ("gscm", "channel_matrix"),
    ("scheduling", "build_v_matrix"),
    ("scheduling", "gus_select"),
    ("scheduling", "gwc_select"),
    ("localization", "perturb_and_rebuild"),
    ("rx", "zf_weights"),
    ("rx", "sum_rate"),
    ("rx", "channel_covariance"),
    ("rx", "mmse_estimate"),
    ("harness", "run_experiment"),
    ("harness", "write_results_csv"),
    ("harness", "write_manifest"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trial", "child_s")

    def __init__(self, span_id, name, start, parent, trial):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trial = trial
        self.child_s = 0.0


class Tracer:
    """Collects spans, per-function self time and call counts, and the
    layer counters the benchmark reports (columns, picks, fallbacks...)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.trial = None
        self._stack: list[Span] = []
        self._open: Counter = Counter()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def set_trial(self, trial) -> None:
        """Mark ``trial`` as the current trial, including the open span."""
        self.trial = trial
        if self._stack:
            self._stack[-1].trial = trial

    def under(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return self._open[name] > 0

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """Return ``fn`` wrapped so that each call records a span."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(tracer._next_id, name, tracer.clock(),
                        parent.id if parent else None, tracer.trial)
            tracer._next_id += 1
            tracer._stack.append(span)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            else:
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                span.end = tracer.clock()
                duration = span.end - span.start
                tracer._stack.pop()
                tracer._open[name] -= 1
                if parent is not None:
                    parent.child_s += duration
                tracer.self_s[name] += duration - span.child_s
                tracer.calls[name] += 1
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, traced=TRACED, hooks=None) -> None:
        """Wrap each ``(module, function)`` of ``package`` at every loaded
        module of the package that binds it. ``hooks`` maps a span name to
        ``(on_result, on_error)`` callbacks."""
        hooks = hooks or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name in traced:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write_spans(self, path) -> None:
        """Write one JSON array per span: id, name, start, end, parent, trial."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                     s.trial]) + "\n")
