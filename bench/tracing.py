"""Span tracing of cylwig's public functions, from outside the package.

``Tracer.installed`` rebinds each traced function in every ``cylwig`` module
namespace that holds it (``cylwig.phasespace.wigner_from_oam``,
``cylwig.analysis.wigner_from_oam``, ``cylwig.wigner_from_oam``, ...), so
calls between modules are seen as well as calls from the CLI.  Spans are kept
in memory with their parent id and job id; self time is a span's duration
minus the time covered by its children.

Peak allocation (tracemalloc, started and stopped around each marked call)
costs up to a millisecond per call, so it is measured by a tracer of its own
over one round, apart from the tracer whose spans give the times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _method(default):
    def name(args, kwargs):
        return kwargs.get("method", args[2] if len(args) > 2 else default)
    return name


def _bytes_of_path(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, name suffix from the call or None, attributes from the
# result or None, peak allocation wanted)
TARGETS = [
    ("states", "random_pure_state", None, None, False),
    ("states", "state_from_json", None, None, False),
    ("states", "density_from_json", None, None, False),
    ("states", "to_density", None, None, False),
    ("states", "angle_wavefunction_at", None, None, False),
    ("phasespace", "wigner_from_oam", None,
     lambda a, k, r: {"cells": int(r.values.size)}, True),
    ("phasespace", "wigner_from_angle", None, None, False),
    ("phasespace", "wigner_to_csv", None, lambda a, k, r: {"bytes": len(r)}, False),
    ("phasespace", "read_wigner", None, _bytes_of_path, False),
    ("phasespace", "overlap", None, None, False),
    ("phasespace", "reconstruct_density", _method("lstsq"),
     lambda a, k, r: {"ok": r.status == "ok"}, True),
    ("phasespace", "star_product", None, None, False),
    ("analysis", "negativity", None, None, False),
    ("analysis", "flatness_check", None, None, False),
    ("analysis", "hudson_certify", None,
     lambda a, k, r: {"conclusive": r.classification != "inconclusive"}, False),
    ("analysis", "report_to_json", None, None, False),
]


class Tracer:
    """In-memory span recorder.  A span is
    ``[id, parent, job, name, start_ns, end_ns, child_ns, attrs]``."""

    def __init__(self, measure_alloc: bool = False):
        self.measure_alloc = measure_alloc
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.job = -1

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.job, name, time.perf_counter_ns(), 0, 0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, attrs=None):
        span[5] = time.perf_counter_ns()
        span[7] = attrs
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[5] - span[4]

    @contextlib.contextmanager
    def job_span(self, name="cli"):
        """Root span of one job; each call starts a new job id."""
        self.job += 1
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, base, fn, suffix, attrs_of, track_alloc):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if suffix is None else f"{base}.{suffix(args, kwargs)}"
            span = tracer._open(name)
            alloc = track_alloc and tracer.measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            attrs = {"error": True}
            try:
                result = fn(*args, **kwargs)
                attrs = attrs_of(args, kwargs, result) if attrs_of else None
                return result
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    attrs = dict(attrs or {}, peak_alloc=peak)
                tracer._close(span, attrs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target in every loaded ``cylwig`` module, and restore
        the originals on exit."""
        modules = [m for n, m in sys.modules.items()
                   if n == "cylwig" or n.startswith("cylwig.")]
        restore = []
        try:
            for mod_name, fn_name, suffix, attrs_of, track_alloc in TARGETS:
                original = getattr(sys.modules[f"cylwig.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, suffix,
                                     attrs_of, track_alloc)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, t0, t1, child, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start_ns": t0, "end_ns": t1,
                                     "self_ns": t1 - t0 - child, "attrs": attrs}) + "\n")

    def aggregate(self):
        """Per span name: calls, busy and self seconds, summed attributes
        (``peak_alloc`` as the maximum) and counts of true flags."""
        out = defaultdict(lambda: defaultdict(float))
        for _, _, _, name, t0, t1, child, attrs in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["busy_s"] += (t1 - t0) * 1e-9
            agg["self_s"] += (t1 - t0 - child) * 1e-9
            for key, value in (attrs or {}).items():
                if key == "peak_alloc":
                    agg[key] = max(agg[key], value)
                else:
                    agg[key] += value
        return out
