"""Span tracer that wraps the library's public functions from outside.

Each layer function is replaced, at every name under which an ``otclu``
module exposes it, by a wrapper that records a span: id, parent id,
name, start, end, self time and the operation it belongs to. Wrapping the
names callers look up (``otclu.trainer.compute_cost``, not only
``otclu.clustering.compute_cost``) is what makes the wrapper fire, because
``trainer`` imports the function by name. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import statistics
import sys
import time

# Span name -> (module, function). The span names are the per-layer metric prefixes.
SPANS = {
    "cloud.load_cloud": ("otclu.cloud", "load_cloud"),
    "cloud.normalize": ("otclu.cloud", "normalize"),
    "cloud.downsample_random": ("otclu.cloud", "downsample_random"),
    "cloud.export_labeled_ply": ("otclu.cloud", "export_labeled_ply"),
    "encoder.forward": ("otclu.encoder", "forward"),
    "encoder.backward": ("otclu.encoder", "backward"),
    "encoder.load_checkpoint": ("otclu.encoder", "load_checkpoint"),
    "clustering.compute_cost": ("otclu.clustering", "compute_cost"),
    "clustering.compute_prototypes": ("otclu.clustering", "compute_prototypes"),
    "clustering.assign_soft_labels": ("otclu.clustering", "assign_soft_labels"),
    "clustering.prototypes_backward": ("otclu.clustering", "prototypes_backward"),
    "clustering.sinkhorn": ("otclu.clustering", "sinkhorn"),
    "losses.total_loss": ("otclu.losses", "total_loss"),
    "trainer.e_step": ("otclu.trainer", "e_step"),
    "trainer.m_step": ("otclu.trainer", "m_step"),
    "trainer.pretrain": ("otclu.trainer", "pretrain"),
    "cli.main": ("otclu.cli", "main"),
}


class MissingLayer(RuntimeError):
    """An expected span never fired: a layer was renamed or bypassed."""


class Tracer:
    """Records spans for the wrapped functions; `op` tags the current operation."""

    def __init__(self):
        self.spans = []           # (id, parent_id, name, start, end, self_s, op)
        self.op = 0
        self.load_bytes = 0       # bytes of every file handed to load_cloud
        self.spread_over_eps_max = 0.0
        self._stack = []          # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched = []        # (module, attribute, original)

    # -- boundary counters, run after a span closes and excluded from self time
    def _count_load(self, args, kwargs):
        self.load_bytes += os.path.getsize(kwargs.get("path", args[0]))

    def _count_spread(self, args, kwargs):
        cost = kwargs.get("cost", args[0])
        eps = kwargs.get("epsilon", args[1] if len(args) > 1 else 1e-3)
        values = getattr(cost, "values", cost)
        spread = float(values.max() - values.min()) / eps
        if math.isfinite(spread):
            self.spread_over_eps_max = max(self.spread_over_eps_max, spread)

    def _wrap(self, fn, name, counter=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              end - start - frame[1], self.op))
                if counter is not None:
                    counter(args, kwargs)
                if stack:
                    stack[-1][1] += clock() - start

        return traced

    def install(self):
        """Wrap every otclu module attribute bound to a layer function."""
        counters = {"cloud.load_cloud": self._count_load,
                    "clustering.sinkhorn": self._count_spread}
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "otclu" or key.startswith("otclu.")) and m is not None]
        for name, (module_name, attr) in SPANS.items():
            fn = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(fn, name, counters.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def restore(self):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def check_fired(self, expected):
        """Raise MissingLayer naming every expected span that never ran."""
        fired = {span[2] for span in self.spans}
        missing = [name for name in expected if name not in fired]
        if missing:
            raise MissingLayer("expected layers never called: " + ", ".join(missing))

    def summary(self):
        """Per span: call count, total self seconds, median self ms per call."""
        per = {name: [] for name in SPANS}
        for span in self.spans:
            per[span[2]].append(span[5])
        out = {}
        for name, selfs in per.items():
            median = statistics.median(selfs) if selfs else 0.0
            out[name] = {"calls": len(selfs), "self_s": sum(selfs), "median_ms": 1e3 * median}
        return out

    def write(self, path):
        fields = ["id", "parent", "name", "start", "end", "self_s", "op"]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
