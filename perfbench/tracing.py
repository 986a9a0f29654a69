"""Spans around the layer functions of one in-process `slelab check`.

The package is not instrumented; instead the names each module imports
from a lower layer are rebound to timing wrappers for the duration of one
run.  Spans (layer, start, end, parent) are kept in memory; a layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# (module, name it binds, layer the span is charged to)
HOOKS = (
    ("sampler", "normal_block", "core.normal_block"),
    ("commutation", "normal_block", "core.normal_block"),
    ("coupling", "normal_block", "core.normal_block"),
    ("sampler", "run_leg", "sampler.run_leg"),
    ("commutation", "run_leg", "sampler.run_leg"),
    ("sampler", "log_z_cols", "partition.log_z_cols"),
    ("coupling", "slit_real", "loewner.slit"),
    ("coupling", "slit_complex", "loewner.slit"),
    ("cli", "girsanov_check", "sampler.ensemble"),
    ("cli", "commutation_experiment", "commutation"),
    ("cli", "cross_variation_experiment", "coupling"),
    ("cli", "green_increment_check", "coupling"),
)
ROOT_LAYER = "cli"
LAYERS = ("core.normal_block", "sampler.run_leg", "partition.log_z_cols",
          "loewner.slit", "coupling", "commutation", "sampler.ensemble",
          ROOT_LAYER)

# modules whose map_chunks builds one process pool per multi-chunk call
_POOL_USERS = ("sampler", "commutation", "coupling")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent index]
        self._open: list[int] = []
        self.counts = {"normal_block.calls": 0, "normal_block.draws": 0,
                       "run_leg.path_steps": 0, "map_chunks.multi_chunk": 0}

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([layer, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            self._count(layer, args, kwargs, out)
            return out
        return traced

    def _count(self, layer, args, kwargs, out):
        if layer == "core.normal_block":
            self.counts["normal_block.calls"] += 1
            self.counts["normal_block.draws"] += int(out.size)
        elif layer == "sampler.run_leg":
            # run_leg(mode, kappa, exponent, h_weight, x, slot, normals, deltas, ...)
            normals = kwargs.get("normals", args[6] if len(args) > 6 else None)
            deltas = kwargs.get("deltas", args[7] if len(args) > 7 else None)
            self.counts["run_leg.path_steps"] += int(normals.shape[0]) * len(deltas)

    def _wrap_map_chunks(self, fn):
        @functools.wraps(fn)
        def counted(chunk_fn, tasks, *args, **kwargs):
            if len(tasks) > 1:
                self.counts["map_chunks.multi_chunk"] += 1
            return fn(chunk_fn, tasks, *args, **kwargs)
        return counted

    @contextmanager
    def installed(self, modules: dict):
        """Rebind the hooked names in `modules` (name -> module object)."""
        saved = []
        try:
            for mod, name, layer in HOOKS:
                saved.append((modules[mod], name, getattr(modules[mod], name)))
                setattr(modules[mod], name, self.wrap(layer, saved[-1][2]))
            for mod in _POOL_USERS:
                saved.append((modules[mod], "map_chunks",
                              getattr(modules[mod], "map_chunks")))
                setattr(modules[mod], "map_chunks",
                        self._wrap_map_chunks(saved[-1][2]))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _layer, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for k, (layer, start, end, _parent) in enumerate(self.spans):
            totals[layer] += (end - start) - covered[k]
        return totals

    def as_records(self) -> list[dict]:
        return [{"name": layer, "start": start, "end": end, "parent": parent}
                for layer, start, end, parent in self.spans]
