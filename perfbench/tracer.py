"""Process counters and in-memory spans recorded from outside the program.

Counters (minor page faults and CPU time from getrusage, GC time and
collections from gc.callbacks) are read around every operation, and around
every span in a traced run. Spans come from wrappers patched onto the
program's public functions at the name where the caller looks them up, so
nothing inside the package changes. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import time
from pathlib import Path

PROCESS_COUNTERS = ("minor_faults", "cpu_s", "gc_s", "gc_collections")


class Counters:
    """Cumulative process counters; snapshot() returns them as a tuple."""

    def __init__(self) -> None:
        self.gc_s = 0.0
        self.gc_n = 0
        self._gc_start = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_n += 1

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def snapshot(self) -> tuple[float, float, float, float]:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return (ru.ru_minflt, ru.ru_utime + ru.ru_stime, self.gc_s, self.gc_n)


def delta(before: tuple, after: tuple) -> dict:
    return {k: a - b for k, a, b in zip(PROCESS_COUNTERS, after, before)}


# (module, attribute, span name): the places where callers look up each
# public function, so a wrapper placed there sees every call
FUNCTION_TARGETS = (
    ("penscript.cli", "parse_recording", "dataio.parse_recording"),
    ("penscript.cli", "write_recording", "dataio.write_recording"),
    ("penscript.cli", "make_splits", "dataio.make_splits"),
    ("penscript.cli", "augment", "preprocess.augment"),
    ("penscript.cli", "interpolate", "preprocess.interpolate"),
    ("penscript.netcore.train", "interpolate", "preprocess.interpolate"),
    ("penscript.cli", "split_equation", "segment.split_equation"),
    ("penscript.metrics", "edit_distance", "metrics.edit_distance"),
    ("penscript.netcore.train", "ctc_loss", "losses.ctc_loss"),
    ("penscript.netcore.train", "greedy_decode", "losses.greedy_decode"),
    ("penscript.cli", "greedy_decode", "losses.greedy_decode"),
    ("penscript.cli", "beam_decode", "losses.beam_decode"),
    ("penscript.cli", "train", "netcore.train_loop"),
    ("penscript.cli", "save_checkpoint", "netcore.checkpoint_save"),
    ("penscript.cli", "load_checkpoint", "netcore.checkpoint_load"),
)
METHOD_TARGETS = (
    ("penscript.netcore.tensor", "Tensor", "backward", "netcore.backward"),
    ("penscript.netcore.optim", "Adam", "step", "netcore.adam_step"),
)


def count_tape_nodes(out) -> int:
    """Distinct tensors reachable from out through parent links."""
    seen = {id(out)}
    stack = [out]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Spans kept in memory: [name, parent, start, end, error, counters...]."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.tape_nodes: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, False, self.counters.snapshot(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = error
        span[6] = self.counters.snapshot()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx)
            return result

        return traced

    def _wrap_forward(self, fn):
        tracer = self

        def forward(model, batch, mode, *args, **kwargs):
            idx = tracer.open(f"netcore.forward_{mode}")
            try:
                out = fn(model, batch, mode, *args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx)
            # the walk is tracing work, kept in its own span so no layer pays it
            idx = tracer.open("trace.tape_walk")
            tracer.tape_nodes.append(count_tape_nodes(out))
            tracer.close(idx)
            return out

        return forward

    def install(self) -> None:
        for mod_name, attr, name in FUNCTION_TARGETS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name))
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name))
        model_cls = importlib.import_module("penscript.netcore.model").RecognitionModel
        self._patch(model_cls, "forward", self._wrap_forward(model_cls.forward))

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def self_times(self) -> tuple[dict, dict, dict, float]:
        """Per-name self seconds, call counts and error counts, plus the
        summed duration of the root spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        errors: dict[str, int] = {}
        root_s = 0.0
        for (name, parent, start, end, error, _, _), child in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
            calls[name] = calls.get(name, 0) + 1
            errors[name] = errors.get(name, 0) + int(error)
            if parent < 0:
                root_s += end - start
        return self_s, calls, errors, root_s

    def write(self, path: Path) -> None:
        """One JSON line per span: name, parent, start, end, error, counters."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, error, before, after) in enumerate(self.spans):
                rec = {"id": i, "name": name, "parent": parent, "start": start, "end": end, "error": error}
                rec.update(delta(before, after))
                f.write(json.dumps(rec) + "\n")
