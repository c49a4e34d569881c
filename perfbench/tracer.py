"""Spans around repro's public calls, recorded from outside the program.

:class:`Tracer` keeps spans in memory, one stack per thread (the sweep
worker threads and the shard-prefetch thread each get their own), and
reduces every span to its *self* time as it closes: its duration minus
the part its child spans on the same thread cover.  :func:`instrument`
wraps each layer's public functions at the name the caller resolves (for
example ``repro.core.pipeline.decode_batch``, bound at import time) and
undoes every wrap on exit, so untraced runs execute unmodified code.

Only two call counters stay installed in untraced runs, through
:func:`counters`: compiled-plan batches and ledger appends.  The
workloads' self-checks need them, and they cost one integer add per
batch or per append.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory spans and counts, keyed by the current repetition."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(float)
        self.rep = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, names: tuple) -> bool:
        """Whether a span named in ``names`` is open on this thread."""
        return any(frame[1] in names for frame in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[(self.rep, name)] += n

    def begin(self, name: str) -> list:
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        # (id, parent id, name, thread, start, end, self seconds, rep);
        # list.append is atomic under the GIL.
        self.spans.append((frame[0], parent[0] if parent else None,
                           frame[1], threading.get_ident(), frame[2], end,
                           duration - frame[3], self.rep))

    def wrap(self, fn, name: str, *, on_return=None, skip_inside=()):
        """``fn`` inside a span; ``on_return(tracer, args, kwargs, out)``
        records counts.  Calls made inside a ``skip_inside`` span, or nested
        inside a span of the same name, are passed through unrecorded."""
        skip = tuple(skip_inside) + (name,)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.inside(skip):
                return fn(*args, **kwargs)
            frame = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(frame)
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out
        return wrapper

    def timed_iter(self, iterable, name: str):
        """Yield from ``iterable``, each ``next`` inside a span ``name`` on
        whichever thread pulls it."""
        it = iter(iterable)
        while True:
            frame = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(frame)
            yield item

    # -- reduction ------------------------------------------------------------

    def self_seconds(self, rep: int) -> dict:
        out: dict = defaultdict(float)
        for span in self.spans:
            if span[7] == rep:
                out[span[2]] += span[6]
        return out

    def durations(self, rep: int, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.spans if s[7] == rep
                and s[2] == name]

    def rep_counts(self, rep: int) -> dict:
        return {name: n for (r, name), n in self.counts.items() if r == rep}

    def dump(self, path) -> None:
        """Write every span as one JSON line (written once, at exit)."""
        keys = ("id", "parent", "name", "thread", "start", "end", "self_s",
                "rep")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def counters(tracer: Tracer):
    """Count compiled-plan batches and ledger appends (no timing)."""
    from repro.backend.plan import ExecutionPlan
    from repro.core.runstore import RunLedger

    def counting(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    patches = _Patches()
    try:
        patches.set(ExecutionPlan, "run",
                    counting(ExecutionPlan.run, "plan_runs"))
        patches.set(RunLedger, "append",
                    counting(RunLedger.append, "appends"))
        yield
    finally:
        patches.undo()


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced layer's public calls in spans for the block."""
    patches = _Patches()
    try:
        _install(tracer, patches)
        yield
    finally:
        patches.undo()


def _install(tracer: Tracer, patches: _Patches) -> None:
    import repro.backend
    import repro.backend.serialize
    import repro.core.datapipe
    import repro.core.pipeline as pipeline
    import repro.core.tasks as tasks
    import repro.nn
    from repro.backend.plan import ExecutionPlan
    from repro.core.cache import DecodeCache, EvalCache
    from repro.core.planner import PlanPredictor
    from repro.core.runstore import RunLedger
    from repro.core.sweep import SweepEngine

    jpeg = sys.modules["repro.image.jpeg"]
    resize = sys.modules["repro.image.resize"]
    wrap = tracer.wrap

    # -- image ------------------------------------------------------------
    def decoded(t, args, kwargs, out):
        t.count("image.decode_images", len(out))

    for owner in (pipeline, jpeg):
        patches.set(owner, "decode_batch",
                    wrap(getattr(owner, "decode_batch"), "image.decode",
                         on_return=decoded))
    patches.set(pipeline, "decode_with",
                wrap(pipeline.decode_with, "image.decode",
                     on_return=lambda t, a, k, out:
                     t.count("image.decode_images")))
    for owner in (pipeline, resize):
        patches.set(owner, "resize_batch",
                    wrap(getattr(owner, "resize_batch"), "image.resize"))
    patches.set(pipeline, "resize", wrap(pipeline.resize, "image.resize"))
    patches.set(pipeline, "color_roundtrip",
                wrap(pipeline.color_roundtrip, "image.color"))

    # -- core.cache: hit/miss counts at the public lookups ----------------
    orig_decode = DecodeCache.decode

    def cache_decode(self, streams, decoder, decode_fn):
        ran = []

        def compute(*args):
            ran.append(True)
            return decode_fn(*args)
        out = orig_decode(self, streams, decoder, compute)
        tracer.count("cache.decode_misses" if ran else "cache.decode_hits")
        return out
    patches.set(DecodeCache, "decode", cache_decode)

    orig_get = EvalCache.get

    def eval_get(self, key):
        out = orig_get(self, key)
        if out is not None:
            tracer.count("cache.eval_hits")
        return out
    patches.set(EvalCache, "get", eval_get)

    # -- core.pipeline ------------------------------------------------------
    for owner in (tasks, pipeline):
        patches.set(owner, "preprocess_dataset",
                    wrap(getattr(owner, "preprocess_dataset"),
                         "pipeline.preprocess"))
    # The streamed path produces its chunks on the prefetch thread:
    # time each chunk there, where its decode and resize spans nest.
    orig_prefetched = repro.core.datapipe.prefetched
    patches.set(repro.core.datapipe, "prefetched",
                lambda iterable, depth=1: orig_prefetched(
                    tracer.timed_iter(iterable, "pipeline.preprocess"),
                    depth))

    def copied(t, args, kwargs, out):
        if out is not args[0]:
            t.count("pipeline.model_copies")
    patches.set(pipeline, "apply_model_noise",
                wrap(pipeline.apply_model_noise, "pipeline.copy",
                     on_return=copied))

    # -- nn: outermost module calls only; training forwards stay in train --
    def forwarded(t, args, kwargs, out):
        t.count("nn.forward_batches")
    patches.set(repro.nn.Module, "__call__",
                wrap(repro.nn.Module.__call__, "nn.forward",
                     on_return=forwarded, skip_inside=("nn.train",)))
    patches.set(repro.nn, "train_classifier",
                wrap(repro.nn.train_classifier, "nn.train"))

    # -- backend --------------------------------------------------------------
    patches.set(ExecutionPlan, "run",
                wrap(ExecutionPlan.run, "backend.plan_run",
                     on_return=lambda t, a, k, out:
                     t.count("backend.plan_batches")))
    for name in ("export_module", "compile_plan"):
        patches.set(repro.backend, name,
                    wrap(getattr(repro.backend, name), "backend.compile"))
    patches.set(repro.backend.serialize, "save_plan",
                wrap(repro.backend.serialize.save_plan, "backend.plan_save"))

    # -- core.planner ---------------------------------------------------------
    orig_plan_for = PlanPredictor.plan_for

    def plan_for(self, model):
        compiles, loads = self.compiles, self.loads
        out = orig_plan_for(self, model)
        tracer.count("planner.compiles", self.compiles - compiles)
        tracer.count("planner.loads", self.loads - loads)
        return out
    patches.set(PlanPredictor, "plan_for", plan_for)

    # -- core.sweep: one span per cell, on the thread that runs it; every
    # cell (baseline, variants, Combined) enters through _eval_one --------
    patches.set(SweepEngine, "_eval_one",
                wrap(SweepEngine._eval_one, "sweep.cell"))

    # -- core.runstore --------------------------------------------------------
    patches.set(RunLedger, "append",
                wrap(RunLedger.append, "runstore.append"))
