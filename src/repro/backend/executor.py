"""Graph executors: the reference backend and configurable vendor backends.

:class:`ReferenceExecutor` is the bit-faithful float64 interpreter — the
stand-in for the training framework's own inference path.

:class:`DeploymentExecutor` is a vendor-operator-library persona.  Its
:class:`BackendOptions` expose the implementation choices real accelerator
stacks make — storage/compute precision, tiled accumulation, conv+BN fusion,
fast transcendental approximations, and the ceil-mode / upsample-mode
conventions the SysNoise paper perturbs.  Three presets mirror the paper's
named deployment targets:

* ``gpu-fp16``     — TensorRT-style: fp16 storage, fused conv+BN, tiled GEMM;
* ``dsp``          — SNPE-style: fp32, hard sigmoid, erf gelu, polynomial
  exp, ceil-mode pooling;
* ``npu-bilinear`` — CANN-style: fp32, fused, bilinear upsample convention.

Every executor can retain intermediate activations (``keep_intermediates``)
so :mod:`repro.backend.compare` can localise where two backends diverge.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .ir import Graph, Node

__all__ = ["BackendOptions", "Executor", "ReferenceExecutor",
           "DeploymentExecutor", "BACKEND_PRESETS", "create_backend",
           "prepare_cached", "prepared_cache_stats", "clear_prepared_cache"]


@dataclass(frozen=True)
class BackendOptions:
    """Implementation choices of a deployment operator library."""

    dtype: str = "float32"              # float64 | float32 | float16
    accum_chunk: int | None = None      # tiled GEMM slab size (None = fused)
    fuse_conv_bn: bool = True           # fold BN into conv weights at load
    alt_gelu: bool = False              # erf-exact gelu (runtime uses tanh)
    fast_sigmoid: bool = False          # hard sigmoid (relu6(x+3)/6)
    fast_softmax: bool = False          # polynomial exp
    ceil_mode_override: bool | None = None     # force pooling shape convention
    upsample_mode_override: str | None = None  # force upsample interpolation

    @property
    def np_dtype(self):
        return {"float64": np.float64, "float32": np.float32,
                "float16": np.float16}[self.dtype]


#: Named vendor personas (see module docstring).
BACKEND_PRESETS: dict[str, BackendOptions] = {
    "reference": BackendOptions(dtype="float64", fuse_conv_bn=False),
    "gpu-fp16": BackendOptions(dtype="float16", accum_chunk=32,
                               fuse_conv_bn=True),
    "dsp": BackendOptions(dtype="float32", accum_chunk=16, fuse_conv_bn=True,
                          fast_sigmoid=True, alt_gelu=True,
                          fast_softmax=True, ceil_mode_override=True),
    "npu-bilinear": BackendOptions(dtype="float32", fuse_conv_bn=True,
                                   upsample_mode_override="bilinear"),
}


# ---------------------------------------------------------------------------
# Prepared-graph cache: load-time rewrites (e.g. conv+BN fusion) and compiled
# plans run once per (graph, key) pair instead of on every Executor.run()
# call.  Keys are never-recycled identity tokens (the object_token scheme
# shared with :mod:`repro.core.cache`), so a recycled ``id()`` can never
# serve a stale prepared graph.  The cache is a count- *and* byte-bounded
# LRU (the DecodeCache discipline): prepared graphs and plans carry whole
# weight sets, so an unbounded cache would pin every model a long-lived
# process (the serve layer, a sweep worker) ever touched.  Dead graphs are
# additionally evicted eagerly by a weakref finalizer.
# ---------------------------------------------------------------------------

#: Prepared-cache bounds.  Byte accounting counts each entry's initializer
#: bytes (pre-cast kernel weight copies scale with the same quantity);
#: tests may lower these to exercise eviction.
PREPARED_CACHE_ENTRIES = 64
PREPARED_CACHE_BYTES = 256 << 20

_PREPARED: "OrderedDict[tuple, object]" = OrderedDict()
_PREPARED_TOKENS: set[int] = set()    # tokens with a registered finalizer
_PREPARED_NBYTES = 0
_PREPARED_HITS = 0
_PREPARED_MISSES = 0
# Reentrant: _evict_token runs as a weakref finalizer, which the cyclic GC
# may fire on *this* thread mid-critical-section (any allocation can trigger
# a collection).  Re-entry is safe — a finalizer only pops the dead graph's
# own keys, never one a live caller is working on.
_PREPARE_LOCK = threading.RLock()


def _graph_token(graph: Graph) -> int:
    # Deferred import: repro.core pulls in the model/task layers, which the
    # backend package must not require at import time.
    from repro.core.cache import object_token
    return object_token(graph)


def _prepared_sizeof(value) -> int:
    """Approximate retained bytes of a prepared graph or compiled plan."""
    graph = getattr(value, "graph", value)
    inits = getattr(graph, "initializers", None)
    if not isinstance(inits, dict):
        return 0
    return sum(int(getattr(a, "nbytes", 0)) for a in inits.values())


def _evict_token(token: int) -> None:
    """weakref finalizer: drop every entry of a collected graph.

    It can run re-entrantly on this thread while the cache is being
    changed (dropping a cached value may drop the last reference to a
    graph), so a key it lists may already be gone: pop with a default and
    count only the bytes actually removed.
    """
    global _PREPARED_NBYTES
    with _PREPARE_LOCK:
        _PREPARED_TOKENS.discard(token)
        stale = [k for k in _PREPARED if k[0] == token]
        for k in stale:
            value = _PREPARED.pop(k, None)
            if value is not None:
                _PREPARED_NBYTES -= _prepared_sizeof(value)


def prepare_cached(graph: Graph, key, transform):
    """``transform(graph)`` memoised per (graph identity, ``key``).

    ``key`` is any hashable describing the transform's configuration —
    a :class:`BackendOptions` for load-time rewrites, a richer tuple for
    compiled plans (:func:`repro.backend.plan.compile_cached` delegates
    here).  Graphs are treated as immutable once executed — the standard
    contract everywhere in :mod:`repro.backend` (passes return new graphs).
    Misses compute outside the lock; two threads may race to prepare the
    same entry and the result is simply stored twice (preparation is pure).
    """
    global _PREPARED_NBYTES, _PREPARED_HITS, _PREPARED_MISSES
    token = _graph_token(graph)
    full_key = (token, key)
    with _PREPARE_LOCK:
        hit = _PREPARED.get(full_key)
        if hit is not None:
            _PREPARED_HITS += 1
            _PREPARED.move_to_end(full_key)
            return hit
        _PREPARED_MISSES += 1
    out = transform(graph)
    with _PREPARE_LOCK:
        if token not in _PREPARED_TOKENS:
            _PREPARED_TOKENS.add(token)
            weakref.finalize(graph, _evict_token, token)
        old = _PREPARED.pop(full_key, None)
        if old is not None:
            _PREPARED_NBYTES -= _prepared_sizeof(old)
        _PREPARED[full_key] = out
        _PREPARED_NBYTES += _prepared_sizeof(out)
        while len(_PREPARED) > PREPARED_CACHE_ENTRIES or (
                _PREPARED_NBYTES > PREPARED_CACHE_BYTES
                and len(_PREPARED) > 1):
            _, evicted = _PREPARED.popitem(last=False)
            _PREPARED_NBYTES -= _prepared_sizeof(evicted)
    return out


def prepared_cache_stats() -> dict:
    """Entry/byte/hit counters of the prepared-graph cache (for tests and
    the profiler's cache report)."""
    with _PREPARE_LOCK:
        return {"entries": len(_PREPARED), "bytes": _PREPARED_NBYTES,
                "hits": _PREPARED_HITS, "misses": _PREPARED_MISSES}


def clear_prepared_cache() -> None:
    """Drop every prepared graph/plan (tests; frees pinned weight copies)."""
    global _PREPARED_NBYTES, _PREPARED_HITS, _PREPARED_MISSES
    with _PREPARE_LOCK:
        # Hold the values until the cache is empty: a graph kept alive only
        # by a cached value would otherwise die inside ``clear()``, and its
        # finalizer would iterate the OrderedDict mid-clear (KeyError).
        doomed = list(_PREPARED.values())
        _PREPARED.clear()
        _PREPARED_NBYTES = 0
        _PREPARED_HITS = _PREPARED_MISSES = 0
    del doomed


def create_backend(name_or_options: "str | BackendOptions") -> "Executor":
    """Build an executor from a preset name or an options object."""
    if isinstance(name_or_options, str):
        if name_or_options == "reference":
            return ReferenceExecutor()
        try:
            opts = BACKEND_PRESETS[name_or_options]
        except KeyError:
            raise ValueError(f"unknown backend {name_or_options!r}; "
                             f"presets: {sorted(BACKEND_PRESETS)}") from None
        return DeploymentExecutor(opts)
    return DeploymentExecutor(name_or_options)


class Executor:
    """Base interpreter: evaluates a graph node by node.

    Subclasses customise per-op kernels by overriding ``run_node``; this base
    class owns value bookkeeping and intermediate retention.
    """

    name = "base"

    def __init__(self, keep_intermediates: bool = False):
        self.keep_intermediates = keep_intermediates
        self.intermediates: dict[str, np.ndarray] = {}

    def prepare(self, graph: Graph) -> Graph:
        """Hook for load-time graph rewriting (fusion etc.)."""
        return graph

    def compile(self, graph: Graph, optimize: bool = True):
        """Lower ``graph`` to a compiled :class:`~repro.backend.plan.ExecutionPlan`.

        The plan runs :meth:`prepare` (so backend-option rewrites such as
        conv+BN fusion still apply), then the bit-exact ``PLAN_PASSES``, and
        precomputes the whole schedule: bound per-node kernels, cast weights,
        and a liveness-analysed buffer plan.  ``plan.run`` / ``plan.run_batch``
        reproduce :meth:`run` bit for bit at a fraction of the dispatch cost.
        Plans are cached per (graph identity, backend options) — see
        :func:`repro.backend.plan.compile_cached`.
        """
        from .plan import compile_cached
        return compile_cached(graph, self, optimize=optimize)

    def run(self, graph: Graph, x: np.ndarray) -> np.ndarray:
        """Execute the graph on a batch and return the output array."""
        graph = self.prepare(graph)
        values: dict[str, np.ndarray] = {graph.input: self.cast_input(x)}
        self.intermediates = {}
        for node in graph.nodes:
            args = [values[v] if v in values else graph.initializers[v]
                    for v in node.inputs]
            out = self.run_node(node, args)
            values[node.output] = out
            if self.keep_intermediates:
                self.intermediates[node.name or node.output] = out
        return values[graph.output]

    __call__ = run

    def cast_input(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def run_node(self, node: Node, args: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError


def _run_reshape(node: Node, x: np.ndarray) -> np.ndarray:
    """ONNX-style reshape: 0 copies the input dim, -1 is inferred."""
    shape = tuple(x.shape[i] if s == 0 else s
                  for i, s in enumerate(node.attrs["shape"]))
    return x.reshape(shape)


class ReferenceExecutor(Executor):
    """Bit-faithful float64 interpreter — the training-system semantics."""

    name = "reference"

    def run_node(self, node: Node, args: list[np.ndarray]) -> np.ndarray:
        op = node.op
        a = node.attrs
        if op == "conv2d":
            x, w, *rest = args
            out = ops.conv2d(x, w, rest[0] if rest else None,
                             stride=a["stride"], padding=a["padding"],
                             dilation=a["dilation"], groups=a["groups"])
            if a.get("activation") == "relu":    # fuse_conv_relu peephole
                out = ops.relu(out)
            return out
        if op == "linear":
            x, w, *rest = args
            return ops.linear(x, w, rest[0] if rest else None)
        # Integer fast-path ops (lower_integer): exact code-space arithmetic,
        # identical bits under every executor — the deployment interpreter
        # deliberately has no override for them.
        if op == "qconv2d":
            x, w, ws, *rest = args
            return ops.qconv2d(x, w, ws, rest[0] if rest else None,
                               stride=a["stride"], padding=a["padding"],
                               dilation=a["dilation"], groups=a["groups"],
                               x_scale=a["x_scale"],
                               x_zero_point=a["x_zero_point"],
                               y_scale=a["y_scale"],
                               y_zero_point=a["y_zero_point"],
                               activation=a.get("activation"))
        if op == "qlinear":
            x, w, ws, *rest = args
            return ops.qlinear(x, w, ws, rest[0] if rest else None,
                               x_scale=a["x_scale"],
                               x_zero_point=a["x_zero_point"],
                               y_scale=a["y_scale"],
                               y_zero_point=a["y_zero_point"],
                               activation=a.get("activation"))
        if op == "qrelu":
            return np.maximum(args[0], a["zero_point"])
        if op == "batchnorm":
            return ops.batchnorm(*args, eps=a["eps"])
        if op == "relu":
            return ops.relu(args[0])
        if op == "gelu":
            # The training runtime (repro.nn) ships the tanh approximation,
            # so the *reference* semantics are tanh; the erf-exact form is a
            # deployment alternative (``BackendOptions.alt_gelu``).
            return ops.gelu_tanh(args[0])
        if op == "sigmoid":
            return ops.sigmoid(args[0])
        if op == "add":
            return args[0] + args[1]
        if op == "mul":
            return args[0] * args[1]
        if op == "maxpool":
            return ops.max_pool2d(args[0], a["kernel_size"], a["stride"],
                                  a["padding"], a["ceil_mode"])
        if op == "avgpool":
            return ops.avg_pool2d(args[0], a["kernel_size"], a["stride"],
                                  a["padding"], a["ceil_mode"])
        if op == "global_avgpool":
            return ops.global_avg_pool2d(args[0])
        if op == "upsample":
            return ops.upsample2d(args[0], a["scale_factor"], a["mode"])
        if op == "flatten":
            return args[0].reshape(args[0].shape[0], -1)
        if op == "reshape":
            return _run_reshape(node, args[0])
        if op == "softmax":
            return ops.softmax(args[0], axis=a["axis"])
        if op == "identity":
            return args[0]
        if op == "constant":
            return np.asarray(a["value"])
        if op == "clip":
            return np.clip(args[0], a["lo"], a["hi"])
        if op == "quantize_linear":
            q = np.round(args[0] / a["scale"]) + a["zero_point"]
            return np.clip(q, -128, 127)
        if op == "dequantize_linear":
            return (args[0] - a["zero_point"]) * a["scale"]
        if op == "layernorm":
            return ops.layernorm(args[0], args[1], args[2], eps=a["eps"])
        if op == "matmul":
            b = args[1]
            if a["transpose_b"]:
                b = np.swapaxes(b, -1, -2)
            return ops.matmul_accum(args[0], b)
        if op == "transpose":
            return args[0].transpose(a["perm"])
        if op == "concat":
            return np.concatenate(args, axis=a["axis"])
        if op == "slice":
            index = [slice(None)] * args[0].ndim
            index[a["axis"]] = slice(a["start"], a["stop"])
            return args[0][tuple(index)]
        if op == "mean":
            return args[0].mean(axis=a["axis"])
        if op == "expand_like":
            ref, value = args
            return np.broadcast_to(
                value, (ref.shape[0],) + value.shape[1:]).copy()
        if op == "scale":
            return args[0] * a["factor"]
        if op == "fused_elementwise":
            out = args[0]
            # Replay through self.run_node so subclasses apply their own
            # per-op kernels (fast sigmoid, dtype casts, ...) exactly as on
            # the unfused graph.
            for sub in a["chain"]:
                out = self.run_node(sub, [out])
            return out
        raise NotImplementedError(f"{self.name} backend: op {op!r}")


class DeploymentExecutor(ReferenceExecutor):
    """Vendor-style backend parameterised by :class:`BackendOptions`."""

    def __init__(self, options: BackendOptions | None = None,
                 keep_intermediates: bool = False):
        super().__init__(keep_intermediates)
        self.options = options or BackendOptions()
        self.name = f"deploy[{self.options.dtype}]"

    def prepare(self, graph: Graph) -> Graph:
        if self.options.fuse_conv_bn:
            from .passes import fuse_conv_bn
            graph = prepare_cached(graph, self.options, fuse_conv_bn)
        return graph

    def cast_input(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=self.options.np_dtype)

    def run_node(self, node: Node, args: list[np.ndarray]) -> np.ndarray:
        o = self.options
        dt = o.np_dtype
        a = node.attrs
        op = node.op
        if op == "conv2d":
            x, w, *rest = args
            out = ops.conv2d(x, w, rest[0] if rest else None,
                             stride=a["stride"], padding=a["padding"],
                             dilation=a["dilation"], groups=a["groups"],
                             dtype=dt, accum_chunk=o.accum_chunk)
            if a.get("activation") == "relu":
                out = ops.relu(out)
            return out
        if op == "linear":
            x, w, *rest = args
            return ops.linear(x, w, rest[0] if rest else None,
                              dtype=dt, accum_chunk=o.accum_chunk)
        if op == "batchnorm":
            return ops.batchnorm(*args, eps=a["eps"], dtype=dt)
        if op == "layernorm":
            return ops.layernorm(args[0], args[1], args[2], eps=a["eps"],
                                 dtype=dt)
        if op == "matmul":
            b = args[1]
            if a["transpose_b"]:
                b = np.swapaxes(b, -1, -2)
            return ops.matmul_accum(args[0], b, dtype=dt,
                                    accum_chunk=o.accum_chunk)
        if op == "gelu" and o.alt_gelu:
            return ops.gelu(args[0]).astype(dt, copy=False)
        if op == "sigmoid" and o.fast_sigmoid:
            return ops.hard_sigmoid(args[0])
        if op == "softmax" and o.fast_softmax:
            return ops.softmax_fast(args[0], axis=a["axis"])
        if op in ("maxpool", "avgpool") and o.ceil_mode_override is not None:
            node = node.with_attrs(ceil_mode=o.ceil_mode_override)
        if op == "upsample" and o.upsample_mode_override is not None:
            node = node.with_attrs(mode=o.upsample_mode_override)
        out = super().run_node(node, args)
        # Elementwise/pool outputs inherit input dtype; enforce storage dtype
        # so every intermediate round-trips through the backend's precision.
        return out.astype(dt, copy=False)
