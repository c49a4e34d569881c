"""The Table-2 workloads: classification rows through two session paths.

Both workloads run the Table-2 classification row of ``resnet18x0.25``
and ``vit-tiny`` over every ``CLS_NOISES`` variant plus Combined, on the
seeded synthetic 48 px q90 JPEG dataset at 32 px input.  Weights are fitted
in set-up; every timed repetition then builds fresh ``BenchmarkSession``
objects, so it pays decode and plan compile as a user's run does.

``table2_module``
    serial, in-process, monolithic, module inference, no store.
``table2_plan_stored``
    ``.inference("plan")``, ``.batch(32)``, ``.shards(32)``, a fresh
    ``.store(...)`` per repetition and ``.workers(2)``.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from host import PeakRss, StealShare, ceilings
from tracer import Tracer, counters, instrument

MODELS = ("resnet18x0.25", "vit-tiny")
N_TRAIN = 96
N_EVAL = 64
EPOCHS = 2
SHARD_SIZE = 32
WORKERS = 2
SETUP_REPEATS = 3

#: Plan ops that carry the models' arithmetic; movement ops are left out.
OPS = ("conv2d", "batchnorm", "relu", "add", "maxpool", "global_avgpool",
       "linear", "matmul", "layernorm", "gelu", "fused_elementwise")


class SelfCheckError(RuntimeError):
    """A workload did not exercise what it was chosen for."""


def table_body(text: str) -> list[str]:
    """A rendered table minus its title: the parity rule of bench_serve."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("Architecture"))
    return [line.rstrip() for line in lines[start:start + 3]]


def _skips(name: str) -> tuple:
    from repro.models import MODEL_ZOO
    zoo = {spec.name: spec for spec in MODEL_ZOO}
    return () if zoo[name].has_maxpool else ("ceil_mode",)


def _fit(seed: int):
    """Generate the dataset and fit both models: one user set-up."""
    from repro.core import BenchmarkSession
    from repro.data import make_classification_dataset
    ds = make_classification_dataset(n=N_TRAIN + N_EVAL, native_size=48,
                                     input_size=32, quality=90, seed=seed)
    train, val = ds.split(N_TRAIN)
    models = {}
    for name in MODELS:
        session = BenchmarkSession().task("cls").seed(seed).model(name)
        session.fit(train, epochs=EPOCHS)
        models[name] = session.trained_model
    return val, models


def _check_fitted(models: dict, seed: int) -> None:
    """An unfitted model is in train mode: every cell would deep-copy it
    and plan inference would fall back to the module forward."""
    from repro.models import create_model
    for name, model in models.items():
        fresh = create_model(name, num_classes=10, seed=seed)
        moved = any(not np.array_equal(a, fresh.state_dict()[k])
                    for k, a in model.state_dict().items())
        if model.training or not moved:
            raise SelfCheckError(f"set-up did not fit {name}: "
                                 f"training={model.training}, "
                                 f"weights moved={moved}")


def _session(name, model, val, path: str, store):
    from repro.core import CLS_NOISES, BenchmarkSession
    session = (BenchmarkSession().task("cls").model(model, label=name)
               .dataset(val).noises(*CLS_NOISES).skip(*_skips(name)))
    if path != "module":
        # Shard bounds align up to the inference batch, so the batch is
        # set to the shard size for the cells to stream in two shards; the
        # reference uses the same batch geometry.
        session.inference("plan").batch(SHARD_SIZE)
    if store is not None:
        session.shards(SHARD_SIZE).store(store).workers(WORKERS)
    return session


def _tables(models, val, path: str, store) -> tuple[dict, list]:
    """Run every model's row; ``(rendered bodies, SessionResults)``."""
    bodies, results = {}, []
    for name, model in models.items():
        result = _session(name, model, val, path, store).run()
        bodies[name] = table_body(result.render("Table 2"))
        results.append(result)
    return bodies, results


def _cells(result) -> tuple[int, int]:
    """``(attempted, failed)`` cells of one row."""
    attempted = 1 + sum(len(r.values) for r in result.results.values()
                        if r is not None)
    failed = sum(r.n_failed for r in result.results.values()
                 if r is not None)
    if result.combined is not None:
        attempted += 1
        failed += int(np.isnan(result.combined))
    return attempted, failed


def _ledger_bytes(store) -> int:
    return sum(p.stat().st_size for p in store.rglob("ledger.jsonl"))


def _self_check(workload: str, plan_runs: float, appends: float) -> None:
    stored = workload == "table2_plan_stored"
    if stored and not plan_runs:
        raise SelfCheckError(f"{workload}: no batch ran through a compiled "
                             f"plan (planner.plan_batch_share is 0)")
    if not stored and plan_runs:
        raise SelfCheckError(f"{workload}: {plan_runs:g} batches ran "
                             f"through a compiled plan")
    if stored and not appends:
        raise SelfCheckError(f"{workload}: no ledger append happened")
    if not stored and appends:
        raise SelfCheckError(f"{workload}: {appends:g} ledger appends on "
                             f"the unstored path")


def _layer_metrics(tracer: Tracer, rep: int, wall: float,
                   effective_workers: int, ledger_bytes: int) -> dict:
    own = tracer.self_seconds(rep)
    counts = tracer.rep_counts(rep)
    cells = tracer.durations(rep, "sweep.cell")
    appends = tracer.durations(rep, "runstore.append")
    plan_batches = counts.get("backend.plan_batches", 0)
    forward_batches = counts.get("nn.forward_batches", 0)
    batches = plan_batches + forward_batches
    return {
        "image.decode_s": own["image.decode"],
        "image.decode_images": counts.get("image.decode_images", 0),
        "image.resize_s": own["image.resize"],
        "image.color_s": own["image.color"],
        "cache.decode_hits": counts.get("cache.decode_hits", 0),
        "cache.decode_misses": counts.get("cache.decode_misses", 0),
        "cache.eval_hits": counts.get("cache.eval_hits", 0),
        "pipeline.preprocess_s": own["pipeline.preprocess"],
        "pipeline.model_copies": counts.get("pipeline.model_copies", 0),
        "pipeline.copy_s": own["pipeline.copy"],
        "nn.forward_s": own["nn.forward"],
        "nn.forward_batches": forward_batches,
        "backend.plan_run_s": own["backend.plan_run"],
        "backend.plan_batches": plan_batches,
        "backend.compile_s": own["backend.compile"],
        "backend.plan_save_s": own["backend.plan_save"],
        "planner.plan_batch_share": plan_batches / batches if batches else 0,
        "planner.compiles": counts.get("planner.compiles", 0),
        "planner.loads": counts.get("planner.loads", 0),
        "sweep.cells": len(cells),
        "sweep.cell_s_p50": statistics.median(cells) if cells else 0,
        "sweep.busy_share": sum(cells) / (effective_workers * wall),
        "runstore.appends": len(appends),
        "runstore.append_ms_p50": (statistics.median(appends) * 1e3
                                   if appends else 0),
        "runstore.append_s": own["runstore.append"],
        "runstore.ledger_bytes": ledger_bytes,
    }


def roofline(models: dict, val) -> dict:
    """Per-op time, GFLOP/s and GB/s from one instrumented plan pass per
    model at the workload's batch, joined with the static profile, next
    to the host ceilings."""
    from repro.backend import infer_shapes, profile_graph
    from repro.core import TRAIN_CONFIG
    from repro.core.pipeline import preprocess_dataset
    from repro.core.planner import PlanPredictor

    x = preprocess_dataset(val.streams, val.input_size,
                           TRAIN_CONFIG)[:SHARD_SIZE]
    batch = len(x)
    time_s = dict.fromkeys(OPS, 0.0)
    flops = dict.fromkeys(OPS, 0.0)
    nbytes = dict.fromkeys(OPS, 0.0)
    for model in models.values():
        plan = PlanPredictor().plan_for(model)
        shape = (None,) + x.shape[1:]
        profile = profile_graph(plan.graph, shape)
        shapes = infer_shapes(plan.graph, shape)
        plan.run(x)                       # warm kernels and buffers
        out, records = plan.run_instrumented(x)
        item = out.dtype.itemsize
        for node, op, rec in zip(plan.graph.nodes, profile.ops, records):
            if op.op not in time_s:
                continue
            acts = [shapes[v] for v in node.inputs
                    if v not in plan.graph.initializers]
            elements = sum(int(np.prod(s[1:])) for s in acts) \
                + int(np.prod(op.output_shape[1:]))
            time_s[op.op] += rec["time_s"]
            flops[op.op] += op.flops * batch
            nbytes[op.op] += (elements * batch + op.params) * item
    out = {}
    for op in OPS:
        t = time_s[op]
        out[f"backend.op.{op}.ms"] = t * 1e3
        out[f"backend.op.{op}.gflop_s"] = flops[op] / t / 1e9 if t else 0
        out[f"backend.op.{op}.gb_s"] = nbytes[op] / t / 1e9 if t else 0
    for name, value in ceilings().items():
        out[f"backend.ceiling.{name}"] = value
    return out


def run(workload: str, root, seed: int, seconds: float,
        trace: bool) -> dict:
    """Set up, check, and time one table workload; the record's fields."""
    from repro.core import SweepEngine

    path = "plan" if workload == "table2_plan_stored" else "module"
    stored = path == "plan"
    tracer = Tracer()

    # Set-up: dataset + fitted weights, repeated for a steady median.
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        if trace:
            tracer.rep = -1
            with instrument(tracer):
                val, models = _fit(seed)
        else:
            val, models = _fit(seed)
        setups.append(time.perf_counter() - start)
    train_s = tracer.self_seconds(-1)["nn.train"]
    _check_fitted(models, seed)
    # The reference: serial, monolithic, unstored, same substrate.
    reference, _ = _tables(models, val, path, None)

    workers = SweepEngine(workers=WORKERS).effective_workers if stored else 1
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    walls = {False: [], True: []}
    layers = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    rep = 0
    # Peak RSS over the whole measured window, as a user's process sees it.
    with PeakRss() as peak, StealShare() as steal:
        while (time.perf_counter() < deadline or not walls[False]
               or (trace and not walls[True])):
            rep += 1
            traced = trace and rep % 2 == 0
            tracer.rep = rep
            store = (Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
                     if stored else None)
            try:
                with counters(tracer), (instrument(tracer) if traced
                                        else contextlib.nullcontext()):
                    start = time.perf_counter()
                    bodies, results = _tables(models, val, path, store)
                    wall = time.perf_counter() - start
                counts = tracer.rep_counts(rep)
                _self_check(workload, counts.get("plan_runs", 0),
                            counts.get("appends", 0))
                ledger_bytes = _ledger_bytes(store) if stored else 0
            finally:
                if store is not None:
                    shutil.rmtree(store, ignore_errors=True)
            cells = [_cells(r) for r in results]
            rep_attempted = sum(a for a, _ in cells)
            rep_failed = sum(f for _, f in cells)
            if bodies != reference:
                rep_failed = rep_attempted
                mismatch = [n for n in MODELS if bodies[n] != reference[n]]
                print(f"table mismatch on rep {rep}: {mismatch}", flush=True)
            attempted += rep_attempted
            failed += rep_failed
            walls[traced].append(wall)
            if traced:
                layers.append(_layer_metrics(tracer, rep, wall, workers,
                                             ledger_bytes))

    record = {"attempted": attempted, "failed": failed,
              "steal_share": steal.share,
              "reps": {"untraced_s": walls[False], "traced_s": walls[True]}}
    if not trace:
        # Best of N: CPU steal on a shared host slows whole repetitions and
        # only ever adds time, so the fastest repetition is the least
        # disturbed reading (every wall is kept in the record).  Tables run
        # back to back, so throughput is its inverse.
        best = min(walls[False])
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "table_s": best,
            "jobs_per_s": 1 / best,
            "peak_rss_mb": peak.peak,
        }
        return record
    per_layer = {k: statistics.median(m[k] for m in layers)
                 for k in layers[0]}
    per_layer["nn.train_s"] = train_s
    per_layer["trace.overhead_share"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1)
    if stored:
        per_layer.update(roofline(models, val))
    record["metrics"] = per_layer
    record["tracer"] = tracer
    return record

