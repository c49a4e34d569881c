"""The sweep engine: fan noise variants out, share every baseline.

A SysNoise sweep is embarrassingly parallel — every deployment variant is an
independent evaluation of the same trained model on the same dataset.
:class:`SweepEngine` evaluates those cells once each and assembles them into
rows in variant order, so every execution mode renders the same table:

* **Execution modes** — the default ``workers=None`` runs cells serially in
  order.  ``mode="thread"`` with ``workers=n`` fans them over a
  ``concurrent.futures.ThreadPoolExecutor`` (the heavy work is NumPy, which
  releases the GIL for its inner loops); the requested width is capped at
  the cores *available to the process* (affinity/cgroup aware, see
  :func:`available_cores`).  ``mode="shared"`` divides cells among the
  processes sharing one run directory through filesystem leases (see
  :mod:`repro.core.workqueue` and ``repro worker``).  Results are always
  assembled in variant order regardless of completion order.

* **Shared baselines** — every metric is memoised in a
  :class:`~repro.core.cache.EvalCache` keyed per
  ``(model, dataset, NoiseConfig)``, so the clean ``TRAIN_CONFIG``
  evaluation happens once per (model, dataset, seed) and is reused by
  ``sweep_noise``, every ``noise_row``, and ``worst_case_curve`` instead of
  being recomputed per row.

* **Fault isolation** — a raising ``evaluate()`` does not abort the sweep:
  the failing cell is retried up to the engine's ``retries`` budget, then
  recorded as a *structured failure* (a ``NaN`` value plus the exception
  text in :attr:`NoiseResult.errors`) while every surviving variant still
  lands in the row.  Failed cells render as ``!`` in
  :mod:`repro.core.report`.

* **Crash-safe persistence** — attach a
  :class:`~repro.core.runstore.RunLedger` and every completed evaluation is
  appended to the on-disk JSONL ledger as it finishes; ledger-complete
  cells are skipped on re-runs, which is what makes an interrupted sweep
  resumable to a bit-identical table.

* **Shard granularity** — construct the engine with ``shard_size`` (plus
  the ``task`` name) and every cell streams through the task adapter's
  shard pipeline: peak memory is bounded by one shard instead of the
  dataset, work is divided into ``(cell × shard)`` items whose partial
  :class:`~repro.core.metrics.MetricAccumulator` states merge order-free,
  and the ledger records per-*shard* entries so a crash mid-dataset
  resumes at shard granularity.  Serial and thread sweeps run a row's
  items *shard-major*: every cell finishes shard *k* before any starts
  shard *k+1*, and the cells on shard *k* share one decode of it per
  decoder persona through a cache that is dropped with the shard.  Shared
  workers claim the same items through leases.  Shard bounds are aligned
  to the adapter's inference minibatch size, which is what keeps sharded
  results bit-identical to the monolithic path (see
  :mod:`repro.core.datapipe`).

The module-level :func:`sweep_noise` / :func:`noise_row` /
:func:`worst_case_curve` keep their historical signatures and serial
defaults; pass ``engine=SweepEngine(workers=...)`` (or drive a
:class:`~repro.core.session.BenchmarkSession` with ``.workers(n)``) to
parallelise and to share one cache across calls.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cache import DecodeCache, EvalCache, dataset_token, eval_key
from .faults import fault_point
from .noise import NoiseConfig, TRAIN_CONFIG
from .registry import combined_config, get_noise, worst_case_stack

__all__ = ["NoiseResult", "SweepEngine", "SweepCancelled", "sweep_noise",
           "noise_row", "worst_case_curve", "available_cores"]

logger = logging.getLogger(__name__)


class SweepCancelled(RuntimeError):
    """Raised between evaluations when the engine's ``should_stop`` hook
    fires.

    Cancellation is *cooperative and item-granular*: the check runs before
    each evaluation — a whole cell, or one (cell × shard) item of a
    sharded sweep — and each shared-mode poll, never inside one, so
    every entry already in the run ledger is complete and the interrupted
    run resumes exactly like a crashed one — via ledger replay.  This is
    what lets a serving layer cancel a queued-behind job or drain on
    SIGTERM without torn state.
    """


def _err_str(exc: BaseException | None) -> str:
    """Ledger/row representation of an exception."""
    if exc is None:
        return "unknown failure"
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def available_cores() -> int:
    """CPU cores actually available to *this process*.

    ``os.process_cpu_count()`` (3.13+) and the scheduler affinity mask both
    see container/cgroup CPU limits that plain ``os.cpu_count()`` ignores —
    the seed cap happily built a 4-thread pool on a 1-core container.
    """
    count = getattr(os, "process_cpu_count", None)
    if count is not None:
        n = count()
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            n = os.cpu_count()
    return n or 1


@dataclass
class NoiseResult:
    """Δmetric statistics for one noise type on one model.

    Variants whose evaluation failed hold ``NaN`` in :attr:`values` and an
    exception string in :attr:`errors` (keyed by variant index); the Δ
    statistics are computed over the *surviving* variants only, so one bad
    cell degrades the row instead of poisoning it.
    """

    noise: str
    baseline: float
    values: list[float] = field(default_factory=list)   # metric per variant
    errors: dict[int, str] = field(default_factory=dict)  # idx -> exception

    @property
    def deltas(self) -> list[float]:
        return [self.baseline - v for v in self.values]

    def _ok_deltas(self) -> list[float]:
        return [self.baseline - v for i, v in enumerate(self.values)
                if i not in self.errors and not np.isnan(v)]

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    @property
    def all_failed(self) -> bool:
        """True when there are variants but none survived evaluation."""
        return bool(self.values) and not self._ok_deltas()

    @property
    def mean_delta(self) -> float:
        ok = self._ok_deltas()
        return float(np.mean(ok)) if ok else float("nan")

    @property
    def max_delta(self) -> float:
        ok = self._ok_deltas()
        return float(np.max(ok)) if ok else float("nan")


class SweepEngine:
    """Evaluates deployment-variant configs in parallel with shared caching.

    ``evaluate(model, ds, cfg) -> metric`` is any task evaluator — a bound
    :meth:`~repro.core.tasks.TaskAdapter.evaluate` or one of the legacy free
    functions.  The engine never mutates the model: evaluators already work
    on deployment copies, so concurrent variants are independent.

    ``retries`` is the per-cell retry budget: a raising evaluation is
    re-attempted that many extra times before being recorded as a
    structured failure.  ``ledger`` (a
    :class:`~repro.core.runstore.RunLedger`) makes the engine crash-safe:
    completed cells are appended to the on-disk ledger as they finish and
    skipped on re-runs; ``model_key`` is the stable model identity used in
    ledger keys (defaults to the model's class name).

    **Shard-mode contract**: with ``shard_size`` + ``task`` set, cells for
    shardable datasets are evaluated through the *task adapter's* streaming
    protocol (``evaluate_partials``, honouring ``batch_size`` and
    ``pipeline_cache``) — the caller-supplied ``evaluate`` callable is kept
    only for unshardable datasets.  Custom evaluation logic baked into the
    callable (wrapper metrics, non-default adapter kwargs such as a
    detection score threshold) does not reach the sharded path; drive such
    evaluations with ``shard_size=None``.
    """

    def __init__(self, workers: int | None = None,
                 eval_cache: EvalCache | None = None, mode: str = "thread",
                 retries: int = 0, ledger=None,
                 model_key: str | None = None,
                 shard_size: int | None = None, task: str | None = None,
                 batch_size: int | None = None, pipeline_cache=None,
                 should_stop=None, lease_ttl: float = 30.0,
                 max_claims: int = 3, mitigation: dict | None = None,
                 inference: str = "module", plan_predictor=None):
        if mode not in ("thread", "shared"):
            raise ValueError(f"mode must be 'thread' or 'shared' (multiple "
                             f"processes: 'shared' with `repro worker`), "
                             f"got {mode!r}")
        from .planner import INFERENCE_MODES
        if inference not in INFERENCE_MODES:
            raise ValueError(f"inference must be one of "
                             f"{list(INFERENCE_MODES)}, got {inference!r}")
        if inference == "plan" and task not in (None, "cls"):
            raise ValueError(
                f"inference='plan' is only wired for task 'cls' today "
                f"(got task={task!r}): other adapters' streaming "
                f"protocols have no predict hook yet")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if max_claims < 1:
            raise ValueError(f"max_claims must be >= 1, got {max_claims}")
        self.workers = workers
        self.mode = mode
        self.retries = retries
        self.ledger = ledger
        self.model_key = model_key
        #: Shard streaming: with ``shard_size`` and a registered ``task``,
        #: cells evaluate through the adapter's shard pipeline (bounded
        #: memory, per-shard ledger entries, (variant × shard) shared-mode
        #: claims).  ``pipeline_cache`` memoises the calibration slice
        #: and deployment-model copies; decoded data chunks live in a
        #: per-shard cache that is dropped once the shard's items finish.
        self.shard_size = shard_size
        self.task = task
        self.batch_size = batch_size
        self.pipeline_cache = pipeline_cache
        #: Zero-arg callable polled between cells (and between the shard
        #: items of a sharded sweep); returning True raises
        #: :class:`SweepCancelled` at the next such boundary.
        self.should_stop = should_stop
        #: ``mode="shared"``: multiple *processes* sharing one run directory
        #: divide (variant × shard) cells via filesystem leases — see
        #: :mod:`repro.core.workqueue` and ``docs/faults.md``.  ``lease_ttl``
        #: is how long a silent worker keeps its claims; ``max_claims`` is
        #: the per-cell claim budget before the cell is quarantined as
        #: failed-poisoned.
        self.lease_ttl = float(lease_ttl)
        self.max_claims = max_claims
        #: Mitigation identity dict (``{"name": ..., "params": {...}}``) or
        #: None.  It folds into both the cache key and the ledger key — a
        #: mitigated sweep never splices cells with an unmitigated one — and
        #: when the mitigation is *test-time* it also reroutes shard
        #: evaluation through :func:`repro.core.mitigations.mitigation_partials`
        #: (train-time mitigations change the model, not the eval loop).
        self.mitigation = mitigation
        if mitigation is None:
            self._test_mitigation = None
        else:
            from .mitigations import mitigation_stage
            stage = mitigation_stage(mitigation)
            self._test_mitigation = mitigation if stage == "test" else None
        #: Inference substrate: ``"module"`` (the training runtime's
        #: forward) or ``"plan"`` (a compiled ExecutionPlan, loaded from the
        #: run directory's artefact when present — see
        #: :mod:`repro.core.planner`).  The substrates differ at float
        #: rounding level, so the mode folds into every cache and ledger
        #: key — plan-mode cells never splice with module-mode ones.
        self.inference = inference
        if inference == "plan" and self._test_mitigation is not None:
            raise ValueError(
                "inference='plan' cannot combine with a test-time "
                "mitigation: the mitigation's streaming hook owns the "
                "predict path (run the mitigation row with the default "
                "module inference)")
        if inference == "plan" and plan_predictor is None:
            from .planner import PlanPredictor
            plan_predictor = PlanPredictor()
        self._plan_predictor = plan_predictor
        self._workqueue = None
        self._ledger_writes_failed = False
        self.eval_cache = eval_cache if eval_cache is not None else EvalCache()

    def _check_cancelled(self) -> None:
        if self.should_stop is not None and self.should_stop():
            raise SweepCancelled("sweep cancelled by should_stop hook")

    # -- scheduling ---------------------------------------------------------

    @property
    def effective_workers(self) -> int:
        """``workers`` capped at the cores available to this process.

        A pool wider than the hardware only adds contention (and on a
        single-core host any pool is pure overhead), so the requested width
        is a ceiling, not a promise.  The cap respects scheduler affinity /
        cgroup limits via :func:`available_cores`, not the raw machine core
        count.
        """
        if not self.workers:
            return 1
        return max(1, min(self.workers, available_cores()))

    def map(self, fn, items: list) -> list:
        """``[fn(x) for x in items]``, fanned out when workers are enabled.

        Output order always matches ``items`` order.
        """
        workers = self.effective_workers
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        logger.info("sweep fan-out: %d workers requested, %d effective "
                    "(cores available: %d, mode=thread)",
                    self.workers, workers, available_cores())
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    # -- one cell: cache -> ledger -> compute (with retry budget) -----------

    def _cache_key(self, model, ds, cfg):
        try:
            base = eval_key(model, ds, cfg)
        except TypeError:
            return None
        if self.inference != "module":
            # Plan-substrate metrics differ from module-forward ones at
            # float rounding level; never serve one for the other.
            base = (base, "inference", self.inference)
        if self.mitigation is None:
            return base
        from .runstore import config_digest
        return (base, "mitigation", config_digest(self.mitigation))

    def _ledger_key(self, model, ds, cfg) -> tuple | None:
        if self.ledger is None:
            return None
        token = dataset_token(ds)
        if not isinstance(token, str):
            # No content digest (dataset without encoded ``streams``): the
            # fallback identity token is a per-process counter, so a resumed
            # process could collide with a *different* dataset's entries.
            # No stable identity -> no ledger for this dataset.
            return None
        from .mitigations import mitigated_digest
        model_key = self.model_key or type(model).__name__
        digest = mitigated_digest(cfg, self.mitigation)
        if self.inference != "module":
            # The same folding rule as mitigations: the inference substrate
            # is part of the cell's identity, so a plan-mode worker can
            # never splice its cells into a module-mode run (or vice versa).
            from .runstore import config_digest
            digest = config_digest({"cfg": digest,
                                    "inference": self.inference})
        return (model_key, token, digest)

    def _ledger_hit(self, lkey) -> float | None:
        if lkey is None:
            return None
        entry = self.ledger.lookup(*lkey)
        return None if entry is None else float(entry["value"])

    def _ledger_record(self, lkey, **entry) -> None:
        """Best-effort ledger append: persistence failures (full disk,
        deleted run dir) must not abort a sweep the fault-isolation
        machinery exists to protect — the sweep degrades to unledgered.
        Writes are disabled after the first failure (the run can no longer
        be resumed past this point, which the warning says once)."""
        if lkey is None or self._ledger_writes_failed:
            return
        try:
            self.ledger.record_eval(*lkey, **entry)
        except Exception as exc:               # noqa: BLE001 — I/O errors
            self._ledger_writes_failed = True
            logger.warning("run ledger write failed (%s); continuing "
                           "without persistence — this run cannot be "
                           "resumed past the entries already on disk", exc)

    def _ledger_backfill(self, lkey, value: float, cfg: NoiseConfig,
                         noise: str | None) -> None:
        """Persist a cache-hit cell that the ledger has not seen yet."""
        if lkey is not None and self.ledger.lookup(*lkey) is None:
            self._ledger_record(lkey, status="ok", value=value,
                                noise=noise, label=cfg.describe(),
                                attempts=1)

    # -- shard streaming -----------------------------------------------------

    def _shard_plan(self, ds):
        """``(adapter, bounds)`` when this engine shards ``ds``, else None.

        Bounds are aligned to the adapter's inference minibatch size so each
        shard, evaluated in isolation, cuts its batches at the same global
        offsets the monolithic path does (the bit-exactness contract).
        """
        if self.shard_size is None or self.task is None:
            return None
        try:
            n = len(ds)
        except TypeError:
            return None
        if n <= 0:
            return None
        from .datapipe import DataShards, supports_sharding
        if not supports_sharding(ds):
            return None
        from .tasks import get_task
        adapter = get_task(self.task)
        shards = DataShards(ds, self.shard_size,
                            align=adapter.stream_align(self.batch_size))
        return adapter, shards.bounds

    def _ledger_shard_hit(self, lkey, start: int, stop: int) -> dict | None:
        """The ledgered accumulator state for one shard, or None."""
        if lkey is None:
            return None
        entry = self.ledger.lookup_shard(*lkey, start, stop)
        return None if entry is None else entry["state"]

    def _ledger_shard_record(self, lkey, start: int, stop: int, state: dict,
                             noise: str | None, cfg: NoiseConfig) -> None:
        """Best-effort per-shard ledger append (same degradation contract
        as :meth:`_ledger_record`)."""
        if lkey is None or self._ledger_writes_failed:
            return
        try:
            self.ledger.record_shard(*lkey, start=start, stop=stop,
                                     state=state, noise=noise,
                                     label=cfg.describe())
        except Exception as exc:               # noqa: BLE001 — I/O errors
            self._ledger_writes_failed = True
            logger.warning("run ledger write failed (%s); continuing "
                           "without persistence — this run cannot be "
                           "resumed past the entries already on disk", exc)

    def _partials(self, adapter, model, ds, cfg: NoiseConfig, bounds,
                  chunk_cache: DecodeCache | None = None):
        """Shard partials, routed through the test-time mitigation when set.

        Test-time mitigations adapt per inference batch and batches are cut
        at global offsets, so the results are identical for any shard split
        at fixed batch geometry — serial, thread and shared sweeps of the
        same mitigated cell stay bit-identical.  ``chunk_cache`` is where
        decoded data chunks are memoised (None decodes without caching).
        """
        if self._test_mitigation is not None:
            from .mitigations import mitigation_partials
            return mitigation_partials(
                self._test_mitigation, adapter, model, ds, cfg, bounds,
                cache=self.pipeline_cache, batch_size=self.batch_size,
                chunk_cache=chunk_cache)
        if self.inference == "plan":
            # The plan predict hook slots into the same per-batch seam as
            # test-time mitigations, so shard layouts stay bit-identical.
            return adapter.evaluate_partials(
                model, ds, cfg, bounds, cache=self.pipeline_cache,
                batch_size=self.batch_size, chunk_cache=chunk_cache,
                predict=self._plan_predictor.bind(model))
        return adapter.evaluate_partials(model, ds, cfg, bounds,
                                         cache=self.pipeline_cache,
                                         batch_size=self.batch_size,
                                         chunk_cache=chunk_cache)

    def _restore(self, adapter, ds, lkey, bounds):
        """``(accumulator, missing bounds)`` from the ledgered shard states.

        Ledger-complete shards are merged from their accumulator states, so
        only the missing shards are ever re-executed and a crash mid-dataset
        costs at most the shards in flight.  Merge order is irrelevant —
        accumulators key their partials by global item index (or sum exact
        integer counts).
        """
        acc = adapter.accumulator(ds)
        missing: list[tuple[int, int]] = []
        for start, stop in bounds:
            state = self._ledger_shard_hit(lkey, start, stop)
            if state is not None:
                acc.merge(adapter.accumulator(ds).load_state(state))
            else:
                missing.append((start, stop))
        return acc, missing

    def _run_sharded(self, plan, model, ds, cfgs: list[NoiseConfig],
                     names: list[str | None], keys: list, lkeys: list,
                     ) -> list[tuple[float, Exception | None]]:
        """Cells through the shard pipeline, shard-major: ``(value, error)``
        per cell; never raises except :class:`SweepCancelled`.

        The cells' pending (cell × shard) items run shard by shard over one
        ``effective_workers`` pool.  Every item on shard *k* reads its
        decoded chunk from a decode cache that lives only while shard *k*
        runs, so the cells decode each (shard, decoder persona) once between
        them and peak memory stays O(shard × decoder personas).  Each item
        appends its shard entry as it finishes, and a cell's eval entry is
        appended once its last shard has merged.  A raising item is retried
        on the same shard while its cell's ``retries`` budget lasts — the
        attempt count is one plus the cell's failures, as when each attempt
        re-ran the cell's missing shards — after which the cell is a
        structured failure and its later shards are skipped.
        """
        adapter, bounds = plan
        n = len(cfgs)
        accs, todo = [], {bound: [] for bound in bounds}
        left = [0] * n
        for i in range(n):
            acc, missing = self._restore(adapter, ds, lkeys[i], bounds)
            accs.append(acc)
            left[i] = len(missing)
            for bound in missing:
                todo[bound].append(i)
        failures = [0] * n
        out: list = [None] * n

        def finish(i: int) -> None:
            value = float(accs[i].value())
            if keys[i] is not None:
                self.eval_cache.put(keys[i], value)
            self._ledger_record(lkeys[i], status="ok", value=value,
                                noise=names[i], label=cfgs[i].describe(),
                                attempts=failures[i] + 1)
            out[i] = (value, None)

        chunk_cache = DecodeCache()         # one shard's decoded chunks

        def run(job) -> Exception | None:
            """One (cell × shard) item; returns the evaluation's exception
            (the loop below owns the retry budget)."""
            i, start, stop = job
            self._check_cancelled()
            try:
                for _s, _e, part in self._partials(adapter, model, ds,
                                                   cfgs[i], [(start, stop)],
                                                   chunk_cache):
                    pass
            except SweepCancelled:
                raise
            except Exception as exc:           # noqa: BLE001 — isolate cell
                return exc
            self._ledger_shard_record(lkeys[i], start, stop, part.state(),
                                      names[i], cfgs[i])
            accs[i].merge(part)
            return None

        for i in range(n):
            if not left[i]:        # fully restored cells skip model prep too
                finish(i)
        workers = min(self.effective_workers,
                      max(len(cells) for cells in todo.values()))
        pool = ThreadPoolExecutor(workers) if workers > 1 else None
        try:
            for (start, stop), cells in todo.items():
                live = [i for i in cells if out[i] is None]
                while live:
                    jobs = [(i, start, stop) for i in live]
                    errors = list(pool.map(run, jobs) if pool is not None
                                  else map(run, jobs))
                    retry = []
                    for i, exc in zip(live, errors):
                        if exc is None:
                            left[i] -= 1
                            if not left[i]:
                                finish(i)
                            continue
                        failures[i] += 1
                        logger.warning(
                            "evaluation failed (attempt %d/%d, %s @%d:%d): "
                            "%s", failures[i], self.retries + 1,
                            cfgs[i].describe(), start, stop, exc)
                        if failures[i] <= self.retries:
                            retry.append(i)
                            continue
                        self._ledger_record(lkeys[i], status="error",
                                            error=_err_str(exc),
                                            noise=names[i],
                                            label=cfgs[i].describe(),
                                            attempts=self.retries + 1)
                        out[i] = (float("nan"), exc)
                    live = retry
                chunk_cache.clear()        # shard k's chunks die with it
        finally:
            if pool is not None:
                pool.shutdown()
        return out

    def _lookup(self, key, lkey, cfg: NoiseConfig,
                noise: str | None) -> float | None:
        """A completed cell's value from the eval cache or the run ledger."""
        if key is not None:
            hit = self.eval_cache.get(key)
            if hit is not None:
                # A value cached before the store was attached still honours
                # the "every completed evaluation is on disk" contract.
                self._ledger_backfill(lkey, hit, cfg, noise)
                return hit
        hit = self._ledger_hit(lkey)
        if hit is not None and key is not None:
            self.eval_cache.put(key, hit)
        return hit

    def _eval_one(self, evaluate, model, ds, cfg: NoiseConfig,
                  noise: str | None = None) -> tuple[float, Exception | None]:
        """One cell -> ``(value, error)``; never raises.

        Order of authority: in-memory eval cache, then the run ledger
        (completed cells from an interrupted run), then computation with the
        retry budget.  Outcomes — successes *and* final failures — are
        appended to the ledger before returning, which is the crash-safety
        contract: a SIGKILL immediately after this call loses nothing.

        The one exception that *does* propagate is :class:`SweepCancelled`
        (raised before any work when the engine's ``should_stop`` hook
        fires) — cancellation is a caller decision, not a cell failure.
        """
        self._check_cancelled()
        key = self._cache_key(model, ds, cfg)
        lkey = self._ledger_key(model, ds, cfg)
        hit = self._lookup(key, lkey, cfg, noise)
        if hit is not None:
            return hit, None
        if self.mode == "shared" and lkey is not None:
            # Route even single cells (the baseline above all) through the
            # shared claim protocol, so N workers racing to start a run
            # compute the baseline exactly once between them.
            out = self._shared_map(evaluate, model, ds, [cfg], [noise])
            if out is not None:
                values, errors = out
                if 0 in errors:
                    return float("nan"), RuntimeError(errors[0])
                if key is not None:
                    self.eval_cache.put(key, values[0])
                return values[0], None
        plan = self._shard_plan(ds)
        if plan is not None:
            return self._run_sharded(plan, model, ds, [cfg], [noise], [key],
                                     [lkey])[0]
        last: Exception | None = None
        for attempt in range(1, self.retries + 2):
            try:
                value = float(evaluate(model, ds, cfg))
            except Exception as exc:           # noqa: BLE001 — isolate cell
                last = exc
                logger.warning(
                    "evaluation failed (attempt %d/%d, %s): %s",
                    attempt, self.retries + 1, cfg.describe(), exc)
                continue
            if key is not None:
                self.eval_cache.put(key, value)
            self._ledger_record(lkey, status="ok", value=value,
                                noise=noise, label=cfg.describe(),
                                attempts=attempt)
            return value, None
        self._ledger_record(lkey, status="error", error=_err_str(last),
                            noise=noise, label=cfg.describe(),
                            attempts=self.retries + 1)
        return float("nan"), last

    def evaluate(self, evaluate, model, ds, cfg: NoiseConfig,
                 noise: str | None = None) -> float:
        """One (model, dataset, config) metric through cache + ledger.

        Unlike the batch sweep paths this is *strict*: a final failure
        re-raises the original exception (after recording it), because a
        single-cell caller has no row for the failure to be isolated into.
        """
        value, error = self._eval_one(evaluate, model, ds, cfg, noise=noise)
        if error is not None:
            raise error
        return value

    def baseline(self, evaluate, model, ds) -> float:
        """The memoised clean-config metric for this (model, dataset).

        A failing *baseline* is fatal (strict): without it no Δ in the row
        is computable, so there is nothing to isolate.
        """
        return self.evaluate(evaluate, model, ds, TRAIN_CONFIG,
                             noise="baseline")

    def _map_configs(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                     noise_names: list[str | None] | None = None,
                     ) -> tuple[list[float], dict[int, str]]:
        """Evaluate ``cfgs`` with per-cell fault isolation.

        Returns ``(values, errors)``: values aligned with ``cfgs`` (``NaN``
        where evaluation ultimately failed) and ``errors`` mapping failed
        indices to exception strings.
        """
        names = noise_names or [None] * len(cfgs)
        if self.mode == "shared":
            out = self._shared_map(evaluate, model, ds, cfgs, names)
            if out is not None:
                return out
        plan = self._shard_plan(ds)
        if plan is None:
            results = self.map(
                lambda job: self._eval_one(evaluate, model, ds, job[1],
                                           noise=names[job[0]]),
                list(enumerate(cfgs)))
        else:
            self._check_cancelled()
            keys = [self._cache_key(model, ds, cfg) for cfg in cfgs]
            lkeys = [self._ledger_key(model, ds, cfg) for cfg in cfgs]
            hits = [self._lookup(*cell)
                    for cell in zip(keys, lkeys, cfgs, names)]
            pending = [i for i, hit in enumerate(hits) if hit is None]
            computed = iter(self._run_sharded(
                plan, model, ds, [cfgs[i] for i in pending],
                [names[i] for i in pending], [keys[i] for i in pending],
                [lkeys[i] for i in pending]))
            results = [(hit, None) if hit is not None else next(computed)
                       for hit in hits]
        values = [value for value, _ in results]
        errors = {i: _err_str(error)
                  for i, (_, error) in enumerate(results)
                  if error is not None}
        return values, errors

    # -- shared-run fan-out (lease-coordinated worker processes) ------------

    def _shared_queue(self):
        """The lease queue over this engine's run directory (lazy)."""
        if self._workqueue is None:
            from .workqueue import WorkQueue
            self._workqueue = WorkQueue(self.ledger.path,
                                        ttl=self.lease_ttl,
                                        max_attempts=self.max_claims)
        return self._workqueue

    @staticmethod
    def _cell_tag(lkey) -> str:
        """Short stable lease-item prefix for one (model, dataset, cfg)."""
        import hashlib
        return hashlib.sha256(repr(lkey).encode("utf-8")).hexdigest()[:16]

    def _shared_map(self, evaluate, model, ds, cfgs: list[NoiseConfig],
                    names: list[str | None],
                    ) -> tuple[list[float], dict[int, str]] | None:
        """Divide ``cfgs`` among the processes sharing this run directory.

        Every cell resolves through the ledger: a worker either claims the
        cell (a lease file, see :mod:`repro.core.workqueue`), computes it
        and appends the entry, or watches a peer's entry arrive via
        :meth:`~repro.core.runstore.RunLedger.refresh`.  Either way all
        workers converge on the identical (values, errors) row — the table
        a shared run renders is byte-identical to the serial one because
        the *data* that reaches it is identical.

        Returns None — falling back to the local path — when no ledger is
        attached or any cell has no stable ledger identity (without a
        shared ledger there is nothing to coordinate through).
        """
        if self.ledger is None:
            return None
        lkeys = [self._ledger_key(model, ds, cfg) for cfg in cfgs]
        if any(k is None for k in lkeys):
            return None
        wq = self._shared_queue()
        n = len(cfgs)
        values: list[float] = [float("nan")] * n
        errors: dict[int, str] = {}
        unresolved = set(range(n))
        poll = 0.05
        while unresolved:
            self._check_cancelled()
            if self._ledger_writes_failed:
                # We can no longer publish results, so we can no longer
                # coordinate: degrade to the local path (already-resolved
                # cells stay warm in the eval cache).  Peers whose writes
                # still work will reclaim our leases and finish the rest.
                logger.warning("shared mode degraded: ledger writes failed; "
                               "computing remaining cells locally")
                return None
            self.ledger.refresh()
            progressed = False
            for i in sorted(unresolved):
                out = self.ledger.outcome(*lkeys[i])
                if out is not None:
                    if out.get("status") == "ok":
                        values[i] = float(out["value"])
                        key = self._cache_key(model, ds, cfgs[i])
                        if key is not None:
                            self.eval_cache.put(key, values[i])
                    else:
                        errors[i] = str(out.get("error", "unknown failure"))
                    unresolved.discard(i)
                    progressed = True
                    continue
                if self._shared_cell(wq, evaluate, model, ds, cfgs[i],
                                     names[i], lkeys[i]):
                    progressed = True
            if unresolved and not progressed:
                # Everything left is leased to peers (or backing off):
                # wait, with exponential spacing so an idle watcher does
                # not hammer a filesystem that may be network-attached.
                time.sleep(poll)
                poll = min(2.0, poll * 2.0)
            else:
                poll = 0.05
        self._prune_if_complete(wq)
        return values, errors

    def _prune_if_complete(self, wq) -> None:
        """Retire lease-protocol state once every expected cell is terminal.

        Tombstones, ``.attempts`` sidecars, and expired leases exist to
        arbitrate *pending* work; once the run is complete (or failed) they
        are dead weight that a long-lived store accumulates forever.  Only
        whole-run completion is checked — this map call resolving is not
        enough, because a peer may still be computing cells of a different
        row.  Best-effort: pruning must never fail a sweep.
        """
        try:
            from .runstore import run_info
            if run_info(self.ledger)["status"] in ("complete", "failed"):
                wq.prune()
        except Exception:                      # noqa: BLE001 — housekeeping
            logger.debug("post-run lease prune failed", exc_info=True)

    def _shared_cell(self, wq, evaluate, model, ds, cfg: NoiseConfig,
                     noise: str | None, lkey) -> bool:
        """Try to advance one unresolved cell; True when progress was made.

        Sharded datasets are claimed at (cell × shard) granularity plus a
        final merge claim; unsharded cells are one ``eval-*`` claim.  Every
        successful claim re-checks the ledger before executing (the work
        may have completed between our read and our claim) and re-checks
        lease ownership (:meth:`~repro.core.workqueue.Lease.still_owned`)
        before recording — a worker whose lease expired mid-compute has
        been reclaimed and must discard its result, not double-record it.

        An in-process evaluation failure releases the claim *without*
        recording; the claim itself already burned one attempt in the
        shared sidecar, so crashes and raises draw from the same
        ``max_claims`` budget, after which the next claimer quarantines the
        cell (:meth:`_shared_poison`).
        """
        tag = self._cell_tag(lkey)
        plan = self._shard_plan(ds)
        progressed = False
        if plan is not None:
            adapter, bounds = plan
            missing = [(a, b) for a, b in bounds
                       if self._ledger_shard_hit(lkey, a, b) is None]
            for start, stop in missing:
                item = f"shard-{tag}-{start}-{stop}"
                lease = wq.try_claim(item)
                if lease is None:
                    continue
                try:
                    if self._ledger_shard_hit(lkey, start, stop) is not None:
                        continue               # a peer finished it meanwhile
                    if wq.poisoned(item):
                        self._shared_poison(wq, item, lkey, noise, cfg)
                        progressed = True
                        continue
                    fault_point("sweep.shard",
                                label=f"{cfg.describe()}@{start}:{stop}")
                    part = None
                    for _s, _e, p in self._partials(adapter, model, ds, cfg,
                                                    [(start, stop)]):
                        part = p
                    if part is not None and lease.still_owned():
                        self._ledger_shard_record(lkey, start, stop,
                                                  part.state(), noise, cfg)
                    progressed = True
                except SweepCancelled:
                    raise
                except Exception as exc:       # noqa: BLE001 — isolate cell
                    logger.warning("shared shard failed (%s @%d:%d): %s",
                                   cfg.describe(), start, stop, exc)
                    progressed = True
                finally:
                    lease.release()
            if missing:
                return progressed
            # All shards ledgered: one worker claims the merge.
            item = f"eval-{tag}"
            lease = wq.try_claim(item)
            if lease is None:
                return progressed
            try:
                self.ledger.refresh()
                if self.ledger.outcome(*lkey) is not None:
                    return True
                if wq.poisoned(item):
                    self._shared_poison(wq, item, lkey, noise, cfg)
                    return True
                # Every shard state is on disk — this is a pure merge.
                acc, _ = self._restore(adapter, ds, lkey, bounds)
                value = float(acc.value())
                if lease.still_owned():
                    key = self._cache_key(model, ds, cfg)
                    if key is not None:
                        self.eval_cache.put(key, value)
                    self._ledger_record(lkey, status="ok", value=value,
                                        noise=noise, label=cfg.describe(),
                                        attempts=wq.attempts(item))
                return True
            except SweepCancelled:
                raise
            except Exception as exc:           # noqa: BLE001 — isolate cell
                logger.warning("shared merge failed (%s): %s",
                               cfg.describe(), exc)
                return True
            finally:
                lease.release()
        item = f"eval-{tag}"
        lease = wq.try_claim(item)
        if lease is None:
            return False
        try:
            self.ledger.refresh()
            if self.ledger.outcome(*lkey) is not None:
                return True
            if wq.poisoned(item):
                self._shared_poison(wq, item, lkey, noise, cfg)
                return True
            try:
                fault_point("sweep.cell", label=cfg.describe())
                value = float(evaluate(model, ds, cfg))
            except SweepCancelled:
                raise
            except Exception as exc:           # noqa: BLE001 — isolate cell
                logger.warning("shared evaluation failed (%s): %s",
                               cfg.describe(), exc)
                return True
            if lease.still_owned():
                key = self._cache_key(model, ds, cfg)
                if key is not None:
                    self.eval_cache.put(key, value)
                self._ledger_record(lkey, status="ok", value=value,
                                    noise=noise, label=cfg.describe(),
                                    attempts=wq.attempts(item))
            return True
        finally:
            lease.release()

    def _shared_poison(self, wq, item: str, lkey, noise: str | None,
                       cfg: NoiseConfig) -> None:
        """Quarantine a cell whose claim budget is spent.

        ``attempts - 1`` prior claims each ended without a result (worker
        crashed, hung past its lease, or raised); instead of becoming
        casualty N+1, the current claimer records a terminal failed-
        poisoned entry so every worker's row resolves to a structured
        failure and the sweep completes.
        """
        prior = wq.attempts(item) - 1
        msg = f"poisoned: {prior} worker claim(s) died or failed"
        logger.error("quarantining cell %s (%s)", cfg.describe(), msg)
        self._ledger_record(lkey, status="error", error=msg, noise=noise,
                            label=cfg.describe(), attempts=prior)

    # -- sweep primitives ---------------------------------------------------

    def sweep_noise(self, evaluate, model, ds, noise: str,
                    baseline: float | None = None) -> NoiseResult:
        """Evaluate every deployment variant of one registered noise type."""
        src = get_noise(noise)
        if baseline is None:
            baseline = self.baseline(evaluate, model, ds)
        cfgs = [src.apply(TRAIN_CONFIG, v) for v in src.variants()]
        values, errors = self._map_configs(evaluate, model, ds, cfgs,
                                           [noise] * len(cfgs))
        return NoiseResult(noise, baseline, values, errors)

    def noise_row(self, evaluate, model, ds, noises,
                  skip: set[str] = frozenset(),
                  include_combined: bool = True) -> dict:
        """One table row: baseline metric + per-noise Δ stats (+ combined).

        All applicable (noise, variant) evaluations — and the combined
        config — are fanned out in one batch, then reassembled per noise.
        ``skip`` marks noise types inapplicable to this architecture,
        reported as None like the paper's "-".  A cell whose evaluation
        ultimately fails (see the engine's retry budget) lands as NaN in its
        :class:`NoiseResult` — surviving variants still produce the row; the
        renderer prints failed cells as ``!``.
        """
        baseline = self.baseline(evaluate, model, ds)
        applicable = [n for n in noises if n not in skip]
        jobs: list[NoiseConfig] = []
        names: list[str | None] = []
        spans: dict[str, tuple[int, int]] = {}
        for name in applicable:
            src = get_noise(name)
            cfgs = [src.apply(TRAIN_CONFIG, v) for v in src.variants()]
            spans[name] = (len(jobs), len(jobs) + len(cfgs))
            jobs.extend(cfgs)
            names.extend([name] * len(cfgs))
        if include_combined:
            jobs.append(combined_config(applicable))
            names.append("combined")
        values, errors = self._map_configs(evaluate, model, ds, jobs, names)

        row: dict = {"trained": baseline, "noises": {}}
        for name in noises:
            if name in skip:
                row["noises"][name] = None
                continue
            lo, hi = spans[name]
            row["noises"][name] = NoiseResult(
                name, baseline, values[lo:hi],
                {i - lo: err for i, err in errors.items() if lo <= i < hi})
        if include_combined:
            row["combined"] = baseline - values[-1]
            if len(jobs) - 1 in errors:
                row["combined_error"] = errors[len(jobs) - 1]
        return row

    def worst_case_curve(self, evaluate, model, ds,
                         noises) -> list[tuple[str, float]]:
        """Fig. 3: cumulative Δ as noises are stacked one at a time.

        The stacked configs are precomputed, so the evaluations themselves
        are independent and fan out like any other batch.  A failing stacked
        evaluation yields a NaN point; the rest of the curve survives.
        """
        wanted = set(noises)
        baseline = self.baseline(evaluate, model, ds)
        cfg = TRAIN_CONFIG
        names: list[str] = []
        cfgs: list[NoiseConfig] = []
        for src in worst_case_stack():
            if src.name not in wanted:
                continue
            cfg = src.apply(cfg, src.worst_variant)
            names.append(src.name)
            cfgs.append(cfg)
        values, _ = self._map_configs(evaluate, model, ds, cfgs,
                                      list(names))
        return [(name, baseline - value)
                for name, value in zip(names, values)]


# ---------------------------------------------------------------------------
# Module-level engines (historical signatures; serial, per-call cache)
# ---------------------------------------------------------------------------

def _default_engine(engine: SweepEngine | None) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


def sweep_noise(evaluate, model, ds, noise: str,
                baseline: float | None = None, *,
                engine: SweepEngine | None = None) -> NoiseResult:
    """Evaluate every deployment variant of one registered noise type.

    ``evaluate(model, ds, cfg) -> metric`` is any task evaluator — a bound
    :meth:`TaskAdapter.evaluate` or one of the legacy free functions.
    """
    return _default_engine(engine).sweep_noise(evaluate, model, ds, noise,
                                               baseline)


def noise_row(evaluate, model, ds, noises,
              skip: set[str] = frozenset(),
              include_combined: bool = True, *,
              engine: SweepEngine | None = None) -> dict:
    """One table row: baseline metric + per-noise Δ stats (+ combined).

    ``skip`` marks noise types inapplicable to this architecture (e.g.
    ceil mode on pool-free models), reported as None like the paper's "-".
    """
    return _default_engine(engine).noise_row(evaluate, model, ds, noises,
                                             skip, include_combined)


def worst_case_curve(evaluate, model, ds, noises, *,
                     engine: SweepEngine | None = None
                     ) -> list[tuple[str, float]]:
    """Fig. 3: cumulative Δ as noises are stacked one at a time."""
    return _default_engine(engine).worst_case_curve(evaluate, model, ds,
                                                    noises)
