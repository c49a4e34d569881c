"""Task adapters: one uniform protocol over every benchmark workload.

A :class:`TaskAdapter` unifies what used to be one hand-written
``evaluate_*`` function (plus ad-hoc training glue) per task behind four
members::

    build_model(name, **kw)   -> untrained model
    load_dataset(**kw)        -> dataset object
    train(model, ds, **kw)    -> trained model (through the training pipeline)
    evaluate(model, ds, cfg)  -> metric (percent / MSE) under one NoiseConfig

Adapters self-register into a task registry via :func:`register_task`, so a
new workload is one file away from being sweepable through
:class:`~repro.core.session.BenchmarkSession` and visible to the CLI —
no edits to the benchmark drivers.

Built-ins cover the paper's tasks: classification (``cls``), detection
(``det``), segmentation (``seg``), NLP multiple-choice (``nlp``), and
text-to-speech audio (``audio``).

Every adapter also speaks the **streaming protocol**: ``accumulator(ds)``
builds the task's mergeable :class:`~repro.core.metrics.MetricAccumulator`
and ``evaluate_partials(model, ds, cfg, bounds)`` yields one partial
accumulator per ``[start, stop)`` shard, preparing the deployment model
once per call.  ``evaluate(..., shard_size=n)`` streams the whole dataset
through that protocol with peak memory bounded by one shard — and is
**bit-identical** to the monolithic path because inference minibatches are
always cut at global offsets (see :func:`repro.core.datapipe.rebatch`) and
INT8 calibration always pins to the *calibration shard*: the first
``n_calib`` items of the full dataset, whichever shard is being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Tensor, evaluate_classifier, no_grad

from .cache import DecodeCache, dataset_token
from .datapipe import rebatch
from .metrics import Accuracy, MeanAP, MeanIoU, MeanScores, MetricAccumulator
from .noise import NoiseConfig, TRAIN_CONFIG
from .pipeline import deployment_model, preprocess_dataset, preprocess_shards
from .registry import noises_for_task

__all__ = ["TaskAdapter", "register_task", "unregister_task", "get_task",
           "task_names", "NLPDataset"]

_TASKS: dict[str, "TaskAdapter"] = {}


def register_task(adapter):
    """Register a :class:`TaskAdapter` class (or instance); returns it."""
    inst = adapter() if isinstance(adapter, type) else adapter
    if not inst.name:
        raise ValueError("TaskAdapter needs a non-empty name")
    if inst.name in _TASKS:
        raise ValueError(f"task {inst.name!r} is already registered")
    _TASKS[inst.name] = inst
    return adapter


def unregister_task(name: str) -> None:
    _TASKS.pop(name, None)


def get_task(name: str) -> "TaskAdapter":
    try:
        return _TASKS[name]
    except KeyError:
        raise ValueError(f"unknown task {name!r}; see {list(_TASKS)}") from None


def task_names() -> list[str]:
    return list(_TASKS)


class TaskAdapter:
    """Protocol + base class for one benchmark workload."""

    name: str = ""
    metric_name: str = "metric"
    #: Noise names applicable beyond what the registry's task tags derive
    #: (e.g. audio supports precision although Table 1 scopes it to nlp).
    extra_noises: tuple[str, ...] = ()

    @property
    def noises(self) -> list[str]:
        """Applicable noise names — a live view over the noise registry."""
        derived = noises_for_task(self.name)
        return derived + [n for n in self.extra_noises if n not in derived]

    def build_model(self, name: str | None = None, *, seed: int = 0, **kw):
        raise NotImplementedError

    def load_dataset(self, **kw):
        raise NotImplementedError

    def train(self, model, ds, **kw):
        raise NotImplementedError

    #: Default evaluation minibatch size (None = whole dataset at once).
    default_batch_size: int | None = None

    #: Size of the designated *calibration shard*: INT8 calibration always
    #: runs on items [0, n_calib) of the full dataset — never on the shard
    #: under evaluation — so quantised deployment models are bit-identical
    #: whether the dataset is streamed, sharded across workers, or
    #: materialised whole.
    n_calib: int = 0

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None) -> float:
        raise NotImplementedError

    def _batch(self, batch_size: int | None) -> int | None:
        """Resolve the evaluation minibatch size for this adapter."""
        return batch_size if batch_size is not None else self.default_batch_size

    # -- streaming protocol --------------------------------------------------

    def stream_align(self, batch_size: int | None = None) -> int:
        """Shard-boundary alignment for independently scheduled work units.

        Per-sample model outputs are not invariant to minibatch composition
        (BLAS kernels round differently by shape), so a shard evaluated in
        isolation reproduces the monolithic floats only when it *starts* on
        a global minibatch boundary.  Image adapters therefore align shards
        to the effective batch size; per-item evaluators (NLP, audio) align
        to 1.
        """
        return 1

    def accumulator(self, ds) -> MetricAccumulator:
        """An empty mergeable accumulator for this task's metric."""
        raise NotImplementedError

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None):
        """Yield ``(start, stop, accumulator)`` per ``[start, stop)`` bound.

        The deployment model (calibrated on the calibration shard) is
        prepared once per call; each bound is then streamed through the
        task's metric accumulator.  ``cache`` memoises the calibration
        slice and the deployment-model copy; ``chunk_cache`` optionally
        memoises decoded data chunks (None keeps the stream cache-free;
        the sweep engine passes a cache that lives for one shard, which
        keeps peak memory bounded by the shard); ``chunk_size``
        sub-chunks the decode *within* each bound.  Bit-exact merging
        requires every ``start`` to obey :meth:`stream_align`.
        """
        raise NotImplementedError

    def evaluate_streaming(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG,
                           *, cache: DecodeCache | None = None,
                           batch_size: int | None = None,
                           shard_size: int | None = None,
                           chunk_cache: DecodeCache | None = None) -> float:
        """The metric via the shard pipeline — bit-identical to ``evaluate``.

        Streams the whole dataset as one pass of decode-shard-sized chunks
        (inference minibatches stay cut at global offsets, so any
        ``shard_size`` — 1, odd, larger than the dataset — reproduces the
        monolithic floats), with peak memory bounded by one shard.
        """
        acc = self.accumulator(ds)
        for _, _, part in self.evaluate_partials(
                model, ds, cfg, [(0, len(ds))], cache=cache,
                batch_size=batch_size, chunk_size=shard_size,
                chunk_cache=chunk_cache):
            acc.merge(part)
        return acc.value()


def _calibrator(streams, input_size, cache=None, n_calib=32):
    """INT8 calibration callable: run train-config inputs through the model.

    Slices the full-dataset clean-config batch (already memoised by the
    baseline evaluation) instead of decoding a separate stream subset.
    The streaming path passes ``streams[:n_calib]`` — the calibration
    shard — which pre-processes to the same bits (decode and resize are
    per-image), so the quantised model is identical either way.
    """
    def calibrate(model):
        x = preprocess_dataset(streams, input_size, TRAIN_CONFIG,
                               cache)[:n_calib]
        try:
            model(Tensor(x))
        except TypeError:      # LMs and detectors take raw arrays
            model.predict(x)
    return calibrate


class _ImageStreamMixin:
    """Shared streaming plumbing for adapters that consume encoded images."""

    def stream_align(self, batch_size: int | None = None) -> int:
        return self._batch(batch_size) or 1

    def _iter_batches(self, ds, cfg: NoiseConfig, start: int, stop: int,
                      batch: int | None, chunk_cache, chunk_size):
        """Preprocessed minibatches for items ``[start, stop)``.

        Yields ``(global_offset, float NCHW batch)`` with batches cut every
        ``batch`` items from ``start`` — equal to the global grid whenever
        ``start`` is aligned — while decode proceeds in ``chunk_size``
        chunks on a prefetch thread (decode of chunk *k+1* overlaps
        inference on chunk *k*).
        """
        chunks = preprocess_shards(ds.streams[start:stop], ds.input_size,
                                   cfg, chunk_cache, shard_size=chunk_size,
                                   offset=start, prefetch=True)
        return rebatch(chunks, batch)


def _predict_argmax(noised, xb):
    """Default classification predict: no-grad forward + argmax."""
    with no_grad():
        return noised(Tensor(xb)).data.argmax(axis=-1)


@register_task
class ClassificationAdapter(_ImageStreamMixin, TaskAdapter):
    """Top-1 accuracy (percent) on the synthetic ImageNet stand-in."""

    name = "cls"
    metric_name = "ACC"
    n_calib = 32

    def build_model(self, name: str | None = None, *, seed: int = 0,
                    num_classes: int = 10, **kw):
        from ..models import create_model
        return create_model(name or "resnet18x0.25", num_classes=num_classes,
                            seed=seed)

    def load_dataset(self, *, n: int = 160, native_size: int = 48,
                     input_size: int = 32, seed: int = 0, **kw):
        from ..data import make_classification_dataset
        return make_classification_dataset(n=n, native_size=native_size,
                                           input_size=input_size, seed=seed,
                                           **kw)

    def train(self, model, ds, cfg=None, *, model_name: str | None = None,
              pipeline_cfg: NoiseConfig = TRAIN_CONFIG, **cfg_kw):
        import repro.nn as nn
        if cfg is None:
            from ..models import family_of
            family = family_of(model_name) if model_name else None
            defaults = (dict(batch_size=32, lr=3e-3, optimizer="adam",
                             weight_decay=1e-4) if family in ("vit", "swin")
                        else dict(batch_size=32, lr=0.1, weight_decay=1e-4))
            defaults.update(cfg_kw)
            cfg = nn.TrainConfig(**defaults)
        x = preprocess_dataset(ds.streams, ds.input_size, pipeline_cfg)
        nn.train_classifier(model, x, ds.labels, cfg)
        return model

    default_batch_size = 64

    def _prepare(self, model, ds, cfg: NoiseConfig, cache, streams=None):
        # Calibration runs clean-config dataset inputs: its identity is the
        # dataset plus the input geometry.
        return deployment_model(
            model, cfg,
            calibrate=_calibrator(streams if streams is not None
                                  else ds.streams, ds.input_size, cache,
                                  n_calib=self.n_calib),
            cache=cache, calib_key=(dataset_token(ds), ds.input_size))

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None,
                 predict=None) -> float:
        if shard_size is not None:
            return self.evaluate_streaming(model, ds, cfg, cache=cache,
                                           batch_size=batch_size,
                                           shard_size=shard_size)
        x = preprocess_dataset(ds.streams, ds.input_size, cfg, cache)
        noised = self._prepare(model, ds, cfg, cache)
        if predict is not None:
            # Same hook as evaluate_partials: batches cut every ``batch``
            # items from offset 0 — the global grid — so monolithic and
            # sharded evaluations of a predict-hooked cell agree bitwise.
            noised.eval()
            acc = self.accumulator(ds)
            batch = self._batch(batch_size) or len(x)
            for s in range(0, len(x), batch):
                acc.update(predict(noised, x[s:s + batch]),
                           ds.labels[s:s + batch])
            return acc.value()
        return evaluate_classifier(noised, x, ds.labels,
                                   batch_size=self._batch(batch_size))

    def accumulator(self, ds) -> Accuracy:
        return Accuracy()

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None,
                          predict=None):
        # The calibration shard (streams[:n_calib]) pre-processes to the
        # same bits as the monolithic full-dataset slice.
        #
        # ``predict(deployment_model, xb) -> labels`` is the test-time
        # mitigation hook: because minibatches are cut at global offsets
        # and shards align to the batch grid, any per-batch predict (e.g.
        # episodic TENT) stays bit-identical across shard layouts.
        noised = self._prepare(model, ds, cfg, cache,
                               streams=ds.streams[:self.n_calib])
        noised.eval()
        if predict is None:
            predict = _predict_argmax
        batch = self._batch(batch_size) or len(ds)
        for start, stop in bounds:
            acc = self.accumulator(ds)
            for off, xb in self._iter_batches(ds, cfg, start, stop,
                                              batch, chunk_cache,
                                              chunk_size):
                acc.update(predict(noised, xb),
                           ds.labels[off:off + len(xb)])
            yield start, stop, acc


@register_task
class DetectionAdapter(_ImageStreamMixin, TaskAdapter):
    """mAP (percent) on the synthetic COCO stand-in."""

    name = "det"
    metric_name = "mAP"
    score_threshold = 0.3

    def build_model(self, name: str | None = None, *, seed: int = 0,
                    backbone: str = "resnet-34", num_classes: int = 3,
                    fpn_channels: int = 12, **kw):
        from ..detection import FasterRCNNLite, RetinaNetLite
        cls = FasterRCNNLite if name == "rcnn" else RetinaNetLite
        return cls(backbone=backbone, num_classes=num_classes,
                   fpn_channels=fpn_channels, seed=seed)

    def load_dataset(self, *, n: int = 40, size: int = 48, seed: int = 0,
                     max_objects: int = 2, **kw):
        from ..data import make_detection_dataset
        return make_detection_dataset(n=n, size=size, seed=seed,
                                      max_objects=max_objects, **kw)

    def train(self, model, ds, cfg=None, *,
              pipeline_cfg: NoiseConfig = TRAIN_CONFIG, **cfg_kw):
        from ..detection import DetTrainConfig
        from ..detection.retinanet import train_detector
        if cfg is None:
            defaults = dict(epochs=10, batch_size=8, lr=4e-3)
            defaults.update(cfg_kw)
            cfg = DetTrainConfig(**defaults)
        x = preprocess_dataset(ds.streams, ds.input_size, pipeline_cfg)
        train_detector(model, x, ds.gt_boxes, cfg)
        return model

    default_batch_size = 16
    n_calib = 16

    def _prepare(self, model, ds, cfg: NoiseConfig, cache,
                 threshold: float, calib_x=None):
        def calibrate(m):
            x = (calib_x if calib_x is not None
                 else preprocess_dataset(ds.streams[:self.n_calib],
                                         ds.input_size, cfg, cache))
            m.predict(x[:self.n_calib], score_threshold=threshold)

        # Calibration uses the *current* config's preprocessed batch, so the
        # whole config (and threshold) is part of the calibration identity.
        return deployment_model(model, cfg, calibrate=calibrate,
                                cache=cache,
                                calib_key=(dataset_token(ds), cfg,
                                           threshold))

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None,
                 score_threshold: float | None = None) -> float:
        threshold = (self.score_threshold if score_threshold is None
                     else score_threshold)
        if shard_size is not None:
            if threshold != self.score_threshold:
                raise ValueError("streamed detection evaluation uses the "
                                 "adapter's score_threshold; pass "
                                 "shard_size=None for a custom threshold")
            return self.evaluate_streaming(model, ds, cfg, cache=cache,
                                           batch_size=batch_size,
                                           shard_size=shard_size)
        from ..detection.map_eval import mean_average_precision
        x = preprocess_dataset(ds.streams, ds.input_size, cfg, cache)
        noised = self._prepare(model, ds, cfg, cache, threshold, calib_x=x)
        step = self._batch(batch_size) or len(x)
        dets = []
        for s in range(0, len(x), step):
            dets.extend(noised.predict(x[s:s + step],
                                       score_threshold=threshold))
        return mean_average_precision(dets, ds.gt_boxes, ds.num_classes)

    def accumulator(self, ds) -> MeanAP:
        return MeanAP(ds.num_classes)

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None):
        threshold = self.score_threshold
        # The calibration shard's preprocessed slice is bit-identical to the
        # monolithic x[:n_calib], so the deployment model matches too.
        noised = self._prepare(model, ds, cfg, cache, threshold)
        batch = self._batch(batch_size) or len(ds)
        for start, stop in bounds:
            acc = self.accumulator(ds)
            for off, xb in self._iter_batches(ds, cfg, start, stop, batch,
                                              chunk_cache, chunk_size):
                dets = noised.predict(xb, score_threshold=threshold)
                for j, d in enumerate(dets):
                    acc.update(off + j, d, ds.gt_boxes[off + j])
            yield start, stop, acc


@register_task
class SegmentationAdapter(_ImageStreamMixin, TaskAdapter):
    """mIoU (percent) on the synthetic Cityscapes stand-in."""

    name = "seg"
    metric_name = "mIoU"
    n_calib = 8

    def build_model(self, name: str | None = None, *, seed: int = 0,
                    num_classes: int = 4, **kw):
        from ..segmentation import create_segmenter
        return create_segmenter(name or "unet", num_classes=num_classes,
                                seed=seed)

    def load_dataset(self, *, n: int = 24, size: int = 32, seed: int = 0, **kw):
        from ..data import make_segmentation_dataset
        return make_segmentation_dataset(n=n, size=size, seed=seed, **kw)

    def train(self, model, ds, cfg=None, *,
              pipeline_cfg: NoiseConfig = TRAIN_CONFIG, **cfg_kw):
        from ..segmentation import SegTrainConfig
        from ..segmentation.miou import train_segmenter
        if cfg is None:
            defaults = dict(epochs=10, batch_size=8, lr=5e-3)
            defaults.update(cfg_kw)
            cfg = SegTrainConfig(**defaults)
        x = preprocess_dataset(ds.streams, ds.input_size, pipeline_cfg)
        train_segmenter(model, x, ds.labels, cfg)
        return model

    default_batch_size = 8

    def _prepare(self, model, ds, cfg: NoiseConfig, cache, calib_x=None):
        def calibrate(m):
            x = (calib_x if calib_x is not None
                 else preprocess_dataset(ds.streams[:self.n_calib],
                                         ds.input_size, cfg, cache))
            m(Tensor(x[:self.n_calib]))

        # Calibration uses the current config's preprocessed batch.
        noised = deployment_model(model, cfg, calibrate=calibrate,
                                  cache=cache,
                                  calib_key=(dataset_token(ds), cfg))
        noised.eval()
        return noised

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None) -> float:
        if shard_size is not None:
            return self.evaluate_streaming(model, ds, cfg, cache=cache,
                                           batch_size=batch_size,
                                           shard_size=shard_size)
        from ..segmentation.miou import mean_iou
        x = preprocess_dataset(ds.streams, ds.input_size, cfg, cache)
        noised = self._prepare(model, ds, cfg, cache, calib_x=x)
        step = self._batch(batch_size) or len(x)
        preds = []
        with no_grad():
            for s in range(0, len(x), step):
                preds.append(noised(Tensor(x[s:s + step])).data.argmax(axis=1))
        return mean_iou(np.concatenate(preds), ds.labels, ds.num_classes)

    def accumulator(self, ds) -> MeanIoU:
        return MeanIoU(ds.num_classes)

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None):
        # Calibration-shard preprocessing is bit-identical to the monolithic
        # x[:n_calib] slice; per-shard confusion matrices sum exactly.
        noised = self._prepare(model, ds, cfg, cache)
        batch = self._batch(batch_size) or len(ds)
        for start, stop in bounds:
            acc = self.accumulator(ds)
            with no_grad():
                for off, xb in self._iter_batches(ds, cfg, start, stop,
                                                  batch, chunk_cache,
                                                  chunk_size):
                    pred = noised(Tensor(xb)).data.argmax(axis=1)
                    acc.update(pred, ds.labels[off:off + len(xb)])
            yield start, stop, acc


@dataclass
class NLPDataset:
    """A multiple-choice task plus the corpus used for INT8 calibration."""

    task: object                        # MultipleChoiceTask
    calib_corpus: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.task)

    def subset(self, start: int, stop: int) -> "NLPDataset":
        """Item slice; the calibration corpus rides whole (it *is* the
        calibration shard — every slice must quantise identically)."""
        return NLPDataset(self.task.subset(start, stop), self.calib_corpus)


@register_task
class NLPAdapter(TaskAdapter):
    """Multiple-choice accuracy (percent) under data-precision noise."""

    name = "nlp"
    metric_name = "ACC"

    def build_model(self, name: str | None = None, *, seed: int = 0,
                    vocab_size: int = 48, **kw):
        from ..nlp import create_lm
        return create_lm(name or "opt-125m", vocab_size=vocab_size, seed=seed)

    def load_dataset(self, *, task: str = "piqa", n: int = 20, seed: int = 0,
                     **kw) -> NLPDataset:
        from ..data import make_nlp_suite
        grammar, tasks = make_nlp_suite(n_per_task=n, seed=seed, **kw)
        calib = grammar.corpus(n_sequences=32, length=20, seed=seed + 7)
        return NLPDataset(tasks[task], calib)

    def train(self, model, ds, cfg=None, *, corpus=None, **cfg_kw):
        from ..nlp import LMTrainConfig, train_lm
        if corpus is None:
            if getattr(ds, "calib_corpus", None) is None:
                raise ValueError("NLP training needs a token corpus")
            corpus = ds.calib_corpus
        if cfg is None:
            defaults = dict(epochs=10, batch_size=32)
            defaults.update(cfg_kw)
            cfg = LMTrainConfig(**defaults)
        train_lm(model, corpus, cfg)
        return model

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None) -> float:
        from ..nlp import evaluate_task, evaluate_task_under_precision
        if shard_size is not None:
            return self.evaluate_streaming(model, ds, cfg, cache=cache,
                                           batch_size=batch_size,
                                           shard_size=shard_size)
        task = ds.task if isinstance(ds, NLPDataset) else ds
        calib = ds.calib_corpus if isinstance(ds, NLPDataset) else None
        if cfg.precision == "fp32":
            return evaluate_task(model, task)
        return evaluate_task_under_precision(model, task, cfg.precision, calib)

    def accumulator(self, ds) -> Accuracy:
        return Accuracy()

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None):
        from ..nlp import evaluate_task_range, precision_model
        task = ds.task if isinstance(ds, NLPDataset) else ds
        calib = ds.calib_corpus if isinstance(ds, NLPDataset) else None
        # Items score independently, so shard counts sum exactly; the
        # quantised model calibrates on the (whole) calibration corpus.
        scored = precision_model(model, cfg.precision, calib)
        for start, stop in bounds:
            acc = self.accumulator(ds)
            acc.add(evaluate_task_range(scored, task, start, stop),
                    stop - start)
            yield start, stop, acc


@register_task
class AudioAdapter(TaskAdapter):
    """TTS mel-spectrogram MSE (lower is better) under deployment noise."""

    name = "audio"
    metric_name = "MSE"
    extra_noises = ("precision",)

    def build_model(self, name: str | None = None, *, seed: int = 0,
                    dim: int = 20, **kw):
        from ..audio import FastSpeechLite, TacotronLite
        cls = TacotronLite if name == "tacotron2" else FastSpeechLite
        return cls(dim=dim, seed=seed)

    def load_dataset(self, *, n: int = 16, seed: int = 0, **kw):
        from ..data import make_tts_dataset
        return make_tts_dataset(n=n, seed=seed, **kw)

    def train(self, model, ds, cfg=None, **cfg_kw):
        from ..audio import TTSTrainConfig, train_tts
        if cfg is None:
            defaults = dict(epochs=15, lr=5e-3)
            defaults.update(cfg_kw)
            cfg = TTSTrainConfig(**defaults)
        train_tts(model, ds, cfg)
        return model

    def evaluate(self, model, ds, cfg: NoiseConfig = TRAIN_CONFIG, *,
                 cache: DecodeCache | None = None,
                 batch_size: int | None = None,
                 shard_size: int | None = None) -> float:
        from ..audio import tts_mse
        if shard_size is not None:
            return self.evaluate_streaming(model, ds, cfg, cache=cache,
                                           batch_size=batch_size,
                                           shard_size=shard_size)
        return tts_mse(model, ds, precision=cfg.precision,
                       stft_variant=cfg.get_extra("stft", "reference"))

    def accumulator(self, ds) -> MeanScores:
        return MeanScores()

    def evaluate_partials(self, model, ds, cfg: NoiseConfig, bounds, *,
                          cache: DecodeCache | None = None,
                          batch_size: int | None = None,
                          chunk_size: int | None = None,
                          chunk_cache: DecodeCache | None = None):
        from ..audio import tts_deployment_model, tts_mse_range
        # INT8 calibration pins to the full dataset's first utterance (the
        # calibration shard), never the slice under evaluation.
        qmodel = tts_deployment_model(model, cfg.precision, ds)
        variant = cfg.get_extra("stft", "reference")
        for start, stop in bounds:
            acc = self.accumulator(ds)
            for i, err in enumerate(tts_mse_range(qmodel, ds, start, stop,
                                                  stft_variant=variant)):
                acc.update(start + i, err)
            yield start, stop, acc
