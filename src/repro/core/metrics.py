"""Mergeable metric accumulators for streaming evaluation.

Every task adapter's metric is expressible as ``update(batch) -> merge ->
value()``: an accumulator ingests per-shard partial observations, partial
accumulators merge associatively across shards (and across worker
processes), and ``value()`` reproduces the monolithic metric **bit-exactly**
because each accumulator keeps exactly the intermediate state the one-shot
formula would have built:

* :class:`Accuracy` — integer correct/total counts; the final division is
  the same two ints the whole-batch formula divides.
* :class:`MeanIoU` — the integer confusion matrix; shard matrices sum
  exactly, and ``value()`` applies the same IoU reduction
  (:func:`repro.segmentation.miou.miou_from_confusion`) to the same counts.
* :class:`MeanAP` — raw per-image detections and ground truths keyed by
  **global** image index; ``value()`` reassembles them in dataset order and
  calls the very :func:`~repro.detection.map_eval.mean_average_precision`
  the monolithic path calls (ordering matters: AP's global score sort is
  stable, so ties break by image order).
* :class:`MeanScores` — per-item float scores keyed by global index,
  averaged in dataset order (the TTS MSE shape: ``np.mean`` over a list is
  order-sensitive in the last ULP).

Accumulators serialise to JSON-safe ``state()`` dicts and rebuild via
``load_state`` — that is how the run ledger persists per-shard progress
and how shared-mode workers hand a shard's partial result to the merger.
Python's JSON round-trips floats through ``repr`` (shortest-round-trip), so
a state that travelled through the ledger merges to the same bits as one
that never left memory.  :func:`accumulator_from_state` rebuilds the right
accumulator class from a bare state dict (the ``kind`` field is the tag),
which is how the serving layer turns ledgered shard states into partial
metric values without knowing the task.

Merging is *validated*: partials of different kinds — or of mismatched
shapes, such as confusion matrices over different class counts — must never
be summed into a plausible-looking but wrong metric, so ``merge`` raises
``TypeError``/``ValueError`` instead of splicing them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MetricAccumulator", "Accuracy", "MeanIoU", "MeanAP",
           "MeanScores", "accumulator_from_state"]


class MetricAccumulator:
    """update/merge/value protocol for one streamed metric."""

    #: ``state()['kind']`` tag for this accumulator class.
    kind: str = ""

    def merge(self, other: "MetricAccumulator") -> "MetricAccumulator":
        raise NotImplementedError

    def value(self) -> float:
        raise NotImplementedError

    def state(self) -> dict:
        """JSON-serialisable snapshot (exact: ints + repr-round-trip floats)."""
        raise NotImplementedError

    def load_state(self, state: dict) -> "MetricAccumulator":
        """Restore a :meth:`state` snapshot into this accumulator."""
        raise NotImplementedError

    def _check_merge(self, other: "MetricAccumulator") -> None:
        """Reject cross-kind merges: summing an Accuracy into a MeanIoU (or
        any other mismatch) would produce a silently wrong metric."""
        if type(other) is not type(self):
            raise TypeError(f"cannot merge {type(other).__name__} into "
                            f"{type(self).__name__}")

    def _check_state(self, state: dict) -> None:
        kind = state.get("kind") if isinstance(state, dict) else state
        if kind != self.kind:
            raise ValueError(f"state kind {kind!r} does not match "
                             f"{type(self).__name__} (expected "
                             f"{self.kind!r})")


class Accuracy(MetricAccumulator):
    """Percent correct over integer counts (classification, NLP)."""

    kind = "accuracy"

    def __init__(self):
        self.correct = 0
        self.total = 0

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        self.correct += int((np.asarray(pred) == np.asarray(target)).sum())
        self.total += int(np.asarray(target).size)

    def add(self, correct: int, total: int) -> None:
        self.correct += int(correct)
        self.total += int(total)

    def merge(self, other: "Accuracy") -> "Accuracy":
        self._check_merge(other)
        self.correct += other.correct
        self.total += other.total
        return self

    def value(self) -> float:
        if self.total == 0:
            return float("nan")
        return 100.0 * self.correct / self.total

    def state(self) -> dict:
        return {"kind": "accuracy", "correct": self.correct,
                "total": self.total}

    def load_state(self, state: dict) -> "Accuracy":
        self._check_state(state)
        self.correct = int(state["correct"])
        self.total = int(state["total"])
        return self


class MeanIoU(MetricAccumulator):
    """mIoU from a summed integer confusion matrix (segmentation)."""

    kind = "miou"

    def __init__(self, num_classes: int):
        self.num_classes = int(num_classes)
        self.cm = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        from ..segmentation.miou import confusion_matrix
        self.cm += confusion_matrix(pred, target, self.num_classes)

    def merge(self, other: "MeanIoU") -> "MeanIoU":
        self._check_merge(other)
        if other.num_classes != self.num_classes:
            raise ValueError(f"cannot merge MeanIoU over {other.num_classes} "
                             f"classes into one over {self.num_classes}")
        self.cm += other.cm
        return self

    def value(self) -> float:
        from ..segmentation.miou import miou_from_confusion
        return miou_from_confusion(self.cm)

    def state(self) -> dict:
        return {"kind": "miou", "num_classes": self.num_classes,
                "cm": self.cm.tolist()}

    def load_state(self, state: dict) -> "MeanIoU":
        self._check_state(state)
        self.num_classes = int(state["num_classes"])
        self.cm = np.asarray(state["cm"], dtype=np.int64)
        return self


class MeanAP(MetricAccumulator):
    """COCO-style mAP over per-image detections keyed by global index.

    Detections are small (a handful of boxes per image), so holding them all
    is O(detections), not O(pixels) — the streaming win is never having the
    whole *pixel* dataset resident.  ``value()`` reassembles images in
    dataset order: :func:`mean_average_precision`'s global score sort is
    stable, so equal scores tie-break by image order and any other order
    could change the AP in the last ULP.
    """

    kind = "map"

    def __init__(self, num_classes: int):
        self.num_classes = int(num_classes)
        self.items: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def update(self, index: int, detections: np.ndarray,
               gt: np.ndarray) -> None:
        self.items[int(index)] = (np.asarray(detections, dtype=np.float64),
                                  np.asarray(gt, dtype=np.float64))

    def merge(self, other: "MeanAP") -> "MeanAP":
        self._check_merge(other)
        if other.num_classes != self.num_classes:
            raise ValueError(f"cannot merge MeanAP over {other.num_classes} "
                             f"classes into one over {self.num_classes}")
        self.items.update(other.items)
        return self

    def value(self) -> float:
        from ..detection.map_eval import mean_average_precision
        order = sorted(self.items)
        dets = [self.items[i][0] for i in order]
        gts = [self.items[i][1] for i in order]
        return mean_average_precision(dets, gts, self.num_classes)

    def state(self) -> dict:
        return {"kind": "map", "num_classes": self.num_classes,
                "items": {str(i): [d.tolist(), g.tolist()]
                          for i, (d, g) in self.items.items()}}

    def load_state(self, state: dict) -> "MeanAP":
        self._check_state(state)
        self.num_classes = int(state["num_classes"])
        self.items = {
            int(i): (np.asarray(d, dtype=np.float64).reshape(-1, 6),
                     np.asarray(g, dtype=np.float64).reshape(-1, 5))
            for i, (d, g) in state["items"].items()}
        return self


class MeanScores(MetricAccumulator):
    """Mean of per-item float scores in dataset order (TTS MSE)."""

    kind = "mean_scores"

    def __init__(self):
        self.scores: dict[int, float] = {}

    def update(self, index: int, score: float) -> None:
        self.scores[int(index)] = float(score)

    def merge(self, other: "MeanScores") -> "MeanScores":
        self._check_merge(other)
        self.scores.update(other.scores)
        return self

    def value(self) -> float:
        if not self.scores:
            return float("nan")
        return float(np.mean([self.scores[i] for i in sorted(self.scores)]))

    def state(self) -> dict:
        return {"kind": "mean_scores",
                "scores": {str(i): s for i, s in self.scores.items()}}

    def load_state(self, state: dict) -> "MeanScores":
        self._check_state(state)
        self.scores = {int(i): float(s)
                       for i, s in state["scores"].items()}
        return self


def accumulator_from_state(state: dict) -> MetricAccumulator:
    """Rebuild the right accumulator from a bare :meth:`state` dict.

    The ``kind`` tag selects the class; shape parameters (``num_classes``)
    come from the state itself.  This is how a consumer that never saw the
    task adapter — the serving layer streaming ledger entries, a post-mortem
    script — can turn a persisted shard state back into a partial metric.
    """
    if not isinstance(state, dict):
        raise ValueError(f"accumulator state must be a dict, got "
                         f"{type(state).__name__}")
    kind = state.get("kind")
    if kind == Accuracy.kind:
        acc: MetricAccumulator = Accuracy()
    elif kind == MeanIoU.kind:
        acc = MeanIoU(int(state["num_classes"]))
    elif kind == MeanAP.kind:
        acc = MeanAP(int(state["num_classes"]))
    elif kind == MeanScores.kind:
        acc = MeanScores()
    else:
        raise ValueError(f"unknown accumulator state kind {kind!r}")
    return acc.load_state(state)
