"""Per-neuron importance scores for dense FFN layers.

For neuron j of a layer (column j of W1 paired with row j of W2), the score
accumulated over a dataset is

    I_j = sum over examples |w1_j · grad(w1_j) + w2_j · grad(w2_j)|

with the task cross-entropy as the loss. Gradients are per-example (the
absolute value sits inside the dataset sum), so accumulation runs with
batch size 1 and dropout off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset, pad_batch
from .model import EncoderModel, ModelConfig


class ImportanceError(ValueError):
    pass


@dataclass
class ImportanceTable:
    scores: dict[int, np.ndarray]  # layer index -> d_h non-negative floats
    dataset_size: int

    def ordering(self) -> dict[int, np.ndarray]:
        """Descending-score permutation per layer, ties by ascending index."""
        return {l: rank_scores(s) for l, s in self.scores.items()}

    def to_json(self) -> str:
        return json.dumps({str(l): [float(x) for x in s]
                           for l, s in sorted(self.scores.items())})

    @classmethod
    def from_json(cls, text: str | bytes, teacher: ModelConfig,
                  dataset_size: int = 0) -> "ImportanceTable":
        """Parse ``to_json`` output; raise ``ImportanceError`` unless it maps each of the
        teacher's layers to ``ffn_hidden`` finite, non-negative numbers."""
        h, layers = teacher.ffn_hidden, [str(l) for l in range(teacher.num_layers)]
        try:
            doc = json.loads(text)
            ok = isinstance(doc, dict) and set(doc) == set(layers)
            rows = [np.asarray(doc[l]) for l in layers] if ok else []
        except ValueError as exc:  # not UTF-8, not JSON, or a ragged list
            raise ImportanceError(f"importance table: {exc}") from None
        if not ok or any(r.dtype.kind not in "iuf" or r.shape != (h,)
                         or not (np.isfinite(r) & (r >= 0)).all() for r in rows):
            raise ImportanceError(f"importance table must map each layer {layers} to {h} "
                                  "finite, non-negative numbers")
        return cls({l: r.astype(np.float64) for l, r in enumerate(rows)}, dataset_size)


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Stable descending sort; equal scores keep ascending original index."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def accumulate_importance(teacher: EncoderModel, dataset: Dataset) -> ImportanceTable:
    """Score every FFN neuron of a dense teacher over the full dataset."""
    if len(dataset) == 0:
        raise ImportanceError("empty dataset")
    if teacher.is_moe:
        raise ImportanceError("model already adapted; importance needs dense FFNs")
    d_h = teacher.cfg.ffn_hidden
    scores = {l: np.zeros(d_h) for l in range(teacher.cfg.num_layers)}

    for ex in dataset.examples:
        ids, mask, labels = pad_batch([ex])
        teacher.zero_grads()
        logits, _ = teacher.forward(ids, mask, training=False)
        loss = T.cross_entropy_logits(logits, labels)
        loss.backward()
        for l, layer in enumerate(teacher.layers):
            w1, w2 = layer.ffn.w1[0], layer.ffn.w2[0]
            term = (w1.data * w1.grad).sum(axis=0) + (w2.data * w2.grad).sum(axis=1)
            scores[l] += np.abs(term)
    teacher.zero_grads()
    return ImportanceTable(scores, len(dataset))


def importance_oracle(teacher: EncoderModel, dataset: Dataset, layer: int, j: int) -> float:
    """Exact loss change from removing neuron j of a layer.

    Zeroes column j of W1, entry j of b1 and row j of W2, re-evaluates the
    summed dataset loss, restores the weights, and returns |delta|.
    """
    if teacher.layers[layer].routing is not None:
        raise ImportanceError("model already adapted")
    ffn = teacher.layers[layer].ffn
    w1, b1, w2 = ffn.w1[0].data, ffn.b1[0].data, ffn.w2[0].data
    if not 0 <= j < teacher.cfg.ffn_hidden:
        raise ImportanceError(f"neuron index {j} out of range")

    def total_loss() -> float:
        total = 0.0
        with T.no_grad():
            for ex in dataset.examples:
                ids, mask, labels = pad_batch([ex])
                logits, _ = teacher.forward(ids, mask, training=False)
                total += T.cross_entropy_logits(logits, labels).item()
        return total

    base = total_loss()
    saved = (w1[:, j].copy(), b1[j].copy(), w2[j, :].copy())
    w1[:, j] = 0.0
    b1[j] = 0.0
    w2[j, :] = 0.0
    try:
        ablated = total_loss()
    finally:
        w1[:, j], b1[j], w2[j, :] = saved
    return abs(base - ablated)
