"""Per-neuron importance scores for dense FFN layers.

For neuron j of a layer (column j of W1 paired with row j of W2), the score
accumulated over a dataset is

    I_j = sum over examples |w1_j · grad(w1_j) + w2_j · grad(w2_j)|

with the task cross-entropy as the loss and dropout off: the first-order
Taylor estimate of the loss change from removing the neuron (Molchanov et
al. 2019). The absolute value sits inside the dataset sum, so each example
needs its own gradient. Since a_t · w1_j = z_tj - b1_j, one example's term is

    sum over its tokens t of (z_tj - b1_j) · delta_tj + h_tj · u_tj

where z is the pre-GELU activation, h = GELU(z), u = dL/dh and delta = dL/dz.
Examples do not interact in the encoder, so one backward pass of the summed
cross-entropy over a padded batch gives every example's own z, h, u and delta
(the per-example gradient trick, Goodfellow 2015). ``tensor.moe_ffn`` hands
those arrays, for real tokens only, to a sink set on each dense layer's
``ExpertSet`` for the duration of the pass. The rows come example by example,
each example's tokens in order, so an example's term is the sum over its own
segment of rows, whose length its mask gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Dataset, iter_batches
from .model import EncoderModel, ModelConfig


BATCH_SIZE = 32  # padded examples per pass, as in ``distill.evaluate_accuracy``


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
    if any(layer.routing is not None for layer in teacher.layers):
        raise ImportanceError("model already adapted; importance needs dense FFNs")
    ffns = [layer.ffn for layer in teacher.layers]
    scores = {l: np.zeros(teacher.cfg.ffn_hidden) for l in range(len(ffns))}
    try:
        for ids, mask, labels in iter_batches(dataset, BATCH_SIZE):
            lengths = (mask > 0).sum(axis=1)
            for l, ffn in enumerate(ffns):
                ffn.sink = _example_scores_into(scores[l], ffn.b1[0].data, lengths)
            logits, _ = teacher.forward(ids, mask)
            # the summed loss: each example's gradient is its own, unscaled
            T.mul(T.cross_entropy_logits(logits, labels), float(len(labels))).backward()
            del logits, _  # frees this batch's graph before the next forward builds one
    finally:
        for ffn in ffns:
            ffn.sink = None
        teacher.zero_grads()
    return ImportanceTable(scores, len(dataset))


def _example_scores_into(total: np.ndarray, b1: np.ndarray, lengths: np.ndarray):
    """A ``moe_ffn`` sink adding each example's |term_j| to ``total``; example i
    owns the next ``lengths[i]`` rows. Each segment sums row by row, in the
    order of a sum over the padded token axis."""
    cuts = np.cumsum(lengths)[:-1]

    def sink(z, h, u, delta):
        term = (z - b1) * delta
        term += h * u
        per_example = np.stack([rows.sum(axis=0) for rows in np.split(term, cuts)])
        np.add(total, np.abs(per_example).sum(axis=0), out=total)
    return sink
