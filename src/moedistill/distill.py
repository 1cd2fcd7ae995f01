"""Layer-wise distillation losses and the training loop.

The student objective per batch is CE + lambda * (L_trm + L_pred):
L_trm sums masked MSE between student and teacher hidden states over the
selected layers (including the embedding output for "all"), and L_pred is
the symmetric KL between the two prediction distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .data import Dataset, iter_batches
from .model import EncoderModel, require_int, require_real

LAYER_SETS = ("all", "last", "skip")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class DistillConfig:
    lambda_distill: float = 1.0
    layer_set: str = "all"
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 5
    weight_decay: float = 0.0
    grad_clip_norm: float = 1.0  # 0: no clipping
    seed: int = 0

    def __post_init__(self):
        require_real("learning_rate", self.learning_rate, positive=True)
        for name in ("lambda_distill", "weight_decay", "grad_clip_norm"):
            require_real(name, getattr(self, name))
        if self.layer_set not in LAYER_SETS:
            raise ValueError(f"layer_set must be one of {LAYER_SETS}")
        require_int("batch_size", self.batch_size, 1)
        require_int("epochs", self.epochs, 0)
        require_int("seed", self.seed, 0)


def _selected_layers(num_hidden: int, layer_set: str) -> list[int]:
    last = num_hidden - 1
    if layer_set == "all":
        return list(range(num_hidden))
    if layer_set == "last":
        return [last]
    if layer_set == "skip":
        return list(range(0, num_hidden, 2))
    raise ValueError(f"unknown layer_set {layer_set!r}")


def loss_trm(student: list[Tensor], teacher: list[Tensor], mask: np.ndarray,
             layer_set: str = "all") -> Tensor:
    """Sum over selected layers of masked MSE between hidden states."""
    if len(student) != len(teacher):
        raise T.ShapeError("loss_trm", (len(student),), (len(teacher),))
    total = None
    for l in _selected_layers(len(student), layer_set):
        term = T.mse(student[l], teacher[l].detach(), mask=mask)
        total = term if total is None else T.add(total, term)
    return total


def loss_pred(p_student: Tensor, p_teacher: Tensor) -> Tensor:
    """Symmetric prediction loss: (KL(p||p_tea) + KL(p_tea||p)) / 2."""
    for p in (p_student, p_teacher):
        rows = p.data.sum(axis=-1)
        if np.any(np.abs(rows - 1.0) > 1e-6):
            raise ValueError("prediction rows are not normalized probabilities")
    q = p_teacher.detach()
    return T.mul(T.add(T.kl_div(p_student, q), T.kl_div(q, p_student)), 0.5)


class Adam:
    """Adam with optional decoupled weight decay and global-norm clipping."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            update = (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)
            if self.weight_decay > 0:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


def global_grad_norm(params: list[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def evaluate_accuracy(model: EncoderModel, dataset: Dataset) -> float:
    correct = 0
    with T.no_grad():
        for ids, mask, labels in iter_batches(dataset, 32):
            logits, _ = model.forward(ids, mask)
            correct += int((np.argmax(logits.data, axis=1) == labels).sum())
    return correct / len(dataset)


def _train(model: EncoderModel, batch_loss, phase: str, train: Dataset,
           config: DistillConfig, eval_set: Dataset | None, metrics_sink) -> EncoderModel:
    """The loop of both phases. ``batch_loss(ids, mask, labels, rng)`` returns the
    batch objective and its (ce, trm, pred) parts; each epoch's record has their
    means and ``total = ce + lambda * (trm + pred)``."""
    params = model.parameters()
    opt = Adam(params, config.learning_rate, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    step = 0
    for epoch in range(config.epochs):
        sums = np.zeros(3)
        n_batches = 0
        for ids, mask, labels in iter_batches(train, config.batch_size, rng):
            for p in params:
                p.zero_grad()
            loss, parts = batch_loss(ids, mask, labels, rng)
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch} step {step}")
            loss.backward()
            # a NaN norm never exceeds the clip bound, so clipping alone
            # would let Adam write NaN into the weights
            if not np.isfinite(clip_gradients(params, config.grad_clip_norm)):
                raise TrainingDiverged(f"non-finite gradient norm at epoch {epoch} step {step}")
            opt.step()
            sums += parts
            n_batches += 1
            step += 1
        acc = evaluate_accuracy(model, eval_set) if eval_set is not None else None
        if metrics_sink is not None:
            ce, trm, pred = (float(v) for v in sums / n_batches)
            metrics_sink.append({"phase": phase, "epoch": epoch, "step": step,
                                 "ce": ce, "trm": trm, "pred": pred,
                                 "total": ce + config.lambda_distill * (trm + pred),
                                 "eval_acc": acc})
    return model


def train_teacher(model: EncoderModel, train: Dataset, config: DistillConfig,
                  eval_set: Dataset | None = None, metrics_sink=None) -> EncoderModel:
    """Plain cross-entropy fine-tuning of the dense teacher."""
    def batch_loss(ids, mask, labels, rng):
        logits, _ = model.forward(ids, mask, rng=rng)
        loss = T.cross_entropy_logits(logits, labels)
        return loss, (loss.item(), 0.0, 0.0)

    return _train(model, batch_loss, "teacher", train, config, eval_set, metrics_sink)


def distill_batch_loss(student: EncoderModel, teacher: EncoderModel,
                       ids, mask, labels, config: DistillConfig,
                       rng: np.random.Generator | None = None):
    """Combined objective for one batch and its (ce, trm, pred) parts as floats;
    the teacher runs without a graph, and the student with dropout if given ``rng``."""
    with T.no_grad():
        t_logits, t_hidden = teacher.forward(ids, mask)
    s_logits, s_hidden = student.forward(ids, mask, rng=rng)
    ce = T.cross_entropy_logits(s_logits, labels)
    if config.lambda_distill > 0:
        trm = loss_trm(s_hidden, t_hidden, mask, config.layer_set)
        pred = loss_pred(T.softmax(s_logits), T.softmax(t_logits))
        total = T.add(ce, T.mul(T.add(trm, pred), config.lambda_distill))
    else:
        trm = pred = Tensor(0.0)
        total = ce
    return total, (ce.item(), trm.item(), pred.item())


def train_student(student: EncoderModel, teacher: EncoderModel, train: Dataset,
                  config: DistillConfig, eval_set: Dataset | None = None,
                  metrics_sink=None) -> EncoderModel:
    """Distillation training of the adapted student; teacher stays frozen."""
    def batch_loss(ids, mask, labels, rng):
        return distill_batch_loss(student, teacher, ids, mask, labels, config, rng=rng)

    return _train(student, batch_loss, "student", train, config, eval_set, metrics_sink)
