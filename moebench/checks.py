"""Correctness checks on the program's outputs.

Every check returns a list of failure messages; an empty list is a pass.
Each compares against a computation made here, apart from the program
(``reference``), or against a property the method must have. None compares
against a stored copy of earlier output. ``selftest.py`` feeds each check a
deliberately wrong output and requires it to fail.
"""

from __future__ import annotations

import numpy as np

from reference import Weights, example_losses, forward

SERVE_LOGIT_TOL = 1e-9       # program vs reference on identical float64 weights
IMPORTANCE_RTOL = 1e-6       # analytic score vs central differences
IMPORTANCE_STEP = 1e-4       # relative scale step; truncation error ~1e-8 relative
STUDENT_ACCURACY_SLACK = 0.1   # distilled student vs its teacher, eval accuracy


def weights_of(model) -> Weights:
    """Reference view of an in-memory program model (copies every array)."""
    params = {name: np.array(t.data, dtype=np.float64)
              for name, t in model.named_parameters().items()}
    routing, provenance = [], []
    for i, layer in enumerate(model.layers):
        r = layer.routing
        if r is None:
            routing.append(None)
        elif r.gate_weight is not None:
            routing.append({"strategy": r.strategy, "gate_w": params[f"layer{i}.gate_w"]})
        else:
            routing.append({"strategy": r.strategy, "table": np.array(r.table)})
        prov = getattr(layer.ffn, "provenance", None)
        provenance.append(None if prov is None else [np.array(c) for c in prov])
    return Weights(params, model.cfg.to_dict(), routing, provenance)


def check_logits(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: logits shape {got.shape}, reference {want.shape}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        return [f"{label}: logits differ from the reference by {worst:.3e} > {tol:.1e}"]
    return []


def scaled_neuron(w: Weights, layer: int, j: int, factor: float) -> Weights:
    """Teacher with column j of W1 and row j of W2 of one layer scaled."""
    params = dict(w.params)
    w1, w2 = f"layer{layer}.ffn_w1", f"layer{layer}.ffn_w2"
    params[w1] = w.params[w1].copy()
    params[w2] = w.params[w2].copy()
    params[w1][:, j] *= factor
    params[w2][j, :] *= factor
    return Weights(params, w.config, w.routing, w.provenance)


def finite_difference_score(teacher: Weights, layer: int, j: int, ids, mask, labels) -> float:
    """sum_i |dL_i/d eps| with neuron j's weights scaled by (1 + eps)."""
    hi = example_losses(forward(scaled_neuron(teacher, layer, j, 1 + IMPORTANCE_STEP), ids, mask),
                        labels)
    lo = example_losses(forward(scaled_neuron(teacher, layer, j, 1 - IMPORTANCE_STEP), ids, mask),
                        labels)
    return float(np.abs((hi - lo) / (2 * IMPORTANCE_STEP)).sum())


def check_importance(teacher: Weights, scores: dict[int, np.ndarray], ids, mask, labels,
                     pairs: list[tuple[int, int]]) -> list[str]:
    """Score of neuron j = sum over examples of |dL_i/d eps| (the definition)."""
    failures = []
    for layer, j in pairs:
        want = finite_difference_score(teacher, layer, j, ids, mask, labels)
        got = float(scores[layer][j])
        if not abs(got - want) <= IMPORTANCE_RTOL * max(abs(want), 1e-12):
            failures.append(f"importance layer {layer} neuron {j}: {got:.9e}, "
                            f"finite differences give {want:.9e}")
    return failures


def expected_provenance(scores: np.ndarray, num_experts: int, shared_dim: int) -> list[np.ndarray]:
    """The adaptation rule: top-s shared, then ranks s+e-1, s+e-1+N, ..."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    width = len(order) // num_experts
    out = []
    for e in range(num_experts):
        unique = np.arange(shared_dim + e, len(order), num_experts)[:width - shared_dim]
        out.append(order[np.concatenate([np.arange(shared_dim), unique]).astype(np.int64)])
    return out


def check_adaptation(teacher: Weights, student: Weights, scores: dict[int, np.ndarray],
                     num_experts: int, shared_dim: int) -> list[str]:
    """Each expert is the teacher FFN restricted to its provenance columns,
    and the provenance follows the importance ranking."""
    failures = []
    tp, sp = teacher.params, student.params
    for l in range(teacher.config["num_layers"]):
        prov = student.provenance[l]
        want_prov = expected_provenance(scores[l], num_experts, shared_dim)
        if prov is None or len(prov) != num_experts:
            failures.append(f"adaptation layer {l}: expected {num_experts} experts")
            continue
        pre = f"layer{l}."
        for e in range(num_experts):
            cols = prov[e]
            if not np.array_equal(cols, want_prov[e]):
                failures.append(f"adaptation layer {l} expert {e}: provenance does not "
                                "follow the importance ranking")
            ex = f"{pre}expert{e}."
            pairs = [(sp[ex + "w1"], tp[pre + "ffn_w1"][:, cols]),
                     (sp[ex + "b1"], tp[pre + "ffn_b1"][cols]),
                     (sp[ex + "w2"], tp[pre + "ffn_w2"][cols, :]),
                     (sp[ex + "b2"], tp[pre + "ffn_b2"])]
            if not all(a.shape == b.shape and np.array_equal(a, b) for a, b in pairs):
                failures.append(f"adaptation layer {l} expert {e}: weights differ from "
                                "the teacher FFN restricted to its columns")
    return failures


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=1) == np.asarray(labels)).mean())


def constant_predictor_accuracy(labels: np.ndarray) -> float:
    """Accuracy of always answering the most frequent label."""
    return float(np.bincount(np.asarray(labels)).max() / len(labels))


def check_accuracy(label: str, acc: float, floor: float, reported: float | None,
                   n: int) -> list[str]:
    """Reference accuracy beats the floor and agrees with the reported one."""
    failures = []
    if not acc > floor:
        failures.append(f"{label}: eval accuracy {acc:.4f} not above {floor:.4f}")
    if reported is not None and abs(reported - acc) > 1.0 / n:
        failures.append(f"{label}: program reports accuracy {reported:.4f}, "
                        f"reference gives {acc:.4f}")
    return failures


def roundtrip_tolerance(logits: np.ndarray) -> float:
    """float32 storage of weights: 1e-5 per unit of logit magnitude."""
    return 1e-5 * max(1.0, float(np.max(np.abs(logits))))
