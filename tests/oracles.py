"""Reference implementations kept as test oracles for the ops that replaced them,
the dense FFN as the tests call it, and helpers only the tests use."""

import math

import numpy as np

from moedistill import data as D
from moedistill import moe as M
from moedistill import tensor as T


def scatter_rows(values, idx, num_rows: int) -> T.Tensor:
    """Place ``values[i]`` at row ``idx[i]`` of a zero tensor of ``num_rows`` rows.

    Inverse of ``take`` along axis 0 for unique indices; duplicate indices sum.
    """
    values = T.as_tensor(values)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros((num_rows,) + values.data.shape[1:], dtype=np.float64)
    np.add.at(out, idx, values.data)
    return T._make("scatter", out, [values], lambda g: (g[idx],))


def gelu(a) -> T.Tensor:
    """GELU, tanh approximation, as its own node; the oracle for the GELU inside ``moe_ffn``."""
    a = T.as_tensor(a)
    x = a.data
    out, t = T._gelu_tanh(x, keep_t=True)
    return T._make("gelu", out, [a], lambda g: (g * T._gelu_grad(x, t),))


def gelu_tanh_whole(x: np.ndarray, keep_t: bool):
    """``tensor._gelu_tanh`` as whole-array passes, with a second full-size
    buffer; the exactness oracle for its blocked form."""
    u = x * x
    u *= x
    u *= T._GELU_C
    u += x
    u *= T._SQRT_2_OVER_PI
    np.tanh(u, out=u)
    h = u + 1.0 if keep_t else np.add(u, 1.0, out=u)
    h *= x
    h *= 0.5
    return h, (u if keep_t else None)


def gelu_grad_whole(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``tensor._gelu_grad`` as whole-array expressions, with about eight
    full-size temporaries; the exactness oracle for its blocked form."""
    dinner = T._SQRT_2_OVER_PI * (1.0 + 3.0 * T._GELU_C * x * x)
    return 0.5 * (1.0 + t + x * (1.0 - t * t) * dinner)


def transpose(a, axes) -> T.Tensor:
    a = T.as_tensor(a)
    out = a.data.transpose(axes)
    inv = np.argsort(axes)
    return T._make("transpose", out, [a], lambda g: (g.transpose(inv),))


def composed_attention(x, wq, bq, wk, bk, wv, bv, wo, bo, mask, heads, dropout_p, rng) -> T.Tensor:
    """Multi-head self-attention as the chain of about 17 graph ops that
    ``EncoderLayer.forward`` ran before ``tensor.attention``; its oracle."""
    batch, seq, d = x.shape
    h = heads
    dk = d // h

    def split(t):
        return transpose(T.reshape(t, (batch, seq, h, dk)), (0, 2, 1, 3))

    q = split(T.add(T.matmul(x, wq), bq))
    k = split(T.add(T.matmul(x, wk), bk))
    v = split(T.add(T.matmul(x, wv), bv))
    scores = T.mul(T.matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    bias = np.where(mask[:, None, None, :] > 0, 0.0, -1e9)
    probs = T.dropout(T.softmax(T.add(scores, T.Tensor(bias))), dropout_p, rng)
    ctx = transpose(T.matmul(probs, v), (0, 2, 1, 3))
    ctx = T.reshape(ctx, (batch, seq, d))
    return T.dropout(T.add(T.matmul(ctx, wo), bo), dropout_p, rng)


def shared_columns(experts: M.ExpertSet) -> set[int]:
    """The original FFN columns that every expert holds."""
    shared = set(experts.provenance[0].tolist())
    for prov in experts.provenance[1:]:
        shared &= set(prov.tolist())
    return shared


def discarded_columns(experts: M.ExpertSet, d_h: int) -> set[int]:
    """The original FFN columns, of ``d_h``, that no expert holds."""
    used = set()
    for prov in experts.provenance:
        used |= set(prov.tolist())
    return set(range(d_h)) - used


def one_expert_ffn(a, w1, b1, w2, b2) -> T.Tensor:
    """A dense FFN through ``moe_ffn``: one expert and a zero route."""
    return T.moe_ffn(a, np.zeros(a.shape[:-1], dtype=np.int64), [w1], [b1], [w2], [b2])


def composed_ffn(a, w1, b1, w2, b2) -> T.Tensor:
    """The two-layer FFN as its five-op chain; the oracle for the fused ``moe_ffn``."""
    return T.add(T.matmul(gelu(T.add(T.matmul(a, w1), b1)), w2), b2)


def moe_forward_per_expert(attn_out, experts, routing, token_ids, mask) -> T.Tensor:
    """The per-expert dispatch that ``moe.moe_forward`` used before ``moe_ffn``:
    a ``take``, a ``composed_ffn`` and a ``scatter_rows`` per expert, summed with ``add``."""
    batch, seq, d = attn_out.shape
    if routing.strategy == M.GATE:
        repr_ = T.masked_mean_rows(attn_out, mask)
        probs = M.gate_probs(repr_, routing.gate_weight)
        sel = np.argmax(probs.data, axis=1)  # ties -> lowest expert id
        out_parts = []
        idx_parts = []
        for e in range(experts.num_experts):
            idx = np.flatnonzero(sel == e)
            if idx.size == 0:
                continue
            y = composed_ffn(T.take(attn_out, idx, axis=0), experts.w1[e], experts.b1[e],
                             experts.w2[e], experts.b2[e])
            p_e = T.reshape(T.take(probs, idx, axis=0), (idx.size, experts.num_experts))
            p_sel = T.reshape(T.take(p_e, np.asarray([e]), axis=1), (idx.size, 1, 1))
            out_parts.append(T.mul(y, p_sel))
            idx_parts.append(idx)
        total = None
        for idx, part in zip(idx_parts, out_parts):
            piece = scatter_rows(part, idx, batch)
            total = piece if total is None else T.add(total, piece)
        return total

    table = routing.table
    flat_ids = token_ids.reshape(-1)
    if flat_ids.max(initial=0) >= len(table):
        raise M.MoEError("token id outside the routing table")
    route = table[flat_ids]
    flat = T.reshape(attn_out, (batch * seq, d))
    total = None
    for e in range(experts.num_experts):
        idx = np.flatnonzero(route == e)
        if idx.size == 0:
            continue
        y = composed_ffn(T.take(flat, idx, axis=0), experts.w1[e], experts.b1[e],
                         experts.w2[e], experts.b2[e])
        piece = scatter_rows(y, idx, batch * seq)
        total = piece if total is None else T.add(total, piece)
    return T.reshape(total, (batch, seq, d))


def importance_per_example(teacher, dataset) -> dict[int, np.ndarray]:
    """The batch-1 loop that ``importance.accumulate_importance`` ran before it
    batched: one forward and backward pass per example, then
    ``|w1_j · grad(w1_j) + w2_j · grad(w2_j)|`` from the weight gradients."""
    scores = {l: np.zeros(teacher.cfg.ffn_hidden) for l in range(teacher.cfg.num_layers)}
    for ex in dataset.examples:
        ids, mask, labels = D.pad_batch([ex])
        teacher.zero_grads()
        logits, _ = teacher.forward(ids, mask)
        T.cross_entropy_logits(logits, labels).backward()
        for l, layer in enumerate(teacher.layers):
            w1, w2 = layer.ffn.w1[0], layer.ffn.w2[0]
            term = (w1.data * w1.grad).sum(axis=0) + (w2.data * w2.grad).sum(axis=1)
            scores[l] += np.abs(term)
    teacher.zero_grads()
    return scores


def bayes_accuracy(task: D.SyntheticTask, split: str = "eval") -> float:
    """Accuracy of the majority-signal-token classifier on a split."""
    owner = {}
    for c, toks in enumerate(task.signal_tokens):
        for t in toks:
            owner[t] = c
    pairs = task.eval if split == "eval" else task.train
    correct = 0
    for text, label in pairs:
        votes = np.zeros(task.n_classes)
        for t in text.split():
            if t in owner:
                votes[owner[t]] += 1
        correct += int(np.argmax(votes) == label)
    return correct / len(pairs)


def count_total_params(model) -> int:
    """Every stored parameter of ``model``, by enumeration."""
    return sum(p.data.size for p in model.parameters())
