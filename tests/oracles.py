"""Reference implementations kept as test oracles for the ops that replaced them,
the dense FFN as the tests call it, the gradient and importance checks, and
helpers only the tests use."""

import itertools
import math

import numpy as np

from moedistill import data as D
from moedistill import moe as M
from moedistill import tensor as T
from moedistill.importance import BATCH_SIZE, ImportanceError


def tsum(a) -> T.Tensor:
    """Sum of every element, as a scalar."""
    a = T.as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=np.float64)
    return T._make("sum", out, [a], lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def finite_diff_check(f, params, step: float = 1e-3, n_samples: int = 50,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic gradients of ``f`` and
    fourth-order central finite differences over sampled coordinates of
    ``params``.

    The numeric derivative is the five-point stencil, the Richardson
    extrapolation of the central differences at ``step`` and ``2 * step``: its
    truncation error is O(step**4), so a step near 1e-3 keeps both truncation
    and float64 cancellation noise (about eps * |f| / step) near 1e-13 of the
    objective's scale, where a two-point difference at 1e-6 is left with
    about 1e-10.

    ``f`` must be a deterministic map from the current parameter values to a
    scalar Tensor. Analytic gradients are obtained by one forward/backward;
    each sampled coordinate then costs four extra forward passes.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    coords = []
    for pi, p in enumerate(params):
        for flat in range(p.data.size):
            coords.append((pi, flat))
    if len(coords) > n_samples:
        chosen = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[i] for i in chosen]

    max_rel = 0.0
    for pi, flat in coords:
        p = params[pi]
        orig = p.data.flat[flat]
        vals = []
        with T.no_grad():
            for k in (2, 1, -1, -2):
                p.data.flat[flat] = orig + k * step
                vals.append(f().item())
            p.data.flat[flat] = orig
        f2, f1, m1, m2 = vals
        numeric = (8.0 * (f1 - m1) - (f2 - m2)) / (12.0 * step)
        a = analytic[pi].flat[flat]
        denom = max(abs(a), abs(numeric), 1e-12)
        rel = abs(a - numeric) / denom
        max_rel = max(max_rel, rel)
    return max_rel


def importance_oracle(teacher, dataset, layer: int, j: int) -> float:
    """Exact loss change from removing neuron j of a layer.

    Zeroes column j of W1, entry j of b1 and row j of W2, re-evaluates the
    summed dataset loss over padded batches, restores the weights, and
    returns |delta|.
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
            for ids, mask, labels in D.iter_batches(dataset, BATCH_SIZE):
                logits, _ = teacher.forward(ids, mask)
                total += T.cross_entropy_logits(logits, labels).item() * len(labels)
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


def moe_ffn_padded(a, route, w1s, b1s, w2s, b2s, scale=None, sink=None) -> T.Tensor:
    """``tensor.moe_ffn`` as it was before it took a mask; the padded-path oracle
    for its real rows. Every row, padded or not, is computed; one stable argsort
    groups the rows by expert, and an inverse argsort restores row order. The
    sink sees every row, in expert order."""
    a, scale = T.as_tensor(a), (None if scale is None else T.as_tensor(scale))
    experts = list(zip(w1s, b1s, w2s, b2s))
    lead = a.data.shape[:-1]
    route = None if route is None else np.asarray(route)
    d, k, d_out = a.data.shape[-1], w2s[0].data.shape[0], w2s[0].data.shape[-1]
    want = ((d, k), (k,), (k, d_out), (d_out,))
    if ((route is not None and route.shape != lead) or (scale is not None and scale.shape != lead)
            or any((w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != want
                   for w1, b1, w2, b2 in experts)):
        raise T.ShapeError("moe_ffn", a.shape, lead if route is None else route.shape,
                         *(x.shape for ws in experts for x in ws))
    n = math.prod(lead)
    if route is None:
        spans = [(0, 0, n)]
    else:
        flat = route.reshape(-1)
        counts = np.bincount(flat, minlength=len(experts)).tolist()  # rejects a negative route
        if len(counts) > len(experts):
            raise ValueError(f"moe_ffn: route outside [0, {len(experts)})")
        ends = itertools.accumulate(counts)
        spans = [(e, end - c, end) for e, (c, end) in enumerate(zip(counts, ends)) if c]
    if len(spans) > 1:
        order = np.argsort(flat, kind="stable")
        inv = np.argsort(order)  # row r of the input sits at inv[r] in expert order
    else:  # one expert takes every row: the rows are already in expert order
        order = inv = slice(None)
    xs = a.data.reshape(-1, d)[order]
    params = [a] + [x for ws in experts for x in ws] + ([] if scale is None else [scale])
    z = np.empty((n, k))
    for e, lo, hi in spans:
        np.matmul(xs[lo:hi], w1s[e].data, out=z[lo:hi])
        z[lo:hi] += b1s[e].data
    h, t = T._gelu_tanh(z, keep_t=True) if T._records(params) else (T._gelu_into(z, z), None)
    ys = np.empty((n, d_out))
    for e, lo, hi in spans:
        np.matmul(h[lo:hi], w2s[e].data, out=ys[lo:hi])
        ys[lo:hi] += b2s[e].data
    if scale is not None:
        s = scale.data.reshape(-1)[order, None]
        unscaled, ys = ys, ys * s
    out = ys[inv].reshape(lead + (d_out,))

    def grads(g):
        gs = g.reshape(-1, d_out)[order]
        gy = gs if scale is None else gs * s
        dz = np.empty_like(z)
        for e, lo, hi in spans:
            np.matmul(gy[lo:hi], w2s[e].data.T, out=dz[lo:hi])
        delta = dz if sink is None else np.empty_like(dz)  # the sink sees dz and delta
        for zb, tb, ub, db in T._blocks(z, t, dz, delta):
            np.multiply(ub, T._gelu_grad(zb, tb), out=db)
        if sink is not None:
            sink(z, h, dz, delta)
        gx = np.empty_like(xs)
        pgs = [None] * len(params)  # an idle expert keeps None, so the optimizer skips it
        for e, lo, hi in spans:
            np.matmul(delta[lo:hi], w1s[e].data.T, out=gx[lo:hi])
            pgs[1 + 4 * e:5 + 4 * e] = [xs[lo:hi].T @ delta[lo:hi], delta[lo:hi].sum(axis=0),
                                        h[lo:hi].T @ gy[lo:hi], gy[lo:hi].sum(axis=0)]
        pgs[0] = gx[inv].reshape(a.shape)
        if scale is not None:
            pgs[-1] = (gs * unscaled).sum(axis=1)[inv].reshape(lead)
        return pgs

    return T._make("moe_ffn", out, params, grads)


def moe_forward_per_expert(attn_out, experts, routing, token_ids, mask) -> T.Tensor:
    """The per-expert dispatch that ``moe.moe_forward`` used before ``moe_ffn``:
    a ``take``, a ``composed_ffn`` and a ``scatter_rows`` per expert, summed with ``add``."""
    batch, seq, d = attn_out.shape
    if routing.strategy == M.GATE:
        # the router from other ops: the masked mean over tokens as a batched
        # matmul with the mask's weights, then the gate's softmax
        weights = (mask / mask.sum(axis=1, keepdims=True))[:, None, :]
        repr_ = T.reshape(T.matmul(T.Tensor(weights), attn_out), (batch, d))
        probs = T.softmax(T.matmul(repr_, routing.gate_weight))
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
