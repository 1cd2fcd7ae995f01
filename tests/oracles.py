"""Reference implementations kept as test oracles for the ops that replaced them,
and the dense FFN as the tests call it."""

import numpy as np

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
    return T._make("scatter", out, [(values, lambda g: g[idx])])


def one_expert_ffn(a, w1, b1, w2, b2) -> T.Tensor:
    """A dense FFN through ``moe_ffn``: one expert and a zero route."""
    return T.moe_ffn(a, np.zeros(a.shape[:-1], dtype=np.int64), [w1], [b1], [w2], [b2])


def composed_ffn(a, w1, b1, w2, b2) -> T.Tensor:
    """The two-layer FFN as its five-op chain; the oracle for the fused ``moe_ffn``."""
    return T.add(T.matmul(T.gelu(T.add(T.matmul(a, w1), b1)), w2), b2)


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
