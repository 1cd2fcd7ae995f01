"""Adapting a dense FFN into experts and routing tokens to them.

The adaptation rule: with neurons sorted by descending importance, every
expert gets the top-s shared neurons, then neuron (s+e), (s+e+N), ... until
it holds expert_dim neurons. The least important (N-1)*s neurons are
discarded. A "neuron" is the bundle (column j of W1, entry j of b1, row j
of W2), which stays together through the split.

``moe_forward`` is the one FFN sublayer; a dense FFN is one expert with no
routing. Dispatch is grouped and dropless, as in MegaBlocks: each token (by
its id, or by its sentence's gate argmax) goes into one ``tensor.moe_ffn``
node, which sorts the rows by expert once, runs each expert's GEMMs on its
contiguous slice and un-permutes once (or neither, when one expert takes
every row); no token is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import (Tensor, ShapeError, matmul, moe_ffn, reshape, softmax, take,
                     masked_mean_rows)

HASH_RANDOM = "hash_random"
HASH_BALANCED = "hash_balanced"
GATE = "gate"
STRATEGIES = (HASH_RANDOM, HASH_BALANCED, GATE)

ADAPT_IMPORTANCE = "importance"
ADAPT_RANDOM = "random"
ADAPT_INVERSE = "inverse"
ADAPT_MODES = (ADAPT_IMPORTANCE, ADAPT_RANDOM, ADAPT_INVERSE)


class MoEError(ValueError):
    pass


@dataclass
class ExpertSet:
    """N parallel FFNs of width expert_dim plus column provenance; a dense FFN
    is one full-width expert whose ``provenance`` is None (it was never split)."""

    w1: list[Tensor]  # each d × expert_dim
    b1: list[Tensor]  # each expert_dim
    w2: list[Tensor]  # each expert_dim × d
    b2: list[Tensor]  # each d; independent trainable copies of the original
    provenance: list[np.ndarray] | None  # per expert: original column index per slot
    # a dense layer's ``tensor.moe_ffn`` sink: sees z, h, dL/dh, dL/dz in backward
    sink: Callable | None = None

    @property
    def num_experts(self) -> int:
        return len(self.w1)

    @property
    def expert_dim(self) -> int:
        return self.w1[0].shape[1]


@dataclass
class RoutingTable:
    strategy: str
    table: np.ndarray | None = None  # token_id -> expert_id, hash strategies
    gate_weight: Tensor | None = None  # d × N, gate strategy
    num_experts: int = 1

    def to_header(self) -> dict:
        doc = {"strategy": self.strategy, "num_experts": self.num_experts}
        if self.table is not None:
            doc["table"] = [int(x) for x in self.table]
        return doc


def adapt_ffn(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
              ordering: np.ndarray, num_experts: int, shared_dim: int,
              mode: str = ADAPT_IMPORTANCE,
              rng: np.random.Generator | None = None) -> ExpertSet:
    """Split one dense FFN into ``num_experts`` experts.

    ``ordering`` is the importance permutation, most important first.
    ``mode`` selects the ablation variants: "random" shuffles the ordering
    first, "inverse" reverses it (least important treated as most).
    """
    d, d_h = w1.shape
    if w2.shape != (d_h, d) or b1.shape != (d_h,) or b2.shape != (d,):
        raise ShapeError("adapt_ffn", w1.shape, b1.shape, w2.shape, b2.shape)
    if sorted(ordering.tolist()) != list(range(d_h)):
        raise MoEError("ordering is not a permutation of the FFN width")
    if num_experts < 1 or num_experts > d_h:
        raise MoEError(f"num_experts={num_experts} out of range for width {d_h}")
    expert_dim = d_h // num_experts
    if not 0 <= shared_dim <= expert_dim:
        raise MoEError(f"shared_dim={shared_dim} exceeds expert_dim={expert_dim}")

    ordering = np.asarray(ordering, dtype=np.int64)
    if mode == ADAPT_RANDOM:
        if rng is None:
            raise MoEError("random adaptation needs an rng")
        ordering = rng.permutation(ordering)
    elif mode == ADAPT_INVERSE:
        ordering = ordering[::-1]
    elif mode != ADAPT_IMPORTANCE:
        raise MoEError(f"unknown adaptation mode {mode!r}")

    sets = ExpertSet([], [], [], [], [])
    for e in range(1, num_experts + 1):
        slots = list(range(shared_dim))
        k = shared_dim + e - 1  # 0-based position of ordered column (s+e)
        while len(slots) < expert_dim:
            slots.append(k)
            k += num_experts
        cols = ordering[np.asarray(slots, dtype=np.int64)]
        sets.w1.append(Tensor(w1[:, cols].copy(), requires_grad=True))
        sets.b1.append(Tensor(b1[cols].copy(), requires_grad=True))
        sets.w2.append(Tensor(w2[cols, :].copy(), requires_grad=True))
        sets.b2.append(Tensor(b2.copy(), requires_grad=True))
        sets.provenance.append(cols)
    return sets


def build_routing(strategy: str, vocab_freqs: np.ndarray | None,
                  num_experts: int, seed: int, embed_dim: int) -> RoutingTable:
    """Construct the token→expert routing rule.

    hash_random: each token id drawn uniformly from a seeded generator.
    hash_balanced: tokens in descending frequency order, each assigned to
    the expert with the least accumulated frequency (ties → lowest id).
    gate: small-random d×N weight, trained with the model.
    """
    if strategy not in STRATEGIES:
        raise MoEError(f"unknown routing strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    if strategy == GATE:
        w = rng.normal(0.0, 0.02, size=(embed_dim, num_experts))
        return RoutingTable(GATE, gate_weight=Tensor(w, requires_grad=True),
                            num_experts=num_experts)

    if vocab_freqs is None or len(vocab_freqs) == 0:
        raise MoEError("hash routing needs a vocabulary")
    vocab_size = len(vocab_freqs)
    if strategy == HASH_RANDOM:
        table = rng.integers(0, num_experts, size=vocab_size)
        return RoutingTable(HASH_RANDOM, table=np.asarray(table, dtype=np.int64),
                            num_experts=num_experts)

    # hash_balanced: greedy longest-processing-time assignment by frequency
    freqs = np.asarray(vocab_freqs, dtype=np.float64)
    order = sorted(range(vocab_size), key=lambda t: (-freqs[t], t))
    loads = np.zeros(num_experts)
    table = np.zeros(vocab_size, dtype=np.int64)
    for tok in order:
        e = int(np.argmin(loads))
        table[tok] = e
        loads[e] += freqs[tok]
    return RoutingTable(HASH_BALANCED, table=table, num_experts=num_experts)


def routing_loads(table: np.ndarray, freqs: np.ndarray, num_experts: int) -> np.ndarray:
    """Fraction of corpus token mass routed to each expert (PAD excluded)."""
    loads = np.bincount(table[1:], weights=freqs[1:len(table)], minlength=num_experts)
    total = loads.sum()
    return loads / total if total > 0 else loads


def moe_forward(attn_out: Tensor, experts: ExpertSet, routing: RoutingTable | None,
                token_ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """FFN sublayer output (pre-residual) for one layer, as one ``moe_ffn`` node.

    Without routing (a dense layer) every token goes to expert 0. Hash
    strategies route each token by its id with weight 1; the gate routes
    whole sentences to their argmax expert, scaling the output by the selected
    probability so the gate weight receives gradient (through that entry only).
    """
    weights = (experts.w1, experts.b1, experts.w2, experts.b2)
    if routing is None:
        return moe_ffn(attn_out, None, *weights, sink=experts.sink)
    if routing.strategy != GATE:
        if token_ids.max(initial=0) >= len(routing.table):
            raise MoEError("token id outside the routing table")
        return moe_ffn(attn_out, routing.table[token_ids], *weights)
    batch, seq, _ = attn_out.shape
    probs = softmax(matmul(masked_mean_rows(attn_out, mask), routing.gate_weight))
    sel = np.argmax(probs.data, axis=1)  # ties -> lowest expert id
    route = np.repeat(sel, seq).reshape(batch, seq)
    # every token of sentence b is scaled by probs[b, sel[b]], its one gradient path
    scale = take(reshape(probs, (-1,)), route + (np.arange(batch) * experts.num_experts)[:, None])
    return moe_ffn(attn_out, route, *weights, scale=scale)
