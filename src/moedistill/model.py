"""A small BERT-style encoder for sequence classification.

Post-layernorm residual blocks: each sublayer computes its function, adds
the residual, then layer-normalizes. Every FFN sublayer is an ExpertSet run
by ``moe.moe_forward``: the dense teacher's is one expert with no routing, a
student's is N experts with a routing table. Both expose the same per-layer
hidden states X^0 .. X^L for distillation (X^0 is the embedding output, each
X^l post-layernorm).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError
from .moe import ExpertSet, RoutingTable, moe_forward, GATE, STRATEGIES


def require_int(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name: str, value, positive: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a finite real >= 0
    (> 0 if ``positive``)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        raise ValueError(f"{name} must be a finite real {'>' if positive else '>='} 0, "
                         f"got {value!r}")


@dataclass
class MoEConfig:
    num_experts: int
    expert_dim: int
    shared_dim: int
    routing: str  # hash_random | hash_balanced | gate

    def __post_init__(self):
        for name, low in (("num_experts", 1), ("expert_dim", 1), ("shared_dim", 0)):
            require_int(name, getattr(self, name), low)
        if self.shared_dim > self.expert_dim:
            raise ValueError(f"shared_dim={self.shared_dim} exceeds expert_dim={self.expert_dim}")
        if self.routing not in STRATEGIES:
            raise ValueError(f"routing must be one of {STRATEGIES}, got {self.routing!r}")


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    ffn_hidden: int = 256
    num_layers: int = 4
    num_heads: int = 4
    max_seq_len: int = 64
    num_labels: int = 2
    dropout: float = 0.1
    moe: MoEConfig | None = None

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "ffn_hidden", "num_layers", "num_heads",
                     "max_seq_len", "num_labels"):
            require_int(name, getattr(self, name), 1)
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.embed_dim % self.num_heads != 0:
            raise ShapeError("num_heads must divide embed_dim", (self.embed_dim,),
                             (self.num_heads,))
        if self.moe is not None and self.moe.expert_dim > self.ffn_hidden:
            raise ValueError(f"expert_dim={self.moe.expert_dim} exceeds "
                             f"ffn_hidden={self.ffn_hidden}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        moe = d.pop("moe", None)
        return cls(moe=MoEConfig(**moe) if moe else None, **d)


@dataclass
class LayerOutputs:
    hidden: list[Tensor]  # X^0 .. X^L, each batch × seq × d
    mask: np.ndarray


_LAYER_TENSORS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                  "attn_ln_g", "attn_ln_b", "ffn_ln_g", "ffn_ln_b")


class EncoderLayer:
    """One transformer block: self-attention + FFN, post-layernorm.

    ``index`` is the block's depth; it names the scope (``layer{index}.attn``,
    ``layer{index}.ffn``) of a ``NonFiniteError`` raised at either sublayer
    output. A layer is dense, one expert of width ``ffn_hidden``, while
    ``routing`` is None.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, index: int):
        self.index = index
        d = cfg.embed_dim

        def lin(nin, nout):
            return (Tensor(rng.normal(0.0, 0.02, size=(nin, nout)), requires_grad=True),
                    Tensor(np.zeros(nout), requires_grad=True))

        self.wq, self.bq = lin(d, d)
        self.wk, self.bk = lin(d, d)
        self.wv, self.bv = lin(d, d)
        self.wo, self.bo = lin(d, d)
        self.attn_ln_g = Tensor(np.ones(d), requires_grad=True)
        self.attn_ln_b = Tensor(np.zeros(d), requires_grad=True)
        w1, b1 = lin(d, cfg.ffn_hidden)
        w2, b2 = lin(cfg.ffn_hidden, d)
        self.ffn = ExpertSet([w1], [b1], [w2], [b2], provenance=None)
        self.routing: RoutingTable | None = None
        self.ffn_ln_g = Tensor(np.ones(d), requires_grad=True)
        self.ffn_ln_b = Tensor(np.zeros(d), requires_grad=True)
        self.num_heads = cfg.num_heads

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        """This block's tensors by checkpoint name: attention and layernorms, then the
        FFN (``ffn_*`` while dense, ``expert{e}.*`` once routed), then ``gate_w``."""
        named = {prefix + n: getattr(self, n) for n in _LAYER_TENSORS}
        ffn = self.ffn
        tags = ["ffn_"] if self.routing is None else [f"expert{e}." for e in range(ffn.num_experts)]
        for e, tag in enumerate(tags):
            named.update({prefix + tag + k: getattr(ffn, k)[e] for k in ("w1", "b1", "w2", "b2")})
        if self.routing is not None and self.routing.gate_weight is not None:
            named[prefix + "gate_w"] = self.routing.gate_weight
        return named

    def forward(self, x: Tensor, bias: np.ndarray, mask: np.ndarray, token_ids: np.ndarray,
                dropout_p: float, rng: np.random.Generator | None) -> Tensor:
        """Four graph nodes: attention, layernorm, moe_ffn, layernorm. ``bias``
        is the attention's key-mask bias (see ``tensor.attention``); the FFN
        skips positions whose ``mask`` is 0."""
        attn = T.attention(x, self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                           self.wo, self.bo, bias, self.num_heads, dropout_p, rng)
        # post-LN turns any NaN or Inf in a row into NaN across the row, so
        # scanning each sublayer output covers every op inside the sublayer
        a = T.check_finite(T.layernorm(attn, self.attn_ln_g, self.attn_ln_b, residual=x),
                           f"layer{self.index}.attn")

        y = T.dropout(moe_forward(a, self.ffn, self.routing, token_ids, mask), dropout_p, rng)
        return T.check_finite(T.layernorm(y, self.ffn_ln_g, self.ffn_ln_b, residual=a),
                              f"layer{self.index}.ffn")


class EncoderModel:
    """Embeddings + L encoder layers + pooler + classifier."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.embed_dim
        self.tok_emb = Tensor(rng.normal(0.0, 0.02, size=(cfg.vocab_size, d)),
                              requires_grad=True)
        self.pos_emb = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_seq_len, d)),
                              requires_grad=True)
        self.emb_ln_g = Tensor(np.ones(d), requires_grad=True)
        self.emb_ln_b = Tensor(np.zeros(d), requires_grad=True)
        self.layers = [EncoderLayer(cfg, rng, i) for i in range(cfg.num_layers)]
        self.pool_w = Tensor(rng.normal(0.0, 0.02, size=(d, d)), requires_grad=True)
        self.pool_b = Tensor(np.zeros(d), requires_grad=True)
        self.cls_w = Tensor(rng.normal(0.0, 0.02, size=(d, cfg.num_labels)),
                            requires_grad=True)
        self.cls_b = Tensor(np.zeros(cfg.num_labels), requires_grad=True)

    # -- parameter access ---------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every tensor once, by checkpoint name, in checkpoint payload order."""
        named = {n: getattr(self, n) for n in ("tok_emb", "pos_emb", "emb_ln_g", "emb_ln_b")}
        for i, layer in enumerate(self.layers):
            named.update(layer.named_parameters(f"layer{i}."))
        named.update({n: getattr(self, n) for n in ("pool_w", "pool_b", "cls_w", "cls_b")})
        return named

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    # -- forward ------------------------------------------------------------

    def forward(self, token_ids: np.ndarray, mask: np.ndarray,
                rng: np.random.Generator | None = None) -> tuple[Tensor, LayerOutputs]:
        """Logits and the hidden states X^0 .. X^L; dropout runs exactly when ``rng``
        is given (training), and never without one (evaluation, the teacher).

        Trailing columns that are padding (mask 0) in every row are dropped
        first, so the hidden states and ``LayerOutputs.mask`` have the trimmed
        width. A row with no real position is a ``ShapeError``.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        mask = np.asarray(mask, dtype=np.float64)
        batch, seq = token_ids.shape
        if mask.shape != token_ids.shape:  # a broadcast mask would silently mask other rows
            raise ShapeError("encoder_forward", token_ids.shape, mask.shape)
        if seq > self.cfg.max_seq_len:
            raise ShapeError("encoder_forward", (batch, seq), (self.cfg.max_seq_len,))
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.cfg.vocab_size:
            raise ValueError("token id outside the vocabulary")
        if seq == 0 or np.count_nonzero(mask) < mask.size:  # some position is padding
            real = mask > 0
            if not real.any(axis=1).all():
                raise ShapeError("encoder_forward", mask.shape)  # a row with nothing to read
            seq = int(np.flatnonzero(real.any(axis=0))[-1]) + 1
            token_ids, mask = token_ids[:, :seq], mask[:, :seq]
        p = self.cfg.dropout

        x = T.layernorm(T.take(self.tok_emb, token_ids), self.emb_ln_g, self.emb_ln_b,
                        residual=T.take(self.pos_emb, np.arange(seq)))
        x = T.dropout(T.check_finite(x, "embeddings"), p, rng)
        hidden = [x]
        bias = np.where(mask[:, None, None, :] > 0, 0.0, -1e9)  # padded keys get no attention
        for layer in self.layers:
            x = layer.forward(x, bias, mask, token_ids, p, rng)
            hidden.append(x)

        cls_vec = T.reshape(T.take(x, np.asarray([0]), axis=1), (batch, self.cfg.embed_dim))
        pooled = T.tanh(T.add(T.matmul(cls_vec, self.pool_w), self.pool_b))
        logits = T.check_finite(T.add(T.matmul(pooled, self.cls_w), self.cls_b), "logits")
        return logits, LayerOutputs(hidden, mask)


# -- analytic cost accounting ----------------------------------------------


def cost(cfg: ModelConfig, seq_len: int | None = None) -> dict:
    """The analytic cost of one token's forward pass, as ``bench.json`` reports it.

    ``effective_params``: the parameters the token touches, that is every
    parameter of a dense model; for an MoE model, per layer, attention, one
    expert's FFN and the gate weight (if any), with embeddings and heads once.
    ``total_params``: every stored parameter, all experts included.
    ``flops_per_token``: multiply-accumulates by part and in total. The FFN term
    uses ``expert_dim``, independent of the number of experts; attention's
    score and mix terms scale with ``seq_len`` (default: ``max_seq_len``).
    """
    d, layers, moe = cfg.embed_dim, cfg.num_layers, cfg.moe
    width, experts = (cfg.ffn_hidden, 1) if moe is None else (moe.expert_dim, moe.num_experts)
    gate = experts if moe is not None and moe.routing == GATE else 0
    ffn = 2 * d * width + width + d
    # attention projections, two layernorms, one FFN, the gate
    per_layer = 4 * (d * d + d) + 4 * d + ffn + d * gate
    effective = ((cfg.vocab_size + cfg.max_seq_len + 2) * d  # embeddings with their layernorm
                 + layers * per_layer + d * d + d + (d + 1) * cfg.num_labels)
    flops = {"attention": layers * (4 * d * d + 2 * (seq_len or cfg.max_seq_len) * d),
             "ffn": layers * 2 * d * width, "gate": layers * d * gate,
             "head": d * d + d * cfg.num_labels}
    return {"effective_params": effective,
            "total_params": effective + layers * (experts - 1) * ffn,
            "flops_per_token": {**flops, "total": sum(flops.values())}}
