"""Plain-numpy reference for the encoder, written apart from the program.

The correctness checks compare the program's outputs against this module. It
shares no code with ``moedistill``: it parses checkpoint files itself and runs
the forward pass as straight-line numpy, with the MoE dispatch done one token
(hash routing) or one sentence (gate routing) at a time.

Parameters travel as ``Weights``: a dict of float64 arrays keyed by the
checkpoint manifest names (``tok_emb``, ``layer0.wq``, ``layer1.expert2.w1``,
...), the model config dict, and per-layer routing (``None`` for a dense FFN,
otherwise ``{"strategy", "table" | "gate_w"}``).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass
class Weights:
    params: dict[str, np.ndarray]
    config: dict
    routing: list[dict | None]
    provenance: list[list[np.ndarray] | None]


def read_checkpoint(path: str) -> Weights:
    """Parse a ``MOEB`` checkpoint: magic, version, header length, JSON
    header, float32 payload in manifest order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"MOEB":
        raise ValueError(f"{path}: not a MOEB checkpoint")
    _, hlen = struct.unpack("<II", blob[4:12])
    header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    payload = blob[12 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise ValueError(f"{path}: payload checksum mismatch")
    params, offset = {}, 0
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(payload, dtype="<f4", count=n, offset=offset)
        params[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += 4 * n
    if offset != len(payload):
        raise ValueError(f"{path}: payload length does not match the manifest")
    routing = []
    for i, rh in enumerate(header["routing"]):
        if rh is None:
            routing.append(None)
        elif rh["strategy"] == "gate":
            routing.append({"strategy": "gate", "gate_w": params[f"layer{i}.gate_w"]})
        else:
            routing.append({"strategy": rh["strategy"],
                            "table": np.asarray(rh["table"], dtype=np.int64)})
    provenance = [None if p is None else [np.asarray(c, dtype=np.int64) for c in p]
                  for p in header["provenance"]]
    return Weights(params, header["config"], routing, provenance)


LN_EPS = 1e-12  # the variance floor of the model's layer norm


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + LN_EPS) + b


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _expert(p, prefix, a):
    return gelu(a @ p[prefix + "w1"] + p[prefix + "b1"]) @ p[prefix + "w2"] + p[prefix + "b2"]


def _ffn(w: Weights, layer: int, a, ids, mask):
    p, pre = w.params, f"layer{layer}."
    route = w.routing[layer]
    if route is None:
        return gelu(a @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]) @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
    y = np.zeros_like(a)
    if route["strategy"] == "gate":
        for i in range(a.shape[0]):
            keep = mask[i] > 0
            sentence = a[i][keep].mean(axis=0)
            probs = softmax(sentence @ route["gate_w"])
            e = int(np.argmax(probs))
            y[i] = _expert(p, pre + f"expert{e}.", a[i]) * probs[e]
        return y
    for i in range(a.shape[0]):
        for t in range(a.shape[1]):
            e = int(route["table"][ids[i, t]])
            y[i, t] = _expert(p, pre + f"expert{e}.", a[i, t])
    return y


def forward(w: Weights, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Logits for a padded batch (post-layernorm encoder, CLS pooler)."""
    p, cfg = w.params, w.config
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    batch, seq = ids.shape
    heads = cfg["num_heads"]
    dk = cfg["embed_dim"] // heads
    x = layer_norm(p["tok_emb"][ids] + p["pos_emb"][:seq], p["emb_ln_g"], p["emb_ln_b"])
    key_bias = np.where(mask > 0, 0.0, -np.inf)[:, None, None, :]
    for l in range(cfg["num_layers"]):
        pre = f"layer{l}."

        def split(t):
            return t.reshape(batch, seq, heads, dk).transpose(0, 2, 1, 3)

        q = split(x @ p[pre + "wq"] + p[pre + "bq"])
        k = split(x @ p[pre + "wk"] + p[pre + "bk"])
        v = split(x @ p[pre + "wv"] + p[pre + "bv"])
        att = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(dk) + key_bias)
        ctx = (att @ v).transpose(0, 2, 1, 3).reshape(batch, seq, heads * dk)
        a = layer_norm(x + ctx @ p[pre + "wo"] + p[pre + "bo"],
                       p[pre + "attn_ln_g"], p[pre + "attn_ln_b"])
        x = layer_norm(a + _ffn(w, l, a, ids, mask), p[pre + "ffn_ln_g"], p[pre + "ffn_ln_b"])
    pooled = np.tanh(x[:, 0] @ p["pool_w"] + p["pool_b"])
    return pooled @ p["cls_w"] + p["cls_b"]


def example_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example cross entropy."""
    m = logits.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))[:, 0]
    return lse - logits[np.arange(len(labels)), labels]


def tokenize(texts: list[str], token_to_id: dict[str, int], max_len: int):
    """Whitespace tokens behind a CLS id (2), unknown tokens to UNK (1),
    padded with PAD (0) to the longest row; returns (ids, mask)."""
    rows = [[2] + [token_to_id.get(t, 1) for t in s.split()] for s in texts]
    rows = [r[:max_len] for r in rows]
    width = max(len(r) for r in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    mask = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        ids[i, :len(r)] = r
        mask[i, :len(r)] = 1.0
    return ids, mask
