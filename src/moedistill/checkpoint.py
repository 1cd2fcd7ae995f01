"""Binary model checkpoints.

Layout: magic "MOEB" | uint32 version | uint32 header length | JSON header
| payload. The header carries the full model config, a tensor manifest
(name + shape in payload order), routing tables, an optional vocabulary
reference and an importance-table digest. The payload is the manifest's
tensors as little-endian float32, row major, concatenated. Loading checks
the byte length against the manifest exactly, and raises ``CheckpointError``
for any file it cannot read as a model: a short file, a header that is not
JSON or lacks keys, a manifest that does not match the model, or a routing
table entry or provenance column out of range.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .model import EncoderModel, ModelConfig
from .moe import ExpertSet, RoutingTable, GATE, STRATEGIES
from .tensor import Tensor

MAGIC = b"MOEB"
VERSION = 1
_HEADER_KEYS = ("config", "manifest", "routing", "provenance", "payload_sha256")


class CheckpointError(ValueError):
    pass


def _routing_headers(model: EncoderModel) -> list[dict | None]:
    return [None if layer.routing is None else layer.routing.to_header()
            for layer in model.layers]


def _provenance_headers(model: EncoderModel) -> list[list[list[int]] | None]:
    return [None if layer.routing is None
            else [[int(c) for c in prov] for prov in layer.ffn.provenance]
            for layer in model.layers]


def save_checkpoint(model: EncoderModel, path: str,
                    vocab_file: str | None = None,
                    importance_digest: str | None = None) -> None:
    named = model.named_parameters()
    manifest = [{"name": name, "shape": list(t.shape)} for name, t in named.items()]
    payload = b"".join(np.ascontiguousarray(t.data, dtype="<f4").tobytes()
                       for t in named.values())
    header = {
        "format_version": VERSION,
        "config": model.cfg.to_dict(),
        "manifest": manifest,
        "routing": _routing_headers(model),
        "provenance": _provenance_headers(model),
        "vocab_file": vocab_file,
        "importance_digest": importance_digest,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomic(path, MAGIC + struct.pack("<II", VERSION, len(header_bytes)) + header_bytes
                 + payload)


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``:
    a failed write leaves any earlier file at ``path`` whole and no temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_header(fh, path: str) -> dict:
    """Check magic and version, and parse the JSON header; ``fh`` is left at the payload."""
    prefix = fh.read(12)
    if prefix[:4] != MAGIC or len(prefix) < 12:
        raise CheckpointError(f"{path}: bad magic or a file shorter than the prefix")
    version, hlen = struct.unpack("<II", prefix[4:])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    # checked before reading: a corrupt length must not size a huge read
    if 12 + hlen > os.fstat(fh.fileno()).st_size:
        raise CheckpointError(f"{path}: header length {hlen} runs past the end of the file")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    missing = [k for k in _HEADER_KEYS if not isinstance(header, dict) or k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    return header


def read_header(path: str) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path: str) -> EncoderModel:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    try:
        return _model_from(header, payload)
    # a header that parses but does not describe a model fails in many ways
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        detail = (str(exc) if isinstance(exc, CheckpointError)
                  else f"malformed header ({type(exc).__name__}: {exc})")
        raise CheckpointError(f"{path}: {detail}") from None


def _model_from(header: dict, payload: bytes) -> EncoderModel:
    expected = sum(int(np.prod(m["shape"])) * 4 for m in header["manifest"])
    if len(payload) != expected:
        raise CheckpointError(f"payload is {len(payload)} bytes, manifest requires {expected}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError("payload checksum mismatch")

    cfg = ModelConfig.from_dict(header["config"])
    model = EncoderModel(cfg, seed=0)
    if cfg.moe is not None:
        _install_moe_structure(model, header)

    named = model.named_parameters()
    names = [entry["name"] for entry in header["manifest"]]
    if sorted(names) != sorted(named):
        raise CheckpointError("manifest does not list each model tensor once")
    offset = 0
    for entry in header["manifest"]:
        name, shape = entry["name"], tuple(entry["shape"])
        size = int(np.prod(shape)) * 4
        arr = np.frombuffer(payload[offset:offset + size], dtype="<f4").reshape(shape)
        offset += size
        target = named[name]
        if target.shape != shape:
            raise CheckpointError(f"shape mismatch for {name!r}")
        target.data = arr.astype(np.float64)
    return model


def _indices(values, bound: int, what: str) -> np.ndarray:
    """``values`` as an int64 array, if it is a list of ints in [0, bound)."""
    if not (isinstance(values, list)
            and all(type(v) is int and 0 <= v < bound for v in values)):
        raise CheckpointError(f"{what} must be a list of integers in [0, {bound})")
    return np.asarray(values, dtype=np.int64)


def _install_moe_structure(model: EncoderModel, header: dict) -> None:
    """Replace dense FFNs with expert sets shaped per the header, after
    checking each layer's routing and provenance against the config."""
    cfg = model.cfg
    n, e, d = cfg.moe.num_experts, cfg.moe.expert_dim, cfg.embed_dim
    for i, layer in enumerate(model.layers):
        rh, prov = header["routing"][i], header["provenance"][i]
        if (rh is None or rh["strategy"] not in STRATEGIES or rh["strategy"] != cfg.moe.routing
                or rh["num_experts"] != n):
            raise CheckpointError(f"layer {i} routing does not match the model config")
        cols = [_indices(p, cfg.ffn_hidden, f"layer {i} expert {j} provenance")
                for j, p in enumerate(prov)]
        if len(cols) != n or any(len(c) != e or len(set(c.tolist())) != e for c in cols):
            raise CheckpointError(f"layer {i} provenance must give {n} experts {e} distinct columns")
        layer.ffn = ExpertSet(*([Tensor(np.zeros(shape), requires_grad=True) for _ in range(n)]
                                for shape in ((d, e), (e,), (e, d), (d,))), provenance=cols)
        if rh["strategy"] == GATE:
            layer.routing = RoutingTable(
                GATE, gate_weight=Tensor(np.zeros((d, n)), requires_grad=True), num_experts=n)
        else:
            layer.routing = RoutingTable(
                rh["strategy"], table=_indices(rh["table"], n, f"layer {i} routing table"),
                num_experts=n)
