import functools
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moedistill import checkpoint as C
from moedistill import pipeline
from moedistill.importance import ImportanceTable
from moedistill.model import EncoderModel, ModelConfig, MoEConfig
from moedistill.pipeline import adapt_model
from oracles import edit_header, rewrite_header


def dense_model(seed=0):
    cfg = ModelConfig(vocab_size=40, embed_dim=16, ffn_hidden=32, num_layers=2,
                      num_heads=2, max_seq_len=10, num_labels=2)
    return EncoderModel(cfg, seed=seed)


def moe_model(routing="hash_random", seed=0):
    teacher = dense_model(seed)
    table = ImportanceTable(
        {l: np.random.default_rng(l).permutation(32).astype(float)
         for l in range(2)}, 1)
    moe = MoEConfig(4, 8, 2, routing)
    return adapt_model(teacher, table, moe, np.ones(40), seed=seed)


def batch(seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, 40, size=(2, 6))
    return ids, np.ones((2, 6))


@pytest.mark.parametrize("maker", [dense_model, moe_model,
                                   lambda: moe_model("gate"),
                                   lambda: moe_model("hash_balanced")])
def test_roundtrip_preserves_logits_within_f32(tmp_path, maker):
    model = maker()
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(model, path)
    loaded = C.load_checkpoint(path)
    ids, mask = batch()
    a, _ = model.forward(ids, mask)
    b, _ = loaded.forward(ids, mask)
    np.testing.assert_allclose(a.data, b.data, atol=1e-5)


def test_save_load_save_byte_identical(tmp_path):
    model = moe_model()
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    C.save_checkpoint(model, p1)
    C.save_checkpoint(C.load_checkpoint(p1), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("write", [
    lambda path: C.save_checkpoint(dense_model(seed=1), path),
    lambda path: pipeline._write(path, "x" * 100),
], ids=["save_checkpoint", "pipeline-write"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, write):
    path = str(tmp_path / "teacher.ckpt")
    C.save_checkpoint(dense_model(), path)
    before = open(path, "rb").read()

    class DiskFull:  # writes half of what it is given, then fails
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(C, "open", lambda p, mode="r": (DiskFull(open(p, mode)) if "w" in mode
                                                        else open(p, mode)), raising=False)
    with pytest.raises(OSError):
        write(path)
    assert open(path, "rb").read() == before
    C.load_checkpoint(path)
    assert os.listdir(tmp_path) == ["teacher.ckpt"]


def test_corrupted_payload_byte_rejected(tmp_path):
    model = dense_model()
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(C.CheckpointError, match="checksum"):
        C.load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    model = dense_model()
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(model, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-8])
    with pytest.raises(C.CheckpointError, match="bytes"):
        C.load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    open(path, "wb").write(b"NOPE" + b"\x00" * 64)
    with pytest.raises(C.CheckpointError, match="magic"):
        C.load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(dense_model(), path)
    blob = bytearray(open(path, "rb").read())
    for version in (1, 99):  # the format before the header checksum, and a future one
        blob[4:8] = struct.pack("<I", version)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(C.CheckpointError, match=f"unsupported format version {version}$"):
            C.load_checkpoint(path)


def _other_expert(header):  # one routing-table entry moved to another of the 4 experts
    table = header["routing"][0]["table"]
    table[3] = (table[3] + 1) % 4


def _other_column(header):  # one provenance column swapped for one the expert lacks
    columns = header["provenance"][1][0]
    columns[0] = next(c for c in range(32) if c not in columns)


def _other_dropout(header):
    header["config"]["dropout"] = 0.25


IN_RANGE_EDITS = {"routing-table-entry": _other_expert, "provenance-column": _other_column,
                  "dropout": _other_dropout}


@pytest.mark.parametrize("edit", IN_RANGE_EDITS)
def test_in_range_header_edit_rejected(tmp_path, edit):
    """Each edit gives a header that describes a valid model (it loads once
    rehashed), so only the header checksum can catch it."""
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(moe_model("hash_balanced"), path)
    saved = open(path, "rb").read()
    rewrite_header(path, edit_header(IN_RANGE_EDITS[edit]))
    C.load_checkpoint(path)
    open(path, "wb").write(saved)
    rewrite_header(path, edit_header(IN_RANGE_EDITS[edit], rehash=False))
    with pytest.raises(C.CheckpointError, match="header checksum mismatch"):
        C.load_checkpoint(path)


def test_header_length_past_end_rejected(tmp_path):
    # checked before the read, which would otherwise be sized by the bad length
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(dense_model(), path)
    blob = bytearray(open(path, "rb").read())
    blob[8:12] = struct.pack("<I", 2**32 - 1)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(C.CheckpointError, match="past the end"):
        C.load_checkpoint(path)


def test_routing_tables_exact_after_roundtrip(tmp_path):
    model = moe_model("hash_balanced")
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(model, path)
    loaded = C.load_checkpoint(path)
    for la, lb in zip(model.layers, loaded.layers):
        np.testing.assert_array_equal(la.routing.table, lb.routing.table)
        for pa, pb in zip(la.ffn.provenance, lb.ffn.provenance):
            np.testing.assert_array_equal(pa, pb)


def test_header_carries_metadata(tmp_path):
    model = dense_model()
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(model, path, vocab_file="vocab.json",
                      importance_digest="abc123")
    header = C.read_header(path)
    assert header["vocab_file"] == "vocab.json"
    assert header["importance_digest"] == "abc123"
    assert header["config"]["embed_dim"] == 16
    names = [m["name"] for m in header["manifest"]]
    assert "tok_emb" in names and "layer0.ffn_w1" in names


def test_dense_header_has_null_provenance(tmp_path):
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(dense_model(), path)
    assert C.read_header(path)["provenance"] == [None, None]


@functools.lru_cache(maxsize=None)
def small_moe_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        C.save_checkpoint(moe_model(), path)
        return open(path, "rb").read()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupted_bytes_load_or_raise_checkpoint_error(data):
    blob = small_moe_bytes()
    if data.draw(st.booleans(), label="truncate"):
        corrupt = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:  # flip bits in the prefix or the JSON header; the payload has a checksum
        header_end = 12 + struct.unpack("<I", blob[8:12])[0]
        corrupt = bytearray(blob)
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            corrupt[data.draw(st.integers(0, header_end - 1))] ^= data.draw(st.integers(1, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        open(path, "wb").write(bytes(corrupt))
        try:
            C.load_checkpoint(path)
        except C.CheckpointError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_single_bit_flip_in_prefix_or_header_rejected(data):
    """The header checksum leaves no in-range edit: every one-bit change before
    the payload is a ``CheckpointError``."""
    blob = bytearray(small_moe_bytes())
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    blob[data.draw(st.integers(0, header_end - 1))] ^= 1 << data.draw(st.integers(0, 7))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(C.CheckpointError):
            C.load_checkpoint(path)
