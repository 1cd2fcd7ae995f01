import contextlib
import math

import numpy as np
import pytest

from moedistill import moe as M
from moedistill import tensor as T
from moedistill.checkpoint import load_checkpoint, read_header, save_checkpoint
from moedistill.data import (Dataset, Example, build_vocab, encode_dataset, gen_synthetic_task,
                             pad_batch)
from moedistill.importance import ImportanceTable
from moedistill.model import EncoderModel, ModelConfig, MoEConfig, cost
from moedistill.pipeline import adapt_model, bench_inference
from moedistill.tensor import Tensor, ShapeError, NonFiniteError
from oracles import count_total_params, moe_ffn_padded, one_expert_ffn


def small_cfg(**kw):
    base = dict(vocab_size=50, embed_dim=16, ffn_hidden=32, num_layers=2,
                num_heads=2, max_seq_len=12, num_labels=3)
    base.update(kw)
    return ModelConfig(**base)


def rand_batch(cfg, batch=3, seq=8, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, cfg.vocab_size, size=(batch, seq))
    ids[:, 0] = 2  # CLS
    mask = np.ones((batch, seq))
    mask[0, -2:] = 0.0
    return ids, mask


class TestFFNForward:
    def test_zero_input_zero_bias_gives_zeros(self):
        d, dh = 4, 6
        out = one_expert_ffn(Tensor(np.zeros((2, 3, d))),
                             Tensor(np.zeros((d, dh))), Tensor(np.zeros(dh)),
                             Tensor(np.zeros((dh, d))), Tensor(np.zeros(d)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, d)))

    def test_identity_weights_zero_row(self):
        d = 5
        out = one_expert_ffn(Tensor(np.zeros((1, 1, d))),
                             Tensor(np.eye(d)), Tensor(np.zeros(d)),
                             Tensor(np.eye(d)), Tensor(np.zeros(d)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, d)))

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        d, dh = 3, 7
        a = rng.normal(size=(2, 4, d))
        w1, b1 = rng.normal(size=(d, dh)), rng.normal(size=dh)
        w2, b2 = rng.normal(size=(dh, d)), rng.normal(size=d)
        out = one_expert_ffn(Tensor(a), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        # straight-line reimplementation, no graph machinery
        pre = a @ w1 + b1
        h = 0.5 * pre * (1 + np.tanh(math.sqrt(2 / math.pi) * (pre + 0.044715 * pre ** 3)))
        np.testing.assert_allclose(out.data, h @ w2 + b2, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            one_expert_ffn(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((5, 6))),
                           Tensor(np.zeros(6)), Tensor(np.zeros((6, 4))),
                           Tensor(np.zeros(4)))


class TestEncoderForward:
    def test_output_shapes(self):
        cfg = small_cfg()
        model = EncoderModel(cfg, seed=0)
        ids, mask = rand_batch(cfg)
        logits, outs = model.forward(ids, mask)
        assert logits.shape == (3, cfg.num_labels)
        assert len(outs.hidden) == cfg.num_layers + 1
        for x in outs.hidden:
            assert x.shape == (3, 8, cfg.embed_dim)

    def test_too_long_sequence_raises(self):
        cfg = small_cfg(max_seq_len=6)
        model = EncoderModel(cfg, seed=0)
        ids = np.zeros((1, 7), dtype=np.int64)
        with pytest.raises(ShapeError):
            model.forward(ids, np.ones((1, 7)))

    @pytest.mark.parametrize("mask_shape", [(1, 6), (2, 5)])
    def test_mask_of_another_shape_raises(self, mask_shape):
        # a (1, 6) mask would broadcast row 0's mask over both rows
        model = EncoderModel(small_cfg(), seed=0)
        ids = np.full((2, 6), 5, dtype=np.int64)
        with pytest.raises(ShapeError, match="encoder_forward"):
            model.forward(ids, np.ones(mask_shape))

    def test_token_permutation_equivariance_without_positions(self):
        cfg = small_cfg(num_layers=2)
        model = EncoderModel(cfg, seed=1)
        model.pos_emb.data[:] = 0.0
        ids = np.array([[5, 9, 14, 21, 30]])
        mask = np.ones((1, 5))
        perm = np.array([3, 0, 4, 1, 2])
        _, outs = model.forward(ids, mask)
        _, outs_p = model.forward(ids[:, perm], mask)
        np.testing.assert_allclose(outs_p.hidden[-1].data,
                                   outs.hidden[-1].data[:, perm, :], atol=1e-10)

    def test_bitwise_determinism(self):
        cfg = small_cfg()
        model = EncoderModel(cfg, seed=7)
        ids, mask = rand_batch(cfg, seed=3)
        a, _ = model.forward(ids, mask)
        b, _ = model.forward(ids, mask)
        assert np.array_equal(a.data, b.data)

    def test_unknown_token_raises(self):
        cfg = small_cfg()
        model = EncoderModel(cfg, seed=0)
        ids = np.full((1, 3), cfg.vocab_size, dtype=np.int64)
        with pytest.raises(ValueError):
            model.forward(ids, np.ones((1, 3)))

    @pytest.mark.parametrize("token", [-1, 20])
    def test_token_outside_vocabulary_raises(self, token):
        # np.take would wrap -1 to the last row and read a real embedding
        model = EncoderModel(small_cfg(vocab_size=20), seed=0)
        with pytest.raises(ValueError, match="token id outside the vocabulary"):
            model.forward(np.array([[2, token, 3]]), np.ones((1, 3)))


class TestParamCounting:
    def test_dense_effective_equals_enumeration(self):
        cfg = small_cfg()
        model = EncoderModel(cfg, seed=0)
        assert cost(cfg)["effective_params"] == count_total_params(model)

    def test_dense_parameter_names(self):
        # checkpoints and outside readers address a dense FFN by these names
        per_layer = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "attn_ln_g",
                     "attn_ln_b", "ffn_ln_g", "ffn_ln_b", "ffn_w1", "ffn_b1", "ffn_w2",
                     "ffn_b2"]
        want = (["tok_emb", "pos_emb", "emb_ln_g", "emb_ln_b"]
                + [f"layer{i}.{n}" for i in range(2) for n in per_layer]
                + ["pool_w", "pool_b", "cls_w", "cls_b"])
        assert list(EncoderModel(small_cfg(), seed=0).named_parameters()) == want

    def test_moe_effective_equals_activated_tensor_enumeration(self):
        moe = MoEConfig(num_experts=4, expert_dim=8, shared_dim=2,
                        routing="hash_random")
        cfg = small_cfg(moe=moe)
        d, e = cfg.embed_dim, moe.expert_dim
        dense_ffn = 2 * d * cfg.ffn_hidden + cfg.ffn_hidden + d
        expert_ffn = 2 * d * e + e + d
        diff = cfg.num_layers * (dense_ffn - expert_ffn)
        dense_cfg = small_cfg()
        assert cost(cfg)["effective_params"] == cost(dense_cfg)["effective_params"] - diff

    def test_single_full_expert_equals_dense(self):
        moe = MoEConfig(num_experts=1, expert_dim=32, shared_dim=0,
                        routing="hash_random")
        assert cost(small_cfg(moe=moe))["effective_params"] == \
            cost(small_cfg())["effective_params"]

    def test_total_count_matches_stored_tensors(self):
        moe = MoEConfig(num_experts=4, expert_dim=8, shared_dim=2, routing="gate")
        cfg = small_cfg(moe=moe)
        from moedistill.importance import ImportanceTable
        from moedistill.pipeline import adapt_model
        teacher = EncoderModel(small_cfg(), seed=0)
        table = ImportanceTable(
            {l: np.arange(32, dtype=float)[::-1].copy() for l in range(2)}, 1)
        student = adapt_model(teacher, table, moe, np.ones(50), seed=0)
        assert count_total_params(student) == cost(cfg)["total_params"]

    def test_paper_shaped_ratio(self):
        # BERT-base shape: the MoE effective/dense ratio should land near 66/110
        dense = ModelConfig(vocab_size=30522, embed_dim=768, ffn_hidden=3072,
                            num_layers=12, num_heads=12, max_seq_len=512,
                            num_labels=2)
        moe = ModelConfig(vocab_size=30522, embed_dim=768, ffn_hidden=3072,
                          num_layers=12, num_heads=12, max_seq_len=512,
                          num_labels=2,
                          moe=MoEConfig(num_experts=4, expert_dim=768,
                                        shared_dim=512, routing="hash_random"))
        ratio = cost(moe)["effective_params"] / cost(dense)["effective_params"]
        assert ratio == pytest.approx(66 / 110, rel=0.05)


def _reachable_tensors(model):
    """Every Tensor the model holds, found by walking its attributes, not its registry."""
    found = [v for v in vars(model).values() if isinstance(v, Tensor)]
    for layer in model.layers:
        found += [v for v in vars(layer).values() if isinstance(v, Tensor)]
        found += [*layer.ffn.w1, *layer.ffn.b1, *layer.ffn.w2, *layer.ffn.b2]
        if layer.routing is not None and layer.routing.gate_weight is not None:
            found.append(layer.routing.gate_weight)
    return found


class TestRegistry:
    @pytest.mark.parametrize("reloaded", [False, True], ids=["built", "reloaded"])
    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_parameters_are_the_named_tensors_each_once(self, kind, reloaded, tmp_path):
        model = _tiny_models()[kind]
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        if reloaded:
            model = load_checkpoint(path)
        named, params = model.named_parameters(), model.parameters()
        assert len(params) == len(named)
        assert all(p is t for p, t in zip(params, named.values()))
        held = _reachable_tensors(model)
        assert len({id(t) for t in params}) == len(params) == len(held)
        assert {id(t) for t in params} == {id(t) for t in held}
        assert list(named) == [m["name"] for m in read_header(path)["manifest"]]
        gates = [f"layer{i}.gate_w" for i in range(2)] if kind == "gate" else []
        assert [n for n in named if n.endswith("gate_w")] == gates
        for i, name in enumerate(gates):
            assert named[name] is model.layers[i].routing.gate_weight

    def test_routed_layer_names(self):
        per_layer = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "attn_ln_g",
                     "attn_ln_b", "ffn_ln_g", "ffn_ln_b"]
        experts = [f"expert{e}.{k}" for e in range(2) for k in ("w1", "b1", "w2", "b2")]
        names = list(_tiny_models()["gate"].named_parameters())
        assert names[4:4 + 21] == [f"layer0.{n}" for n in per_layer + experts + ["gate_w"]]

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_bench_inference_reports_cost(self, kind):
        model = _tiny_models()[kind]
        report = bench_inference(model, Dataset([Example(np.array([2, 5, 9]), 0)], 3),
                                 repeats=1)
        assert {k: report[k] for k in ("effective_params", "total_params",
                                       "flops_per_token")} == cost(model.cfg, report["seq_len"])
        assert report["seq_len"] == model.cfg.max_seq_len


def test_dropout_runs_exactly_when_an_rng_is_given():
    model = EncoderModel(small_cfg(dropout=0.5), seed=0)
    ids, mask = rand_batch(model.cfg)
    plain = model.forward(ids, mask)[0].data
    np.testing.assert_array_equal(model.forward(ids, mask, rng=None)[0].data, plain)
    dropped = model.forward(ids, mask, rng=np.random.default_rng(0))[0].data
    assert not np.array_equal(dropped, plain)


class TestFlops:
    def test_moe_ffn_term_ratio_exact(self):
        dense = small_cfg()
        moe = small_cfg(moe=MoEConfig(4, 8, 2, "hash_random"))
        r = cost(moe)["flops_per_token"]["ffn"] / cost(dense)["flops_per_token"]["ffn"]
        assert r == 8 / 32

    def test_invariant_in_expert_count(self):
        a = small_cfg(moe=MoEConfig(2, 8, 2, "hash_random"))
        b = small_cfg(moe=MoEConfig(4, 8, 2, "hash_random"))
        assert cost(a)["flops_per_token"]["ffn"] == cost(b)["flops_per_token"]["ffn"]
        assert cost(a)["flops_per_token"]["total"] == cost(b)["flops_per_token"]["total"]

    def test_paper_shape_ffn_shrinks_4x(self):
        dense = ModelConfig(vocab_size=30522, embed_dim=768, ffn_hidden=3072,
                            num_layers=12, num_heads=12, max_seq_len=128,
                            num_labels=2)
        moe = ModelConfig(vocab_size=30522, embed_dim=768, ffn_hidden=3072,
                          num_layers=12, num_heads=12, max_seq_len=128,
                          num_labels=2,
                          moe=MoEConfig(4, 768, 512, "hash_random"))
        assert cost(dense)["flops_per_token"]["ffn"] == 4 * cost(moe)["flops_per_token"]["ffn"]


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ShapeError):
            small_cfg(embed_dim=15)

    def test_expert_dim_bounded(self):
        with pytest.raises(ValueError):
            small_cfg(moe=MoEConfig(2, 64, 0, "hash_random"))

    def test_shared_dim_bounded(self):
        with pytest.raises(ValueError):
            small_cfg(moe=MoEConfig(2, 16, 20, "hash_random"))

    def test_roundtrip_dict(self):
        cfg = small_cfg(moe=MoEConfig(4, 8, 2, "gate"))
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# -- finiteness checks ------------------------------------------------------

_plain_make = T._make


def _scanning_make(op, out, parents, grads):
    """The rule the model's boundary checks replace: scan every op output."""
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(op)
    return _plain_make(op, out, parents, grads)


def _tiny_models():
    """A dense teacher and its hash_balanced and gate students, 2 layers."""
    cfg = small_cfg(vocab_size=20, embed_dim=8, ffn_hidden=16, num_heads=2,
                    max_seq_len=6)
    teacher = EncoderModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    table = ImportanceTable({l: rng.random(16) for l in range(2)}, 1)
    freqs = np.arange(20, dtype=np.float64)
    students = {routing: adapt_model(teacher, table, MoEConfig(2, 8, 2, routing),
                                     freqs, seed=1)
                for routing in ("hash_balanced", "gate")}
    return {"dense": teacher, **students}


def _tiny_batch():
    ids = np.array([[2, 5, 9, 14, 3], [2, 7, 19, 0, 0]])
    mask = (ids > 0).astype(np.float64)
    return ids, mask


def _forward_raises(model, grad, oracle, monkeypatch):
    """The scope of the NonFiniteError a forward raises, or None."""
    ids, mask = _tiny_batch()
    with monkeypatch.context() as m:
        if oracle:
            m.setattr(T, "_make", _scanning_make)
        try:
            with contextlib.nullcontext() if grad else T.no_grad():
                model.forward(ids, mask)
        except NonFiniteError as exc:
            return exc.op
    return None


class TestFiniteness:
    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_boundary_checks_raise_wherever_every_op_scan_does(self, kind, monkeypatch):
        model = _tiny_models()[kind]
        cases = 0
        with np.errstate(all="ignore"):
            for name, p in model.named_parameters().items():
                saved = p.data.copy()
                for value in (np.nan, np.inf, -np.inf, 1e308, -1e308):
                    for whole in (True, False):
                        if whole:
                            p.data[...] = value
                        else:
                            p.data.flat[p.data.size // 2] = value
                        for grad in (True, False):
                            want = _forward_raises(model, grad, True, monkeypatch)
                            got = _forward_raises(model, grad, False, monkeypatch)
                            assert (got is None) == (want is None), \
                                (name, value, whole, grad, want, got)
                            cases += want is not None
                        p.data[...] = saved
        assert cases > 0

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_scope_names_where_the_value_went_non_finite(self, kind, monkeypatch):
        def raised(poison):
            model = _tiny_models()[kind]
            poison(model)
            with np.errstate(all="ignore"):
                return _forward_raises(model, True, False, monkeypatch)

        def poison_w2(model):
            ffn = model.layers[1].ffn
            for w2 in (ffn.w2 if isinstance(ffn.w2, list) else [ffn.w2]):
                w2.data[...] = np.inf

        assert raised(lambda m: m.tok_emb.data.fill(np.nan)) == "embeddings"
        assert raised(poison_w2) == "layer1.ffn"
        assert raised(lambda m: m.layers[0].wq.data.fill(np.nan)) == "softmax"
        assert raised(lambda m: m.pool_w.data.fill(1e308)) == "tanh"
        assert raised(lambda m: m.cls_w.data.fill(np.inf)) == "logits"

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_logits_identical_to_every_op_scan(self, kind, monkeypatch):
        model = _tiny_models()[kind]
        ids, mask = _tiny_batch()
        plain, _ = model.forward(ids, mask)
        with monkeypatch.context() as m:
            m.setattr(T, "_make", _scanning_make)
            oracle, _ = model.forward(ids, mask)
        assert np.array_equal(plain.data, oracle.data)


@pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
def test_nan_in_value_weights_is_named_by_the_attention_scope(kind, monkeypatch):
    # V does not reach the scores that the fused attention scans, so the
    # sublayer's boundary check names it
    model = _tiny_models()[kind]
    model.layers[0].wv.data.fill(np.nan)
    with np.errstate(all="ignore"):
        assert _forward_raises(model, True, False, monkeypatch) == "layer0.attn"


# -- padding: the FFN skips padded positions, the forward trims padded columns

def _readme_models_and_examples():
    """A dense teacher at the README shape, its hash_balanced and gate students,
    and the README task's eval sentences (9 to 17 tokens)."""
    task = gen_synthetic_task(0, n_examples=480, n_classes=4, vocab_size=150)
    vocab = build_vocab(task.corpus)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=32, ffn_hidden=64, num_layers=2,
                      num_heads=4, max_seq_len=24, num_labels=4, dropout=0.0)
    teacher = EncoderModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    table = ImportanceTable({l: rng.random(64) for l in range(2)}, 1)
    models = {"dense": teacher}
    for routing in ("hash_balanced", "gate"):
        models[routing] = adapt_model(teacher, table, MoEConfig(4, 16, 8, routing),
                                      vocab.freqs, seed=1)
    return models, encode_dataset(task.eval, vocab, 24, 4).examples


def _loss_and_grads(model, ids, mask, labels):
    model.zero_grads()
    logits, outs = model.forward(ids, mask)
    T.cross_entropy_logits(logits, labels).backward()
    return logits.data, [h.data for h in outs.hidden], [p.grad for p in model.parameters()]


class TestPadding:
    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_real_positions_match_the_padded_path(self, kind, monkeypatch):
        """A padded batch of 32: logits and every real position's hidden states
        equal those of the FFN that computes padded rows too; parameter gradients
        agree within 1e-12."""
        models, examples = _readme_models_and_examples()
        ids, mask, labels = pad_batch(examples[:32])
        real = mask > 0
        assert not real.all() and real[:, -1].any()  # padded, with nothing to trim
        logits, hidden, grads = _loss_and_grads(models[kind], ids, mask, labels)
        monkeypatch.setattr(M, "moe_ffn", lambda *args, mask=None, **kw: moe_ffn_padded(*args, **kw))
        ref_logits, ref_hidden, ref_grads = _loss_and_grads(models[kind], ids, mask, labels)
        assert np.array_equal(logits, ref_logits)
        for h, ref in zip(hidden, ref_hidden):
            assert np.array_equal(h[real], ref[real])
        for g, ref in zip(grads, ref_grads):
            if g is None:  # an expert only padded positions reached
                assert ref is None or not ref.any()
            else:
                assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_trailing_padding_columns_are_trimmed(self, kind):
        models, examples = _readme_models_and_examples()
        ids, mask, _ = pad_batch(examples[:5])
        width = ids.shape[1]
        wide_ids, wide_mask = np.zeros((5, 24), dtype=np.int64), np.zeros((5, 24))
        wide_ids[:, :width], wide_mask[:, :width] = ids, mask
        with T.no_grad():
            logits, outs = models[kind].forward(ids, mask)
            wide_logits, wide_outs = models[kind].forward(wide_ids, wide_mask)
        assert np.array_equal(logits.data, wide_logits.data)
        assert np.array_equal(wide_outs.mask, mask)
        for h, wide in zip(outs.hidden, wide_outs.hidden):
            assert wide.shape == (5, width, 32) and np.array_equal(h.data, wide.data)

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    def test_ffn_gets_the_trimmed_mask(self, kind, monkeypatch):
        models, examples = _readme_models_and_examples()
        seen = []

        def recording(*args, mask=None, **kw):
            seen.append(mask)
            return T.moe_ffn(*args, mask=mask, **kw)

        monkeypatch.setattr(M, "moe_ffn", recording)
        one = examples[0].ids
        cases = [(one[None], np.ones((1, len(one)))),
                 # batch 1 padded to a wider input: the trim leaves no padding
                 (np.r_[one, 0, 0][None], np.r_[np.ones(len(one)), 0, 0][None]),
                 pad_batch(examples[:3])[:2],  # three sentences of 14 tokens
                 pad_batch(examples[2:5])[:2]]  # 14, 17 and 17 tokens
        for ids, mask in cases:
            width = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
            seen.clear()
            with T.no_grad():
                models[kind].forward(ids, mask)
            assert len(seen) == 2
            assert all(np.array_equal(m, mask[:, :width]) for m in seen)

    @pytest.mark.parametrize("kind", ["dense", "hash_balanced", "gate"])
    @pytest.mark.parametrize("mask", [[[1, 1, 1], [0, 0, 0]], [[0, 0, 0]], np.zeros((2, 0))],
                             ids=["second-row", "only-row", "no-columns"])
    def test_a_row_with_no_real_position_raises(self, kind, mask):
        mask = np.asarray(mask, dtype=np.float64)
        ids = np.full(mask.shape, 2, dtype=np.int64)
        with pytest.raises(ShapeError) as exc:
            _tiny_models()[kind].forward(ids, mask)
        assert exc.value.op == "encoder_forward"
