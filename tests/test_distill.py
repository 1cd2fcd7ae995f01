import copy

import numpy as np
import pytest

from moedistill import tensor as T
from moedistill import distill as D
from moedistill.data import build_vocab, encode_dataset, gen_synthetic_task, iter_batches
from moedistill.importance import accumulate_importance
from moedistill.model import EncoderModel, LayerOutputs, ModelConfig, MoEConfig
from moedistill.pipeline import adapt_model
from moedistill.tensor import Tensor


def fake_layers(shapes, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    hidden = [Tensor(rng.normal(size=s)) for s in shapes]
    mask = np.ones(shapes[0][:2]) if mask is None else mask
    return LayerOutputs(hidden, mask)


def build_task(seed=0, n=200, n_classes=3, vocab_size=120, max_len=24):
    task = gen_synthetic_task(seed, n_examples=n, n_classes=n_classes,
                              vocab_size=vocab_size)
    vocab = build_vocab(task.corpus)
    train = encode_dataset(task.train, vocab, max_len, n_classes)
    ev = encode_dataset(task.eval, vocab, max_len, n_classes)
    return task, vocab, train, ev


def small_model(vocab, n_classes, seed=0, **kw):
    base = dict(vocab_size=vocab.size, embed_dim=32, ffn_hidden=64,
                num_layers=2, num_heads=4, max_seq_len=24, num_labels=n_classes)
    base.update(kw)
    return EncoderModel(ModelConfig(**base), seed=seed)


class TestLossTrm:
    def test_identical_outputs_zero(self):
        s = fake_layers([(2, 3, 4)] * 3, seed=0)
        t = fake_layers([(2, 3, 4)] * 3, seed=0)
        assert D.loss_trm(s, t).item() == 0.0

    def test_constant_offset_squared(self):
        s = fake_layers([(2, 3, 4)], seed=1)
        t = LayerOutputs([T.add(s.hidden[0], 0.7)], s.mask)
        assert D.loss_trm(s, t, "all").item() == pytest.approx(0.49, rel=1e-12)

    def test_matches_sum_of_means_oracle(self):
        mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=float)
        s = fake_layers([(2, 3, 4)] * 4, seed=2, mask=mask)
        t = fake_layers([(2, 3, 4)] * 4, seed=3, mask=mask)
        got = D.loss_trm(s, t, "all").item()
        expected = 0.0
        for l in range(4):
            diff = (s.hidden[l].data - t.hidden[l].data) ** 2
            w = np.broadcast_to(mask[:, :, None], diff.shape)
            expected += (w * diff).sum() / w.sum()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_layer_subsets(self):
        s = fake_layers([(1, 2, 3)] * 5, seed=4)
        t = fake_layers([(1, 2, 3)] * 5, seed=5)
        all_ = D.loss_trm(s, t, "all").item()
        last = D.loss_trm(s, t, "last").item()
        skip = D.loss_trm(s, t, "skip").item()
        assert all_ >= skip >= 0
        assert all_ >= last
        # skip selects the embedding and every other layer: 0,2,4
        per_layer = [((s.hidden[l].data - t.hidden[l].data) ** 2).mean()
                     for l in range(5)]
        assert skip == pytest.approx(sum(per_layer[0::2]), rel=1e-12)
        assert last == pytest.approx(per_layer[4], rel=1e-12)

    def test_mismatched_depth_raises(self):
        s = fake_layers([(1, 2, 3)] * 3)
        t = fake_layers([(1, 2, 3)] * 4)
        with pytest.raises(T.ShapeError):
            D.loss_trm(s, t)


class TestLossPred:
    def test_identical_zero(self):
        p = T.softmax(Tensor(np.random.default_rng(0).normal(size=(4, 3))))
        assert D.loss_pred(p, p).item() == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        p = T.softmax(Tensor(rng.normal(size=(4, 3))))
        q = T.softmax(Tensor(rng.normal(size=(4, 3))))
        assert D.loss_pred(p, q).item() == pytest.approx(
            D.loss_pred(q, p).item(), rel=1e-12)

    def test_closed_form_two_term_kl(self):
        # frozen from an independent evaluation of 0.5*(KL(p||q)+KL(q||p))
        p = Tensor(np.array([[0.9, 0.1]]))
        q = Tensor(np.array([[0.5, 0.5]]))
        assert D.loss_pred(p, q).item() == pytest.approx(0.4394449154672439,
                                                         rel=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            D.loss_pred(Tensor(np.array([[0.7, 0.1]])),
                        Tensor(np.array([[0.5, 0.5]])))


class TestLossDistill:
    def test_zero_components(self):
        assert D.loss_distill(Tensor(0.0), Tensor(0.0)).item() == 0.0

    def test_exact_sum(self):
        assert D.loss_distill(Tensor(1.25), Tensor(0.5)).item() == 1.75

    def test_recomputed_independently(self):
        mask = np.ones((2, 3))
        s = fake_layers([(2, 3, 4)] * 2, seed=6, mask=mask)
        t = fake_layers([(2, 3, 4)] * 2, seed=7, mask=mask)
        rng = np.random.default_rng(8)
        p = T.softmax(Tensor(rng.normal(size=(2, 3))))
        q = T.softmax(Tensor(rng.normal(size=(2, 3))))
        trm, pred = D.loss_trm(s, t), D.loss_pred(p, q)
        assert D.loss_distill(trm, pred).item() == pytest.approx(
            D.loss_trm(s, t).item() + D.loss_pred(p, q).item(), rel=1e-12)


class TestClipping:
    def test_norm_bounded_after_clip(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.normal(size=(5, 5)), requires_grad=True)
                  for _ in range(3)]
        for p in params:
            p.grad = rng.normal(size=(5, 5)) * 10
        D.clip_gradients(params, 1.0)
        assert D.global_grad_norm(params) <= 1.0 + 1e-9

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        p.grad = np.full((2, 2), 0.01)
        D.clip_gradients([p], 1.0)
        np.testing.assert_array_equal(p.grad, np.full((2, 2), 0.01))


class TestTrainTeacher:
    def test_learns_separable_task(self):
        task, vocab, train, ev = build_task(seed=0, n=300)
        model = small_model(vocab, 3, seed=0)
        cfg = D.DistillConfig(epochs=10, batch_size=16, learning_rate=1e-3, seed=0)
        D.train_teacher(model, train, cfg, eval_set=ev)
        assert D.evaluate_accuracy(model, train) >= 0.95

    def test_fixed_seed_reproducible_bitwise(self):
        _, vocab, train, ev = build_task(seed=1, n=80)
        cfg = D.DistillConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=5)
        recs_a, recs_b = [], []
        ma = small_model(vocab, 3, seed=2)
        mb = small_model(vocab, 3, seed=2)
        D.train_teacher(ma, train, cfg, metrics_sink=recs_a)
        D.train_teacher(mb, train, cfg, metrics_sink=recs_b)
        assert recs_a == recs_b
        for pa, pb in zip(ma.parameters(), mb.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_equals_hand_written_ce_loop(self):
        _, vocab, train, ev = build_task(seed=5, n=60)
        ma = small_model(vocab, 3, seed=3)
        mb = small_model(vocab, 3, seed=3)
        # a clip bound the gradient norm exceeds, so clipping is exercised
        cfg = D.DistillConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=0,
                              weight_decay=0.01, grad_clip_norm=0.05)
        recs = []
        D.train_teacher(ma, train, cfg, eval_set=ev, metrics_sink=recs)

        # plain CE fine-tuning of the same model, same batch stream
        params = mb.parameters()
        opt = D.Adam(params, cfg.learning_rate, weight_decay=cfg.weight_decay)
        rng = np.random.default_rng(cfg.seed)
        epoch_ce = []
        for _ in range(cfg.epochs):
            losses = []
            for ids, mask, labels in iter_batches(train, cfg.batch_size, rng):
                mb.zero_grads()
                logits, _ = mb.forward(ids, mask, rng=rng)
                loss = T.cross_entropy_logits(logits, labels)
                loss.backward()
                assert D.clip_gradients(params, cfg.grad_clip_norm) > cfg.grad_clip_norm
                opt.step()
                losses.append(loss.item())
            epoch_ce.append(sum(losses) / len(losses))
        for pa, pb in zip(ma.parameters(), mb.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

        assert [r["ce"] for r in recs] == epoch_ce
        for r in recs:
            assert r["phase"] == "teacher"
            assert r["trm"] == r["pred"] == 0.0
            assert r["total"] == r["ce"]
        student_recs = []
        teacher = small_model(vocab, 3, seed=3)
        D.train_student(make_student(teacher, train, vocab), teacher, train,
                        D.DistillConfig(epochs=1, batch_size=16, seed=0),
                        eval_set=ev, metrics_sink=student_recs)
        assert set(recs[0]) == set(student_recs[0])

    def test_nonfinite_gradient_aborts_before_step(self, monkeypatch):
        _, vocab, train, _ = build_task(seed=2, n=40)
        model = small_model(vocab, 3, seed=0)
        before = [p.data.copy() for p in model.parameters()]
        poison_gradient(monkeypatch, model.layers[0].wq)
        cfg = D.DistillConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
        with pytest.raises(D.TrainingDiverged, match="gradient norm at epoch 0 step 0"):
            D.train_teacher(model, train, cfg)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_divergence_aborts(self):
        _, vocab, train, _ = build_task(seed=2, n=40)
        model = small_model(vocab, 3, seed=0)
        model.tok_emb.data[:] = 1e308  # overflow in the first layernorm
        cfg = D.DistillConfig(epochs=1, batch_size=8, learning_rate=1.0, seed=0)
        with pytest.raises((D.TrainingDiverged, T.NonFiniteError)):
            D.train_teacher(model, train, cfg)


def poison_gradient(monkeypatch, param):
    """After every backward pass, set one entry of ``param``'s gradient to NaN."""
    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        param.grad.flat[0] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned)


def make_student(teacher, train, vocab, shared_dim=4, routing="hash_random",
                 mode="importance", seed=0):
    table = accumulate_importance(teacher, train)
    moe = MoEConfig(num_experts=4, expert_dim=teacher.cfg.ffn_hidden // 4,
                    shared_dim=shared_dim, routing=routing)
    return adapt_model(teacher, table, moe, vocab.freqs, seed=seed, mode=mode)


class TestTrainStudent:
    def test_teacher_frozen(self):
        _, vocab, train, ev = build_task(seed=3, n=60)
        teacher = small_model(vocab, 3, seed=1)
        student = make_student(teacher, train, vocab)
        before = [p.data.copy() for p in teacher.parameters()]
        cfg = D.DistillConfig(epochs=1, batch_size=16, learning_rate=1e-3, seed=0)
        D.train_student(student, teacher, train, cfg)
        for p, b in zip(teacher.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_nonfinite_gradient_aborts_before_step(self, monkeypatch):
        _, vocab, train, _ = build_task(seed=3, n=60)
        teacher = small_model(vocab, 3, seed=1)
        student = make_student(teacher, train, vocab)
        before = [p.data.copy() for p in student.parameters()]
        poison_gradient(monkeypatch, student.layers[1].ffn.w2[0])
        cfg = D.DistillConfig(epochs=1, batch_size=16, learning_rate=1e-3, seed=0)
        with pytest.raises(D.TrainingDiverged, match="gradient norm at epoch 0 step 0"):
            D.train_student(student, teacher, train, cfg)
        for p, b in zip(student.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_function_preserving_init_zero_losses(self):
        _, vocab, train, _ = build_task(seed=4, n=40)
        teacher = small_model(vocab, 3, seed=2)
        table = accumulate_importance(teacher, train)
        moe = MoEConfig(1, teacher.cfg.ffn_hidden, 0, "hash_random")
        student = adapt_model(teacher, table, moe, vocab.freqs, seed=0)
        ids, mask, labels = next(iter_batches(train, 8))
        cfg = D.DistillConfig(lambda_distill=1.0, seed=0)
        _, (_, trm, pred) = D.distill_batch_loss(student, teacher, ids, mask, labels, cfg)
        assert trm <= 1e-9
        assert pred <= 1e-9

    def test_lambda_zero_equals_ce_only(self):
        _, vocab, train, _ = build_task(seed=5, n=60)
        teacher = small_model(vocab, 3, seed=3)
        sa = make_student(teacher, train, vocab)
        sb = make_student(teacher, train, vocab)
        cfg = D.DistillConfig(lambda_distill=0.0, epochs=2, batch_size=16,
                              learning_rate=1e-3, seed=0)
        recs = []
        D.train_student(sa, teacher, train, cfg, metrics_sink=recs)

        # plain CE fine-tuning of the same student, same batch stream
        params = sb.parameters()
        opt = D.Adam(params, cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.epochs):
            for ids, mask, labels in iter_batches(train, cfg.batch_size, rng):
                sb.zero_grads()
                logits, _ = sb.forward(ids, mask, rng=rng)
                loss = T.cross_entropy_logits(logits, labels)
                loss.backward()
                D.clip_gradients(params, cfg.grad_clip_norm)
                opt.step()
        for pa, pb in zip(sa.parameters(), sb.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_clip_invariant_during_training(self):
        _, vocab, train, _ = build_task(seed=6, n=40)
        teacher = small_model(vocab, 3, seed=4)
        student = make_student(teacher, train, vocab)
        cfg = D.DistillConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=0)
        params = student.parameters()
        opt = D.Adam(params, cfg.learning_rate)
        rng = np.random.default_rng(cfg.seed)
        for ids, mask, labels in iter_batches(train, cfg.batch_size, rng):
            student.zero_grads()
            total, _ = D.distill_batch_loss(student, teacher, ids, mask, labels,
                                            cfg, rng=rng)
            total.backward()
            D.clip_gradients(params, cfg.grad_clip_norm)
            assert D.global_grad_norm(params) <= cfg.grad_clip_norm + 1e-9
            opt.step()

    def test_student_gradient_matches_finite_differences(self):
        _, vocab, train, _ = build_task(seed=7, n=30)
        teacher = small_model(vocab, 3, seed=5)
        student = make_student(teacher, train, vocab)
        ids, mask, labels = next(iter_batches(train, 6))
        cfg = D.DistillConfig(lambda_distill=1.0, seed=0)

        expert_w = student.layers[0].ffn.w1[1]

        def f():
            total, _ = D.distill_batch_loss(student, teacher, ids, mask, labels, cfg)
            return total

        err = T.finite_diff_check(f, [expert_w], n_samples=20,
                                  rng=np.random.default_rng(0))
        assert err <= 1e-4


@pytest.mark.parametrize("field,value", [
    ("learning_rate", "x"), ("learning_rate", -1.0), ("learning_rate", 0.0),
    ("learning_rate", float("inf")), ("learning_rate", float("nan")), ("learning_rate", True),
    ("weight_decay", "x"), ("weight_decay", -5.0), ("weight_decay", float("inf")),
    ("grad_clip_norm", "x"), ("grad_clip_norm", -1.0), ("grad_clip_norm", float("nan")),
    ("lambda_distill", "x"),
])
def test_config_rejects_bad_optimizer_setting(field, value):
    with pytest.raises(ValueError, match=field):
        D.DistillConfig(**{field: value})


def test_config_accepts_optimizer_edge_values():
    cfg = D.DistillConfig(learning_rate=1, weight_decay=0, grad_clip_norm=0.0)
    assert (cfg.learning_rate, cfg.weight_decay, cfg.grad_clip_norm) == (1, 0, 0.0)


def test_zero_clip_norm_leaves_gradients_unscaled():
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.array([3.0, 4.0, 0.0])
    assert D.clip_gradients([p], 0.0) == 5.0
    np.testing.assert_array_equal(p.grad, [3.0, 4.0, 0.0])


def test_config_validation():
    for bad in [dict(lambda_distill=-1.0), dict(lambda_distill=float("nan")),
                dict(lambda_distill=float("inf")), dict(layer_set="everything"),
                dict(batch_size=0), dict(batch_size=2.0), dict(epochs=-1), dict(seed="a"),
                dict(seed=-1), dict(seed=True)]:
        with pytest.raises(ValueError):
            D.DistillConfig(**bad)
