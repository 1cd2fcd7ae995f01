import numpy as np
import pytest

from moedistill import tensor as T
from moedistill import importance as imp
from moedistill.data import (Dataset, Example, build_vocab, encode_dataset, gen_synthetic_task,
                             pad_batch)
from moedistill.distill import DistillConfig, train_teacher
from moedistill.model import EncoderModel, ModelConfig, MoEConfig
from moedistill.pipeline import adapt_model

from oracles import importance_oracle, importance_per_example


def tiny_model(d=4, d_h=6, layers=1, vocab=20, seed=0):
    cfg = ModelConfig(vocab_size=vocab, embed_dim=d, ffn_hidden=d_h,
                      num_layers=layers, num_heads=2, max_seq_len=8,
                      num_labels=2, dropout=0.0)
    return EncoderModel(cfg, seed=seed)


def tiny_dataset(n=4, vocab=20, seed=0, seqlen=5):
    rng = np.random.default_rng(seed)
    exs = []
    for _ in range(n):
        ids = np.concatenate([[2], rng.integers(3, vocab, size=seqlen - 1)])
        exs.append(Example(ids.astype(np.int64), int(rng.integers(2))))
    return Dataset(exs, 2)


class TestRanking:
    def test_simple(self):
        assert imp.rank_scores(np.array([3.0, 1.0, 2.0])).tolist() == [0, 2, 1]

    def test_ties_keep_original_order(self):
        assert imp.rank_scores(np.array([1.0, 1.0, 1.0])).tolist() == [0, 1, 2]

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=100)
        order = imp.rank_scores(scores)
        reference = [i for _, i in sorted(((-s, i) for i, s in enumerate(scores)))]
        assert order.tolist() == reference
        assert sorted(order.tolist()) == list(range(100))


class TestAccumulate:
    def test_scores_nonnegative_and_some_positive(self):
        model = tiny_model()
        ds = tiny_dataset()
        table = imp.accumulate_importance(model, ds)
        for scores in table.scores.values():
            assert (scores >= 0).all()
            assert scores.max() > 0  # random init is not an optimum

    def test_duplicating_dataset_doubles_scores(self):
        model = tiny_model(seed=1)
        ds = tiny_dataset(seed=1)
        once = imp.accumulate_importance(model, ds)
        doubled = imp.accumulate_importance(
            model, Dataset(ds.examples * 2, 2))
        for l in once.scores:
            np.testing.assert_allclose(doubled.scores[l], 2 * once.scores[l],
                                       rtol=1e-12)

    def test_shuffle_invariance(self):
        model = tiny_model(seed=2)
        ds = tiny_dataset(n=6, seed=2)
        a = imp.accumulate_importance(model, ds)
        shuffled = Dataset(list(reversed(ds.examples)), 2)
        b = imp.accumulate_importance(model, shuffled)
        for l in a.scores:
            np.testing.assert_allclose(a.scores[l], b.scores[l], atol=1e-12)

    def test_matches_finite_difference_oracle(self):
        # 1-layer toy model: per-example gradients of each neuron's weights
        # by central differences, then sum |w1_j.g1_j + w2_j.g2_j|
        model = tiny_model(d=2, d_h=3, layers=1, seed=3)
        ds = tiny_dataset(n=4, seed=3)
        table = imp.accumulate_importance(model, ds)

        ffn = model.layers[0].ffn
        step = 1e-6
        expected = np.zeros(3)
        for ex in ds.examples:
            ids, mask, labels = pad_batch([ex])

            def loss_value():
                with T.no_grad():
                    logits, _ = model.forward(ids, mask)
                    return T.cross_entropy_logits(logits, labels).item()

            for j in range(3):
                term = 0.0
                for arr, coords in ((ffn.w1[0].data, [(i, j) for i in range(2)]),
                                    (ffn.w2[0].data, [(j, i) for i in range(2)])):
                    for c in coords:
                        orig = arr[c]
                        arr[c] = orig + step
                        hi = loss_value()
                        arr[c] = orig - step
                        lo = loss_value()
                        arr[c] = orig
                        term += orig * (hi - lo) / (2 * step)
                expected[j] += abs(term)
        np.testing.assert_allclose(table.scores[0], expected, atol=1e-6)

    def test_empty_dataset_raises(self):
        with pytest.raises(imp.ImportanceError):
            imp.accumulate_importance(tiny_model(), Dataset([], 2))

    def test_adapted_model_rejected(self):
        model = tiny_model(d=4, d_h=6)
        table = imp.ImportanceTable({0: np.arange(6, dtype=float)}, 1)
        student = adapt_model(model, table,
                              MoEConfig(2, 3, 0, "hash_random"),
                              np.ones(20), seed=0)
        with pytest.raises(imp.ImportanceError):
            imp.accumulate_importance(student, tiny_dataset())
        with pytest.raises(imp.ImportanceError):
            importance_oracle(student, tiny_dataset(), 0, 0)


def ragged_dataset(n, vocab=20, max_len=8, seed=0):
    """``n`` examples of random lengths 1..``max_len`` (CLS included)."""
    rng = np.random.default_rng(seed)
    exs = []
    for _ in range(n):
        rest = rng.integers(3, vocab, size=int(rng.integers(0, max_len)))
        exs.append(Example(np.concatenate([[2], rest]).astype(np.int64), int(rng.integers(2))))
    return Dataset(exs, 2)


def assert_matches_batch1(model, ds):
    """Batched scores equal the batch-1 loop's within 1e-9 relative, on every layer."""
    got = imp.accumulate_importance(model, ds).scores
    want = importance_per_example(model, ds)
    assert sorted(got) == sorted(want)
    for l in want:
        assert want[l].max() > 0
        np.testing.assert_allclose(got[l], want[l], rtol=1e-9, atol=0)
    return got, want


def count_ops(monkeypatch, fn):
    """Run ``fn`` and return (its result, the graph nodes it made)."""
    made = []
    plain = T._make

    def counted(*args):
        made.append(args[0])
        return plain(*args)

    with monkeypatch.context() as m:
        m.setattr(T, "_make", counted)
        return fn(), made


class TestBatchedMatchesBatch1:
    def test_ragged_lengths_not_a_multiple_of_the_batch(self):
        ds = ragged_dataset(45, seed=7)
        assert len(ds) % imp.BATCH_SIZE != 0
        assert len({len(e.ids) for e in ds.examples}) > 4
        assert_matches_batch1(tiny_model(d=8, d_h=12, layers=2, seed=7), ds)

    def test_one_example(self):
        assert_matches_batch1(tiny_model(d=8, d_h=12, layers=2, seed=8),
                              ragged_dataset(1, seed=8))

    def test_example_alone_equals_it_padded_next_to_a_longer_one(self):
        model = tiny_model(d=8, d_h=12, layers=2, seed=9)
        short, long_ = tiny_dataset(1, seed=9, seqlen=3), tiny_dataset(1, seed=10, seqlen=8)
        pair = Dataset(short.examples + long_.examples, 2)
        got, _ = assert_matches_batch1(model, pair)
        alone = [imp.accumulate_importance(model, d).scores for d in (short, long_)]
        for l in got:
            np.testing.assert_allclose(got[l], alone[0][l] + alone[1][l], rtol=1e-9, atol=0)

    def test_padded_rows_get_exactly_zero_gradient(self):
        model = tiny_model(d=8, d_h=12, layers=2, seed=11)
        ids, mask, labels = pad_batch([Example(np.array([2, 5, 7]), 0),
                                       Example(np.array([2, 4, 9, 11, 6, 3, 8]), 1)])
        seen = []
        for layer in model.layers:
            layer.ffn.sink = lambda z, h, u, delta: seen.append(
                tuple(x.copy() for x in (z, h, u, delta)))
        logits, _ = model.forward(ids, mask)
        T.mul(T.cross_entropy_logits(logits, labels), 2.0).backward()
        assert len(seen) == 2 and mask.sum() == 10 and mask.size == 14
        for arrays in seen:  # the sink sees the real rows only, and no padded row
            assert all(x.shape == (mask.sum(), 12) for x in arrays)
            assert (arrays[2] != 0).any()

    def test_readme_shape_teacher(self):
        task = gen_synthetic_task(1, n_examples=160, n_classes=4, vocab_size=150)
        vocab = build_vocab(task.corpus)
        train = encode_dataset(task.train, vocab, 24, 4)
        cfg = ModelConfig(vocab_size=vocab.size, embed_dim=32, ffn_hidden=64, num_layers=2,
                          num_heads=4, max_seq_len=24, num_labels=4)
        teacher = EncoderModel(cfg, seed=1)
        train_teacher(teacher, train, DistillConfig(epochs=2, seed=1))
        got, want = assert_matches_batch1(teacher, train)
        for l in want:
            assert imp.rank_scores(got[l]).tolist() == imp.rank_scores(want[l]).tolist()


class TestSinkHook:
    def test_forward_logits_and_op_count_unchanged(self, monkeypatch):
        model = tiny_model(d=8, d_h=12, layers=2, seed=12)
        ds = ragged_dataset(5, seed=12)
        ids, mask, _ = pad_batch(ds.examples)

        def logits():
            with T.no_grad():
                return model.forward(ids, mask)[0].data

        before, ops = count_ops(monkeypatch, logits)
        imp.accumulate_importance(model, ds)
        assert all(layer.ffn.sink is None for layer in model.layers)
        after, ops_after = count_ops(monkeypatch, logits)
        calls = []
        for layer in model.layers:
            layer.ffn.sink = lambda *arrays: calls.append(arrays)
        sunk, ops_sunk = count_ops(monkeypatch, logits)
        np.testing.assert_array_equal(after, before)
        np.testing.assert_array_equal(sunk, before)
        assert ops_after == ops_sunk == ops and not calls

    def test_training_graph_and_gradients_unchanged(self, monkeypatch):
        model = tiny_model(d=8, d_h=12, layers=2, seed=13)
        ids, mask, labels = pad_batch(ragged_dataset(5, seed=13).examples)

        def grads():
            model.zero_grads()
            logits, _ = model.forward(ids, mask)
            T.cross_entropy_logits(logits, labels).backward()
            return [p.grad.copy() for p in model.parameters()]

        plain, ops = count_ops(monkeypatch, grads)
        calls = []
        for layer in model.layers:
            layer.ffn.sink = lambda *arrays: calls.append(len(arrays))
        sunk, ops_sunk = count_ops(monkeypatch, grads)
        assert ops_sunk == ops and calls == [4, 4]
        for a, b in zip(plain, sunk):
            np.testing.assert_array_equal(a, b)

    def test_sinks_cleared_when_a_pass_fails(self):
        model = tiny_model(seed=14)
        bad = Dataset([Example(np.array([2, 99]), 0)], 2)  # token outside the vocabulary
        with pytest.raises(ValueError):
            imp.accumulate_importance(model, bad)
        assert all(layer.ffn.sink is None for layer in model.layers)


class TestOracle:
    def test_dead_neuron_has_zero_delta(self):
        model = tiny_model(seed=4)
        ffn = model.layers[0].ffn
        ffn.w1[0].data[:, 2] = 0.0
        ffn.b1[0].data[2] = 0.0
        ffn.w2[0].data[2, :] = 0.0
        delta = importance_oracle(model, tiny_dataset(seed=4), 0, 2)
        assert delta == 0.0

    def test_matches_batch1_loss_difference(self):
        model = tiny_model(d=8, d_h=12, layers=2, seed=15)
        ds = ragged_dataset(45, seed=15)
        ffn = model.layers[1].ffn

        def batch1_loss():
            with T.no_grad():
                return sum(T.cross_entropy_logits(model.forward(*pad_batch([ex])[:2])[0],
                                                  [ex.label]).item() for ex in ds.examples)

        base = batch1_loss()
        saved = [p.data.copy() for p in (ffn.w1[0], ffn.b1[0], ffn.w2[0])]
        ffn.w1[0].data[:, 5], ffn.b1[0].data[5], ffn.w2[0].data[5, :] = 0.0, 0.0, 0.0
        want = abs(base - batch1_loss())
        for p, data in zip((ffn.w1[0], ffn.b1[0], ffn.w2[0]), saved):
            p.data[...] = data
        assert want > 1e-6
        assert importance_oracle(model, ds, 1, 5) == pytest.approx(want, abs=1e-12 * base)

    def test_out_of_range_neuron(self):
        with pytest.raises(imp.ImportanceError):
            importance_oracle(tiny_model(), tiny_dataset(), 0, 99)

    def test_weights_restored_after_oracle(self):
        model = tiny_model(seed=5)
        ds = tiny_dataset(seed=5)
        before = model.layers[0].ffn.w1[0].data.copy()
        importance_oracle(model, ds, 0, 1)
        np.testing.assert_array_equal(model.layers[0].ffn.w1[0].data, before)

    def test_zeroing_all_neurons_matches_degenerate_ffn(self):
        # with every neuron removed the FFN contributes only b2
        model = tiny_model(d=4, d_h=6, seed=6)
        ds = tiny_dataset(n=3, seed=6)
        ffn = model.layers[0].ffn

        saved = (ffn.w1[0].data.copy(), ffn.b1[0].data.copy(), ffn.w2[0].data.copy())
        ffn.w1[0].data[:] = 0.0
        ffn.b1[0].data[:] = 0.0
        ffn.w2[0].data[:] = 0.0
        ablated = 0.0
        with T.no_grad():
            for ex in ds.examples:
                ids, mask, labels = pad_batch([ex])
                logits, _ = model.forward(ids, mask)
                ablated += T.cross_entropy_logits(logits, labels).item()
        ffn.w1[0].data, ffn.b1[0].data, ffn.w2[0].data = saved

        # degenerate oracle: identical model whose FFN output is b2 broadcast
        import math
        b2 = ffn.b2[0].data
        pre = np.zeros(6)
        gelu0 = 0.5 * pre * (1 + np.tanh(math.sqrt(2 / math.pi) * pre))
        assert np.allclose(gelu0 @ saved[2], 0.0)  # GELU(0) W2 term vanishes
        degenerate = 0.0
        orig_forward = model.layers[0].ffn
        from moedistill.moe import ExpertSet
        from moedistill.tensor import Tensor
        model.layers[0].ffn = ExpertSet([Tensor(np.zeros((4, 6)))],
                                        [Tensor(np.zeros(6))],
                                        [Tensor(np.zeros((6, 4)))],
                                        [Tensor(b2.copy())], provenance=None)
        with T.no_grad():
            for ex in ds.examples:
                ids, mask, labels = pad_batch([ex])
                logits, _ = model.forward(ids, mask)
                degenerate += T.cross_entropy_logits(logits, labels).item()
        model.layers[0].ffn = orig_forward
        assert ablated == pytest.approx(degenerate, abs=1e-12)


class TestSerialization:
    def test_json_roundtrip_and_recomputed_ordering(self):
        scores = {0: np.array([0.5, 2.0, 1.0]), 1: np.array([3.0, 3.0, 0.1])}
        table = imp.ImportanceTable(scores, 7)
        cfg = ModelConfig(vocab_size=10, ffn_hidden=3, num_layers=2)
        loaded = imp.ImportanceTable.from_json(table.to_json(), cfg, 7)
        for l in scores:
            np.testing.assert_allclose(loaded.scores[l], scores[l])
        assert loaded.ordering()[0].tolist() == [1, 2, 0]
        assert loaded.ordering()[1].tolist() == [0, 1, 2]
