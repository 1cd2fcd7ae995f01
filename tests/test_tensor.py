import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moedistill import tensor as T
from moedistill.tensor import Tensor, ShapeError, NonFiniteError
from oracles import (composed_attention, composed_ffn, gelu, gelu_grad_whole, gelu_tanh_whole,
                     one_expert_ffn, scatter_rows)


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestForwardOps:
    def test_matmul_identity(self):
        x = rand((4, 5), 0)
        out = T.matmul(Tensor(x), Tensor(np.eye(5)))
        np.testing.assert_array_equal(out.data, x)

    def test_matmul_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(Tensor(rand((2, 3), 0)), Tensor(rand((4, 2), 1)))

    def test_softmax_uniform_on_constant_row(self):
        out = T.softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_softmax_rows_sum_to_one(self):
        out = T.softmax(Tensor(rand((6, 9), 2)))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)

    def test_layernorm_constant_row_is_zero(self):
        d = 8
        out = T.layernorm(Tensor(np.full((2, d), 3.7)), Tensor(np.ones(d)),
                          Tensor(np.zeros(d)))
        np.testing.assert_allclose(out.data, np.zeros((2, d)), atol=1e-5)

    def test_layernorm_standardizes(self):
        d = 32
        x = rand((5, d), 3)
        out = T.layernorm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-9)

    def test_gelu_at_one_matches_closed_form(self):
        # frozen from an independent evaluation of the tanh approximation
        out = gelu(Tensor(np.array(1.0).reshape(1, 1)))
        assert out.data[0, 0] == pytest.approx(0.8411919906082768, abs=1e-15)

    def test_kl_self_is_zero(self):
        p = T.softmax(Tensor(rand((4, 3), 4)))
        assert T.kl_div(p, p).item() == 0.0

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteError):
            T.tanh(Tensor([[0.0, np.nan]]))

    def test_cross_entropy_matches_manual(self):
        logits = rand((3, 4), 5)
        labels = np.array([1, 0, 3])
        out = T.cross_entropy_logits(Tensor(logits), labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(3), labels]).mean()
        assert out.item() == pytest.approx(expected, rel=1e-12)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(rand((3, 4), 0), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_unused_leaf_gets_no_grad(self):
        x = Tensor(rand((2, 2), 0), requires_grad=True)
        p = Tensor(rand((2, 2), 1), requires_grad=True)
        T.tsum(T.mul(x, x)).backward()
        assert p.grad is None  # not on any path to the loss

    def test_nonscalar_backward_raises(self):
        x = Tensor(rand((2, 2), 0), requires_grad=True)
        with pytest.raises(ShapeError):
            T.mul(x, 2.0).backward()

    def test_backward_twice_raises(self):
        x = Tensor(rand((2, 2), 0), requires_grad=True)
        loss = T.tsum(x)
        loss.backward()
        with pytest.raises(RuntimeError, match="twice"):
            loss.backward()

    def test_each_node_grads_runs_once_per_backward(self):
        # h feeds both inputs of the layernorm: each node's grads still runs once
        x = Tensor(rand((3, 4), 0), requires_grad=True)
        calls = {}

        def counted(t):
            inner = t._grads

            def grads(g):
                calls[t._op] = calls.get(t._op, 0) + 1
                return inner(g)

            t._grads = grads
            return t

        h = counted(T.tanh(x))
        out = counted(T.layernorm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)), residual=h))
        T.tsum(T.mul(out, Tensor(rand((3, 4), 1)))).backward()
        assert calls == {"tanh": 1, "layernorm": 1}

    def test_dropout_node_matches_mul_by_its_mask(self):
        # the composed form it replaced: a mul against the mask as a constant
        x = rand((3, 4), 2)
        results = []
        for node in (True, False):
            a = Tensor(x, requires_grad=True)
            rng = np.random.default_rng(3)
            if node:
                out = T.dropout(a, 0.4, rng)
                assert len(out._parents) == 1
            else:
                out = T.mul(a, Tensor(T._dropout_keep(a.shape, 0.4, rng)))
            T.tsum(T.mul(out, Tensor(rand((3, 4), 4)))).backward()
            results.append((out.data, a.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_chain_matmul_gelu_mse_matches_finite_diff(self):
        a = Tensor(rand((3, 3), 10), requires_grad=True)
        b = Tensor(rand((3, 3), 11), requires_grad=True)
        target = Tensor(rand((3, 3), 12))

        def f():
            return T.mse(gelu(T.matmul(a, b)), target)

        err = T.finite_diff_check(f, [a, b], n_samples=18)
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops_gradients_match_finite_diff(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        g = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        target = Tensor(rng.normal(size=(2, 4)))
        labels = rng.integers(0, 4, size=2)

        def f():
            h = T.layernorm(gelu(T.matmul(x, w)), g, b)
            p = T.softmax(h)
            ce = T.cross_entropy_logits(h, labels)
            kl = T.kl_div(p, T.softmax(target))
            return T.add(T.add(T.mse(h, target), ce), kl)

        err = T.finite_diff_check(f, [x, w, g, b], n_samples=30,
                                  rng=np.random.default_rng(seed))
        assert err <= 1e-5

    def test_take_and_scatter_roundtrip_grads(self):
        x = Tensor(rand((6, 3), 7), requires_grad=True)
        idx = np.array([4, 0, 2])

        def f():
            picked = T.take(x, idx)
            return T.tsum(T.mul(scatter_rows(picked, idx, 6), 2.0))

        err = T.finite_diff_check(f, [x], n_samples=18)
        assert err <= 1e-8


def assert_rel_close(actual, expected, rel):
    """Max absolute difference within ``rel`` of the largest expected entry."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def ffn_params(lead, seed, d=3, dh=7, dout=4):
    rng = np.random.default_rng(seed)
    shapes = [lead + (d,), (d, dh), (dh,), (dh, dout), (dout,)]
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


class TestFusedFFN:
    @pytest.mark.parametrize("lead", [(6,), (2, 5)])
    def test_forward_and_gradients_match_composed_chain(self, lead):
        weight = Tensor(rand(lead + (4,), 9))
        results = []
        for op in (one_expert_ffn, composed_ffn):
            params = ffn_params(lead, seed=len(lead))
            out = op(*params)
            T.tsum(T.mul(out, weight)).backward()
            results.append([out.data] + [p.grad for p in params])
        for fused, oracle in zip(*results):
            assert_rel_close(fused, oracle, 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_diff(self, seed):
        params = ffn_params((2, 3), seed)
        weight = Tensor(rand((2, 3, 4), seed + 100))

        def f():
            return T.tsum(T.mul(one_expert_ffn(*params), weight))

        err = T.finite_diff_check(f, params, n_samples=40,
                                  rng=np.random.default_rng(seed))
        assert err <= 1e-6

    def test_no_grad_records_no_parents(self):
        params = ffn_params((2, 3), 0)
        with T.no_grad():
            out = one_expert_ffn(*params)
        assert out._parents == [] and out._grads is None and not out.requires_grad

    def test_mismatched_weights_raise(self):
        a, w1, b1, _, b2 = ffn_params((2,), 0)
        with pytest.raises(ShapeError, match="ffn"):
            one_expert_ffn(a, w1, b1, Tensor(np.zeros((6, 4))), b2)

    def test_gelu_matches_closed_form_with_pow_cube(self):
        x = np.linspace(-12.0, 12.0, 4801)
        closed = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
        np.testing.assert_allclose(gelu(Tensor(x)).data, closed, rtol=1e-12, atol=1e-15)

    def test_gelu_gradient_matches_finite_diff(self):
        # elementwise central differences: a finite-difference check of the
        # summed output would lose the tiny tail gradients to cancellation
        x = np.linspace(-12.0, 12.0, 97)
        xt = Tensor(x, requires_grad=True)
        T.tsum(gelu(xt)).backward()
        step = 1e-6
        numeric = (gelu(Tensor(x + step)).data - gelu(Tensor(x - step)).data) / (2 * step)
        np.testing.assert_allclose(xt.grad, numeric, rtol=1e-6, atol=1e-8)


def moe_ffn_params(n, seed, d=3, dh=5, dout=4):
    """Per-expert ffn weights as four lists of ``n`` trainable tensors."""
    rng = np.random.default_rng(seed)
    shapes = [(d, dh), (dh,), (dh, dout), (dout,)]
    return [[Tensor(rng.normal(size=s), requires_grad=True) for _ in range(n)]
            for s in shapes]


class TestMoeFFN:
    # rows of a (2, 5) input; expert 2 of 4 is idle
    ROUTE = np.array([[0, 3, 1, 0, 3], [1, 1, 0, 3, 0]])

    def test_matches_ffn_of_each_row(self):
        a = rand((2, 5, 3), 1)
        weights = moe_ffn_params(4, 2)
        scale = rand((2, 5), 3)
        out = T.moe_ffn(Tensor(a), self.ROUTE, *weights, scale=Tensor(scale))
        for b in range(2):
            for t in range(5):
                e = self.ROUTE[b, t]
                row = composed_ffn(Tensor(a[b, t][None]), *(w[e] for w in weights)).data[0]
                assert_rel_close(out.data[b, t], scale[b, t] * row, 1e-12)

    @pytest.mark.parametrize("with_scale", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_diff(self, seed, with_scale):
        a = Tensor(rand((2, 5, 3), seed), requires_grad=True)
        weights = moe_ffn_params(4, seed + 10)
        scale = Tensor(rand((2, 5), seed + 20), requires_grad=True) if with_scale else None
        weight = Tensor(rand((2, 5, 4), seed + 100))
        params = [a] + [p for ws in weights for i, p in enumerate(ws) if i != 2]
        params += [scale] if with_scale else []

        def f():
            return T.tsum(T.mul(T.moe_ffn(a, self.ROUTE, *weights, scale=scale), weight))

        err = T.finite_diff_check(f, params, n_samples=60,
                                  rng=np.random.default_rng(seed))
        assert err <= 1e-6
        assert all(ws[2].grad is None for ws in weights)  # the idle expert

    @pytest.mark.parametrize("with_scale", [False, True])
    def test_every_row_on_one_expert_matches_its_composed_ffn(self, with_scale):
        # one busy expert: the rows are already in expert order, so no sort
        route = np.full((2, 5), 2)
        weights = moe_ffn_params(4, 5)
        weight = Tensor(rand((2, 5, 4), 6))
        results = []
        for fused in (True, False):
            a = Tensor(rand((2, 5, 3), 4), requires_grad=True)
            scale = Tensor(rand((2, 5), 7), requires_grad=True) if with_scale else None
            if fused:
                out = T.moe_ffn(a, route, *weights, scale=scale)
            else:
                out = composed_ffn(a, *(ws[2] for ws in weights))
                if with_scale:
                    out = T.mul(out, T.reshape(scale, (2, 5, 1)))
            T.tsum(T.mul(out, weight)).backward()
            results.append([out.data, a.grad] + [ws[2].grad for ws in weights]
                           + ([scale.grad] if with_scale else []))
            if fused:
                assert all(ws[e].grad is None for ws in weights for e in (0, 1, 3))
            for ws in weights:
                ws[2].zero_grad()
        for fused, oracle in zip(*results):
            assert_rel_close(fused, oracle, 1e-12)

    def test_no_grad_records_no_parents(self):
        with T.no_grad():
            out = T.moe_ffn(Tensor(rand((2, 5, 3), 0)), self.ROUTE, *moe_ffn_params(4, 0))
        assert out._parents == [] and out._grads is None and not out.requires_grad

    def test_bad_route_or_weights_raise(self):
        a = Tensor(rand((2, 5, 3), 0))
        weights = moe_ffn_params(4, 0)
        with pytest.raises(ShapeError, match="moe_ffn"):
            T.moe_ffn(a, self.ROUTE[:, :4], *weights)
        with pytest.raises(ShapeError, match="moe_ffn"):
            T.moe_ffn(a, self.ROUTE, *weights, scale=Tensor(np.ones((2, 1))))
        with pytest.raises(ValueError, match="route outside"):
            T.moe_ffn(a, self.ROUTE + 1, *weights)
        for w, shape in zip(weights, [(3, 6), (6,), (6, 4)]):  # expert 3 wider than the rest
            w[3] = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError, match="moe_ffn"):
            T.moe_ffn(a, self.ROUTE, *weights)
        weights = moe_ffn_params(4, 0)
        weights[2][1] = Tensor(np.zeros((6, 4)))
        with pytest.raises(ShapeError, match="moe_ffn"):
            T.moe_ffn(a, self.ROUTE, *weights)


def assert_gelu_exact(x):
    """Both forms of ``_gelu_tanh`` and ``_gelu_grad`` equal the whole-buffer oracles bit for bit."""
    h_oracle, t_oracle = gelu_tanh_whole(x, keep_t=True)
    h, t = T._gelu_tanh(x, keep_t=True)
    assert h.shape == t.shape == x.shape
    assert np.array_equal(h, h_oracle) and np.array_equal(t, t_oracle)
    h, t = T._gelu_tanh(x, keep_t=False)
    assert t is None and np.array_equal(h, h_oracle)
    assert np.array_equal(T._gelu_grad(x, t_oracle), gelu_grad_whole(x, t_oracle))


class TestBlockedGelu:
    """The blocked GELU passes against the whole-buffer forms they replaced."""

    # row counts, given the rows that fill one block; the last has a ragged tail
    ROWS = {"one": lambda b: 1, "block-1": lambda b: b - 1, "block": lambda b: b,
            "block+1": lambda b: b + 1, "3.5 blocks": lambda b: 3 * b + b // 2}

    @pytest.mark.parametrize("k", [16, 64, 512, 2048])
    @pytest.mark.parametrize("rows", ROWS)
    def test_rows_around_the_block_size(self, k, rows):
        n = self.ROWS[rows](T._BLOCK // k)
        assert_gelu_exact(4.0 * rand((n, k), k + n))

    @pytest.mark.parametrize("shape", [(1,), (T._BLOCK - 1,), (T._BLOCK,), (T._BLOCK + 1,),
                                       (2 * T._BLOCK + 77,), (2, 700, 64), (5, 7, 2048), (3, 4, 5)])
    def test_one_and_three_dimensional_inputs(self, shape):
        assert_gelu_exact(4.0 * rand(shape, len(shape)))

    def test_non_contiguous_input(self):
        assert_gelu_exact(rand((2048, 70), 1).T)

    def test_in_place_gelu_equals_oracle(self):
        for rows in (3, 300):  # one block, then five
            x = rand((rows, 1024), rows)
            z = x.copy()
            assert T._gelu_into(z, z) is z
            assert np.array_equal(z, gelu_tanh_whole(x, keep_t=False)[0])

    def test_never_writes_its_input(self):
        for shape in [(17, 64), (300, 1024)]:
            x = rand(shape, 0)
            before = x.copy()
            T._gelu_tanh(x, keep_t=False)
            _, t = T._gelu_tanh(x, keep_t=True)
            T._gelu_grad(x, t)
            assert np.array_equal(x, before)


def whole_buffer_ffn(monkeypatch):
    """Make ``moe_ffn`` run its GELU and gradient as one whole-buffer pass of the oracles."""
    def gelu_into(x, h, t=None):
        h[...] = gelu_tanh_whole(x, keep_t=False)[0]
        return h

    monkeypatch.setattr(T, "_BLOCK", 1 << 62)
    monkeypatch.setattr(T, "_gelu_tanh", gelu_tanh_whole)
    monkeypatch.setattr(T, "_gelu_into", gelu_into)
    monkeypatch.setattr(T, "_gelu_grad", gelu_grad_whole)


class TestMoeFFNBlocks:
    """``moe_ffn`` on a hidden buffer of several blocks (360 rows of 512) against
    the whole-buffer path: forward, every gradient and the sink's arrays bit for bit."""

    def run(self, case, no_grad):
        batch, seq, d, k = 4, 90, 8, 512
        n = {"dense": 1, "hash": 4, "gate": 4}[case]
        weights = moe_ffn_params(n, 1, d=d, dh=k, dout=d)
        a = Tensor(rand((batch, seq, d), 2), requires_grad=True)
        scale = route = None
        if case == "hash":  # expert 2 is idle
            route = np.random.default_rng(3).choice([0, 1, 3], size=(batch, seq))
        elif case == "gate":
            route = np.repeat(np.array([0, 3, 3, 1]), seq).reshape(batch, seq)
            scale = Tensor(rand((batch, seq), 4), requires_grad=True)
        seen = []

        def sink(*arrays):
            seen.extend(x.copy() for x in arrays)

        with T.no_grad() if no_grad else contextlib.nullcontext():
            out = T.moe_ffn(a, route, *weights, scale=scale, sink=sink)
        if no_grad:
            return [out.data]
        T.tsum(T.mul(out, Tensor(rand(out.shape, 5)))).backward()
        params = [a] + [w for ws in weights for w in ws] + ([] if scale is None else [scale])
        return [out.data] + [p.grad for p in params] + seen

    @pytest.mark.parametrize("no_grad", [False, True])
    @pytest.mark.parametrize("case", ["dense", "hash", "gate"])
    def test_bit_identical_to_whole_buffer_path(self, monkeypatch, case, no_grad):
        blocked = self.run(case, no_grad)
        with monkeypatch.context() as m:
            whole_buffer_ffn(m)
            whole = self.run(case, no_grad)
        assert len(blocked) == len(whole)
        for got, want in zip(blocked, whole):  # an idle expert's gradients are None on both paths
            assert (got is None and want is None) or np.array_equal(got, want)
        if case == "hash" and not no_grad:
            assert whole[4] is None  # w1 of expert 2, after the output, a's and w1s[0..1]'s

    def test_dense_without_route_equals_zero_route(self):
        weights = moe_ffn_params(1, 1, d=8, dh=512, dout=8)
        results = []
        for route in (None, np.zeros((4, 90), dtype=np.int64)):
            a = Tensor(rand((4, 90, 8), 2), requires_grad=True)
            out = T.moe_ffn(a, route, *weights)
            T.tsum(T.mul(out, Tensor(rand(out.shape, 5)))).backward()
            results.append([out.data, a.grad] + [ws[0].grad for ws in weights])
            for ws in weights:
                ws[0].zero_grad()
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_no_grad_never_writes_its_inputs(self):
        weights = moe_ffn_params(4, 1, d=8, dh=512, dout=8)
        a = rand((4, 90, 8), 2)
        before = [a.copy()] + [w.data.copy() for ws in weights for w in ws]
        with T.no_grad():
            T.moe_ffn(Tensor(a), np.zeros((4, 90), dtype=np.int64), *weights)
        after = [a] + [w.data for ws in weights for w in ws]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


# the key mask of ``test_model._tiny_batch``: its second sentence pads two keys
PADDED = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])


def attention_params(seed, batch=2, seq=5, d=8):
    """x (batch, seq, d), then wq, bq, wk, bk, wv, bv, wo, bo, all trainable."""
    rng = np.random.default_rng(seed)
    shapes = [(batch, seq, d)] + [(d, d), (d,)] * 4
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def key_bias(mask):
    return np.where(mask[:, None, None, :] > 0, 0.0, -1e9)


class TestAttention:
    HEADS = 2

    @pytest.mark.parametrize("p, mask", [(0.0, np.ones((2, 5))), (0.3, np.ones((2, 5))),
                                         (0.0, PADDED), (0.3, PADDED)])
    def test_forward_and_gradients_match_composed_chain(self, p, mask):
        weight = Tensor(rand((2, 5, 8), 11))
        results = []
        for fused in (True, False):
            params = attention_params(seed=4)
            rng = np.random.default_rng(5)  # the same seed, so the same dropout masks
            if fused:
                out = T.attention(*params, key_bias(mask), self.HEADS, p, rng)
            else:
                out = composed_attention(*params, mask, self.HEADS, p, rng)
            T.tsum(T.mul(out, weight)).backward()
            results.append([out.data] + [t.grad for t in params])
        # softmax ignores a shift shared by all of a query's scores, so bk's
        # exact gradient is 0 and both ops give rounding noise for it: bound
        # that noise by the scale of wk's gradient instead
        scale = np.max(np.abs(results[1][4]))
        for bk in (results[0].pop(5), results[1].pop(5)):
            assert np.max(np.abs(bk)) <= 1e-12 * scale
        for fused, oracle in zip(*results):
            assert_rel_close(fused, oracle, 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_diff(self, seed):
        params = attention_params(seed)
        weight = Tensor(rand((2, 5, 8), seed + 100))

        def f():
            out = T.attention(*params, key_bias(PADDED), self.HEADS, 0.3,
                              np.random.default_rng(seed))
            return T.tsum(T.mul(out, weight))

        checked = params[:4] + params[5:]  # bk's exact gradient is 0 (see above)
        err = T.finite_diff_check(f, checked, n_samples=40, rng=np.random.default_rng(seed))
        assert err <= 1e-6

    def test_no_grad_keeps_no_parents_or_arrays(self):
        params = attention_params(0, seq=32)
        bias = key_bias(np.ones((2, 32)))
        probs_bytes = 2 * self.HEADS * 32 * 32 * 8

        def retained(grad):
            """The op's output and the bytes still allocated once it returns."""
            tracemalloc.start()
            try:
                with contextlib.nullcontext() if grad else T.no_grad():
                    out = T.attention(*params, bias, self.HEADS, 0.0, None)
                return out, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        out, kept = retained(False)
        assert out._parents == [] and out._grads is None and not out.requires_grad
        assert kept < probs_bytes
        out, kept = retained(True)
        assert len(out._parents) == 9 and kept > probs_bytes

    def test_mismatched_shapes_raise(self):
        params = attention_params(0)
        with pytest.raises(ShapeError, match="attention"):
            T.attention(*params, key_bias(PADDED), 3, 0.0, None)  # 3 does not divide 8
        params[7] = Tensor(np.zeros((8, 4)))
        with pytest.raises(ShapeError, match="attention"):
            T.attention(*params, key_bias(PADDED), self.HEADS, 0.0, None)


class TestResidualLayernorm:
    @pytest.mark.parametrize("residual_shape", [(2, 5, 8), (5, 8)])
    def test_matches_add_then_layernorm(self, residual_shape):
        weight = Tensor(rand((2, 5, 8), 21))
        results = []
        for fused in (True, False):
            rng = np.random.default_rng(6)
            x, r = (Tensor(rng.normal(size=s), requires_grad=True)
                    for s in ((2, 5, 8), residual_shape))
            g, b = (Tensor(rng.normal(size=8), requires_grad=True) for _ in range(2))
            out = T.layernorm(x, g, b, residual=r) if fused else T.layernorm(T.add(x, r), g, b)
            T.tsum(T.mul(out, weight)).backward()
            results.append([out.data] + [t.grad for t in (x, r, g, b)])
        for fused, oracle in zip(*results):
            assert_rel_close(fused, oracle, 1e-12)

    def test_mismatched_residual_raises(self):
        with pytest.raises(ShapeError, match="layernorm"):
            T.layernorm(Tensor(rand((2, 5, 8), 0)), Tensor(np.ones(8)), Tensor(np.zeros(8)),
                        residual=Tensor(rand((4, 8), 1)))


class TestMatmulWeightGrad:
    @pytest.mark.parametrize("lead", [(5,), (3, 5), (2, 3, 5)])
    def test_matches_batched_expression(self, lead):
        a = rand(lead + (4,), 1)
        g = rand(lead + (6,), 2)
        w = Tensor(rand((4, 6), 3), requires_grad=True)
        T.tsum(T.mul(T.matmul(Tensor(a), w), Tensor(g))).backward()
        # the batched product it replaces, summed back to the weight's shape
        batched = T._unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), w.shape)
        assert_rel_close(w.grad, batched, 1e-12)


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor(rand((5,) * 2, 0), requires_grad=True)

        def f():
            return T.tsum(T.mul(x, x))

        assert T.finite_diff_check(f, [x], n_samples=25) <= 1e-8

    def test_constant_function(self):
        x = Tensor(rand((3, 3), 1), requires_grad=True)

        def f():
            return T.tsum(T.mul(Tensor(np.ones((3, 3))), 2.0))

        assert T.finite_diff_check(f, [x], n_samples=9) == 0.0

    def test_rejects_nonpositive_step(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            T.finite_diff_check(lambda: T.tsum(x), [x], step=0.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_softmax_sums_to_one_property(row):
    out = T.softmax(Tensor([row]))
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert (out.data > 0).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_broadcast_add_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)

    def f():
        return T.tsum(gelu(T.add(x, b)))

    # 1e-6: the stencil's cancellation noise is about 1e-13 of the summed
    # objective, so only sampled coordinates whose GELU derivative is below
    # ~1e-7 (near its zero at -0.75, or cancelling over b's three rows) sit
    # under the noise
    assert T.finite_diff_check(f, [x, b], n_samples=16,
                               rng=np.random.default_rng(seed)) <= 1e-6
