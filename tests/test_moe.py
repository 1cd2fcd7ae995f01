import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moedistill import moe as M
from moedistill import tensor as T
from moedistill.distill import Adam
from moedistill.tensor import Tensor
from oracles import (discarded_columns, finite_diff_check, moe_ffn_padded,
                     moe_forward_per_expert, shared_columns, tsum)


def make_ffn(d, d_h, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(d, d_h)), rng.normal(size=d_h),
            rng.normal(size=(d_h, d)), rng.normal(size=d))


def expert_params(es):
    return [*es.w1, *es.b1, *es.w2, *es.b2]


def dense_ffn_np(a, w1, b1, w2, b2):
    pre = a @ w1 + b1
    h = 0.5 * pre * (1 + np.tanh(math.sqrt(2 / math.pi) * (pre + 0.044715 * pre ** 3)))
    return h @ w2 + b2


class TestAdaptFfn:
    def test_two_expert_figure_case(self):
        # d_h=4, N=2, s=1: expert 1 holds ordered columns {(1),(2)},
        # expert 2 holds {(1),(3)}, column (4) discarded
        w1, b1, w2, b2 = make_ffn(3, 4)
        ordering = np.array([2, 0, 3, 1])  # descending importance
        es = M.adapt_ffn(w1, b1, w2, b2, ordering, num_experts=2, shared_dim=1)
        assert es.provenance[0].tolist() == [2, 0]
        assert es.provenance[1].tolist() == [2, 3]
        assert discarded_columns(es, 4) == {1}
        assert shared_columns(es) == {2}

    def test_single_expert_is_permutation_of_dense(self):
        d, d_h = 4, 6
        w1, b1, w2, b2 = make_ffn(d, d_h, seed=1)
        ordering = np.random.default_rng(2).permutation(d_h)
        es = M.adapt_ffn(w1, b1, w2, b2, ordering, num_experts=1, shared_dim=0)
        a = np.random.default_rng(3).normal(size=(5, d))
        dense = dense_ffn_np(a, w1, b1, w2, b2)
        pre = a @ es.w1[0].data + es.b1[0].data
        h = 0.5 * pre * (1 + np.tanh(math.sqrt(2 / math.pi) * (pre + 0.044715 * pre ** 3)))
        expert = h @ es.w2[0].data + es.b2[0].data
        np.testing.assert_allclose(expert, dense, atol=1e-9)

    def test_paper_scale_counting(self):
        # d_h=3072, N=4, s=512: 512 shared + 256 unique per expert, 1536 discarded
        d_h, n, s = 3072, 4, 512
        w1, b1, w2, b2 = make_ffn(2, d_h)
        ordering = np.arange(d_h)
        es = M.adapt_ffn(w1, b1, w2, b2, ordering, n, s)
        assert es.expert_dim == 768
        shared = shared_columns(es)
        assert len(shared) == s
        for prov in es.provenance:
            assert len(set(prov.tolist()) - shared) == 256
        assert len(discarded_columns(es, d_h)) == 1536

    def test_nonshared_columns_pairwise_disjoint(self):
        w1, b1, w2, b2 = make_ffn(3, 12)
        es = M.adapt_ffn(w1, b1, w2, b2, np.arange(12), 3, 2)
        shared = shared_columns(es)
        uniques = [set(p.tolist()) - shared for p in es.provenance]
        for i in range(len(uniques)):
            for j in range(i + 1, len(uniques)):
                assert not (uniques[i] & uniques[j])
        # discard count = (N-1)*s when N*expert_dim == d_h
        assert len(discarded_columns(es, 12)) == (3 - 1) * 2

    def test_inverse_reverses(self):
        w1, b1, w2, b2 = make_ffn(2, 4)
        ordering = np.array([3, 1, 0, 2])
        es = M.adapt_ffn(w1, b1, w2, b2, ordering, 2, 1, mode=M.ADAPT_INVERSE)
        assert shared_columns(es) == {2}  # least important becomes shared

    def test_random_needs_rng_and_is_seeded(self):
        w1, b1, w2, b2 = make_ffn(2, 8)
        with pytest.raises(M.MoEError):
            M.adapt_ffn(w1, b1, w2, b2, np.arange(8), 2, 1, mode=M.ADAPT_RANDOM)
        a = M.adapt_ffn(w1, b1, w2, b2, np.arange(8), 2, 1, mode=M.ADAPT_RANDOM,
                        rng=np.random.default_rng(5))
        b = M.adapt_ffn(w1, b1, w2, b2, np.arange(8), 2, 1, mode=M.ADAPT_RANDOM,
                        rng=np.random.default_rng(5))
        for pa, pb in zip(a.provenance, b.provenance):
            np.testing.assert_array_equal(pa, pb)

    def test_errors(self):
        w1, b1, w2, b2 = make_ffn(2, 8)
        with pytest.raises(M.MoEError):
            M.adapt_ffn(w1, b1, w2, b2, np.arange(8), 2, 5)  # s > expert_dim
        with pytest.raises(M.MoEError):
            M.adapt_ffn(w1, b1, w2, b2, np.arange(8), 9, 0)  # N > d_h
        with pytest.raises(M.MoEError):
            M.adapt_ffn(w1, b1, w2, b2, np.zeros(8, dtype=int), 2, 1)


class TestBuildRouting:
    def test_hash_random_deterministic(self):
        f = np.ones(40)
        a = M.build_routing(M.HASH_RANDOM, f, 4, seed=9, embed_dim=8)
        b = M.build_routing(M.HASH_RANDOM, f, 4, seed=9, embed_dim=8)
        np.testing.assert_array_equal(a.table, b.table)
        assert ((a.table >= 0) & (a.table < 4)).all()

    def test_balanced_greedy_hand_traced(self):
        # freqs {a:4, b:3, c:2, d:1}, N=2 -> loads (5, 5): {a,d} vs {b,c}
        freqs = np.array([4.0, 3.0, 2.0, 1.0])
        r = M.build_routing(M.HASH_BALANCED, freqs, 2, seed=0, embed_dim=4)
        assert r.table.tolist() == [0, 1, 1, 0]
        loads = [freqs[r.table == e].sum() for e in (0, 1)]
        assert loads == [5.0, 5.0]

    def test_balanced_matches_independent_greedy(self):
        rng = np.random.default_rng(0)
        freqs = rng.integers(1, 50, size=60).astype(float)
        r = M.build_routing(M.HASH_BALANCED, freqs, 3, seed=0, embed_dim=4)
        loads = np.zeros(3)
        table = np.zeros(60, dtype=int)
        for tok in sorted(range(60), key=lambda t: (-freqs[t], t)):
            e = int(np.argmin(loads))
            table[tok] = e
            loads[e] += freqs[tok]
        np.testing.assert_array_equal(r.table, table)

    def test_empty_vocab_raises(self):
        with pytest.raises(M.MoEError):
            M.build_routing(M.HASH_RANDOM, np.array([]), 2, 0, 4)

    def test_gate_weight_shape(self):
        r = M.build_routing(M.GATE, None, 4, seed=1, embed_dim=16)
        assert r.gate_weight.shape == (16, 4)
        assert r.gate_weight.requires_grad


class TestMoeForward:
    def setup_method(self):
        self.d, self.d_h = 6, 8
        self.w1, self.b1, self.w2, self.b2 = make_ffn(self.d, self.d_h, seed=7)
        rng = np.random.default_rng(8)
        self.a = rng.normal(size=(3, 5, self.d))
        self.ids = rng.integers(0, 20, size=(3, 5))
        self.mask = np.ones((3, 5))

    def _experts(self, n, s=0, seed=0):
        ordering = np.random.default_rng(seed).permutation(self.d_h)
        return M.adapt_ffn(self.w1, self.b1, self.w2, self.b2, ordering, n, s)

    def test_identical_experts_match_single_ffn(self):
        es = self._experts(1)
        # duplicate the single expert 4 times
        dup = M.ExpertSet(es.w1 * 4, es.b1 * 4, es.w2 * 4, es.b2 * 4,
                          es.provenance * 4)
        single = M.moe_forward(Tensor(self.a), es,
                               M.RoutingTable(M.HASH_RANDOM,
                                              table=np.zeros(20, dtype=int),
                                              num_experts=1),
                               self.ids, self.mask)
        table = np.random.default_rng(1).integers(0, 4, size=20)
        multi = M.moe_forward(Tensor(self.a), dup,
                              M.RoutingTable(M.HASH_RANDOM, table=table,
                                             num_experts=4),
                              self.ids, self.mask)
        np.testing.assert_allclose(multi.data, single.data, atol=1e-12)

    def test_hash_n1_equals_dense_forward(self):
        es = self._experts(1)
        out = M.moe_forward(Tensor(self.a), es,
                            M.RoutingTable(M.HASH_RANDOM,
                                           table=np.zeros(20, dtype=int),
                                           num_experts=1),
                            self.ids, self.mask)
        expected = dense_ffn_np(self.a, es.w1[0].data, es.b1[0].data,
                                es.w2[0].data, es.b2[0].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_naive_per_token_dispatch(self):
        es = self._experts(4, s=1)
        table = np.random.default_rng(3).integers(0, 4, size=20)
        out = M.moe_forward(Tensor(self.a), es,
                            M.RoutingTable(M.HASH_RANDOM, table=table,
                                           num_experts=4),
                            self.ids, self.mask)
        # naive oracle: dispatch each token individually
        expected = np.zeros_like(self.a)
        for b in range(3):
            for t in range(5):
                e = table[self.ids[b, t]]
                expected[b, t] = dense_ffn_np(self.a[b, t:t + 1],
                                              es.w1[e].data, es.b1[e].data,
                                              es.w2[e].data, es.b2[e].data)[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gate_routes_whole_sentences_and_scales(self):
        es = self._experts(2, s=1)
        rng = np.random.default_rng(5)
        wg = rng.normal(size=(self.d, 2))
        routing = M.RoutingTable(M.GATE, gate_weight=Tensor(wg, requires_grad=True),
                                 num_experts=2)
        out = M.moe_forward(Tensor(self.a), es, routing, self.ids, self.mask)
        # oracle: mean over tokens -> softmax -> argmax expert, scaled output
        repr_ = self.a.mean(axis=1)
        z = repr_ @ wg
        probs = np.exp(z - z.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        for b in range(3):
            e = int(np.argmax(probs[b]))
            expected = probs[b, e] * dense_ffn_np(self.a[b], es.w1[e].data,
                                                  es.b1[e].data, es.w2[e].data,
                                                  es.b2[e].data)
            np.testing.assert_allclose(out.data[b], expected, atol=1e-12)

    def test_token_outside_table_raises(self):
        es = self._experts(2)
        routing = M.RoutingTable(M.HASH_RANDOM, table=np.zeros(5, dtype=int),
                                 num_experts=2)
        with pytest.raises(M.MoEError):
            M.moe_forward(Tensor(self.a), es, routing, self.ids, self.mask)

    def test_routing_is_pure_function_of_token(self):
        table = M.build_routing(M.HASH_RANDOM, np.ones(20), 4, seed=2,
                                embed_dim=4).table
        assert np.array_equal(table[self.ids], table[self.ids])
        # same token id in different positions reaches the same expert
        ids = np.array([[7, 7, 7], [7, 1, 7]])
        routes = table[ids]
        assert (routes[:, 0] == routes[0, 0]).all()


def test_routing_loads_excludes_pad():
    freqs = np.array([100.0, 1.0, 1.0, 2.0])
    table = np.array([0, 0, 1, 1])
    loads = M.routing_loads(table, freqs, 2)
    np.testing.assert_allclose(loads, [0.25, 0.75])


def assert_rel_close(actual, expected, rel):
    """Max absolute difference within ``rel`` of the largest expected entry."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestGroupedDispatch:
    """``moe_forward`` (one ``moe_ffn`` node) against the per-expert dispatch it
    replaced, kept in ``tests/oracles.py``."""

    N, D, SEQ, VOCAB = 3, 6, 5, 20

    def _setup(self, strategy, batch, idle):
        """Experts, routing and inputs; with ``idle``, expert 1 gets no row,
        otherwise every expert gets one."""
        rng = np.random.default_rng(11 + batch)
        w1, b1, w2, b2 = make_ffn(self.D, 9, seed=4)
        es = M.adapt_ffn(w1, b1, w2, b2, rng.permutation(9), self.N, 1)
        a = rng.normal(size=(batch, self.SEQ, self.D))
        ids = rng.integers(0, self.VOCAB, size=(batch, self.SEQ))
        mask = np.ones((batch, self.SEQ))
        mask[0, -2:] = 0.0
        if strategy == M.GATE:
            # draw gate weights until the argmax experts have the wanted cover
            for seed in range(1000):
                wg = np.random.default_rng(seed).normal(0.0, 3.0, size=(self.D, self.N))
                z = (a * mask[:, :, None]).sum(1) / mask.sum(1, keepdims=True) @ wg
                used = set(np.argmax(z, axis=1).tolist())
                if (1 not in used) if idle else len(used) == self.N:
                    break
            else:
                raise AssertionError("no gate weight gives the wanted expert cover")
            routing = M.RoutingTable(M.GATE, gate_weight=Tensor(wg, requires_grad=True),
                                     num_experts=self.N)
        else:
            freqs = rng.integers(1, 30, size=self.VOCAB).astype(float)
            routing = M.build_routing(strategy, freqs, self.N, seed=5, embed_dim=self.D)
            if idle:
                routing.table[routing.table == 1] = 2
            else:
                for e in range(self.N):  # one token per expert at the start
                    ids.flat[e] = np.flatnonzero(routing.table == e)[0]
        return es, routing, a, ids, mask

    def _run(self, forward, es, routing, a, ids, mask):
        x = Tensor(a, requires_grad=True)
        for p in expert_params(es):
            p.zero_grad()
        gate = routing.gate_weight
        if gate is not None:
            gate.zero_grad()
        out = forward(x, es, routing, ids, mask)
        # padded positions get no gradient from above, as in the encoder
        weight = np.random.default_rng(3).normal(size=out.shape) * mask[:, :, None]
        tsum(T.mul(out, Tensor(weight))).backward()
        grads = [x.grad] + [p.grad for p in expert_params(es)]
        return out.data, grads + ([gate.grad] if gate is not None else [])

    # one sentence picks one expert under the gate, so gate at batch 1 always has idle ones
    @pytest.mark.parametrize("strategy,batch,idle", [
        (s, b, i) for s in M.STRATEGIES for b in (1, 4) for i in (False, True)
        if not (s == M.GATE and b == 1 and not i)])
    def test_output_and_gradients_match_per_expert_oracle(self, strategy, batch, idle):
        es, routing, a, ids, mask = self._setup(strategy, batch, idle)
        out, grads = self._run(M.moe_forward, es, routing, a, ids, mask)
        ref_out, ref_grads = self._run(moe_forward_per_expert, es, routing, a, ids, mask)
        real = mask > 0  # the oracle computes padded rows too; moe_forward leaves them 0
        assert_rel_close(out[real], ref_out[real], 1e-12)
        assert (out[~real] == 0).all()
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            # an expert that only padded rows reach gets a zero gradient from the
            # oracle, and none from moe_forward, so the optimizer skips it
            assert (g is None) == (ref is None or not ref.any())
            if g is not None:
                assert_rel_close(g, ref, 1e-12)
        if idle:
            assert all(p.grad is None for p in (es.w1[1], es.b1[1], es.w2[1], es.b2[1]))

    def test_gate_gradients_match_finite_differences(self):
        es, routing, a, ids, mask = self._setup(M.GATE, 4, idle=False)
        x, wg = Tensor(a, requires_grad=True), routing.gate_weight
        weight = Tensor(np.random.default_rng(3).normal(size=a.shape))
        step = 1e-3
        # a stencil point moves an entry by up to 2 * step, which moves the gap
        # between two gate logits by at most 2 * step * 2 * max|W_g| (an input
        # entry) or 2 * step * max|mean row| (a gate entry): the argmax holds
        rows = (a * mask[:, :, None]).sum(1) / mask.sum(1, keepdims=True)
        top2 = np.sort(rows @ wg.data, axis=1)[:, -2:]
        bound = 4 * step * max(np.abs(wg.data).max(), np.abs(rows).max())
        assert (top2[:, 1] - top2[:, 0]).min() > bound

        def f():
            return tsum(T.mul(M.moe_forward(x, es, routing, ids, mask), weight))

        assert finite_diff_check(f, [x, wg], step=step, n_samples=60,
                                 rng=np.random.default_rng(0)) <= 1e-6

    @pytest.mark.parametrize("strategy", [M.HASH_RANDOM, M.GATE])
    def test_idle_expert_untouched_by_adam(self, strategy):
        es, routing, a, ids, mask = self._setup(strategy, 4, idle=True)
        out = M.moe_forward(Tensor(a), es, routing, ids, mask)
        tsum(T.mul(out, out)).backward()
        idle = [es.w1[1], es.b1[1], es.w2[1], es.b2[1]]
        assert all(p.grad is None for p in idle)
        params = expert_params(es) + ([routing.gate_weight] if strategy == M.GATE else [])
        before = [p.data.copy() for p in params]
        opt = Adam(params, lr=1e-2)
        opt.step()
        for i, p in enumerate(params):
            moved = not np.array_equal(p.data, before[i])
            assert moved == (not any(p is q for q in idle))
            if any(p is q for q in idle):
                assert not opt.m[i].any() and not opt.v[i].any()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["dense", "hash", "gate"]))
def test_moe_ffn_skips_padding_and_matches_padded_path(data, kind):
    """Over batch compositions and padding lengths: real rows of the output are
    bit-identical to the padded path (``tests/oracles.moe_ffn_padded``), except
    a row alone on its expert, within 1e-14; padded rows are exactly 0 in the
    output and the input gradient; the input gradient's real rows, the sink's
    arrays and the weight gradients agree within 1e-12.

    Bit identity rests on a GEMM row not depending on the row count. With one
    OpenBLAS thread that was measured for every product up to 13 × 13 at least
    two rows tall and two columns wide; a one-row or one-column product runs as
    a gemv, whose results move with the row count. So both widths, d and k,
    start at 2, and a real row that the padded path ran beside padding on its
    expert but that runs alone here is compared within 1e-14 (a few ulps of
    sums over at most 12 terms, reordered). Backward products take a
    transposed operand, for which the rows of some larger shapes move."""
    batch, seq = data.draw(st.integers(1, 5), label="batch"), data.draw(st.integers(1, 7))
    lengths = np.asarray(data.draw(st.lists(st.integers(1, seq), min_size=batch,
                                            max_size=batch), label="lengths"))
    d, k = data.draw(st.integers(2, 9), label="d"), data.draw(st.integers(2, 12), label="k")
    n = 1 if kind == "dense" else data.draw(st.integers(2, 4), label="experts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = (np.arange(seq) < lengths[:, None]).astype(float)
    real = mask > 0
    experts = [[Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((d, k), (k,), (k, d), (d,))] for _ in range(n)]
    route = scale = None
    if kind == "hash":  # padded rows carry routes too, as PAD tokens do
        route = rng.integers(0, n, size=(batch, seq))
    elif kind == "gate":  # whole sentences, each scaled by its own probability
        route = np.repeat(rng.integers(0, n, size=batch), seq).reshape(batch, seq)
        scale = np.repeat(rng.uniform(0.2, 1.0, size=batch), seq).reshape(batch, seq)
    a = rng.normal(size=(batch, seq, d))
    weight = rng.normal(size=(batch, seq, d)) * mask[:, :, None]  # padding gets none from above

    def run(ffn, **kw):
        """Output, sink arrays and gradients (input, each expert's four, scale)."""
        x = Tensor(a, requires_grad=True)
        s = None if scale is None else Tensor(scale, requires_grad=True)
        params = [x] + [p for ws in experts for p in ws] + ([] if s is None else [s])
        for p in params:
            p.zero_grad()
        seen = []
        out = ffn(x, route, *zip(*experts), scale=s,
                  sink=lambda *arrays: seen.append([v.copy() for v in arrays]), **kw)
        tsum(T.mul(out, Tensor(weight))).backward()
        return out.data, seen[0], [p.grad for p in params]

    out, seen, grads = run(T.moe_ffn, mask=mask)
    ref_out, ref_seen, ref_grads = run(moe_ffn_padded)
    on = np.zeros((batch, seq), dtype=int) if route is None else route  # each row's expert
    alone = (np.bincount(on[real], minlength=n) == 1) & (np.bincount(on.ravel(), minlength=n) > 1)
    lone = real & alone[on]
    assert np.array_equal(out[real & ~lone], ref_out[real & ~lone]) and not out[~real].any()
    if lone.any():
        assert_rel_close(out[lone], ref_out[lone], 1e-14)
    assert_rel_close(grads[0][real], ref_grads[0][real], 1e-12)
    assert not grads[0][~real].any()
    # the padded path's sink rows in expert order (a stable sort), real ones kept
    order = np.argsort(np.zeros(real.size) if route is None else route.reshape(-1),
                       kind="stable")
    for x, ref in zip(seen, ref_seen):
        assert_rel_close(x, ref[real.reshape(-1)[order]], 1e-12)
    if scale is not None:  # a row's scale gradient is its output's dot product with g
        assert np.array_equal(grads[-1][~lone], ref_grads[-1][~lone])
        if lone.any():
            assert_rel_close(grads[-1][lone], ref_grads[-1][lone], 1e-12)
    for g, ref in zip(grads[1:1 + 4 * n], ref_grads[1:1 + 4 * n]):
        if g is None:  # no real row reached this expert
            assert ref is None or not ref.any()
        else:
            assert_rel_close(g, ref, 1e-12)
