"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: exactly the operations needed for an encoder transformer,
its MoE variant, and the training losses. Everything is numpy underneath.

Every op makes one graph node, ``_make(op, out, parents, grads)``: ``out`` is
its value, ``parents`` the input tensors, and ``grads(g)`` maps the output
gradient ``g`` to one gradient per parent (None for no gradient), all at
once. ``backward`` walks the nodes once in reverse topological order and
calls each node's ``grads`` once.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
# elements (512 KiB of float64) per block of the FFN's elementwise passes: a
# block and its temporaries stay in a core's L2, where a whole 64 MB buffer does not
_BLOCK = 1 << 16

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / frozen teacher)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeError(ValueError):
    """Operand shapes do not conform for the named operation."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")
        self.op = op
        self.shapes = [tuple(s) for s in shapes]


class NonFiniteError(FloatingPointError):
    """A value went NaN or Inf; ``op`` names the op or model scope that saw it.

    Ops do not scan their outputs: NaN and Inf carry forward through
    arithmetic, so models call ``check_finite`` at sublayer boundaries. Only
    ops that can map a non-finite value to a finite one (``tanh``,
    ``softmax``, ``kl_div``'s clamp) scan their input, and ``attention`` scans
    its pre-softmax scores under the name ``softmax``.
    """

    def __init__(self, op: str):
        super().__init__(f"{op}: non-finite values")
        self.op = op


def check_finite(t: "Tensor", scope: str) -> "Tensor":
    """Raise ``NonFiniteError(scope)`` unless every value of ``t`` is finite."""
    if not np.isfinite(t.data).all():
        raise NonFiniteError(scope)
    return t


class Tensor:
    """A float64 array plus an optional gradient and graph linkage.

    An op's output is a graph node: ``_parents`` lists its input tensors and
    ``_grads(g)`` returns one gradient per parent, or None for no gradient.
    A leaf, or an output made while no input is on a graph or under
    ``no_grad``, has no parents and no ``_grads``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grads", "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = []
        self._grads = None
        self._op = "leaf"
        self._backward_done = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op})"

    # -- graph plumbing -----------------------------------------------------

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar loss to every reachable leaf."""
        if self.data.shape != ():
            raise ShapeError("backward", self.data.shape)
        if self._backward_done:
            raise RuntimeError("backward called twice on the same graph; re-run the forward pass")
        self._backward_done = True

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.array(1.0)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                if node.requires_grad:
                    node._accumulate(g)
                continue
            for parent, pg in zip(node._parents, node._grads(g)):
                if pg is None or not (parent.requires_grad or parent._parents):
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = np.asarray(pg, dtype=np.float64)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _records(inputs) -> bool:
    """The rule ``_make`` applies: a node is recorded iff grad is on and some input is on a graph."""
    return _grad_enabled and any(x.requires_grad or x._parents for x in inputs)


def _make(op: str, out: np.ndarray, parents: list, grads) -> Tensor:
    """Wrap an op result as a graph node over ``parents``; ``grads(g)`` returns
    one gradient per parent. An unrecorded node keeps neither, so whatever
    ``grads`` holds is freed."""
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t._op = op
    t._backward_done = False
    if _records(parents):
        t.requires_grad = any(p.requires_grad for p in parents)
        t._parents, t._grads = parents, grads
    else:
        t.requires_grad = False
        t._parents, t._grads = [], None
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None
    return _make("add", out, [a, b],
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None
    return _make("mul", out, [a, b], lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                                _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None

    def grads(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
        if b.ndim == 2:  # a shared weight: one 2-D GEMM over every leading row
            k, n = b.data.shape
            return ga, a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)

    return _make("matmul", out, [a, b], grads)


def tanh(a) -> Tensor:
    a = check_finite(as_tensor(a), "tanh")
    out = np.tanh(a.data)
    return _make("tanh", out, [a], lambda g: (g * (1.0 - out * out),))


def _blocks(*arrays) -> list:
    """The arrays themselves if they fit in one block of ``_BLOCK`` elements,
    else their flat forms cut into matching blocks. Flat forms of C-contiguous
    arrays are views, so a block's writes land in its array."""
    if arrays[0].size <= _BLOCK:
        return [arrays]
    flats = [a.reshape(-1) for a in arrays]
    return [[f[lo:lo + _BLOCK] for f in flats] for lo in range(0, flats[0].size, _BLOCK)]


def _gelu_tanh(x: np.ndarray, keep_t: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU, tanh approximation: 0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³))).

    Returns ``(gelu(x), t)``, where ``t`` is the tanh term that ``_gelu_grad``
    needs, or None without ``keep_t``. ``x`` may have any shape.
    """
    t = np.empty(x.shape) if keep_t else None
    return _gelu_into(x, np.empty(x.shape), t), t


def _gelu_into(x: np.ndarray, h: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Write GELU(x) into ``h`` and its tanh term into ``t``, one block at a time, and return ``h``.

    ``h`` and ``t`` are C-contiguous. Without ``t`` the tanh term goes over
    ``h``, or over a scratch block when ``h`` is ``x``; so GELU in place makes
    no full-size temporary. The cube is ``x*x*x``: numpy evaluates ``x ** 3``
    as a general ``pow``, which is several times slower.
    """
    for xb, hb, u in _blocks(x, h, h if t is None else t):
        if h is x:
            u = np.empty(xb.shape)
        np.multiply(xb, xb, out=u)
        u *= xb
        u *= _GELU_C
        u += xb
        u *= _SQRT_2_OVER_PI
        np.tanh(u, out=u)
        v = u if t is None else hb  # 1 + t goes over t unless t is kept
        np.add(u, 1.0, out=v)
        np.multiply(v, xb, out=hb)
        hb *= 0.5
    return h


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx from the input and the tanh term of ``_gelu_tanh``, one block at a time:
    ``0.5 ((1 + t) + x (1 - t²) dinner)`` with ``dinner = √(2/π) (1 + 3c x x)``."""
    g = np.empty(x.shape)
    for xb, tb, gb in _blocks(x, t, g):
        np.multiply(xb, 3.0 * _GELU_C, out=gb)
        gb *= xb
        gb += 1.0
        gb *= _SQRT_2_OVER_PI  # dinner
        s = np.multiply(tb, tb)
        np.subtract(1.0, s, out=s)
        s *= xb
        s *= gb
        np.add(tb, 1.0, out=gb)
        gb += s
        gb *= 0.5
    return g


def _unsort(x: np.ndarray, order, n: int) -> np.ndarray:
    """The rows of ``x``, in ``moe_ffn``'s row order, back at their input positions
    among ``n`` rows; rows that ``order`` leaves out are 0."""
    if isinstance(order, slice):
        return x
    out = np.zeros((n,) + x.shape[1:])
    out[order] = x
    return out


def moe_ffn(a, route, w1s, b1s, w2s, b2s, scale=None, sink=None, mask=None) -> Tensor:
    """``y[r] = scale[r] · FFN_{route[r]}(a[r])`` over the rows of ``a`` (..., d), as one graph node.

    ``FFN_e(x) = GELU(x·W1_e + b1_e)·W2_e + b2_e`` with ``w1s[e]`` (d × k),
    ..., ``b2s[e]``; every expert has width k. ``route`` (shape ``a.shape[:-1]``,
    like ``scale`` and ``mask``) picks each row's expert; None puts every row on
    expert 0, as a dense FFN does, with no route array to count. A row whose
    ``mask`` is 0 is padding: it is not computed, its output and input gradient
    are exactly 0, and it adds nothing to a weight gradient. The real rows of
    the output equal those of the same call without ``mask`` bit for bit where
    a GEMM row does not depend on the row count. With one OpenBLAS thread that
    holds at the README and serve shapes, but not for every shape: a one-row
    or one-column product runs as a gemv, so a real row alone on its expert
    may differ from the padded path in its last bits.

    One list of row indices, ``order``, takes the real rows grouped by expert
    (one stable argsort; neither it nor a gather runs when one expert takes
    every row and no row is padding). Each expert runs its GEMMs on its
    contiguous slice, and the output scatters back through ``order``. GELU and
    its gradient walk the (rows × k) hidden buffer in blocks of ``_BLOCK``
    elements that stay in cache, and make no full-size temporary: without a
    graph, GELU overwrites its input. No real row is dropped. An expert that no
    real row reaches gets no gradient (its grad stays None).

    ``sink``, if given, is called once per backward as ``sink(z, h, u, delta)``
    with each real row's pre-GELU ``z``, ``h = GELU(z)``, ``u = dL/dh`` and
    ``delta = dL/dz`` (all rows × k, rows in expert order, which is input order
    for one expert); the arrays are only valid during the call.
    """
    a, scale = as_tensor(a), (None if scale is None else as_tensor(scale))
    experts = list(zip(w1s, b1s, w2s, b2s))
    lead = a.data.shape[:-1]
    route = None if route is None else np.asarray(route)
    mask = None if mask is None else np.asarray(mask)
    d, k, d_out = a.data.shape[-1], w2s[0].data.shape[0], w2s[0].data.shape[-1]
    want = ((d, k), (k,), (k, d_out), (d_out,))
    if ((route is not None and route.shape != lead) or (scale is not None and scale.shape != lead)
            or (mask is not None and mask.shape != lead)
            or any((w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != want
                   for w1, b1, w2, b2 in experts)):
        raise ShapeError("moe_ffn", a.shape, lead if route is None else route.shape,
                         *(x.shape for ws in experts for x in ws))
    n = math.prod(lead)
    rows = slice(None)  # the real rows: every row, or the indices of those whose mask is not 0
    if mask is not None and np.count_nonzero(mask) < n:
        rows = np.flatnonzero(mask)
    if route is None:
        m = n if isinstance(rows, slice) else rows.size
        spans = [(0, 0, m)] if m else []
    else:
        flat = route.reshape(-1)[rows]
        counts = np.bincount(flat, minlength=len(experts)).tolist()  # rejects a negative route
        if len(counts) > len(experts):
            raise ValueError(f"moe_ffn: route outside [0, {len(experts)})")
        ends = itertools.accumulate(counts)
        spans = [(e, end - c, end) for e, (c, end) in enumerate(zip(counts, ends)) if c]
    if len(spans) > 1:
        order = np.argsort(flat, kind="stable")
        order = order if isinstance(rows, slice) else rows[order]
    else:  # one expert takes every real row: they are in expert order already
        order = rows
    xs = a.data.reshape(-1, d)[order]
    params = [a] + [x for ws in experts for x in ws] + ([] if scale is None else [scale])
    z = np.empty((len(xs), k))
    for e, lo, hi in spans:
        np.matmul(xs[lo:hi], w1s[e].data, out=z[lo:hi])
        z[lo:hi] += b1s[e].data
    h, t = _gelu_tanh(z, keep_t=True) if _records(params) else (_gelu_into(z, z), None)
    ys = np.empty((len(xs), d_out))
    for e, lo, hi in spans:
        np.matmul(h[lo:hi], w2s[e].data, out=ys[lo:hi])
        ys[lo:hi] += b2s[e].data
    if scale is not None:
        s = scale.data.reshape(-1)[order, None]
        unscaled, ys = ys, ys * s
    out = _unsort(ys, order, n).reshape(lead + (d_out,))

    def grads(g):
        gs = g.reshape(-1, d_out)[order]
        gy = gs if scale is None else gs * s
        dz = np.empty_like(z)
        for e, lo, hi in spans:
            np.matmul(gy[lo:hi], w2s[e].data.T, out=dz[lo:hi])
        delta = dz if sink is None else np.empty_like(dz)  # the sink sees dz and delta
        for zb, tb, ub, db in _blocks(z, t, dz, delta):
            np.multiply(ub, _gelu_grad(zb, tb), out=db)
        if sink is not None:
            sink(z, h, dz, delta)
        gx = np.empty_like(xs)
        pgs = [None] * len(params)  # an idle expert keeps None, so the optimizer skips it
        for e, lo, hi in spans:
            np.matmul(delta[lo:hi], w1s[e].data.T, out=gx[lo:hi])
            pgs[1 + 4 * e:5 + 4 * e] = [xs[lo:hi].T @ delta[lo:hi], delta[lo:hi].sum(axis=0),
                                        h[lo:hi].T @ gy[lo:hi], gy[lo:hi].sum(axis=0)]
        pgs[0] = _unsort(gx, order, n).reshape(a.shape)
        if scale is not None:
            pgs[-1] = _unsort((gs * unscaled).sum(axis=1), order, n).reshape(lead)
        return pgs

    return _make("moe_ffn", out, params, grads)


# -- reductions and reshaping ----------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape) from None
    return _make("reshape", out, [a], lambda g: (g.reshape(a.data.shape),))


def take(a, idx, axis: int = 0) -> Tensor:
    """Select rows along ``axis`` by integer index (gather)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take(a.data, idx, axis=axis)

    def grads(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (slice(None),) * axis + (idx,), g)
        return (ga,)

    return _make("take", out, [a], grads)


# -- fused neural-net ops ---------------------------------------------------


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of ``x``, into ``out`` (which may be ``x``);
    a non-finite ``x``, which softmax could map to finite values, raises."""
    if not np.isfinite(x).all():
        raise NonFiniteError("softmax")
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_grad(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = as_tensor(a)
    out = _softmax(a.data)
    return _make("softmax", out, [a], lambda g: (_softmax_grad(out, g),))


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, bias: np.ndarray, heads: int,
              dropout_p: float, rng: np.random.Generator | None) -> Tensor:
    """Multi-head self-attention over ``x`` (batch, seq, d), as one graph node.

    Per head, ``softmax(Q Kᵀ / √dk + bias) V`` where Q, K and V are column
    blocks of width dk of ``x·Wq + bq``, ``x·Wk + bk`` and ``x·Wv + bv``; the
    heads' outputs, side by side, are projected by ``·Wo + bo``. ``bias``
    broadcasts against the (batch, heads, seq, seq) scores: 0 for a key, -1e9
    for a padded one. The scores are scanned under the name ``softmax``.
    Dropout masks the probabilities, then the output, drawn from ``rng`` in
    that order. Q, K, V, the probabilities and the masks are kept only when
    the node is recorded.
    """
    params = [as_tensor(t) for t in (x, wq, bq, wk, bk, wv, bv, wo, bo)]
    x = params[0]
    d = x.shape[-1] if x.ndim == 3 else 0
    if not d or d % heads or [t.shape for t in params[1:]] != [(d, d), (d,)] * 4:
        raise ShapeError("attention", *(t.shape for t in params))
    batch, seq, dk, scale = x.shape[0], x.shape[1], d // heads, 1.0 / math.sqrt(d // heads)
    drop = dropout_p > 0.0 and rng is not None
    w_qkv = np.concatenate([wq.data, wk.data, wv.data], axis=1)  # one GEMM for Q, K and V
    x2 = x.data.reshape(-1, d)
    qkv = x2 @ w_qkv
    qkv += np.concatenate([bq.data, bk.data, bv.data])
    q, k, v = qkv.reshape(batch, seq, 3, heads, dk).transpose(2, 0, 3, 1, 4)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    scores += bias
    probs = _softmax(scores, out=scores)
    keep_p = _dropout_keep(probs.shape, dropout_p, rng) if drop else None
    probs_d = probs if keep_p is None else probs * keep_p
    ctx = (probs_d @ v).transpose(0, 2, 1, 3).reshape(-1, d)
    y = ctx @ wo.data
    y += bo.data
    keep_o = _dropout_keep(y.shape, dropout_p, rng) if drop else None
    if keep_o is not None:
        y *= keep_o

    def grads(g):
        gy = g.reshape(-1, d) if keep_o is None else g.reshape(-1, d) * keep_o
        gctx = (gy @ wo.data.T).reshape(batch, seq, heads, dk).transpose(0, 2, 1, 3)
        gprobs = gctx @ v.transpose(0, 1, 3, 2)
        if keep_p is not None:
            gprobs *= keep_p
        gscores = _softmax_grad(probs, gprobs)
        gscores *= scale
        gqkv = np.empty((batch, seq, 3, heads, dk))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(gscores, k, out=gq)
        np.matmul(gscores.transpose(0, 1, 3, 2), q, out=gk)
        np.matmul(probs_d.transpose(0, 1, 3, 2), gctx, out=gv)
        gqkv = gqkv.reshape(-1, 3 * d)
        gw, gb = x2.T @ gqkv, gqkv.sum(axis=0)
        return ([(gqkv @ w_qkv.T).reshape(x.shape)]
                + [part[..., i * d:(i + 1) * d] for i in range(3) for part in (gw, gb)]
                + [ctx.T @ gy, gy.sum(axis=0)])

    return _make("attention", y.reshape(x.shape), params, grads)


def layernorm(x, gamma, beta, residual=None) -> Tensor:
    """Layer normalization over the last axis; of ``x + residual``, in the same
    node, when a residual is given (it may broadcast against ``x``)."""
    params = [as_tensor(t) for t in (x, gamma, beta) + (() if residual is None else (residual,))]
    x, gamma, beta = params[:3]
    d = x.shape[-1]
    try:
        s = x.data if residual is None else x.data + params[3].data
    except ValueError:
        s = None
    if s is None or gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layernorm", *(t.shape for t in params))
    # sum / d is np.mean (and np.var) bit for bit, without its Python overhead
    xc = s - s.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + 1e-12)
    xhat = np.multiply(xc, inv, out=xc)
    out = gamma.data * xhat
    out += beta.data

    def grads(g):
        gx = g * gamma.data
        gs = gx - gx.sum(axis=-1, keepdims=True) / d
        gs -= xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d)
        gs *= inv
        return [_unbroadcast(gs, x.data.shape), (g * xhat).reshape(-1, d).sum(axis=0),
                g.reshape(-1, d).sum(axis=0)] + [_unbroadcast(gs, r.data.shape) for r in params[3:]]

    return _make("layernorm", out, params, grads)


def _dropout_keep(shape: tuple, p: float, rng: np.random.Generator) -> np.ndarray:
    """An inverted-dropout mask: 0 with probability ``p``, else ``1 / (1 - p)``."""
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; the identity when ``p <= 0`` or ``rng`` is None (evaluation)."""
    a = as_tensor(a)
    if p <= 0.0 or rng is None:
        return a
    keep = _dropout_keep(a.shape, p, rng)
    return _make("dropout", a.data * keep, [a], lambda g: (g * keep,))


def mse(pred, target, mask=None) -> Tensor:
    """Mean squared error; with ``mask`` (batch×seq of 0/1), the mean runs
    over non-masked tokens and all trailing feature dims."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError("mse", pred.shape, target.shape)
    diff = pred.data - target.data
    m = np.ones(pred.shape[:1]) if mask is None else np.asarray(mask, dtype=np.float64)
    w = np.broadcast_to(m.reshape(m.shape + (1,) * (pred.ndim - m.ndim)), pred.shape)
    count = w.sum()
    if count == 0:
        raise ShapeError("mse", m.shape)
    out = np.asarray((w * diff * diff).sum() / count)

    def grads(g):
        gp = g * 2.0 * w * diff / count
        return gp, -gp

    return _make("mse", out, [pred, target], grads)


def kl_div(p, q) -> Tensor:
    """KL(p‖q) per row, averaged over rows, as one node; inputs are clamped to
    [1e-12, 1], and a non-finite input raises ``NonFiniteError("kl_div")``."""
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise ShapeError("kl_div", p.shape, q.shape)
    rows = int(np.prod(p.shape[:-1])) if p.ndim > 1 else 1
    pc, qc = (np.clip(check_finite(t, "kl_div").data, 1e-12, 1.0) for t in (p, q))
    log_ratio = np.log(pc) - np.log(qc)
    out = np.asarray((pc * log_ratio).sum() * (1.0 / rows))

    def grads(g):  # the clamps pass a gradient only inside [1e-12, 1]
        g = g * (1.0 / rows)
        return (g * (log_ratio + 1.0) * ((p.data >= 1e-12) & (p.data <= 1.0)),
                -g * pc / qc * ((q.data >= 1e-12) & (q.data <= 1.0)))

    return _make("kl_div", out, [p, q], grads)


def cross_entropy_logits(logits, labels) -> Tensor:
    """Mean cross-entropy from raw logits and integer class labels."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError("cross_entropy", logits.shape, labels.shape)
    n = logits.shape[0]
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out = np.asarray(-logp[np.arange(n), labels].mean())
    probs = np.exp(logp)

    def grads(g):
        gg = probs.copy()
        gg[np.arange(n), labels] -= 1.0
        return (g * gg / n,)

    return _make("cross_entropy", out, [logits], grads)


def masked_mean_rows(x, mask) -> Tensor:
    """Mean of x (batch×seq×d) over the token axis, weighting by ``mask``."""
    x = as_tensor(x)
    m = np.asarray(mask, dtype=np.float64)
    if x.ndim != 3 or m.shape != x.shape[:2]:
        raise ShapeError("masked_mean_rows", x.shape, m.shape)
    counts = m.sum(axis=1, keepdims=True)
    if np.any(counts == 0):
        raise ShapeError("masked_mean_rows", m.shape)
    w = m[:, :, None] / counts[:, :, None]
    out = (x.data * w).sum(axis=1)
    return _make("masked_mean_rows", out, [x], lambda g: (g[:, None, :] * w,))
