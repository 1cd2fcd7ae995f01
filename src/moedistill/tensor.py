"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: exactly the operations needed for an encoder transformer,
its MoE variant, and the training losses. Everything is numpy underneath;
graphs are built implicitly through parent pointers and walked once in
reverse topological order by ``backward``.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715

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
    ops that can map a non-finite value to a finite one (``clamp``, ``tanh``,
    ``softmax``) scan their input, and ``log``, which runs with
    floating-point warnings silenced, scans its output.
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

    ``_parents`` is a list of ``(tensor, grad_fn)`` pairs where ``grad_fn``
    maps the output gradient to that parent's gradient contribution.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = []
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
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.array(1.0)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and not node._parents:
                node._accumulate(g)
            for parent, grad_fn in node._parents:
                if not (parent.requires_grad or parent._parents):
                    continue
                pg = grad_fn(g)
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = np.asarray(pg, dtype=np.float64)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op: str, out: np.ndarray, parents) -> Tensor:
    """Wrap an op result; parents is a list of (Tensor, grad_fn)."""
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t._op = op
    t._backward_done = False
    if _grad_enabled and any(p.requires_grad or p._parents for p, _ in parents):
        t.requires_grad = any(p.requires_grad for p, _ in parents)
        t._parents = list(parents)
    else:
        t.requires_grad = False
        t._parents = []
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
    return _make("add", out, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub", a.shape, b.shape) from None
    return _make("sub", out, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None
    return _make("mul", out, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError("matmul", a.shape, b.shape) from None

    def grad_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)

    def grad_b(g):
        if b.ndim == 2:  # a shared weight: one 2-D GEMM over every leading row
            k, n = b.data.shape
            return a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)

    return _make("matmul", out, [(a, grad_a), (b, grad_b)])


def clamp(a, lo: float, hi: float) -> Tensor:
    a = check_finite(as_tensor(a), "clamp")
    out = np.clip(a.data, lo, hi)
    inside = (a.data >= lo) & (a.data <= hi)
    return _make("clamp", out, [(a, lambda g: g * inside)])


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    return check_finite(_make("log", out, [(a, lambda g: g / a.data)]), "log")


def tanh(a) -> Tensor:
    a = check_finite(as_tensor(a), "tanh")
    out = np.tanh(a.data)
    return _make("tanh", out, [(a, lambda g: g * (1.0 - out * out))])


def _gelu_tanh(x: np.ndarray, keep_t: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU, tanh approximation: 0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³))).

    Returns ``(gelu(x), t)``, where ``t`` is the tanh term that ``_gelu_grad``
    needs. Without ``keep_t``, ``t`` is None and the output is written over
    its buffer. The cube is ``x*x*x``: numpy evaluates ``x ** 3`` as a general
    ``pow``, which is several times slower.
    """
    u = x * x
    u *= x
    u *= _GELU_C
    u += x
    u *= _SQRT_2_OVER_PI
    np.tanh(u, out=u)
    h = u + 1.0 if keep_t else np.add(u, 1.0, out=u)
    h *= x
    h *= 0.5
    return h, (u if keep_t else None)


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx from the input and the tanh term of ``_gelu_tanh``."""
    dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_C * x * x)
    return 0.5 * (1.0 + t + x * (1.0 - t * t) * dinner)


def gelu(a) -> Tensor:
    """GELU, tanh approximation (see ``_gelu_tanh``)."""
    a = as_tensor(a)
    x = a.data
    out, t = _gelu_tanh(x, keep_t=True)
    return _make("gelu", out, [(a, lambda g: g * _gelu_grad(x, t))])


def moe_ffn(a, route, w1s, b1s, w2s, b2s, scale=None) -> Tensor:
    """``y[r] = scale[r] · FFN_{route[r]}(a[r])`` over the rows of ``a`` (..., d), as one graph node.

    ``FFN_e(x) = GELU(x·W1_e + b1_e)·W2_e + b2_e`` with ``w1s[e]`` (d × k),
    ..., ``b2s[e]``; every expert has width k. ``route`` (shape ``a.shape[:-1]``,
    like ``scale``) picks each row's expert; a dense FFN is one expert and a
    zero route. One stable argsort groups the rows by expert (skipped, with
    both gathers, when one expert takes every row); each expert runs its GEMMs
    on its contiguous slice, GELU runs once over all of them, and one inverse
    permutation restores row order. No row is dropped. An expert that no row
    reaches gets no gradient (its grad stays None).
    """
    a, scale = as_tensor(a), (None if scale is None else as_tensor(scale))
    experts = list(zip(w1s, b1s, w2s, b2s))
    route = np.asarray(route)
    d, k, d_out = a.data.shape[-1], w2s[0].data.shape[0], w2s[0].data.shape[-1]
    want = ((d, k), (k,), (k, d_out), (d_out,))
    if (route.shape != a.data.shape[:-1] or (scale is not None and scale.shape != route.shape)
            or any((w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != want
                   for w1, b1, w2, b2 in experts)):
        raise ShapeError("moe_ffn", a.shape, route.shape, *(x.shape for ws in experts for x in ws))
    flat = route.reshape(-1)
    counts = np.bincount(flat, minlength=len(experts)).tolist()  # rejects a negative route
    if len(counts) > len(experts):
        raise ValueError(f"moe_ffn: route outside [0, {len(experts)})")
    ends = itertools.accumulate(counts)
    spans = [(e, end - c, end) for e, (c, end) in enumerate(zip(counts, ends)) if c]
    if len(spans) > 1:
        order = np.argsort(flat, kind="stable")
        inv = np.argsort(order)  # row r of the input sits at inv[r] in expert order
    else:  # one expert takes every row: the rows are already in expert order
        order = inv = slice(None)
    xs = a.data.reshape(-1, d)[order]
    params = [a] + [x for ws in experts for x in ws] + ([] if scale is None else [scale])
    # the rule ``_make`` applies: a node is recorded iff some input is on a graph
    record = _grad_enabled and any(x.requires_grad or x._parents for x in params)
    z = np.empty((flat.size, k))
    for e, lo, hi in spans:
        np.matmul(xs[lo:hi], w1s[e].data, out=z[lo:hi])
        z[lo:hi] += b1s[e].data
    h, t = _gelu_tanh(z, keep_t=record)
    ys = np.empty((flat.size, d_out))
    for e, lo, hi in spans:
        np.matmul(h[lo:hi], w2s[e].data, out=ys[lo:hi])
        ys[lo:hi] += b2s[e].data
    if scale is not None:
        s = scale.data.reshape(-1)[order, None]
        unscaled, ys = ys, ys * s
    out = ys[inv].reshape(route.shape + (d_out,))
    if not record:
        return _make("moe_ffn", out, [])

    memo = [None, None]  # (output gradient, every parent's gradient from it)

    def grads(g):
        if memo[0] is g:
            return memo[1]
        gs = g.reshape(-1, d_out)[order]
        gy = gs if scale is None else gs * s
        dz = np.empty_like(z)
        for e, lo, hi in spans:
            np.matmul(gy[lo:hi], w2s[e].data.T, out=dz[lo:hi])
        dz *= _gelu_grad(z, t)
        gx = np.empty_like(xs)
        pgs = [None] * len(params)  # an idle expert keeps None, so the optimizer skips it
        for e, lo, hi in spans:
            np.matmul(dz[lo:hi], w1s[e].data.T, out=gx[lo:hi])
            pgs[1 + 4 * e:5 + 4 * e] = [xs[lo:hi].T @ dz[lo:hi], dz[lo:hi].sum(axis=0),
                                        h[lo:hi].T @ gy[lo:hi], gy[lo:hi].sum(axis=0)]
        pgs[0] = gx[inv].reshape(a.shape)
        if scale is not None:
            pgs[-1] = (gs * unscaled).sum(axis=1)[inv].reshape(route.shape)
        memo[:] = g, pgs
        return pgs

    return _make("moe_ffn", out, [(x, lambda g, i=i: grads(g)[i]) for i, x in enumerate(params)])


# -- reductions and reshaping ----------------------------------------------


def tsum(a) -> Tensor:
    """Sum of every element, as a scalar."""
    a = as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=np.float64)
    return _make("sum", out, [(a, lambda g: np.broadcast_to(g, a.data.shape).copy())])


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape) from None
    return _make("reshape", out, [(a, lambda g: g.reshape(a.data.shape))])


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = a.data.transpose(axes)
    inv = np.argsort(axes)
    return _make("transpose", out, [(a, lambda g: g.transpose(inv))])


def take(a, idx, axis: int = 0) -> Tensor:
    """Select rows along ``axis`` by integer index (gather)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take(a.data, idx, axis=axis)

    def grad(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (slice(None),) * axis + (idx,), g)
        return ga

    return _make("take", out, [(a, grad)])


# -- fused neural-net ops ---------------------------------------------------


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = check_finite(as_tensor(a), "softmax")
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - dot)

    return _make("softmax", out, [(a, grad)])


def layernorm(x, gamma, beta) -> Tensor:
    """Layer normalization over the last axis."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layernorm", x.shape, gamma.shape, beta.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-12)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def grad_x(g):
        gx = g * gamma.data
        return inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True))

    def grad_gamma(g):
        return (g * xhat).reshape(-1, d).sum(axis=0)

    def grad_beta(g):
        return g.reshape(-1, d).sum(axis=0)

    return _make("layernorm", out, [(x, grad_x), (gamma, grad_gamma), (beta, grad_beta)])


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; the identity when ``p <= 0`` or ``rng`` is None (evaluation)."""
    a = as_tensor(a)
    if p <= 0.0 or rng is None:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(keep))


def mse(pred, target, mask=None) -> Tensor:
    """Mean squared error; with ``mask`` (batch×seq of 0/1), the mean runs
    over non-masked tokens and all trailing feature dims."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError("mse", pred.shape, target.shape)
    diff = pred.data - target.data
    if mask is None:
        w = np.ones(pred.shape)
        count = diff.size
    else:
        m = np.asarray(mask, dtype=np.float64)
        w = m.reshape(m.shape + (1,) * (pred.ndim - m.ndim))
        w = np.broadcast_to(w, pred.shape)
        count = w.sum()
        if count == 0:
            raise ShapeError("mse", mask.shape)
    out = np.asarray((w * diff * diff).sum() / count)

    def grad_pred(g):
        return g * 2.0 * w * diff / count

    def grad_target(g):
        return -g * 2.0 * w * diff / count

    return _make("mse", out, [(pred, grad_pred), (target, grad_target)])


def kl_div(p, q) -> Tensor:
    """KL(p‖q) per row, averaged over rows; inputs clamped to [1e-12, 1]."""
    p, q = as_tensor(p), as_tensor(q)
    if p.shape != q.shape:
        raise ShapeError("kl_div", p.shape, q.shape)
    pc = clamp(p, 1e-12, 1.0)
    qc = clamp(q, 1e-12, 1.0)
    rows = int(np.prod(p.shape[:-1])) if p.ndim > 1 else 1
    per_elem = mul(pc, sub(log(pc), log(qc)))
    return mul(tsum(per_elem), 1.0 / rows)


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

    def grad(g):
        gg = probs.copy()
        gg[np.arange(n), labels] -= 1.0
        return g * gg / n

    return _make("cross_entropy", out, [(logits, grad)])


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
    return _make("masked_mean_rows", out, [(x, lambda g: g[:, None, :] * w)])


# -- gradient checking ------------------------------------------------------


def finite_diff_check(f, params, step: float = 1e-3, n_samples: int = 50,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic gradients of ``f`` and
    fourth-order central finite differences over sampled coordinates of
    ``params``.

    The numeric derivative is the five-point stencil, the Richardson
    extrapolation of the central differences at ``step`` and ``2 * step``: its
    truncation error is O(step**4), so a step near 1e-3 keeps both truncation
    and float64 cancellation noise (about eps * |f| / step) near 1e-13 of the
    objective's scale, where a two-point difference at 1e-6 is left with
    about 1e-10.

    ``f`` must be a deterministic map from the current parameter values to a
    scalar Tensor. Analytic gradients are obtained by one forward/backward;
    each sampled coordinate then costs four extra forward passes.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng or np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    coords = []
    for pi, p in enumerate(params):
        for flat in range(p.data.size):
            coords.append((pi, flat))
    if len(coords) > n_samples:
        chosen = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[i] for i in chosen]

    max_rel = 0.0
    for pi, flat in coords:
        p = params[pi]
        orig = p.data.flat[flat]
        vals = []
        with no_grad():
            for k in (2, 1, -1, -2):
                p.data.flat[flat] = orig + k * step
                vals.append(f().item())
            p.data.flat[flat] = orig
        f2, f1, m1, m2 = vals
        numeric = (8.0 * (f1 - m1) - (f2 - m2)) / (12.0 * step)
        a = analytic[pi].flat[flat]
        denom = max(abs(a), abs(numeric), 1e-12)
        rel = abs(a - numeric) / denom
        max_rel = max(max_rel, rel)
    return max_rel
