"""Dense float64 tensors with tape-based reverse-mode differentiation.

Ops execute eagerly on numpy arrays. While a `Tape` is active (entered as a
context manager), every op whose inputs can influence a trainable parameter
gives its output a gradient node and appends the node and a backward
closure to the tape; replaying the list in reverse propagates gradients in
exact reverse execution order, so no topological sort is needed. Ops that
only touch frozen parameters and plain inputs are not recorded at all, and
gradient products aimed at frozen parameters are skipped, so a
mostly-frozen model back-propagates only through the live subgraph. With
no active tape, an op returns its output before it builds a closure.

Forward keeps only what backward reads. The tape and each closure hold
gradient nodes, never op outputs: a node is a bare gradient slot, and a
trainable `Param` is its own node (a frozen one has none). `Tensor.grad`
and `Tensor.needs_grad` read the tensor's node. Each closure keeps only the
arrays its backward reads:
- `matmul` keeps `a.data` only when `b` needs a gradient, and `b.data` only
  when `a` does; `mul` likewise;
- `add`, `concat_rows`, `mean_rows` and `sum_all` keep no array;
- `layer_norm` keeps its normalized rows and their inverse deviations, not
  its input; `relu` keeps its output's positive mask; `softmax` its output;
- `lincomb` and `scale` keep their terms only when the coefficients train;
- `attention` keeps its weights and each of q, k, v only for the gradients
  that read it.
So a residual sum, a frozen-weight product or an FFN pre-activation is
freed as soon as the model code drops it, not at the end of backward.

Backward consumes the tape: it drops each recorded entry (node and closure)
as soon as the closure has run or been skipped, so gradients and saved
arrays are freed while backward is still running. Tensors the caller holds,
such as the loss and the embeddings, keep their gradients; `len(tape)`
still counts the recorded ops, and a tape runs backward once.

Primitive ops (each records one tape node): `matmul`, with an optional
fused bias; `add`, `mul`, `scale`, `relu`, `layer_norm`, `softmax`,
`softmax_cross_entropy`, `mean_rows`, `sum_all`, `lincomb`, `concat_rows`;
and `attention`, which runs every head of scaled dot-product attention as
one op. A single row is a [1, d] matrix: `mean_rows` returns one, and
`concat_rows` stacks them.

Gradient accumulation: the first gradient a node other than a `Param`
receives is assigned as is, without a copy, so its `grad` array may be
shared with another tensor's gradient or be a read-only broadcast view.
Later contributions therefore rebind it (`node.grad = node.grad + g`) and
never write into it. A `Param` owns its gradient buffer and accumulates
into it in place, so `Param.grad` stays the same array across steps; an
optimizer rebinds it, and `data`, once, when built, to views of its flat
buffer.

Ops compute in place only in arrays they allocated, never in an input's
`data` or the `g` a backward receives (either may be shared or a read-only
view), and keep the operation order of the plain expressions, so their
results are bit-identical. `relu` passes a NaN through to the loss check.

Params are made by three factories, `Param.xavier`, `Param.zeros` and
`Param.ones`, which make shape-only params inside a `shape_only()` block.

Only the ranks this package needs are supported: vectors and matrices.
`add` and `mul` take operands of one shape; there is no general
broadcasting.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .rng import Stream, xavier_uniform


_tape = None  # the active Tape
_shape_only = False  # whether the Param factories make shape-only params


class Tensor:
    """Dense float64 array plus, once an op records it, a gradient node."""

    __slots__ = ("data", "_node")

    def __init__(self, data):
        # an op's float64 result is kept as is; anything else is converted
        self.data = (data if type(data) is np.ndarray and data.dtype == np.float64
                     else np.asarray(data, dtype=np.float64))
        self._node = None

    @property
    def grad(self):
        """The gradient backward left in this tensor's node, or None."""
        node = self._node
        return None if node is None else node.grad

    @property
    def needs_grad(self) -> bool:
        """Whether a gradient for this tensor is worth computing."""
        return self._node is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class _Node:
    """Gradient slot of a recorded op output, held by the tape and by the
    closures of the ops that read the output."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Param(Tensor):
    """Named leaf tensor. Frozen params never accumulate gradient and are
    never touched by optimizer steps. A trainable param is its own gradient
    node."""

    __slots__ = ("grad", "name", "trainable")

    def __init__(self, data, name: str = "", trainable: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.trainable = trainable

    @property
    def _node(self):
        return self if self.trainable else None

    @classmethod
    def xavier(cls, name: str, shape: tuple, seed: int) -> "Param":
        """Xavier-uniform [fan_in, fan_out] weight drawn from the stream
        (seed, name)."""
        return cls._make(name, shape, lambda: xavier_uniform(shape, *shape, seed, name))

    @classmethod
    def zeros(cls, name: str, shape) -> "Param":
        return cls._make(name, shape, lambda: np.zeros(shape))

    @classmethod
    def ones(cls, name: str, shape) -> "Param":
        return cls._make(name, shape, lambda: np.ones(shape))

    @classmethod
    def _make(cls, name, shape, init) -> "Param":
        if not _shape_only:
            return cls(init(), name=name)
        p = cls.__new__(cls)
        p.data = np.broadcast_to(np.float64(0.0), shape)
        p.grad, p.name, p.trainable = None, name, True
        return p

    def __repr__(self):
        flag = "" if self.trainable else ", frozen"
        return f"Param({self.name!r}, shape={self.shape}{flag})"


@contextmanager
def shape_only():
    """Within the block, the Param factories make shape-only params: a
    read-only zero-stride view of one 0.0 with no gradient buffer, so a
    model of any size can be built and counted, but not run."""
    global _shape_only
    before = _shape_only
    _shape_only = True
    try:
        yield
    finally:
        _shape_only = before


class Module:
    """Base of every model part. `params()` lists, in assignment order, each
    Param held under a public attribute and the params of each Module held
    alone or in a list. A `_`-prefixed attribute is not walked: its param
    is listed by another module."""

    def params(self) -> list:
        out = []
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Param):
                    out.append(item)
                elif isinstance(item, Module):
                    out.extend(item.params())
        return out


class Tape:
    """Execution-ordered record of gradient nodes and backward closures;
    backward replays it in reverse.

    One tape per training step, and at most one active at a time. Backward
    consumes the recorded ops, so it runs once per tape; tensors the
    caller holds keep their gradients.
    """

    def __init__(self):
        self._ops = []  # (gradient node, backward closure); None once run
        self._spent = False

    def __enter__(self):
        global _tape
        if _tape is not None:
            raise RuntimeError("a tape is already active")
        _tape = self
        return self

    def __exit__(self, *exc):
        global _tape
        _tape = None
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(param) into every trainable Param reachable
        from `loss`. Frozen params keep zero gradient."""
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        if self._spent:
            raise RuntimeError("backward already ran on this tape")
        self._spent = True
        if loss._node is not None:
            loss._node.grad = np.ones_like(loss.data)
        ops = self._ops
        for i in range(len(ops) - 1, -1, -1):
            node, bwd = ops[i]
            ops[i] = None  # frees the closure, its saved arrays and the node unless held elsewhere
            if node.grad is not None:
                bwd(node.grad)


def _nodes(inputs):
    """The gradient nodes of an op's inputs (None for an absent input),
    or None when no tape is active or no input needs a gradient: the op
    then records nothing and builds no closure."""
    if _tape is None:
        return None
    nodes = [None if t is None else t._node for t in inputs]
    for node in nodes:
        if node is not None:
            return nodes
    return None


def _record(out: Tensor, bwd) -> Tensor:
    """Give out a fresh gradient node and push it, with the closure that
    propagates the node's gradient to the inputs, onto the active tape."""
    out._node = node = _Node()
    _tape._ops.append((node, bwd))
    return out


def _accum(node, g: np.ndarray) -> None:
    """Add g to a node's gradient. A Param accumulates into its own buffer;
    any other node takes its first g without a copy and rebinds afterwards,
    because g may be shared with another tensor's gradient."""
    if isinstance(node, Param):
        node.grad += g
    elif node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product [m, k] @ [k, n] -> [m, n], plus an optional length-n
    bias row added to every row (its gradient sums over rows)."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    y = ad @ bd
    if bias is not None:
        if bias.data.shape != y.shape[1:]:
            raise ValueError(f"matmul: bias shape {bias.shape} does not fit output {y.shape}")
        y += bias.data
    out = Tensor(y)
    nodes = _nodes((a, b, bias))
    if nodes is None:
        return out
    na, nb, nbias = nodes
    ad = ad if nb is not None else None
    bd = bd if na is not None else None

    def bwd(g):
        if nbias is not None:
            _accum(nbias, g.sum(axis=0))
        if na is not None:
            _accum(na, g @ bd.T)
        if nb is not None:
            _accum(nb, ad.T @ g)

    return _record(out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of the same shape."""
    if a.shape != b.shape:
        raise ValueError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)
    nodes = _nodes((a, b))
    if nodes is None:
        return out
    na, nb = nodes

    def bwd(g):
        if na is not None:
            _accum(na, g)
        if nb is not None:
            _accum(nb, g)

    return _record(out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    nodes = _nodes((a, b))
    if nodes is None:
        return out
    na, nb = nodes
    ad = ad if nb is not None else None
    bd = bd if na is not None else None

    def bwd(g):
        if na is not None:
            _accum(na, g * bd)
        if nb is not None:
            _accum(nb, g * ad)

    return _record(out, bwd)


def scale(x: Tensor, s) -> Tensor:
    """x scaled by a one-element Tensor/Param s, or by a python float, which
    is wrapped as a constant 0-d Tensor. A factor that trains receives
    sum(g * x) as its gradient."""
    if not isinstance(s, Tensor):
        s = Tensor(float(s))
    if s.data.size != 1:
        raise ValueError(f"scale factor must be scalar, got shape {s.shape}")
    sv, s_shape = s.data.reshape(()), s.data.shape
    out = Tensor(x.data * sv)
    nodes = _nodes((x, s))
    if nodes is None:
        return out
    nx, ns = nodes
    xd = x.data if ns is not None else None

    def bwd(g):
        if nx is not None:
            _accum(nx, g * sv)
        if ns is not None:
            _accum(ns, np.asarray(np.sum(g * xd)).reshape(s_shape))

    return _record(out, bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), passing NaN through; the subgradient at 0 is taken as 0."""
    y = np.maximum(x.data, 0.0)
    out = Tensor(y)
    nodes = _nodes((x,))
    if nodes is None:
        return out
    nx, = nodes
    mask = y > 0.0

    def bwd(g):
        _accum(nx, g * mask)

    return _record(out, bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x to zero mean and unit (biased) variance, then
    apply the gamma/beta affine. eps sits inside the square root."""
    if eps <= 0.0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(
            f"layer_norm: gamma/beta {gamma.shape}/{beta.shape} do not match "
            f"feature dim {d}"
        )
    # sum / d is bitwise what ndarray.mean computes, minus its Python wrapper
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    y = np.multiply(xhat, xhat)
    inv = y.sum(axis=-1, keepdims=True) / d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = Tensor(y)
    nodes = _nodes((x, gamma, beta))
    if nodes is None:
        return out
    nx, ngamma, nbeta = nodes
    gd = gamma.data
    reduce_rows = (lambda a: a.sum(axis=0)) if x.ndim == 2 else (lambda a: a)

    def bwd(g):
        if ngamma is not None:
            _accum(ngamma, reduce_rows(g * xhat))
        if nbeta is not None:
            _accum(nbeta, reduce_rows(g))
        if nx is not None:
            # inv * (dxhat - sum(dxhat) / d - (xhat * sum(dxhat * xhat)) / d)
            dx = g * gd
            mean = dx.sum(axis=-1, keepdims=True) / d
            proj = np.multiply(dx, xhat)
            np.multiply(xhat, proj.sum(axis=-1, keepdims=True), out=proj)
            proj /= d
            dx -= mean
            dx -= proj
            dx *= inv
            _accum(nx, dx)

    return _record(out, bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis of a vector or matrix, max-subtracted."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    nodes = _nodes((x,))
    if nodes is None:
        return out
    nx, = nodes

    def bwd(g):
        _accum(nx, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _record(out, bwd)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Backward is (softmax - one_hot) / batch. Labels out of [0, K) raise
    IndexError.
    """
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects [B, K] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise IndexError(f"label {bad} out of range for {k} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(b), labels]
    out = Tensor(nll.mean())
    nodes = _nodes((logits,))
    if nodes is None:
        return out
    nlogits, = nodes

    def bwd(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(b), labels] -= 1.0
        _accum(nlogits, (float(g) / b) * p)

    return _record(out, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int):
    """Scaled dot-product self-attention over all heads as one op.

    q, k and v are [T, d] with head h owning columns h*dh:(h+1)*dh, where
    dh = d / num_heads. Each head computes softmax(q_h k_h^T / sqrt(dh)) v_h
    (softmax max-subtracted, along each row) and the head outputs are laid
    side by side into [T, d]. Returns that output tensor and the [H, T, T]
    attention weights as a plain array (not on the tape).
    """
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"attention: q/k/v shapes {q.shape}/{k.shape}/{v.shape} differ")
    t, d = q.shape
    if num_heads < 1 or d % num_heads != 0:
        raise ValueError(f"attention: width {d} does not split into {num_heads} heads")
    dh = d // num_heads
    c = 1.0 / math.sqrt(dh)

    def split(a):  # [T, d] -> [H, T, dh] view
        return a.reshape(t, num_heads, dh).transpose(1, 0, 2)

    def merge(a):  # [H, T, dh] -> [T, d]; always C order, because a later
        # row sum (a bias gradient) adds in an order that follows the layout
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    att = qh @ kh.transpose(0, 2, 1)
    att *= c
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    out = Tensor(merge(att @ vh))
    nodes = _nodes((q, k, v))
    if nodes is None:
        return out, att
    nq, nk, nv = nodes
    qh = qh if nk is not None else None
    kh = kh if nq is not None else None
    vh = vh if nq is not None or nk is not None else None

    def bwd(g):
        gh = split(g)
        if nv is not None:
            _accum(nv, merge(att.transpose(0, 2, 1) @ gh))
        if nq is not None or nk is not None:
            # gz = (att * (ga - sum(ga * att))) * c, built in ga's buffer
            gz = gh @ vh.transpose(0, 2, 1)
            gz -= np.multiply(gz, att).sum(axis=-1, keepdims=True)
            gz *= att
            gz *= c
            if nq is not None:
                _accum(nq, merge(gz @ kh))
            if nk is not None:
                _accum(nk, merge((qh.transpose(0, 2, 1) @ gz).transpose(0, 2, 1)))

    return _record(out, bwd), att


def mean_rows(x: Tensor) -> Tensor:
    """Mean over the time (row) axis of a [T, d] matrix, as a [1, d] row."""
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"mean_rows expects a non-empty [T, d] matrix, got {x.shape}")
    t, shape = x.shape[0], x.shape
    # sum / t is bitwise what ndarray.mean computes, minus its Python wrapper
    out = Tensor(x.data.sum(axis=0, keepdims=True) / t)
    nodes = _nodes((x,))
    if nodes is None:
        return out
    nx, = nodes

    def bwd(g):
        _accum(nx, np.broadcast_to(g / t, shape))

    return _record(out, bwd)


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    out = Tensor(x.data.sum())
    nodes = _nodes((x,))
    if nodes is None:
        return out
    nx, = nodes

    def bwd(g):
        _accum(nx, np.broadcast_to(g, shape))

    return _record(out, bwd)


def lincomb(coeffs: Tensor, tensors: list) -> Tensor:
    """Linear combination sum_i coeffs[i] * tensors[i] of same-shaped
    tensors; gradients flow to the coefficient vector and every term."""
    n = coeffs.data.shape[0] if coeffs.ndim == 1 else -1
    if coeffs.ndim != 1 or n != len(tensors):
        raise ValueError(
            f"lincomb: {len(tensors)} tensors vs coefficient shape {coeffs.shape}"
        )
    cd = coeffs.data
    acc = np.zeros_like(tensors[0].data)
    for c, t in zip(cd, tensors):
        acc += c * t.data
    out = Tensor(acc)
    nodes = _nodes([coeffs, *tensors])
    if nodes is None:
        return out
    ncoeffs, *nterms = nodes
    terms = [t.data for t in tensors] if ncoeffs is not None else None

    def bwd(g):
        if ncoeffs is not None:
            _accum(ncoeffs, np.array([np.sum(g * td) for td in terms]))
        for c, node in zip(cd, nterms):
            if node is not None:
                _accum(node, c * g)

    return _record(out, bwd)


def concat_rows(rows: list) -> Tensor:
    """Concatenate [1, d] rows into a [B, d] matrix."""
    out = Tensor(np.concatenate([r.data for r in rows], axis=0))
    nodes = _nodes(rows)
    if nodes is None:
        return out

    def bwd(g):
        for i, node in enumerate(nodes):
            if node is not None:
                _accum(node, g[i : i + 1])

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# gradient verification


GRAD_CHECK_STEPS = (1e-7, 1e-4)  # the finite-difference step sizes grad_check accepts


def grad_check(f, params, h: float = 1e-5, n_probes: int = 100, seed: int = 0) -> float:
    """Max relative disagreement between tape gradients of the scalar f()
    and central finite differences at randomly probed coordinates.

    f must be a pure function of the given params (re-evaluated ~2*n_probes
    times). The first probes cover each param once, the rest are uniform.
    Relative error uses a 1e-12 floor so exactly-zero gradients compare as 0.
    Caller is responsible for keeping relu pre-activations away from the
    kink relative to h.
    """
    lo, hi = GRAD_CHECK_STEPS
    if not (lo <= h <= hi):
        raise ValueError(f"grad_check: h must be in [{lo:g}, {hi:g}], got {h}")
    if n_probes < 1:
        raise ValueError(f"grad_check: n_probes must be at least 1, got {n_probes}")
    params = [p for p in params]
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    stream = Stream(seed, "grad-check/probes")
    draw = lambda n: int(stream.words(1)[0] % np.uint64(n))
    order = list(range(len(params)))
    stream.shuffle(order)
    picks = order[:n_probes] + [draw(len(params)) for _ in range(n_probes - len(order))]
    probes = [(i, draw(params[i].data.size)) for i in picks]

    worst = 0.0
    for i, idx in probes:
        p = params[i]
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + h
        fp = f().item()
        p.data.flat[idx] = orig - h
        fm = f().item()
        p.data.flat[idx] = orig
        fd = (fp - fm) / (2.0 * h)
        a = analytic[i].flat[idx]
        rel = abs(a - fd) / max(abs(a), abs(fd), 1e-12)
        worst = max(worst, rel)
    return worst
