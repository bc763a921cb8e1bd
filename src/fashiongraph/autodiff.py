"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records its parents and a closure that maps the
output gradient to parent gradients.  ``Tensor.backward()`` walks the tape
in reverse topological order and frees the graph as it walks it: each
interior node drops its gradient, closure and parents once it has pushed
its gradient on, so an activation lives only until its last consumer's
backward has run, and the tape is gone when ``backward`` returns.  Leaves
keep their ``.grad``.  A second ``backward()`` through a walked graph
raises ``RuntimeError``.  Inside a ``no_grad()`` block ops skip tape
construction entirely, which keeps repeated forward passes (e.g. the
finite-difference gradient checker) cheap.

Shapes follow numpy broadcasting; gradients of broadcast operands are
summed back to the operand's shape.
"""

from __future__ import annotations

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that disables tape construction."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        """Accumulate gradients of this tensor w.r.t. all graph leaves,
        freeing the graph behind the walk.  A walked node's closure becomes
        ``_walked``, so walking it again raises."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        order = _topo_order(self)
        self.grad = np.asarray(grad)
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                for parent, pg in zip(node._parents, node._backward(node.grad)):
                    if pg is None or not parent.requires_grad:
                        continue
                    if parent.grad is None:
                        parent.grad = pg
                    else:
                        parent.grad = parent.grad + pg
            node.grad, node._backward, node._parents = None, _walked, ()

    # Operator sugar; every op also exists as a module-level function.
    def __add__(self, other):
        return add(self, _coerce(other, self.data))

    def __radd__(self, other):
        return add(_coerce(other, self.data), self)

    def __sub__(self, other):
        return sub(self, _coerce(other, self.data))

    def __rsub__(self, other):
        return sub(_coerce(other, self.data), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self.data))

    def __rmul__(self, other):
        return mul(_coerce(other, self.data), self)

    def __truediv__(self, other):
        return div(self, _coerce(other, self.data))

    def __rtruediv__(self, other):
        return div(_coerce(other, self.data), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _coerce(other, like: np.ndarray) -> Tensor:
    """Wrap ``other``; python scalars take the dtype of ``like`` so mixing a
    float32 graph with scalar constants never upcasts to float64."""
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float)):
        return Tensor(np.asarray(other, dtype=like.dtype))
    return Tensor(np.asarray(other))


def _walked(g):
    raise RuntimeError("this graph was already walked by backward(), which frees it; "
                       "build it again to take another gradient")


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    return order


def _make(data, parents, backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward = backward
        return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """np.matmul with batch broadcasting; operands must be >= 2-D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")

    def backward(g):
        # A constant operand (a feature matrix, say) gets no gradient.  A 2-D
        # operand broadcast over a batch takes its gradient from one product
        # that also sums over the batch, never from a (batch, ...) stack.
        ga = gb = None
        if a.requires_grad:
            if a.ndim == 2 and g.ndim == 3:
                ga = np.tensordot(g, b.data, axes=([0, 2], [0, 2]))
            else:
                ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape)
        if b.requires_grad:
            if b.ndim == 2 and g.ndim == 3:
                gb = np.tensordot(a.data, g, axes=([0, 1], [0, 1]))
            else:
                gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape)
        return ga, gb

    return _make(np.matmul(a.data, b.data), (a, b), backward)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """The affine map ``x W^T + b`` of a batch ``x`` (n, in) by ``W``
    (out, in) and ``b`` (out,), as one node."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.ndim != 2 or W.ndim != 2 or b.ndim != 1:
        raise ValueError("linear takes x (n, in), W (out, in) and b (out,)")

    def backward(g):
        # A constant input (a feature matrix, say) gets no gradient.
        gx = np.matmul(g, W.data) if x.requires_grad else None
        gW = np.matmul(g.T, x.data) if W.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gW, gb

    return _make(np.matmul(x.data, W.data.T) + b.data, (x, W, b), backward)


# ---------------------------------------------------------------------------
# shape / indexing


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = np.argsort(axes)
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        return (buf,)

    return _make(a.data[index], (a,), backward)


class Segments:
    """An index array laid out as runs of equal values, built once and shared
    by every reduction over that index.

    ``order`` is the stable argsort of ``index`` (``None`` when the index is
    already sorted).  In that order run ``k`` starts at ``starts[k]`` and
    belongs to bucket ``ids[k]``; empty buckets have no run.  An index in
    ``[0, 65536)`` is sorted as ``uint16``, which NumPy radix-sorts; a
    stable order is unique, so the permutation is the same.
    """

    __slots__ = ("index", "order", "starts", "ids")

    def __init__(self, index):
        index = np.asarray(index)
        if index.ndim != 1:
            raise ValueError("a segment index must be 1-D")
        self.index, self.order, ordered = index, None, index
        if (index[1:] < index[:-1]).any():
            keys = index
            if index.dtype.kind in "iu" and index.min() >= 0 and index.max() < 1 << 16:
                keys = index.astype(np.uint16)
            self.order = np.argsort(keys, kind="stable")
            ordered = index[self.order]
        new_run = np.ones(len(index), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
        self.starts = np.flatnonzero(new_run)
        self.ids = ordered[self.starts]


class RunGroups:
    """The runs of a ``Segments`` grouped by length, as sliced-ELLPACK
    sparse formats group rows, so that a sum over every run is one dense
    batched product per length.

    ``perm`` lists the positions of the index run by run, with runs of one
    length adjacent.  Group ``(offset, n, k)`` is ``n`` runs of length
    ``k`` at ``perm[offset:offset + n * k]``; ``ids`` holds the bucket of
    each grouped run, group by group.  The lengths are distinct and sum to
    at most ``len(index)``, so there are at most sqrt(2 len(index)) groups.
    When ``within`` is given, ``perm`` indexes arrays already taken through
    the permutation ``within``.
    """

    __slots__ = ("perm", "groups", "ids")

    def __init__(self, segs: Segments, within: np.ndarray | None = None):
        n_index = len(segs.index)
        lengths = np.diff(segs.starts, append=n_index)
        by_length = np.argsort(lengths, kind="stable")
        lengths = lengths[by_length]
        offsets = np.cumsum(lengths) - lengths
        self.perm = np.arange(n_index) + np.repeat(segs.starts[by_length] - offsets, lengths)
        if segs.order is not None:
            self.perm = segs.order[self.perm]
        if within is not None:
            inverse = np.empty_like(within)
            inverse[within] = np.arange(len(within))
            self.perm = inverse[self.perm]
        ks, first, counts = np.unique(lengths, return_index=True, return_counts=True)
        self.groups = [(int(o), int(n), int(k)) for o, n, k in zip(offsets[first], counts, ks)]
        self.ids = segs.ids[by_length]


class EdgeLayout:
    """One level's edges grouped by in-degree for ``edge_sum``: ``tgt``
    groups the target runs, ``src`` groups the source runs over arrays in
    ``tgt.perm`` order, and ``src_rows`` is the source of each edge in that
    order."""

    __slots__ = ("tgt", "src", "src_rows")

    def __init__(self, src: np.ndarray, by_tgt: Segments, by_src: Segments):
        self.tgt = RunGroups(by_tgt)
        self.src = RunGroups(by_src, within=self.tgt.perm)
        self.src_rows = src[self.tgt.perm]


def _segments(segments) -> Segments:
    return segments if isinstance(segments, Segments) else Segments(segments)


def _segment_reduce(ufunc, values: np.ndarray, segs: Segments, out: np.ndarray,
                    axis: int = 0) -> np.ndarray:
    """Reduce each run of ``segs`` along ``axis`` of ``values`` with ``ufunc``
    into its bucket's slice of ``out``, and return ``out``.  The slices of
    empty buckets keep what ``out`` held (0, or -inf for a maximum)."""
    if len(segs.starts):
        if segs.order is not None:
            values = np.take(values, segs.order, axis=axis)
        reduced = ufunc.reduceat(values, segs.starts, axis=axis)
        out[(slice(None),) * axis + (segs.ids,)] = reduced
    return out


def gather(a: Tensor, idx, axis: int = 0) -> Tensor:
    """Select slices ``idx`` along ``axis``; ``idx`` is an index array or its
    ``Segments``.  The gradient sums back over the segments of ``idx``."""
    segs = idx if isinstance(idx, Segments) else None
    idx = segs.index if segs is not None else np.asarray(idx)

    def backward(g):
        return (_segment_reduce(np.add, g, segs or Segments(idx), np.zeros_like(a.data), axis),)

    return _make(np.take(a.data, idx, axis=axis), (a,), backward)


def segment_sum(a: Tensor, segments, num_segments: int, axis: int = 0) -> Tensor:
    """Sum slices of ``a`` along ``axis`` into ``num_segments`` buckets;
    ``segments`` is the bucket index array or its ``Segments``."""
    segs = _segments(segments)
    shape = list(a.data.shape)
    shape[axis] = num_segments
    out = _segment_reduce(np.add, a.data, segs, np.zeros(shape, dtype=a.data.dtype), axis)

    def backward(g):
        return (np.take(g, segs.index, axis=axis),)

    return _make(out, (a,), backward)


def edge_sum(alpha: Tensor, x: Tensor, edges) -> Tensor:
    """Weighted neighbour sum ``out[h, t] = sum over edges e into t of
    alpha[h, e] * x[src[e]]``, shape (heads, n_tgt, d).

    ``edges`` is a ``graph.LevelEdges``; ``alpha`` is (heads, n_edges) and
    ``x`` is (n_src, d).  Over the level's ``EdgeLayout`` the n targets of
    in-degree k are one batched product of their (n, heads, k) weights by
    their (n, k, d) source rows, and the backward is one product per group
    too, so no (heads, n_edges, d) array is built.  The tape keeps no
    (n_edges, d) array either: the backward gathers the source rows again
    from ``x``.
    """
    layout = edges.layout
    tgt, src = layout.tgt, layout.src
    a = np.take(alpha.data, tgt.perm, axis=1)  # (heads, n_edges), grouped
    xs = np.take(x.data, layout.src_rows, axis=0)  # (n_edges, d), grouped
    heads, d = a.shape[0], xs.shape[1]
    rows = np.empty((len(tgt.ids), heads, d), dtype=np.result_type(a, xs))
    r = 0
    for off, n, k in tgt.groups:
        block = slice(off, off + n * k)
        np.matmul(a[:, block].reshape(heads, n, k).transpose(1, 0, 2),
                  xs[block].reshape(n, k, d), out=rows[r:r + n])
        r += n
    out = np.zeros((heads, edges.n_tgt, d), dtype=rows.dtype)
    out[:, tgt.ids] = rows.transpose(1, 0, 2)

    def backward(g):
        xs = np.take(x.data, layout.src_rows, axis=0)
        g_rows = np.take(g, tgt.ids, axis=1)  # (heads, n_rows, d)
        ga = np.empty_like(alpha.data) if alpha.requires_grad else None
        g_edge = np.empty_like(xs, dtype=np.result_type(a, g)) if x.requires_grad else None
        r = 0
        for off, n, k in tgt.groups:
            block = slice(off, off + n * k)
            g_blk = g_rows[:, r:r + n].transpose(1, 0, 2)  # (n, heads, d)
            if ga is not None:
                ga_blk = np.matmul(g_blk, xs[block].reshape(n, k, d).transpose(0, 2, 1))
                ga[:, tgt.perm[block]] = ga_blk.transpose(1, 0, 2).reshape(heads, n * k)
            if g_edge is not None:
                np.matmul(a[:, block].reshape(heads, n, k).transpose(1, 2, 0), g_blk,
                          out=g_edge[block].reshape(n, k, d))
            r += n
        gx = None
        if g_edge is not None:
            sums = np.empty((len(src.ids), d), dtype=g_edge.dtype)
            r = 0
            for off, n, k in src.groups:  # sources of out-degree k
                by_src = np.take(g_edge, src.perm[off:off + n * k], axis=0)
                np.sum(by_src.reshape(n, k, d), axis=1, out=sums[r:r + n])
                r += n
            gx = np.zeros_like(x.data)
            gx[src.ids] = sums
        return ga, gx

    return _make(out, (alpha, x), backward)


# ---------------------------------------------------------------------------
# reductions


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def sum_squares(tensors) -> Tensor:
    """The sum of the squares of every entry of ``tensors``, as one node."""
    tensors = [_as_tensor(t) for t in tensors]
    total = sum((t.data * t.data).sum() for t in tensors)

    def backward(g):
        return tuple(2 * g * t.data for t in tensors)

    return _make(np.asarray(total), tuple(tensors), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        count = a.data.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape).copy(),)
        g_expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_expanded / count, a.data.shape).copy(),)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    """max(x, slope * x), exact for 0 <= slope <= 1 (``ModelDims`` checks)."""
    x = a.data
    slope = x.dtype.type(slope)

    def backward(g):
        # A lookup of 1 or slope by sign, made only when the tape is walked:
        # np.where over mixed signs is several times slower.
        return (g * np.array([slope, 1.0], dtype=x.dtype).take((x >= 0).view(np.uint8)),)

    return _make(np.maximum(x, slope * x), (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _make(y, (a,), lambda g: (g * y,))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """sigma(x) without overflow for large |x| (plain numpy, no tape)."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x), computed as logaddexp(0, x) so large |x| cannot overflow."""
    return _make(np.logaddexp(0.0, a.data), (a,), lambda g: (g * stable_sigmoid(a.data),))


def segment_softmax(logits: Tensor, segments, num_segments: int, axis: int = 0) -> Tensor:
    """Softmax of ``logits`` within each segment along ``axis``.

    The per-segment maximum is subtracted as a constant before
    exponentiation; it cancels exactly in the softmax, so detaching it
    leaves both value and gradient unchanged while preventing overflow.
    """
    segs = _segments(segments)
    shape = list(logits.data.shape)
    shape[axis] = num_segments
    seg_max = np.full(shape, -np.inf, dtype=logits.data.dtype)
    _segment_reduce(np.maximum, logits.data, segs, seg_max, axis)
    shifted = logits - Tensor(np.take(seg_max, segs.index, axis=axis))
    z = exp(shifted)
    denom = segment_sum(z, segs, num_segments, axis=axis)
    return z / gather(denom, segs, axis=axis)
