"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is built on three pieces:

* ``Tensor`` — an immutable value wrapping a float64 ndarray, with an
  optional gradient slot.
* ``Tape`` — an explicit record of primitive operations, used as a context
  manager. Nodes are appended in execution order, which is automatically a
  topological order, so ``backward`` is a single reverse sweep.
* primitives — small functions (``add``, ``matmul``, ``tanh``, ...) that
  compute forward values with numpy and, while a tape is active, record a
  closure computing the vector-Jacobian product.

Shape discipline is deliberately strict: elementwise primitives require
identical shapes (Python scalars are the one exception) and rank promotion
only ever happens through an explicit ``broadcast_to``. Shape mistakes fail
loudly with a ``ShapeError`` naming the primitive and the offending shapes.

Outside of a ``with Tape():`` block the same primitives run as plain numpy
calls with no recording overhead, which is what inference uses.
"""

import threading

import numpy as np

from .errors import ShapeError

_STATE = threading.local()


def _tape_stack():
    if not hasattr(_STATE, "tapes"):
        _STATE.tapes = []
    return _STATE.tapes


def active_tape():
    """The innermost active Tape of the calling thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of primitive ops; parents always precede children."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self):
        return len(self.nodes)


class _Node:
    __slots__ = ("parents", "vjp", "name")

    def __init__(self, parents, vjp, name):
        self.parents = parents
        self.vjp = vjp
        self.name = name


class Tensor:
    """A float64 array value, optionally tracked on a tape.

    ``requires_grad=True`` on a tensor that was not produced by a primitive
    marks it as a leaf (a trainable parameter); ``backward`` accumulates
    into its ``grad`` slot. Tensors are value-like: no primitive ever
    mutates ``data`` in place.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_tape", "_node_id")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._tape = None
        self._node_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_leaf(self):
        return self.requires_grad and self._node_id is None

    def __repr__(self):
        tag = " leaf" if self.is_leaf else (" on-tape" if self._node_id is not None else "")
        return f"Tensor(shape={self.data.shape}{tag})"

    # arithmetic sugar; all dispatch to the primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return slice_(self, index)

    def reshape(self, shape):
        return reshape(self, shape)

    @property
    def T(self):
        return transpose(self)


def as_tensor(x):
    """Wrap arrays/scalars as constant Tensors; pass Tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def parameter(data, name=None, requires_grad=True):
    """A leaf tensor that participates in gradients.

    ``requires_grad=False`` makes a frozen buffer (e.g. normalization
    statistics) that still travels with the parameter set.
    """
    return Tensor(np.array(data, dtype=np.float64),
                  requires_grad=requires_grad, name=name)


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def _record(data, parents, vjp, name):
    """Create the output tensor, appending a tape node when tracking."""
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(p.requires_grad or p._node_id is not None for p in parents):
        out.requires_grad = True
        out._tape = tape
        out._node_id = len(tape.nodes)
        tape.nodes.append(_Node(tuple(parents), vjp, name))
    return out


def backward(root):
    """Reverse sweep from a scalar root; accumulates leaf gradients.

    Each leaf reachable from ``root`` gets ``d root / d leaf`` added into
    its ``grad`` slot. The returned dict maps leaf Tensor -> the gradient
    from THIS call only, so optimizer steps stay correct even if ``grad``
    slots were never zeroed.
    """
    if not isinstance(root, Tensor):
        raise TypeError("backward expects a Tensor root")
    if root._node_id is None:
        raise ValueError("backward root is detached: it was not recorded on a tape")
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    tape = root._tape
    grads = [None] * (root._node_id + 1)
    grads[root._node_id] = np.ones_like(root.data)
    leaves = {}
    for i in range(root._node_id, -1, -1):
        g = grads[i]
        if g is None:
            continue
        node = tape.nodes[i]
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            if parent._node_id is not None:
                if parent._tape is not tape:
                    raise ValueError(f"{node.name}: input recorded on a different tape")
                j = parent._node_id
                grads[j] = pg if grads[j] is None else grads[j] + pg
            elif parent.requires_grad:
                leaves[parent] = pg if parent not in leaves else leaves[parent] + pg
        grads[i] = None
    for parent, pg in leaves.items():
        parent.grad = pg if parent.grad is None else parent.grad + pg
    return leaves


def _is_scalar_like(t):
    return t.data.ndim == 0


def _elementwise_pair(op, a, b):
    a, b = as_tensor(a), as_tensor(b)
    if not (_is_scalar_like(a) or _is_scalar_like(b)) and a.shape != b.shape:
        raise ShapeError(op, a.shape, b.shape, detail="elementwise ops need equal shapes")
    return a, b


def _unbroadcast(g, shape):
    """Reduce a gradient back to ``shape`` (covers the scalar operand case)."""
    if g.shape == tuple(shape):
        return g
    assert len(shape) == 0, "elementwise gradient shape mismatch"
    return np.sum(g).reshape(())


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    a, b = _elementwise_pair("add", a, b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(a.data + b.data, (a, b), vjp, "add")


def sub(a, b):
    a, b = _elementwise_pair("sub", a, b)

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(a.data - b.data, (a, b), vjp, "sub")


def mul(a, b):
    a, b = _elementwise_pair("mul", a, b)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record(a.data * b.data, (a, b), vjp, "mul")


def div(a, b):
    a, b = _elementwise_pair("div", a, b)

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _record(a.data / b.data, (a, b), vjp, "div")


def neg(a):
    a = as_tensor(a)
    return _record(-a.data, (a,), lambda g: (-g,), "neg")


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.data)
    return _record(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")


def sigmoid(a):
    a = as_tensor(a)
    z = np.exp(-np.abs(a.data))  # sign split avoids overflow in exp
    y = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _record(y, (a,), lambda g: (g * y * (1.0 - y),), "sigmoid")


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)
    return _record(y, (a,), lambda g: (g * y,), "exp")


def log(a):
    a = as_tensor(a)
    return _record(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def sqrt(a):
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return _record(y, (a,), lambda g: (g * 0.5 / y,), "sqrt")


def leaky_relu(a, slope=0.01):
    a = as_tensor(a)
    factor = np.where(a.data >= 0, 1.0, slope)
    return _record(a.data * factor, (a,), lambda g: (g * factor,), "leaky_relu")


def clamp_min(a, floor):
    """max(a, floor) with pass-through gradient on the unclamped region."""
    a = as_tensor(a)
    keep = a.data > floor
    return _record(np.maximum(a.data, floor), (a,), lambda g: (g * keep,), "clamp_min")


# ---------------------------------------------------------------------------
# linear algebra / shape primitives


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape, detail="need (m,n) @ (n,k)")

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _record(a.data @ b.data, (a, b), vjp, "matmul")


def transpose(a, axes=None):
    a = as_tensor(a)
    axes_ = tuple(range(a.data.ndim))[::-1] if axes is None else tuple(axes)
    inverse = np.argsort(axes_)
    return _record(np.transpose(a.data, axes_), (a,),
                   lambda g: (np.transpose(g, inverse),), "transpose")


def reshape(a, shape):
    a = as_tensor(a)
    old = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),), "reshape")


def concat(tensors, axis=0):
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat", detail="empty input list")
    ndim = ts[0].data.ndim
    for t in ts[1:]:
        if t.data.ndim != ndim:
            raise ShapeError("concat", ts[0].shape, t.shape, detail="rank mismatch")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        index = [slice(None)] * ndim
        outs = []
        for k in range(len(ts)):
            index[axis] = slice(offsets[k], offsets[k + 1])
            outs.append(g[tuple(index)])
        return tuple(outs)

    return _record(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), vjp, "concat")


def slice_(a, index):
    a = as_tensor(a)
    if not isinstance(index, tuple):
        index = (index,)
    for part in index:
        if not isinstance(part, slice):
            raise ShapeError("slice", a.shape, detail="only slice(...) parts are supported")
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    return _record(a.data[index], (a,), vjp, "slice")


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    shape = a.shape

    def vjp(g):
        return (_expand_reduced(g, shape, axes, keepdims).copy(),)

    return _record(np.sum(a.data, axis=axes, keepdims=keepdims), (a,), vjp, "reduce_sum")


def reduce_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    shape = a.shape
    count = int(np.prod([shape[ax] for ax in axes])) if axes else 1

    def vjp(g):
        return (_expand_reduced(g, shape, axes, keepdims) / count,)

    return _record(np.mean(a.data, axis=axes, keepdims=keepdims), (a,), vjp, "reduce_mean")


def broadcast_to(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError("broadcast", a.shape, shape, detail="not broadcastable") from None
    src = a.shape
    lead = len(shape) - len(src)
    expanded = tuple(lead + i for i, n in enumerate(src) if n == 1 and shape[lead + i] != 1)

    def vjp(g):
        g = g.sum(axis=tuple(range(lead))) if lead else g
        if expanded:
            g = g.sum(axis=tuple(ax - lead for ax in expanded), keepdims=True)
        return (g.copy() if g.base is not None else g,)

    return _record(out.copy(), (a,), vjp, "broadcast")


# ---------------------------------------------------------------------------
# finite differences (the independent oracle used by the test suite)


def finite_difference_grad(f, x, step=1e-5):
    """Central-difference gradient of scalar ``f`` w.r.t. every entry of ``x``.

    ``f`` takes an ndarray shaped like ``x`` and returns a float. This runs
    forward evaluations only, so it is independent of the tape machinery it
    is used to check.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x.reshape(x.shape))
        xf[i] = orig - step
        lo = f(x.reshape(x.shape))
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad
