"""Dense tensors with reverse-mode gradients.

Small, CPU-only engine: just enough operations for the statistics VAE,
the token encoder and the gated classifier. Every value is a row-major
numpy array; gradients are accumulated by walking the recorded graph in
reverse topological order.

Neither model trains or scores through this engine: the VAE step and
the classifier's `fusion.batch_forward`/`batch_backward` are closed-form
numpy. The engine is the oracle the tests hold those steps to (and the
finite-difference suite holds the engine to), and the path `perfbench/`
times block by block.

The dtype follows the operands. A tensor keeps a floating array's dtype
and holds anything else as float64; parameters are always float64. An
operand of `add`, `mul`, `-` or `matmul` that is not a Tensor (a Python
or NumPy scalar, a float array, a bool mask) becomes a Tensor of the
other operand's dtype. So model code passes plain numpy constants, and a
float32 forward pass stays float32: left to NumPy, a float64 constant
would upcast it (NEP 50 made NumPy scalars strong in NumPy 2). Two
Tensors of mixed dtypes promote as NumPy promotes them.

`matmul`, `transpose`, `softmax_rows` and `embedding` treat leading axes
as batch axes, so a batch of messages is one graph; a parameter shared
across a batch gets its gradient summed over the batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce `grad` back to `shape` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus an optional gradient buffer and graph record."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")
    # NumPy defers `array <op> tensor` to the reflected method below, so an
    # array on the left is cast like one on the right instead of being
    # broadcast into an object array of Tensors.
    __array_ufunc__ = None

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        self.values = values if values.dtype.kind == "f" else values.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(values: np.ndarray, parents: Sequence["Tensor"],
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(values)
        if any(p.requires_grad or p._parents for p in parents):
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Backward closures hand over fresh arrays or views; only a
            # view needs a copy, which keeps its memory layout. `add` may
            # hand one array to both operands, so a `.grad` is never
            # written in place.
            owned = grad.flags.owndata and grad.flags.writeable
            self.grad = grad if owned else grad.astype(grad.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Populate grads of every reachable tensor; root must be scalar.

        Repeated calls without zeroing accumulate, matching the usual
        minibatch convention. Composite nodes propagate only this call's
        contribution, so stale intermediate grads are never re-counted.
        """
        if self.values.size != 1:
            raise ShapeError(
                f"backward() root must be a scalar, got shape {self.values.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in seen:
                    stack.append((parent, False))
        composite = [n for n in order if n._backward is not None]
        stash = [(n, n.grad) for n in composite]
        for node in composite:
            node.grad = None
        self._accumulate(np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        for node, previous in stash:
            if previous is not None:
                node.grad = previous if node.grad is None else node.grad + previous

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_operand(other, self), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operand(x, other: Tensor) -> Tensor:
    """`x` as a tensor; a non-tensor takes `other`'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=other.values.dtype))


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors, see `_operand`."""
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return _operand(a, b), b
    a = _as_tensor(a)
    return a, _operand(b, a)


def parameter(values) -> Tensor:
    """Wrap `values` as a tracked (trainable) tensor."""
    return Tensor(np.array(values, dtype=np.float64, copy=True), requires_grad=True)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    """Glorot-uniform initialized parameter; deterministic given `rng`."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return parameter(rng.uniform(-limit, limit, size=(fan_in, fan_out)))


def zeros(shape: int | tuple[int, ...]) -> Tensor:
    return parameter(np.zeros(shape))


# -- elementwise and linear ops ----------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g, a.values.shape))
        b._accumulate(_unbroadcast(g, b.values.shape))

    return Tensor._result(values, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g * b.values, a.values.shape))
        b._accumulate(_unbroadcast(g * a.values, b.values.shape))

    return Tensor._result(values, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _operands(a, b)
    if min(a.values.ndim, b.values.ndim) < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    values = np.matmul(a.values, b.values)

    def backward(g: np.ndarray) -> None:
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.values.shape))
        b._accumulate(_unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.values.shape))

    return Tensor._result(values, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.values.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2 axes, got shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.swapaxes(g, -1, -2))

    return Tensor._result(np.swapaxes(a.values, -1, -2).copy(), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries in row-major order under a new shape."""
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(a.values.shape))

    return Tensor._result(a.values.reshape(shape), (a,), backward)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.values > 0

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    zero = a.values.dtype.type(0)
    return Tensor._result(np.where(mask, a.values, zero), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # Split by sign to avoid overflow in exp.
    x = a.values
    e = np.exp(-np.abs(x))
    values = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * values * (1.0 - values))

    return Tensor._result(values, (a,), backward)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    values = np.exp(a.values)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * values)

    return Tensor._result(values, (a,), backward)


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * 2.0 * a.values)

    return Tensor._result(a.values ** 2, (a,), backward)


def total(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.broadcast_to(g, a.values.shape))

    return Tensor._result(np.asarray(a.values.sum()), (a,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-d tensors with equal column counts along axis 0."""
    parts = [_as_tensor(p) for p in parts]
    widths = {p.shape[1] for p in parts}
    if len(widths) != 1:
        raise ShapeError(f"concat_rows: mixed column counts {sorted(widths)}")
    values = np.concatenate([p.values for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accumulate(g[lo:hi])

    return Tensor._result(values, tuple(parts), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows of `table` at `ids` of any shape; backward scatter-adds.

    Every id must lie in [0, rows): numpy would read a negative id from
    the end of the table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.values.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        bad = ids[(ids < 0) | (ids >= rows)].flat[0]
        raise ShapeError(f"embedding: id {bad} outside [0, {rows})")

    def backward(g: np.ndarray) -> None:
        acc = np.zeros_like(table.values)
        np.add.at(acc, ids, g)
        table._accumulate(acc)

    return Tensor._result(table.values[ids].copy(), (table,), backward)


def softmax_rows(x: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis with max-shift for stability.

    `valid` is an optional boolean column mask that broadcasts to the
    scores, e.g. (m,) for one message or (B, 1, m) for a batch;
    masked-out columns get exactly zero probability and each row
    renormalizes over its valid columns. A row with no valid column is
    rejected.
    """
    x = _as_tensor(x)
    # exponentiate valid columns only: a masked-out score may exceed the
    # valid max by enough to overflow exp
    scores = x.values
    if valid is not None:
        try:
            keep = np.broadcast_to(np.asarray(valid, dtype=bool), x.shape)
        except ValueError:
            raise ShapeError(f"softmax_rows: mask shape {np.shape(valid)} "
                             f"does not fit scores {x.shape}") from None
        if not keep.any(axis=-1).all():
            raise ShapeError("softmax_rows: mask excludes every column of a row")
        scores = np.where(keep, scores, -np.inf)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    values = weights / weights.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * values).sum(axis=-1, keepdims=True)
        x._accumulate(values * (g - inner))

    return Tensor._result(values, (x,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log softmax-probability of the true labels.

    Gradient of the mean loss w.r.t. the logits is (softmax - onehot) / b.
    """
    logits = _as_tensor(logits)
    if logits.values.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b, k = logits.values.shape
    if labels.shape[0] != b:
        raise ShapeError(f"cross_entropy: {labels.shape[0]} labels for {b} rows")
    if b == 0:
        raise ShapeError("cross_entropy: no rows to average")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    norm = weights.sum(axis=1, keepdims=True)
    nll = np.log(norm[:, 0]) - shifted[np.arange(b), labels]
    probs = weights / norm

    def backward(g: np.ndarray) -> None:
        delta = probs.copy()
        delta[np.arange(b), labels] -= 1.0
        logits._accumulate(float(g) * delta / b)

    return Tensor._result(np.asarray(nll.mean()), (logits,), backward)
