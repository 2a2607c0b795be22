"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small.  A :class:`Tensor` is a shaped float64
buffer; a :class:`Graph` is an append-only tape of executed operations;
``Graph.backward`` walks the tape exactly once, in reverse execution
order, and drops each node once it has run, so a graph holds no
activations afterwards.  Graphs are rebuilt per forward pass, which keeps
dynamically toggled architectures (ablation combinations) trivial.

Broadcasting is restricted on purpose: in binary elementwise ops only the
second operand may broadcast to the first, through trailing alignment or
explicit length-1 axes.  The first operand fixes the output shape, so the
backward reduction logic stays small and auditable.

Gradient ownership: ``accumulate_grad`` keeps the array it is given, so a
backward rule hands over an array it just made, or a copy of one it still
reads.  Elementwise rules overwrite the upstream gradient, which no one
reads once its node has run.  So after ``backward``
a non-leaf tensor's ``.grad`` is scratch, while leaf and parameter
gradients are exact; and a graph runs ``backward`` at most once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

# Sigmoid outputs are clamped to the open interval (0, 1): extreme logits
# saturate at the nearest representable value instead of exactly 0 or 1.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


class Tensor:
    """A shaped float64 buffer and the gradient ``backward`` accumulated into it."""

    __slots__ = ("data", "grad")
    # Read-only: a recording graph differentiates every tensor it touches.
    # Kept only because the benchmark's tracer reads it.
    requires_grad = True

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps ndim: 0-d arrays are contiguous
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; gradients from multiple consumers sum.

    The first ``g`` becomes ``t.grad`` without a copy, so a caller that
    still reads or writes ``g`` passes a copy.
    """
    if t.grad is None:
        t.grad = np.asarray(g)  # a full reduction to shape () returns a numpy scalar
    else:
        t.grad += g


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid ``exp(min(x, 0)) / (1 + exp(-|x|))``,
    clamped to (0, 1).

    That is ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))``
    below, so each branch sees the bits a masked two-pass form would give
    it, without a masked pass.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()  # 1-d even for a 0-d input, so ``out=`` gets an array
    ex = np.negative(flat)
    np.minimum(flat, ex, out=ex)  # -|x|, but a NaN keeps its sign
    np.exp(ex, out=ex)
    ex += 1.0
    out = np.exp(np.minimum(flat, 0.0))  # 1 for x >= 0, exp(x) below
    np.divide(out, ex, out=out)
    np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)
    return out.reshape(arr.shape)


def _check_broadcast(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> None:
    if len(b_shape) > len(a_shape):
        raise ContractError(f"cannot broadcast {b_shape} to {a_shape}")
    pad = len(a_shape) - len(b_shape)
    for da, db in zip(a_shape[pad:], b_shape):
        if db != da and db != 1:
            raise ContractError(f"cannot broadcast {b_shape} to {a_shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``: the inverse of the broadcast rule above."""
    pad = g.ndim - len(shape)
    if pad:
        g = g.sum(axis=tuple(range(pad)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Graph:
    """Append-only tape of executed operations.

    One graph per forward/backward pass.  Parameters are shared across
    graphs; each graph owns its intermediate tensors.  A recording graph
    tapes every op and differentiates every tensor it touches;
    ``record=False`` runs ops forward-only (evaluation mode).
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    # -- plumbing -----------------------------------------------------

    def _result(self, data, backward: Callable[[np.ndarray], None]) -> Tensor:
        out = Tensor(data)
        if self.record:
            self._nodes.append((out, backward))
        return out

    def record_op(self, data, inputs: Sequence[Tensor],
                  backward: Callable[[np.ndarray], None]) -> Tensor:
        """Register an externally implemented differentiable operation.

        ``backward`` receives the upstream gradient of the output and calls
        :func:`accumulate_grad` on each of ``inputs``.  ``inputs`` names
        what the backward writes; only the benchmark's tracer reads it.
        """
        return self._result(data, backward)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` for every tensor reachable from ``loss``."""
        if loss.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not self.record:
            raise ContractError("backward called on a non-recording graph")
        if self._spent:
            raise ContractError("backward already ran on this graph; its intermediate "
                                "gradients are consumed, so build a new graph")
        self._spent = True
        if loss.grad is None:
            loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:  # popping frees each node's activations once it has run
            out, bw = nodes.pop()
            if out.grad is not None:
                bw(out.grad)

    # -- operations ---------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ContractError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ContractError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

        def backward(g: np.ndarray) -> None:
            accumulate_grad(a, g @ b.data.T)
            accumulate_grad(b, a.data.T @ g)

        return self._result(a.data @ b.data, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        _check_broadcast(a.shape, b.shape)

        def backward(g: np.ndarray) -> None:
            gb = _reduce_to(g, b.shape)
            # a takes g itself below, so b needs its own copy of it
            accumulate_grad(b, gb.copy() if gb is g else gb)
            accumulate_grad(a, g)

        return self._result(a.data + b.data, backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _check_broadcast(a.shape, b.shape)

        def backward(g: np.ndarray) -> None:
            accumulate_grad(b, _reduce_to(g * a.data, b.shape))
            g *= b.data
            accumulate_grad(a, g)

        return self._result(a.data * b.data, backward)

    def _check_axis(self, a: Tensor, axis: int) -> None:
        if not 0 <= axis < a.data.ndim:
            raise ContractError(f"axis {axis} out of range for shape {a.shape}")

    def reduce_mean(self, a: Tensor, axis: int) -> Tensor:
        self._check_axis(a, axis)
        d = a.shape[axis]

        def backward(g: np.ndarray) -> None:
            accumulate_grad(a, np.repeat(np.expand_dims(g / d, axis), d, axis))

        return self._result(a.data.mean(axis=axis), backward)

    def reduce_max(self, a: Tensor, axis: int) -> Tensor:
        self._check_axis(a, axis)
        # np.argmax returns the first (lowest-index) maximum: the tie rule.
        idx = np.argmax(a.data, axis=axis) if self.record else None

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis)
            accumulate_grad(a, full)

        return self._result(a.data.max(axis=axis), backward)

    def relu(self, a: Tensor) -> Tensor:
        def backward(g: np.ndarray) -> None:
            np.multiply(g, a.data > 0, out=g)  # relu'(0) = 0
            accumulate_grad(a, g)

        return self._result(np.maximum(a.data, 0.0), backward)

    def sigmoid(self, a: Tensor) -> Tensor:
        out_data = stable_sigmoid(a.data)

        def backward(g: np.ndarray) -> None:
            g *= out_data
            g *= 1.0 - out_data
            accumulate_grad(a, g)

        return self._result(out_data, backward)

    def reshape(self, a: Tensor, shape: Sequence[int]) -> Tensor:
        new_shape = tuple(int(s) for s in shape)
        if int(np.prod(new_shape, dtype=np.int64)) != a.size:
            raise ContractError(f"cannot reshape {a.shape} to {new_shape}")

        def backward(g: np.ndarray) -> None:
            accumulate_grad(a, g.reshape(a.shape))

        return self._result(a.data.reshape(new_shape), backward)
