"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The engine is deliberately small.  A :class:`Tensor` is a shaped float64
buffer; a :class:`Graph` is an append-only tape of executed operations;
``Graph.backward`` walks the tape exactly once, in reverse execution
order.  It lets go of each node's output before it runs that node's rule
(no rule reads its own output through the tensor) and drops the node once
it has run, so a buffer lives only while a backward still reads it, and a
graph holds no activations afterwards.  Tensors the caller holds keep
their ``data`` and ``grad``.  Graphs are rebuilt per forward pass, which
keeps dynamically toggled architectures (ablation combinations) trivial.

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

Buffer ownership: ``add``, ``relu`` and ``sigmoid`` with ``inplace=True``
write into their first operand's buffer and return a new tensor over it.
The write is refused unless that operand is *free*: a fresh ``matmul``,
``mul`` or ``add`` result that no recorded backward reads and no view
aliases.  ``matmul``, ``mul``, ``reshape`` and ``record_op`` (through its
``inputs``) clear the flag on what they read; an in-place write consumes
it.  The caller still promises that nothing reads the operand after the
write.
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

    __slots__ = ("data", "grad", "free")
    # Read-only: a recording graph differentiates every tensor it touches.
    # Kept only because the benchmark's tracer reads it.
    requires_grad = True

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps ndim: 0-d arrays are contiguous
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.free = False  # may an in-place op overwrite ``data``? (module docstring)

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


def stable_sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable sigmoid ``exp(min(x, 0)) / (1 + exp(-|x|))``,
    clamped to (0, 1).

    That is ``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))``
    below, so each branch sees the bits a masked two-pass form would give
    it, without a masked pass.  ``out``, a C-contiguous float64 array of
    ``x``'s shape that may be ``x`` itself, receives the result through the
    same ufuncs in the same order and is returned.
    """
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()  # 1-d even for a 0-d input, so ``out=`` gets an array
    ex = np.negative(flat)
    np.minimum(flat, ex, out=ex)  # -|x|, but a NaN keeps its sign
    np.exp(ex, out=ex)
    ex += 1.0
    res = np.minimum(flat, 0.0, out=None if out is None else out.reshape(-1))
    np.exp(res, out=res)  # 1 for x >= 0, exp(x) below
    np.divide(res, ex, out=res)
    np.clip(res, _SIGMOID_LO, _SIGMOID_HI, out=res)
    return res.reshape(arr.shape) if out is None else out


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

    def _result(self, data, backward: Callable[[np.ndarray], None],
                free: bool = False) -> Tensor:
        out = Tensor(data)
        out.free = free
        if self.record:
            self._nodes.append((out, backward))
        return out

    @staticmethod
    def _claim(a: Tensor, inplace: bool, op: str) -> np.ndarray | None:
        """The buffer an op writes its result into: ``a``'s if ``inplace``,
        else None (a new array)."""
        if not inplace:
            return None
        if not a.free:
            raise ContractError(f"{op} cannot write in place into a tensor of shape "
                                f"{a.shape}: it is not a fresh matmul, mul or add result, "
                                f"or a backward or a view still reads it")
        a.free = False
        return a.data

    def record_op(self, data, inputs: Sequence[Tensor],
                  backward: Callable[[np.ndarray], None]) -> Tensor:
        """Register an externally implemented differentiable operation.

        ``backward`` receives the upstream gradient of the output and calls
        :func:`accumulate_grad` on each of ``inputs``.  ``inputs`` names
        what the backward writes and may read, so the graph clears their
        ``free`` flag; the benchmark's tracer reads it too.
        """
        for t in inputs:
            t.free = False
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
            g = out.grad
            del out  # no rule reads its own output through the tensor
            if g is not None:
                bw(g)
            del g, bw  # before the next pop: a paper-shaped peak RSS read 1.6 MB lower

    # -- operations ---------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ContractError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ContractError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")

        a.free = b.free = False  # the backward reads both

        def backward(g: np.ndarray) -> None:
            accumulate_grad(a, g @ b.data.T)
            accumulate_grad(b, a.data.T @ g)

        return self._result(a.data @ b.data, backward, free=True)

    def add(self, a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
        _check_broadcast(a.shape, b.shape)

        def backward(g: np.ndarray) -> None:
            gb = _reduce_to(g, b.shape)
            # a takes g itself below, so b needs its own copy of it
            accumulate_grad(b, gb.copy() if gb is g else gb)
            accumulate_grad(a, g)

        out = np.add(a.data, b.data, out=self._claim(a, inplace, "add"))
        return self._result(out, backward, free=True)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        _check_broadcast(a.shape, b.shape)
        a.free = b.free = False  # the backward reads both

        def backward(g: np.ndarray) -> None:
            accumulate_grad(b, _reduce_to(g * a.data, b.shape))
            g *= b.data
            accumulate_grad(a, g)

        return self._result(a.data * b.data, backward, free=True)

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
        # The value is read there too, so a +-0.0 tie returns the element
        # its gradient goes to, and on a short trailing axis argmax plus a
        # gather runs several times faster than ``max``.
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)

        def backward(g: np.ndarray) -> None:
            full = np.zeros(a.shape)
            np.put_along_axis(full, idx, np.expand_dims(g, axis), axis)
            accumulate_grad(a, full)

        return self._result(np.take_along_axis(a.data, idx, axis).squeeze(axis), backward)

    def relu(self, a: Tensor, inplace: bool = False) -> Tensor:
        out_data = np.maximum(a.data, 0.0, out=self._claim(a, inplace, "relu"))

        def backward(g: np.ndarray) -> None:
            # out > 0 exactly where a > 0, NaN included; relu'(0) = 0
            np.multiply(g, out_data > 0, out=g)
            accumulate_grad(a, g)

        return self._result(out_data, backward)

    def sigmoid(self, a: Tensor, inplace: bool = False) -> Tensor:
        out_data = stable_sigmoid(a.data, out=self._claim(a, inplace, "sigmoid"))

        def backward(g: np.ndarray) -> None:
            g *= out_data
            g *= 1.0 - out_data
            accumulate_grad(a, g)

        return self._result(out_data, backward)

    def reshape(self, a: Tensor, shape: Sequence[int]) -> Tensor:
        new_shape = tuple(int(s) for s in shape)
        if int(np.prod(new_shape, dtype=np.int64)) != a.size:
            raise ContractError(f"cannot reshape {a.shape} to {new_shape}")
        a.free = False  # the result is a view of a's buffer

        def backward(g: np.ndarray) -> None:
            accumulate_grad(a, g.reshape(a.shape))

        return self._result(a.data.reshape(new_shape), backward)
