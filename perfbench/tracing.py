"""Timing shims the benchmark installs around the program's public functions.

Nothing here edits the program: each shim replaces a module or class
attribute for the duration of one round and is removed afterwards.

``StepClock`` is the only instrumentation of an untraced round.  It wraps
the training ``batches`` iterator (one clock read per step) and
``bce_with_logits`` (to keep every step's loss).  ``Tracer`` adds a span
around each layer's public entry points plus op, tensor and value counts.
Spans are kept in memory as ``[name, start, end, parent, step]`` and
summed when the round ends.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from mmbattn import attention, model, training
from mmbattn.autograd import Graph, Tensor


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr)))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepClock:
    """Per-step wall time, rows and loss of every training step."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.steps: list[tuple[float, int]] = []   # (seconds, rows)
        self.losses: list[float] = []

    def install(self, patches: Patches) -> None:
        patches.set(training, "batches", self._wrap_batches)
        patches.set(training, "bce_with_logits", self._wrap_loss)

    def _wrap_batches(self, batches):
        def shim(*args, **kwargs):
            it = batches(*args, **kwargs)
            shuffle_seed = args[2] if len(args) > 2 else kwargs.get("shuffle_seed")
            return it if shuffle_seed is None else self._timed(it)
        return shim

    def _timed(self, it):
        tracer = self.tracer
        while True:
            start = perf_counter()
            if tracer is not None:
                tracer.step = len(self.steps)
                span = tracer.begin("data.batch")
            try:
                batch = next(it)
            except StopIteration:
                if tracer is not None:
                    tracer.end(span)
                    tracer.step = -1
                return
            if tracer is not None:
                tracer.end(span)
            yield batch
            # Resumed by the training loop: forward, loss, backward and
            # the optimizer update of this batch are done.
            self.steps.append((perf_counter() - start, batch.n))

    def _wrap_loss(self, bce_with_logits):
        def shim(*args, **kwargs):
            loss = bce_with_logits(*args, **kwargs)
            self.losses.append(float(loss.data))
            return loss
        return shim


class Tracer:
    """Spans and counts per layer, recorded only inside training steps."""

    def __init__(self, net):
        self.net = net
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._op_depth = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.step])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _span(self, name_of):
        """Shim factory: time every call under the name ``name_of`` gives."""
        def make(fn):
            def shim(*args, **kwargs):
                idx = self.begin(name_of if isinstance(name_of, str)
                                 else name_of(*args, **kwargs))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(idx)
            return shim
        return make

    def totals(self) -> dict[str, float]:
        """Summed span seconds per name over training steps."""
        out: dict[str, float] = defaultdict(float)
        for name, start, stop, _, step in self.spans:
            if step >= 0:
                out[name] += stop - start
        return out

    # -- shims -------------------------------------------------------------

    def install(self, patches: Patches) -> None:
        params = self.net.attn_params
        max_w1 = params.max_w1 if params is not None else None

        patches.set(model.Model, "forward_logits", self._span("model.forward"))
        patches.set(model, "lookup", self._wrap_lookup)
        patches.set(model, "apply_attention", self._span("attention.fwd"))
        patches.set(attention, "pool", self._span(
            lambda g, e, kind: f"attention.{kind}"))
        patches.set(attention, "branch_attention", self._span(
            lambda g, s, w1, w2: "attention.max" if w1 is max_w1 else "attention.mean"))
        patches.set(attention, "bitwise_attention", self._span("attention.bit"))
        patches.set(training, "bce_with_logits", self._span("training.loss"))
        patches.set(training, "adam_step", self._wrap_adam)
        patches.set(Tensor, "__init__", self._wrap_tensor_init)
        for name, member in list(vars(Graph).items()):
            if name.startswith("_") or name == "backward" or not callable(member):
                continue
            wrap = {"matmul": self._wrap_matmul,
                    "record_op": self._wrap_record_op}.get(name)
            patches.set(Graph, name, self._wrap_op(wrap))
        patches.set(Graph, "backward", self._span("autograd.backward"))

    def _wrap_op(self, inner):
        """Count outermost public ``Graph`` ops: one per tape node recorded."""
        def make(fn):
            body = inner(fn) if inner is not None else fn

            def shim(*args, **kwargs):
                if self.step >= 0 and self._op_depth == 0:
                    self.counts["ops"] += 1
                self._op_depth += 1
                try:
                    return body(*args, **kwargs)
                finally:
                    self._op_depth -= 1
            return shim
        return make

    def _wrap_matmul(self, matmul):
        timed = self._span("autograd.matmul")(matmul)

        def shim(g, a, b):
            if self.step >= 0:
                m, k = a.shape
                n = b.shape[1]
                passes = 1 + a.requires_grad + b.requires_grad
                self.counts["matmul_flop"] += 2.0 * m * k * n * passes
            return timed(g, a, b)
        return shim

    def _wrap_record_op(self, record_op):
        names = {"embedding.lookup": "embedding.backward",
                 "training.loss": "training.loss_backward"}

        def shim(g, data, inputs, backward):
            caller = self.spans[self.stack[-1]][0] if self.stack else None
            name = names.get(caller)
            if name is not None:
                backward = self._timed_backward(name, backward, list(inputs))
            return record_op(g, data, inputs, backward)
        return shim

    def _timed_backward(self, name, backward, inputs):
        def shim(grad):
            idx = self.begin(name)
            try:
                backward(grad)
            finally:
                self.end(idx)
            if name == "embedding.backward" and self.step >= 0:
                self.counts["embed_grad_values"] += sum(
                    t.grad.size for t in inputs if t.grad is not None)
        return shim

    def _wrap_lookup(self, lookup):
        timed = self._span("embedding.lookup")(lookup)
        total_rows = sum(t.shape[0] for name, t in self.net.registry.items()
                         if name.startswith("embed."))

        def shim(g, emb, batch):
            out = timed(g, emb, batch)
            if self.step >= 0:
                idx = batch.indices
                touched = sum(np.unique(idx[:, f]).size for f in range(idx.shape[1]))
                self.counts["touched_row_share"] += touched / total_rows
            return out
        return shim

    def _wrap_adam(self, adam_step):
        timed = self._span("training.adam")(adam_step)

        def shim(registry, grads, *args, **kwargs):
            if self.step >= 0:
                self.counts["adam_values"] += sum(p.size for p in registry.values())
                self.counts["adam_useful"] += sum(
                    int(np.count_nonzero(g)) for g in grads.values() if g is not None)
            return timed(registry, grads, *args, **kwargs)
        return shim

    def _wrap_tensor_init(self, init):
        def shim(tensor, *args, **kwargs):
            if self.step >= 0:
                self.counts["tensors"] += 1
            init(tensor, *args, **kwargs)
        return shim
