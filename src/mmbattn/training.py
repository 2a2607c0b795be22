"""BCE loss, AUC, Adam, and the training loop with early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .autograd import Graph, Tensor, accumulate_grad, stable_sigmoid
from .blas import threads_for
from .data import Batch, batches, check_labels, mann_whitney
from .errors import ConfigError, ContractError, DataError, TrainingError, naming
from .heap import keep_freed_memory
from .model import Model
from .seeding import derive_seed

EVAL_BATCH_SIZE = 2048


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 4096
    max_epochs: int = 10
    patience: int = 2
    eval_batch_size: ClassVar[int] = EVAL_BATCH_SIZE

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("train.learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ConfigError("train.batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("train.max_epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("train.patience must be >= 1")


def bce_loss(y_hat, y) -> float:
    """Direct probability-space log loss (the metric / test-oracle form)."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ContractError(f"probabilities shape {y_hat.shape} != labels shape {y.shape}")
    check_labels(y)
    return float(-np.mean(np.log(np.where(y == 1.0, y_hat, 1.0 - y_hat))))


def _logits_bce_value(z: np.ndarray, y: np.ndarray) -> float:
    """Stable per-batch mean BCE computed from logits."""
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def bce_with_logits(g: Graph, logits: Tensor, labels) -> Tensor:
    """Mean BCE straight from logits; gradient w.r.t. each logit is (ŷ−y)/N.

    ``labels`` must be 0 or 1; a :class:`Batch` checked them when it was built."""
    y = np.asarray(labels, dtype=np.float64)
    if logits.data.shape != y.shape:
        raise ContractError(f"logits shape {logits.shape} != labels shape {y.shape}")
    if y.size == 0:
        raise ContractError("empty batch")
    z = logits.data
    n = z.size

    def backward(grad: np.ndarray) -> None:
        accumulate_grad(logits, grad * (stable_sigmoid(z) - y) / n)

    return g.record_op(np.float64(_logits_bce_value(z, y)), (logits,), backward)


def auc(scores, labels) -> float:
    """Mann–Whitney AUC, ties counting one half: each distinct score's
    positives and negatives, counted exactly, go to ``data.mann_whitney``."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.ndim != 1 or s.shape != y.shape:
        raise ContractError("scores and labels must be equal-length vectors")
    if not np.isfinite(s).all():
        raise ContractError("scores must be finite")
    check_labels(y)
    if not 0 < y.sum() < y.size:
        raise DataError("AUC undefined: needs at least one positive and one negative")
    uniq, group = np.unique(s, return_inverse=True)  # 0.0 and -0.0 share a group
    return mann_whitney(np.bincount(group[y == 1.0], minlength=uniq.size),
                        np.bincount(group[y == 0.0], minlength=uniq.size))


# -- Adam ----------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


# Values per ``adam_step`` block: the two scratch vectors are this long, so
# a step makes no full-length temporary and each pass reads cached blocks.
ADAM_BLOCK = 16384


def init_adam_state(params: dict[str, np.ndarray]
                    ) -> dict[str, tuple[np.ndarray, ...]]:
    """Per named array: the moments ``m`` and ``v`` of its size, then two
    scratch vectors of ``min(size, ADAM_BLOCK)`` values."""
    return {name: (np.zeros_like(p), np.zeros_like(p),
                   *(np.zeros(min(p.size, ADAM_BLOCK)) for _ in range(2)))
            for name, p in params.items()}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: dict[str, tuple[np.ndarray, ...]],
              config: TrainConfig, t: int) -> None:
    """One bias-corrected Adam update per named (C-contiguous) array, in place.

    ``train`` passes ``Model.params`` as one entry.  Each array is updated
    one ``ADAM_BLOCK``-value block at a time; within a block each ufunc
    writes into the state's scratch, in the order of
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so the bits are that
    expression's, whatever the block size."""
    if t < 1:
        raise ContractError("Adam step index t must be >= 1")
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, whole in params.items():
        m_whole, v_whole, a_block, b_block = state[name]
        flat = [x.reshape(-1) for x in (whole, grads[name], m_whole, v_whole)]
        for lo in range(0, whole.size, ADAM_BLOCK):
            p, g, m, v = (x[lo:lo + ADAM_BLOCK] for x in flat)
            a, b = a_block[:p.size], b_block[:p.size]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(m, c1, out=a)
            a *= config.learning_rate
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p -= a


# -- evaluation ----------------------------------------------------------


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n: int
    scores: np.ndarray  # probabilities, dataset order


def eval_thread_count() -> int:
    """Always 1: evaluation runs on the caller's thread (two threads
    measured slower than one).

    Kept, with ``evaluate(threads=)`` and ``train(eval_threads=)``, only
    because the benchmark harness still passes them."""
    return 1


def evaluate(model: Model, data: Batch, batch_size: int = EVAL_BATCH_SIZE,
             threads: int = 1) -> EvalReport:
    """Score a dataset in ``batch_size`` batches, in order, on the caller's
    thread, then rank.

    ``threads`` is accepted and ignored, only because the benchmark harness
    still passes it.  A non-finite logit raises TrainingError naming its row
    and the first non-finite parameter group."""
    if data.n == 0:
        raise ContractError("cannot evaluate an empty dataset")
    keep_freed_memory()

    logits = np.concatenate([model.forward_logits(Graph(record=False), batch).data
                             for batch in batches(data, batch_size)])
    if not np.isfinite(logits).all():
        bad = [name for name, t in model.registry.items() if not np.isfinite(t.data).all()]
        raise TrainingError(f"non-finite logit at row {np.argmin(np.isfinite(logits))}, "
                            f"first non-finite parameter group: {bad[0] if bad else 'none'}")
    logloss = _logits_bce_value(logits, data.labels)
    scores = stable_sigmoid(logits)
    return EvalReport(auc=auc(scores, data.labels), logloss=logloss,
                      n=data.n, scores=scores)


# -- training loop -------------------------------------------------------


def train(model: Model, train_data: Batch, valid_data: Batch, test_data: Batch,
          config: TrainConfig, run_seed: int, emit=None,
          eval_threads: int = 1) -> EvalReport:
    """Adam with early stopping on validation AUC; returns the test report.

    Training stops once ``config.patience`` epochs in a row bring no
    strictly higher validation AUC, and the best epoch's parameters are
    restored before the test split is scored.  ``emit`` receives one
    record per epoch ({epoch, split, auc, logloss, train_loss, seconds})
    and a final record with split "test".  Aborts naming the batch if the
    loss goes non-finite; an error while scoring a split (a non-finite
    logit, a one-class split) names the epoch and the split.  Training steps
    with small GEMMs run on one BLAS thread; evaluation keeps the
    library's default count.  ``eval_threads`` is accepted and ignored, only
    because the benchmark harness still passes it.  An empty train split
    raises ContractError.
    """
    if train_data.n == 0:
        raise ContractError("cannot train on an empty dataset")
    keep_freed_memory()
    emit = emit or (lambda record: None)
    shuffle_seed = derive_seed(run_seed, "shuffle")
    params, grads = {"params": model.params}, {"params": model.grads}
    state = init_adam_state(params)
    best_auc, bad_epochs, best = -np.inf, 0, model.params.copy()
    step = 0
    epoch = 0
    # The step's largest GEMM: a batch through the widest dense weight.
    work = config.batch_size * max(
        (p.data.size for name, p in model.registry.items()
         if p.data.ndim == 2 and not name.startswith("embed.")), default=0)

    def score(data: Batch, split: str) -> EvalReport:
        with naming(f"epoch {epoch}, {split} split"):
            return evaluate(model, data)

    for epoch in range(1, config.max_epochs + 1):
        tick = time.perf_counter()
        losses = []
        with threads_for(work):
            for bi, batch in enumerate(batches(train_data, config.batch_size,
                                               shuffle_seed, epoch)):
                g = Graph()
                logits = model.forward_logits(g, batch)
                loss = bce_with_logits(g, logits, batch.labels)
                if not np.isfinite(loss.data):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, batch {bi}")
                model.zero_grad()
                g.backward(loss)
                step += 1
                adam_step(params, grads, state, config, step)
                losses.append(float(loss.data))
        report = score(valid_data, "valid")
        emit({"epoch": epoch, "split": "valid", "auc": report.auc,
              "logloss": report.logloss, "train_loss": float(np.mean(losses)),
              "seconds": round(time.perf_counter() - tick, 3)})
        if report.auc > best_auc:
            best_auc, bad_epochs = report.auc, 0
            np.copyto(best, model.params)
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    np.copyto(model.params, best)
    tick = time.perf_counter()
    report = score(test_data, "test")
    emit({"epoch": epoch, "split": "test", "auc": report.auc,
          "logloss": report.logloss,
          "seconds": round(time.perf_counter() - tick, 3)})
    return report
