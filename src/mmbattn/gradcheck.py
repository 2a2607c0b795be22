"""Finite-difference verification of every registered parameter gradient."""

from __future__ import annotations

import numpy as np

from .attention import ABLATION_ROWS, MMBAttnConfig
from .autograd import Graph
from .data import Batch, FieldSchema, Vocabulary
from .model import TowerConfig, build
from .training import _logits_bce_value, bce_with_logits


def _loss_value(model, batch: Batch) -> float:
    z = model.forward_logits(Graph(record=False), batch)
    return _logits_bce_value(z.data, batch.labels)


def analytic_gradients(model, batch: Batch) -> dict[str, np.ndarray]:
    g = Graph()
    loss = bce_with_logits(g, model.forward_logits(g, batch), batch.labels)
    model.zero_grad()
    g.backward(loss)
    return {name: np.array(p.grad) for name, p in model.registry.items()}


def numeric_gradients(model, batch: Batch, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences over every parameter entry."""
    out = {}
    for name, p in model.registry.items():
        grad = np.zeros_like(p.data)
        flat = p.data.ravel()
        flat_grad = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _loss_value(model, batch)
            flat[i] = orig - h
            down = _loss_value(model, batch)
            flat[i] = orig
            flat_grad[i] = (up - down) / (2.0 * h)
        out[name] = grad
    return out


def relative_error(a: np.ndarray, n: np.ndarray) -> float:
    """Max over entries of |a-n| / max(|a|, |n|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def check_model(model, batch: Batch, h: float = 1e-5) -> dict[str, float]:
    """Max relative analytic-vs-numeric error per parameter group."""
    analytic = analytic_gradients(model, batch)
    numeric = numeric_gradients(model, batch, h)
    return {name: relative_error(analytic[name], numeric[name]) for name in analytic}


def run_gradcheck(schema: FieldSchema, vocab: Vocabulary, batch: Batch, d: int,
                  tower: TowerConfig, reduction_ratio: int, seed: int,
                  h: float = 1e-5) -> dict[str, float]:
    """FD comparison across all six ablation combinations.

    Returns the max relative error per parameter group, aggregated over
    every configuration in which the group exists.
    """
    worst: dict[str, float] = {}
    for _, _, (use_max, use_mean, use_bit) in ABLATION_ROWS:
        attn = MMBAttnConfig(use_max=use_max, use_mean=use_mean, use_bitwise=use_bit,
                             reduction_ratio=reduction_ratio)
        model = build(schema, vocab, d, attn, tower, seed)
        for name, err in check_model(model, batch, h).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
