"""Finite-difference verification of every registered parameter gradient."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .attention import MMBAttnConfig
from .autograd import Graph
from .data import Batch, FieldSchema, SynthSpec, Vocabulary
from .model import TowerConfig, build
from .training import _logits_bce_value, bce_with_logits

FD_STEP = 1e-5  # central-difference step


def _loss_value(model, batch: Batch) -> float:
    z = model.forward_logits(Graph(record=False), batch)
    return _logits_bce_value(z.data, batch.labels)


def relative_error(a: np.ndarray, n: np.ndarray) -> float:
    """Max over entries of |a-n| / max(|a|, |n|, 1e-6)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def check_model(model, batch: Batch) -> dict[str, float]:
    """Max relative backprop-vs-central-difference error per parameter group."""
    g = Graph()
    loss = bce_with_logits(g, model.forward_logits(g, batch), batch.labels)
    model.zero_grad()
    g.backward(loss)
    flat = model.params
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = _loss_value(model, batch)
        flat[i] = orig - FD_STEP
        down = _loss_value(model, batch)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * FD_STEP)
    spans = ((name, lo, lo + math.prod(shape)) for name, shape, lo in model.layout)
    return {name: relative_error(model.grads[lo:hi], numeric[lo:hi])
            for name, lo, hi in spans}


def run_gradcheck(schema: FieldSchema, vocab: Vocabulary | SynthSpec, batch: Batch,
                  d: int, tower: TowerConfig, reduction_ratio: int,
                  seeds: tuple[int, ...]) -> dict[str, float]:
    """FD comparison for every seed and all eight (use_max, use_mean,
    use_bitwise) combinations; ``vocab`` is read only for its ``sizes``.

    Returns the max relative error per parameter group, aggregated over
    every model in which the group exists.
    """
    worst: dict[str, float] = {}
    for seed, toggles in itertools.product(seeds, itertools.product((False, True), repeat=3)):
        attn = MMBAttnConfig(*toggles, reduction_ratio=reduction_ratio)
        model = build(schema, vocab, d, attn, tower, seed)
        for name, err in check_model(model, batch).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
