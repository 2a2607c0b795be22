"""Embeddings -> optional attention -> MLP tower -> click probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttnParams, MMBAttnConfig, apply_attention, init_attn_params
from .autograd import Graph, Tensor
from .data import Batch, FieldSchema, Vocabulary
from .embedding import EmbeddingTable, init_embeddings, lookup
from .errors import ConfigError
from .seeding import derive_seed


@dataclass(frozen=True)
class TowerConfig:
    """MLP tower over the (re-weighted) flattened embedding; single logit out."""

    hidden_sizes: tuple[int, ...] = (400, 400, 400)

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("model.hidden_sizes entries must be >= 1")


class Model:
    """A CTR model with a stable named-parameter registry.

    Registry order: embedding tables in schema order, then attention
    branch weights (max, mean, bit), then tower weight/bias pairs
    bottom-up.  Every parameter's init stream is keyed by its own name,
    so toggling attention components never shifts the other parameters'
    initial values.  Each registry tensor's ``data`` and ``grad`` are
    views into ``params`` and ``grads`` at its registry offset.
    """

    def __init__(self, schema: FieldSchema, vocab: Vocabulary,
                 embedding: EmbeddingTable,
                 attn_config: MMBAttnConfig | None,
                 attn_params: AttnParams | None,
                 tower: list[tuple[Tensor, Tensor]],
                 registry: dict[str, Tensor],
                 params: np.ndarray, grads: np.ndarray):
        self.schema = schema
        self.vocab = vocab
        self.embedding = embedding
        self.attn_config = attn_config
        self.attn_params = attn_params
        self.tower = tower
        self.registry = registry
        self.params = params
        self.grads = grads

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def snapshot(self) -> np.ndarray:
        return self.params.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.params[...] = snap

    def forward_logits(self, g: Graph, batch: Batch,
                       collect: dict | None = None) -> Tensor:
        e = lookup(g, self.embedding, batch)
        x = apply_attention(g, e, self.attn_params, self.attn_config, collect)
        last = len(self.tower) - 1
        for i, (w, b) in enumerate(self.tower):
            x = g.add(g.matmul(x, w), b)
            if i < last:
                x = g.relu(x)
        return g.reshape(x, (batch.n,))

    def forward(self, g: Graph, batch: Batch) -> Tensor:
        """Click probabilities in (0, 1), shape (B,)."""
        return g.sigmoid(self.forward_logits(g, batch))

    def predict(self, batch: Batch) -> np.ndarray:
        """Forward-only probabilities (no tape)."""
        return self.forward(Graph(record=False), batch).data

    def field_weights(self, batch: Batch) -> np.ndarray | None:
        """Per-field combined attention weights W^MM, or None if no pooled branch."""
        if self.attn_config is None or not self.attn_config.uses_pooling:
            return None
        collect: dict = {}
        self.forward_logits(Graph(record=False), batch, collect)
        return collect["w_mm"].data


def build(schema: FieldSchema, vocab: Vocabulary, d: int,
          attn_config: MMBAttnConfig | None, tower_config: TowerConfig,
          seed: int) -> Model:
    """Deterministic model construction with a documented registry order."""
    embedding = init_embeddings(schema, vocab, d, seed)
    cfg = attn_config if (attn_config is not None and attn_config.enabled) else None
    attn_params = None
    dense: dict[str, Tensor] = {}
    if cfg is not None:
        attn_params = init_attn_params(cfg, schema.n_fields, d, seed)
        dense.update(attn_params.named())

    widths = [schema.n_fields * d, *tower_config.hidden_sizes, 1]
    tower: list[tuple[Tensor, Tensor]] = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        rng = np.random.default_rng(derive_seed(seed, f"init:tower.{i}.weight"))
        w = Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                   requires_grad=True)
        b = Tensor(np.zeros(fan_out), requires_grad=True)
        dense[f"tower.{i}.weight"] = w
        dense[f"tower.{i}.bias"] = b
        tower.append((w, b))

    # Move every parameter into one vector, in registry order (the stacked
    # embedding table first), and give each a gradient view of a twin.
    tensors = [embedding.table, *dense.values()]
    params = np.concatenate([t.data.ravel() for t in tensors])
    grads = np.zeros_like(params)
    start = 0
    for t in tensors:
        data = t.data
        end = start + data.size
        t.data = params[start:end].reshape(data.shape)
        t.grad = grads[start:end].reshape(data.shape)
        start = end
    table = embedding.table
    registry: dict[str, Tensor] = {}
    for name, lo, hi in zip(embedding.field_names, embedding.offsets.tolist(),
                            (embedding.offsets + embedding.sizes).tolist()):
        registry[f"embed.{name}"] = rows = Tensor(table.data[lo:hi], requires_grad=True)
        rows.grad = table.grad[lo:hi]
    registry.update(dense)
    return Model(schema, vocab, embedding, cfg, attn_params, tower, registry,
                 params, grads)
