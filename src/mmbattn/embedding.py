"""Per-field embedding tables: row gather forward, scatter-add backward."""

from __future__ import annotations

import numpy as np

from .autograd import Graph, Tensor, accumulate_grad
from .data import Batch, FieldSchema, Vocabulary
from .errors import ConfigError, ContractError
from .seeding import derive_seed

INIT_STD = 0.01


class EmbeddingTable:
    """One (V_f × d) float64 matrix per schema field, shared dimension d."""

    def __init__(self, field_names, tables):
        self.field_names = tuple(field_names)
        self.tables: list[Tensor] = list(tables)
        if not self.tables:
            raise ContractError("embedding needs at least one field table")
        self.d = self.tables[0].shape[1]

    @property
    def n_fields(self) -> int:
        return len(self.tables)


def init_embeddings(schema: FieldSchema, vocab: Vocabulary, d: int,
                    seed: int) -> EmbeddingTable:
    """Seeded Normal(0, 0.01^2) tables; row 0 (OOV) initialized like any row."""
    if d < 1:
        raise ConfigError("model.embedding_dim must be >= 1")
    tables = []
    for name, size in zip(schema.field_names, vocab.sizes):
        rng = np.random.default_rng(derive_seed(seed, f"init:embed.{name}"))
        tables.append(Tensor(rng.normal(0.0, INIT_STD, size=(size, d)),
                             requires_grad=True))
    return EmbeddingTable(schema.field_names, tables)


def lookup(g: Graph, emb: EmbeddingTable, batch: Batch) -> Tensor:
    """Gather per-field embedding rows into a (B × F × d) tensor.

    Equivalent to multiplying one-hot index vectors by each table;
    backward scatter-adds gradients into the selected rows only.
    """
    idx = batch.indices
    if idx.shape[1] != emb.n_fields:
        raise ContractError(f"batch has {idx.shape[1]} fields, tables have {emb.n_fields}")
    out = np.empty((idx.shape[0], emb.n_fields, emb.d), dtype=np.float64)
    for f, t in enumerate(emb.tables):
        try:
            out[:, f, :] = t.data[idx[:, f]]
        except IndexError:
            name = emb.field_names[f]
            raise ContractError(f"index out of range for field {name!r}") from None

    tables = emb.tables

    def backward(grad: np.ndarray) -> None:
        for f, t in enumerate(tables):
            if not t.requires_grad:
                continue
            gt = np.zeros_like(t.data)
            np.add.at(gt, idx[:, f], grad[:, f, :])
            accumulate_grad(t, gt)

    return g.record_op(out, tables, backward)
