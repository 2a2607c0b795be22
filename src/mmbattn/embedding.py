"""Stacked embedding tables: row gather forward, scatter-add backward."""

from __future__ import annotations

import numpy as np

from .autograd import Graph, Tensor
from .data import Batch, FieldSchema, Vocabulary
from .errors import ConfigError, ContractError
from .seeding import derive_seed

INIT_STD = 0.01


class EmbeddingTable:
    """Every field's (V_f × d) table stacked into one (ΣV_f × d) tensor.

    Field f owns rows ``offsets[f]`` to ``offsets[f] + sizes[f]``.
    """

    def __init__(self, field_names, sizes, table: Tensor):
        self.field_names = tuple(field_names)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if not self.field_names or self.sizes.shape != (len(self.field_names),) \
                or table.data.ndim != 2 or table.shape[0] != self.sizes.sum():
            raise ContractError(f"need one size per field for a {table.shape} table")
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.table = table


def init_embeddings(schema: FieldSchema, vocab: Vocabulary, d: int,
                    seed: int) -> dict[str, np.ndarray]:
    """Seeded Normal(0, 0.01^2) (V_f × d) tables keyed ``embed.<field>``.

    Row 0 (OOV) is initialized like any row."""
    if d < 1:
        raise ConfigError("model.embedding_dim must be >= 1")
    return {f"embed.{name}": np.random.default_rng(derive_seed(seed, f"init:embed.{name}"))
            .normal(0.0, INIT_STD, size=(size, d))
            for name, size in zip(schema.field_names, vocab.sizes)}


def lookup(g: Graph, emb: EmbeddingTable, batch: Batch) -> Tensor:
    """Gather per-field embedding rows into a (B × F × d) tensor.

    Equivalent to multiplying one-hot index vectors by each table;
    backward scatter-adds gradients into the selected rows only, with one
    ``bincount`` over the distinct rows' cells.  Rows of different fields
    never collide, so each row sums its contributions in batch order, as a
    per-field scatter would.
    """
    idx = batch.indices
    if idx.shape[1] != len(emb.sizes):
        raise ContractError(f"batch has {idx.shape[1]} fields, "
                            f"tables have {len(emb.sizes)}")
    over = (idx >= emb.sizes).any(axis=0)
    if over.any():
        name = emb.field_names[int(np.argmax(over))]
        raise ContractError(f"index out of range for field {name!r}")
    rows = np.add(idx, emb.offsets, dtype=np.int64)
    table = emb.table

    def backward(grad: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        d = grad.shape[-1]
        u, inv = np.unique(rows, return_inverse=True)
        cells = (inv.reshape(-1, 1) * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=grad.ravel(), minlength=u.size * d)
        table.grad[u] += sums.reshape(u.size, d)

    return g.record_op(np.take(table.data, rows, axis=0), (table,), backward)
