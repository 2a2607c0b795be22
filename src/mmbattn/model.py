"""Embeddings -> optional attention -> MLP tower -> click probability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttnParams, MMBAttnConfig, apply_attention, hidden_width
from .autograd import Graph, Tensor
from .data import Batch, FieldSchema, SynthSpec, Vocabulary
from .embedding import EmbeddingTable, lookup
from .errors import ConfigError, check_memory
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
    initial values.  ``layout`` records where each parameter lives: a
    tuple of ``(name, shape, offset)`` in registry order, offsets counted
    in elements of ``params``.  Registry tensors view ``params`` and
    ``grads`` at their layout offsets; the stacked embedding table views
    the ``embed.*`` span.  With every attention component off (an
    all-false ``MMBAttnConfig``) every ``attn_params`` attribute is None.
    """

    def __init__(self, arrays: dict[str, np.ndarray], attn: MMBAttnConfig):
        self.attn = attn
        self.params = np.concatenate([a.ravel() for a in arrays.values()])
        self.grads = np.zeros_like(self.params)
        self.registry: dict[str, Tensor] = {}
        layout, lo = [], 0
        for name, a in arrays.items():
            hi = lo + a.size
            t = self.registry[name] = Tensor(self.params[lo:hi].reshape(a.shape))
            t.grad = self.grads[lo:hi].reshape(a.shape)
            layout.append((name, a.shape, lo))
            lo = hi
        self.layout = tuple(layout)

        def group(prefix: str) -> dict[str, Tensor]:
            return {name[len(prefix):]: t for name, t in self.registry.items()
                    if name.startswith(prefix)}

        embed = group("embed.")
        sizes = [t.shape[0] for t in embed.values()]
        span = sum(t.size for t in embed.values())
        table = Tensor(self.params[:span].reshape(sum(sizes), -1))
        table.grad = self.grads[:span].reshape(table.shape)
        self.embedding = EmbeddingTable(tuple(embed), sizes, table)
        self.attn_params = AttnParams(
            **{part.replace(".", "_"): t for part, t in group("attn.").items()})
        tower = list(group("tower.").values())
        self.tower = list(zip(tower[::2], tower[1::2]))

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def forward_logits(self, g: Graph, batch: Batch,
                       collect: dict | None = None) -> Tensor:
        e = lookup(g, self.embedding, batch)
        x = apply_attention(g, e, self.attn_params, self.attn, collect)
        *hidden, (w_out, b_out) = self.tower
        for w, b in hidden:  # bias and relu reuse the product's buffer
            x = g.relu(g.add(g.matmul(x, w), b, inplace=True), inplace=True)
        return g.reshape(g.add(g.matmul(x, w_out), b_out), (batch.n,))

    def field_weights(self, batch: Batch) -> np.ndarray | None:
        """Per-field combined attention weights W^MM, or None if no pooled branch."""
        if not (self.attn.use_max or self.attn.use_mean):
            return None
        collect: dict = {}
        self.forward_logits(Graph(record=False), batch, collect)
        return collect["w_mm"].data


def _initial_arrays(schema: FieldSchema, vocab: Vocabulary | SynthSpec, d: int,
                    attn: MMBAttnConfig, tower: TowerConfig):
    """Every parameter in registry order as ``(name, key, std, shape)``:
    ``key`` is the config key that sizes it, ``shape`` the shape it is
    drawn in, and a ``std`` of None means zeros."""
    for name, size in zip(schema.field_names, vocab.sizes):
        yield f"embed.{name}", "model.embedding_dim", 0.01, (size, d)
    for branch, on, c in (("max", attn.use_max, schema.n_fields),
                          ("mean", attn.use_mean, schema.n_fields),
                          ("bit", attn.use_bitwise, schema.n_fields * d)):
        if on:
            h = hidden_width(c, attn.reduction_ratio)
            for part, shape in (("w1", (h, c)), ("w2", (c, h))):
                yield f"attn.{branch}.{part}", "model.embedding_dim", 1.0 / np.sqrt(c), shape
    widths = [schema.n_fields * d, *tower.hidden_sizes, 1]
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        yield (f"tower.{i}.weight", "model.hidden_sizes", 1.0 / np.sqrt(fan_in),
               (fan_in, fan_out))
        yield f"tower.{i}.bias", "model.hidden_sizes", None, (fan_out,)


# Float64 vectors as long as ``Model.params`` that a training run holds at
# once: the parameters, their gradients, Adam's two moments and the best
# epoch's parameters (Adam's scratch is one block long).  ``build`` peaks
# lower: its drawn arrays, the concatenated parameters and the gradients.
TRAINING_COPIES = 5


def check_fits(schema: FieldSchema, vocab: Vocabulary | SynthSpec, d: int,
               attn: MMBAttnConfig, tower: TowerConfig) -> None:
    """Refuse, without drawing anything, a model ``build`` cannot make:
    ``d < 1``, or ``TRAINING_COPIES`` copies of its parameters past physical
    memory, with a ``ConfigError`` naming the config key whose weights cross it.
    ``vocab`` is read only for its ``sizes``."""
    if d < 1:
        raise ConfigError("model.embedding_dim must be >= 1")
    need = 0
    for _, key, _, shape in _initial_arrays(schema, vocab, d, attn, tower):
        need += TRAINING_COPIES * 8 * math.prod(shape)
        check_memory(key, need, "training the model")


def build(schema: FieldSchema, vocab: Vocabulary | SynthSpec, d: int,
          attn: MMBAttnConfig, tower: TowerConfig, seed: int) -> Model:
    """Deterministic model construction with a documented registry order.

    ``vocab``, a ``Vocabulary`` or a ``SynthSpec``, is read only for ``sizes``.
    Every initial array is drawn here from its own ``init:<name>`` stream:
    embedding tables Normal(0, 0.01^2), row 0 (OOV) like any row; attention
    branch weights Normal(0, 1/C) for branch input width C, drawn (out, in)
    as earlier releases stored them, then transposed to (in, out); tower
    weights Normal(0, 1/fan_in) and zero biases.  Attention off is
    ``MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)``.
    ``check_fits`` runs first, so a model it refuses draws nothing."""
    check_fits(schema, vocab, d, attn, tower)
    arrays = {}
    for name, _, std, shape in _initial_arrays(schema, vocab, d, attn, tower):
        if std is None:
            arrays[name] = np.zeros(shape)
            continue
        a = np.random.default_rng(derive_seed(seed, f"init:{name}")).normal(
            0.0, std, size=shape)
        arrays[name] = a.T if name.startswith("attn.") else a
    return Model(arrays, attn)
