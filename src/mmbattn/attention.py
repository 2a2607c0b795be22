"""Max-pool, mean-pool and bit-wise attention over field embeddings.

Pooling squeezes each field's d-vector to one scalar.  Two independent
bottleneck MLPs (reduction ratio R, no bias terms) turn the pooled
vectors into per-field weights in (0, 1); adding the two branch outputs
gives the combined field weight.  A third MLP over the flattened
embedding yields one weight per bit.  The weights re-scale the flattened
embedding, so the whole module is a drop-in R^{F·d} -> R^{F·d} transform
in front of any tower.

With both weight kinds on, the field weights re-scale the embeddings
first and the bit weights refine that with a residual path:
``F^MM = E ⊙ W^MM`` and ``F^MMB = F^MM + F^MM ⊙ W^B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Graph, Tensor
from .errors import ConfigError, ContractError
from .seeding import derive_seed


@dataclass(frozen=True)
class MMBAttnConfig:
    """Component toggles and reduction ratio."""

    use_max: bool = True
    use_mean: bool = True
    use_bitwise: bool = True
    reduction_ratio: int = 3
    # Only "residual_product" exists; the field stays because the benchmark
    # harness passes it, and goes with the next change to the benchmark.
    combine_mode: str = "residual_product"

    def __post_init__(self):
        if self.reduction_ratio < 1:
            raise ConfigError("attn.reduction_ratio must be >= 1")
        if self.combine_mode != "residual_product":
            raise ConfigError(f"combine_mode must be 'residual_product', "
                              f"got {self.combine_mode!r}")

    @property
    def enabled(self) -> bool:
        return self.use_max or self.use_mean or self.use_bitwise

    @property
    def uses_pooling(self) -> bool:
        return self.use_max or self.use_mean


# The six component combinations of the paper's ablation table, which are
# every configuration of the module: display name, slug, and the
# (use_max, use_mean, use_bitwise) toggles.
ABLATION_ROWS = (
    ("DNN", "base", (False, False, False)),
    ("DNN + Mean", "mean", (False, True, False)),
    ("DNN + Max", "max", (True, False, False)),
    ("DNN + Bit-wise", "bitwise", (False, False, True)),
    ("DNN + Max + Mean", "max_mean", (True, True, False)),
    ("DNN + Max + Mean + Bit-wise", "max_mean_bitwise", (True, True, True)),
)


def hidden_width(c: int, r: int) -> int:
    """Bottleneck width floor(C/R), clamped so tiny field counts stay legal."""
    return max(1, c // r)


@dataclass
class AttnParams:
    """Branch MLP weights; the max and mean branches never share storage."""

    max_w1: Tensor | None = None
    max_w2: Tensor | None = None
    mean_w1: Tensor | None = None
    mean_w2: Tensor | None = None
    bit_w1: Tensor | None = None
    bit_w2: Tensor | None = None

    def named(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for branch in ("max", "mean", "bit"):
            for part in ("w1", "w2"):
                t = getattr(self, f"{branch}_{part}")
                if t is not None:
                    out[f"attn.{branch}.{part}"] = t
        return out


def init_attn_params(config: MMBAttnConfig, n_fields: int, d: int,
                     seed: int) -> AttnParams:
    """Seeded Normal(0, 1/C) weights per branch (C = branch input width).

    Weights are stored (in, out) like the tower's: ``w1`` is (C, h) and
    ``w2`` is (h, C).  Each is drawn with shape (out, in), as earlier
    releases stored it, and its axes are swapped, so initial values match.
    """

    def make(branch: str, c: int) -> tuple[Tensor, Tensor]:
        h = hidden_width(c, config.reduction_ratio)
        std = 1.0 / np.sqrt(c)
        rng1 = np.random.default_rng(derive_seed(seed, f"init:attn.{branch}.w1"))
        rng2 = np.random.default_rng(derive_seed(seed, f"init:attn.{branch}.w2"))
        w1 = Tensor(rng1.normal(0.0, std, size=(h, c)).T, requires_grad=True)
        w2 = Tensor(rng2.normal(0.0, std, size=(c, h)).T, requires_grad=True)
        return w1, w2

    params = AttnParams()
    if config.use_max:
        params.max_w1, params.max_w2 = make("max", n_fields)
    if config.use_mean:
        params.mean_w1, params.mean_w2 = make("mean", n_fields)
    if config.use_bitwise:
        params.bit_w1, params.bit_w2 = make("bit", n_fields * d)
    return params


def pool(g: Graph, e: Tensor, kind: str) -> Tensor:
    """Squeeze each field's embedding to one scalar: (B,F,d) -> (B,F)."""
    if kind == "max":
        return g.reduce_max(e, axis=2)
    if kind == "mean":
        return g.reduce_mean(e, axis=2)
    raise ContractError(f"unknown pooling kind {kind!r}")


def branch_attention(g: Graph, s: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """sigmoid(relu(s · W1) · W2): per-field weights, strictly in (0, 1)."""
    return g.sigmoid(g.matmul(g.relu(g.matmul(s, w1)), w2))


def mm_combine(g: Graph, w_max: Tensor | None, w_mean: Tensor | None) -> Tensor:
    """Sum of the enabled pooled-attention branches."""
    if w_max is None and w_mean is None:
        raise ContractError("mm_combine needs at least one branch output")
    if w_max is not None and w_mean is not None:
        return g.add(w_max, w_mean)
    return w_max if w_max is not None else w_mean


def mm_reweight(g: Graph, e: Tensor, w_mm: Tensor) -> Tensor:
    """Scale each field's d embedding positions by its per-field weight."""
    b, f, _ = e.shape
    return g.mul(e, g.reshape(w_mm, (b, f, 1)))


def bitwise_attention(g: Graph, e_flat: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """One weight per flattened embedding position: (B,F·d) -> (B,F·d)."""
    return g.sigmoid(g.matmul(g.relu(g.matmul(e_flat, w1)), w2))


def apply_attention(g: Graph, e: Tensor, params: AttnParams | None,
                    config: MMBAttnConfig | None,
                    collect: dict | None = None) -> Tensor:
    """Run the full module: (B,F,d) embeddings -> (B,F·d) re-weighted.

    With every component toggled off the module is the identity on the
    flattened embedding, exactly.  ``collect``, when given, receives the
    intermediate weight tensors under keys w_max/w_mean/w_mm/w_bit.
    """
    b, f, d = e.shape
    flat_shape = (b, f * d)
    if config is None or not config.enabled:
        return g.reshape(e, flat_shape)
    if params is None:
        raise ContractError("attention enabled but no parameters supplied")

    w_max = w_mean = w_mm = w_bit = None
    if config.use_max:
        w_max = branch_attention(g, pool(g, e, "max"), params.max_w1, params.max_w2)
    if config.use_mean:
        w_mean = branch_attention(g, pool(g, e, "mean"), params.mean_w1, params.mean_w2)
    if config.uses_pooling:
        w_mm = mm_combine(g, w_max, w_mean)
    if config.use_bitwise:
        w_bit = bitwise_attention(g, g.reshape(e, flat_shape),
                                  params.bit_w1, params.bit_w2)
    if collect is not None:
        collect.update(w_max=w_max, w_mean=w_mean, w_mm=w_mm, w_bit=w_bit)

    if w_bit is None:
        return g.reshape(mm_reweight(g, e, w_mm), flat_shape)
    if w_mm is None:
        return g.mul(g.reshape(e, flat_shape), w_bit)

    f_mm = g.reshape(mm_reweight(g, e, w_mm), flat_shape)
    return g.add(f_mm, g.mul(f_mm, w_bit))


def param_count(config: MMBAttnConfig | None, n_fields: int, d: int) -> int:
    """Closed-form weight count of the enabled branches."""
    if config is None or not config.enabled:
        return 0
    total = 0
    h_field = hidden_width(n_fields, config.reduction_ratio)
    if config.use_max:
        total += 2 * n_fields * h_field
    if config.use_mean:
        total += 2 * n_fields * h_field
    if config.use_bitwise:
        c = n_fields * d
        total += 2 * c * hidden_width(c, config.reduction_ratio)
    return total
