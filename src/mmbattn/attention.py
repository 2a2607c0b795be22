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

from .autograd import Graph, Tensor
from .errors import ConfigError, ContractError


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


# The six component combinations of the paper's ablation table: display
# name, slug, and the (use_max, use_mean, use_bitwise) toggles.
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
    """Branch MLP weights, ``max_w1`` for registry name ``attn.max.w1`` and so
    on; the max and mean branches never share storage."""

    max_w1: Tensor | None = None
    max_w2: Tensor | None = None
    mean_w1: Tensor | None = None
    mean_w2: Tensor | None = None
    bit_w1: Tensor | None = None
    bit_w2: Tensor | None = None


def pool(g: Graph, e: Tensor, kind: str) -> Tensor:
    """Squeeze each field's embedding to one scalar: (B,F,d) -> (B,F)."""
    if kind == "max":
        return g.reduce_max(e, axis=2)
    if kind == "mean":
        return g.reduce_mean(e, axis=2)
    raise ContractError(f"unknown pooling kind {kind!r}")


def branch_attention(g: Graph, s: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """sigmoid(relu(s · W1) · W2): one weight in (0, 1) per column of ``s``."""
    return g.sigmoid(g.matmul(g.relu(g.matmul(s, w1), inplace=True), w2))


# The bit-wise branch, one weight per flattened embedding position: the same
# MLP under a second module name, so it can be patched and traced alone.
bitwise_attention = branch_attention


def apply_attention(g: Graph, e: Tensor, params: AttnParams,
                    config: MMBAttnConfig, collect: dict | None = None) -> Tensor:
    """Run the full module: (B,F,d) embeddings -> (B,F·d) re-weighted.

    ``W^MM``, the sum of the enabled pooled branches, scales each field's d
    positions.  With every component off the module is the identity on the
    flattened embedding, exactly.  ``collect``, when given, receives the
    weight tensors under keys w_max/w_mean/w_mm/w_bit (None when off).
    """
    b, f, d = e.shape
    flat_shape = (b, f * d)
    w_max = w_mean = w_mm = w_bit = e_flat = None
    if config.use_max:
        w_max = w_mm = branch_attention(g, pool(g, e, "max"), params.max_w1, params.max_w2)
    if config.use_mean:
        w_mean = branch_attention(g, pool(g, e, "mean"), params.mean_w1, params.mean_w2)
        w_mm = w_mean if w_max is None else g.add(w_max, w_mean)
    if config.use_bitwise:
        e_flat = g.reshape(e, flat_shape)
        w_bit = bitwise_attention(g, e_flat, params.bit_w1, params.bit_w2)
    if collect is not None:
        collect.update(w_max=w_max, w_mean=w_mean, w_mm=w_mm, w_bit=w_bit)

    if w_mm is not None:
        x = g.reshape(g.mul(e, g.reshape(w_mm, (b, f, 1))), flat_shape)
    else:  # F^MM is E itself: reuse the bit-wise branch's flattened input
        x = e_flat if e_flat is not None else g.reshape(e, flat_shape)
    if w_bit is None:
        return x
    if w_mm is None:
        return g.mul(x, w_bit)
    return g.add(x, g.mul(x, w_bit))


def param_count(config: MMBAttnConfig, n_fields: int, d: int) -> int:
    """Closed-form weight count of the enabled branches."""
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
