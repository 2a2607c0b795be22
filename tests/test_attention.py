import math

import numpy as np
import pytest

from mmbattn import attention
from mmbattn.attention import (ABLATION_ROWS, AttnParams, MMBAttnConfig,
                               apply_attention, bitwise_attention, branch_attention,
                               hidden_width, init_attn_params, param_count, pool)
from mmbattn.autograd import Graph, Tensor
from mmbattn.data import CATEGORICAL, FieldSchema, Vocabulary
from mmbattn.errors import ConfigError
from mmbattn.model import TowerConfig, build
from mmbattn.seeding import derive_seed


def zero_params(n_fields, d, config):
    h_f = hidden_width(n_fields, config.reduction_ratio)
    c_b = n_fields * d
    h_b = hidden_width(c_b, config.reduction_ratio)
    p = AttnParams()
    if config.use_max:
        p.max_w1 = Tensor(np.zeros((n_fields, h_f)), requires_grad=True)
        p.max_w2 = Tensor(np.zeros((h_f, n_fields)), requires_grad=True)
    if config.use_mean:
        p.mean_w1 = Tensor(np.zeros((n_fields, h_f)), requires_grad=True)
        p.mean_w2 = Tensor(np.zeros((h_f, n_fields)), requires_grad=True)
    if config.use_bitwise:
        p.bit_w1 = Tensor(np.zeros((c_b, h_b)), requires_grad=True)
        p.bit_w2 = Tensor(np.zeros((h_b, c_b)), requires_grad=True)
    return p


def attn_params(config, n_fields, d, seed):
    """``init_attn_params``' arrays as the AttnParams the module reads."""
    arrays = init_attn_params(config, n_fields, d, seed)
    return AttnParams(**{name[len("attn."):].replace(".", "_"): Tensor(a, requires_grad=True)
                         for name, a in arrays.items()})


def injected(monkeypatch, e, w_mm=None, w_bit=None):
    """``apply_attention``'s output when the max branch returns ``w_mm`` and
    the bit-wise branch ``w_bit``, values no sigmoid can reach; a branch
    given None is off, and so is the mean branch."""
    if w_mm is not None:
        monkeypatch.setattr(attention, "branch_attention",
                            lambda g, s, w1, w2: Tensor(w_mm))
    if w_bit is not None:
        monkeypatch.setattr(attention, "bitwise_attention",
                            lambda g, x, w1, w2: Tensor(w_bit))
    cfg = MMBAttnConfig(use_max=w_mm is not None, use_mean=False,
                        use_bitwise=w_bit is not None)
    return apply_attention(Graph(), Tensor(e), AttnParams(), cfg).data


class TestPool:
    def test_mean_and_max(self):
        e = Tensor([[[1.0, 2.0, 3.0]]])
        assert float(pool(Graph(), e, "mean").data[0, 0]) == 2.0
        assert float(pool(Graph(), e, "max").data[0, 0]) == 3.0

    def test_constant_embeddings_agree(self):
        e = Tensor(np.full((2, 3, 4), 7.0))
        assert np.array_equal(pool(Graph(), e, "max").data,
                              pool(Graph(), e, "mean").data)

    def test_mean_pool_gradient_uniform(self):
        e = Tensor(np.arange(6.0).reshape(1, 2, 3), requires_grad=True)
        g = Graph()
        s = pool(g, e, "mean")
        g.backward(g.reduce_mean(g.reduce_mean(s, 1), 0))
        assert np.allclose(e.grad, 1.0 / 6.0)


class TestBranchAttention:
    def test_zero_weights_give_half(self):
        cfg = MMBAttnConfig(reduction_ratio=1)
        p = zero_params(3, 2, cfg)
        s = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        out = branch_attention(Graph(), s, p.max_w1, p.max_w2)
        assert np.array_equal(out.data, np.full((4, 3), 0.5))

    def test_outputs_in_open_interval(self):
        rng = np.random.default_rng(1)
        cfg = MMBAttnConfig(reduction_ratio=2)
        p = attn_params(cfg, 5, 3, seed=3)
        s = Tensor(rng.normal(size=(1000, 5)))
        out = branch_attention(Graph(), s, p.max_w1, p.max_w2).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_two_field_pencil_and_paper(self):
        # F=2, R=1, hidden width 2.
        # hidden = relu(s · W1) = relu([0.1+0.4, -0.3+0.8]) = [0.5, 0.5]
        # pre-sigmoid = hidden · W2 = [0.25-0.05, 0.1+0.15] = [0.2, 0.25]
        w1 = Tensor([[0.1, -0.3], [0.2, 0.4]])
        w2 = Tensor([[0.5, 0.2], [-0.1, 0.3]])
        s = Tensor([[1.0, 2.0]])
        got = branch_attention(Graph(), s, w1, w2).data[0]
        want = [1 / (1 + math.exp(-0.2)), 1 / (1 + math.exp(-0.25))]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestCombine:
    """W^MM is the sum of the enabled pooled branches, read through ``collect``."""

    def collect(self, cfg, params, seed=2):
        e = np.random.default_rng(seed).normal(size=(4, 5, 3))
        out = {}
        apply_attention(Graph(), Tensor(e), params, cfg, out)
        return out

    def test_zero_init_sum_is_one(self):
        cfg = MMBAttnConfig(use_bitwise=False, reduction_ratio=1)
        w = self.collect(cfg, zero_params(5, 3, cfg))
        assert np.array_equal(w["w_mm"].data, np.ones((4, 5)))

    def test_single_branch_passthrough(self):
        for use_max in (True, False):
            cfg = MMBAttnConfig(use_max=use_max, use_mean=not use_max,
                                use_bitwise=False, reduction_ratio=2)
            w = self.collect(cfg, attn_params(cfg, 5, 3, seed=1))
            assert w["w_mm"] is (w["w_max"] if use_max else w["w_mean"])

    def test_sum_matches_elementwise_oracle(self):
        cfg = MMBAttnConfig(reduction_ratio=2)
        w = self.collect(cfg, attn_params(cfg, 5, 3, seed=1))
        assert np.array_equal(w["w_mm"].data, w["w_max"].data + w["w_mean"].data)


class TestReweight:
    """Each field's weight scales its d embedding positions."""

    def test_identity_weights(self, monkeypatch):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(2, 3, 4))
        out = injected(monkeypatch, e, w_mm=np.ones((2, 3)))
        assert np.array_equal(out, e.reshape(2, 12))

    def test_zero_weight_zeroes_exactly_that_field(self, monkeypatch):
        e = np.ones((1, 3, 2))
        out = injected(monkeypatch, e, w_mm=np.array([[1.0, 0.0, 1.0]])).reshape(1, 3, 2)
        assert np.all(out[0, 1] == 0.0)
        assert np.all(out[0, [0, 2]] == 1.0)

    def test_matches_repeat_oracle(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(3, 4, 5))
        cfg = MMBAttnConfig(use_bitwise=False, reduction_ratio=2)
        collect = {}
        out = apply_attention(Graph(), Tensor(e), attn_params(cfg, 4, 5, seed=1),
                              cfg, collect).data
        oracle = e * np.repeat(collect["w_mm"].data[:, :, None], 5, axis=2)
        assert np.array_equal(out, oracle.reshape(3, 20))

    def test_monotone_gating_linearity(self, monkeypatch):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(2, 3, 4))
        w = rng.random((2, 3))
        one = injected(monkeypatch, e, w_mm=w)
        scaled = injected(monkeypatch, e, w_mm=2.5 * w)
        assert np.allclose(scaled, 2.5 * one)


class TestBitwise:
    def test_zero_weights_give_half(self):
        cfg = MMBAttnConfig(reduction_ratio=1)
        p = zero_params(2, 3, cfg)
        x = Tensor(np.random.default_rng(6).normal(size=(4, 6)))
        out = bitwise_attention(Graph(), x, p.bit_w1, p.bit_w2)
        assert np.array_equal(out.data, np.full((4, 6), 0.5))

    def test_single_field_pencil_and_paper(self):
        # F=1, d=2, R=1, hidden 2.
        # hidden = relu([0.3-0.25, -0.06-0.2]) = [0.05, 0]
        # pre-sigmoid = [0.05*0.6, 0.05*0.1] = [0.03, 0.005]
        w1 = Tensor([[1.0, -0.2], [0.5, 0.4]])
        w2 = Tensor([[0.6, 0.1], [-0.3, 0.8]])
        x = Tensor([[0.3, -0.5]])
        got = bitwise_attention(Graph(), x, w1, w2).data[0]
        want = [1 / (1 + math.exp(-0.03)), 1 / (1 + math.exp(-0.005))]
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_field_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        f, d = 3, 2
        c = f * d
        w1 = rng.normal(size=(c, c))
        w2 = rng.normal(size=(c, c))
        x = rng.normal(size=(5, c))
        # swap fields 0 and 2: permutation over flattened bit positions
        q = np.array([4, 5, 2, 3, 0, 1])
        base = bitwise_attention(Graph(), Tensor(x), Tensor(w1), Tensor(w2)).data
        perm = bitwise_attention(Graph(), Tensor(x[:, q]),
                                 Tensor(w1[q, :]), Tensor(w2[:, q])).data
        assert np.allclose(perm, base[:, q], atol=1e-12)


class TestApply:
    def rand_e(self, b=3, f=3, d=2, seed=8):
        return np.random.default_rng(seed).normal(size=(b, f, d))

    def test_identity_when_all_disabled(self):
        e = self.rand_e()
        cfg = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)
        collect = {}
        out = apply_attention(Graph(), Tensor(e), AttnParams(), cfg, collect)
        assert out.data.tolist() == e.reshape(3, 6).tolist()  # bit-identical
        assert all(w is None for w in collect.values())

    def test_residual_identity_when_bit_weights_forced_zero(self, monkeypatch):
        # w_b == 0 is unreachable through a sigmoid; inject it directly:
        # residual_product gives F^MMB = F^MM exactly
        e = self.rand_e()
        out = injected(monkeypatch, e, w_mm=np.full((3, 3), 1.3), w_bit=np.zeros((3, 6)))
        assert np.array_equal(out, (e * 1.3).reshape(3, 6))

    def test_all_weights_one_doubles_embedding(self, monkeypatch):
        # forced w_mm = 1 and w_b = 1: residual_product gives 2 * flatten(e)
        e = self.rand_e()
        out = injected(monkeypatch, e, w_mm=np.ones((3, 3)), w_bit=np.ones((3, 6)))
        assert np.allclose(out, 2.0 * e.reshape(3, 6))

    def test_zero_init_fixed_points(self):
        e = self.rand_e()
        cfg = MMBAttnConfig(reduction_ratio=2)
        p = zero_params(3, 2, cfg)
        collect = {}
        apply_attention(Graph(), Tensor(e), p, cfg, collect)
        assert np.array_equal(collect["w_max"].data, np.full((3, 3), 0.5))
        assert np.array_equal(collect["w_mean"].data, np.full((3, 3), 0.5))
        assert np.array_equal(collect["w_mm"].data, np.ones((3, 3)))
        assert np.array_equal(collect["w_bit"].data, np.full((3, 6), 0.5))

    def test_full_module_output_matches_numpy_oracle(self):
        # F^MMB = F^MM + F^MM * W^B with F^MM = flatten(E * W^MM)
        e = self.rand_e()
        cfg = MMBAttnConfig(reduction_ratio=2)
        p = attn_params(cfg, 3, 2, seed=1)
        collect = {}
        out = apply_attention(Graph(), Tensor(e), p, cfg, collect)
        want = ((e * collect["w_mm"].data[:, :, None]).reshape(3, 6)
                * (1.0 + collect["w_bit"].data))
        assert np.allclose(out.data, want, rtol=0, atol=1e-15)

    def test_bit_disabled_output_is_flat_reweight(self):
        e = self.rand_e()
        cfg = MMBAttnConfig(use_bitwise=False, reduction_ratio=2)
        p = attn_params(cfg, 3, 2, seed=1)
        collect = {}
        out = apply_attention(Graph(), Tensor(e), p, cfg, collect)
        want = (e * collect["w_mm"].data[:, :, None]).reshape(3, 6)
        assert np.allclose(out.data, want, atol=1e-15)

    def test_pooling_disabled_output_is_bit_product(self):
        e = self.rand_e()
        cfg = MMBAttnConfig(use_max=False, use_mean=False, reduction_ratio=2)
        p = attn_params(cfg, 3, 2, seed=1)
        collect = {}
        out = apply_attention(Graph(), Tensor(e), p, cfg, collect)
        assert np.allclose(out.data, e.reshape(3, 6) * collect["w_bit"].data,
                           atol=1e-15)

    # tape nodes one call records; bit-wise alone reuses its flattened input
    @pytest.mark.parametrize("slug, toggles, nodes", [
        (slug, toggles, {"base": 1, "mean": 8, "max": 8, "bitwise": 6, "max_mean": 14,
                         "max_mean_bitwise": 21}[slug])
        for _, slug, toggles in ABLATION_ROWS])
    def test_tape_node_count(self, slug, toggles, nodes):
        cfg = MMBAttnConfig(*toggles, reduction_ratio=2)
        g = Graph()
        apply_attention(g, Tensor(self.rand_e(), requires_grad=True),
                        attn_params(cfg, 3, 2, seed=1), cfg)
        assert len(g._nodes) == nodes

    def test_gradients_match_finite_differences(self):
        # bit-wise alone: its flattened input also takes the output product's gradient
        for cfg in (MMBAttnConfig(reduction_ratio=2),
                    MMBAttnConfig(use_max=False, use_mean=False, reduction_ratio=2)):
            rng = np.random.default_rng(21)
            params = attn_params(cfg, 3, 2, seed=5)
            e_data = rng.normal(size=(4, 3, 2))
            target = rng.normal(size=(4, 6))

            def loss_value():
                g = Graph(record=False)
                out = apply_attention(g, Tensor(e_data), params, cfg)
                diff = g.add(out, Tensor(-target))
                return float(g.reduce_mean(g.reduce_mean(g.mul(diff, diff), 1), 0).data)

            g = Graph()
            e = Tensor(e_data, requires_grad=True)
            out = apply_attention(g, e, params, cfg)
            diff = g.add(out, Tensor(-target))
            g.backward(g.reduce_mean(g.reduce_mean(g.mul(diff, diff), 1), 0))

            h = 1e-5
            for name, p in {**vars(params), "e": e}.items():
                if p is None:  # a branch that is off
                    continue
                analytic = p.grad
                numeric = np.zeros_like(p.data)
                flat, nf = p.data.ravel(), numeric.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_value()
                    flat[i] = orig - h
                    down = loss_value()
                    flat[i] = orig
                    nf[i] = (up - down) / (2 * h)
                rel = np.abs(analytic - numeric) / np.maximum(
                    np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
                assert rel.max() < 1e-4, f"{name}: {rel.max()}"

    def test_field_permutation_equivariance_full_module(self):
        rng = np.random.default_rng(31)
        cfg = MMBAttnConfig(reduction_ratio=2)
        f, d = 3, 2
        p = attn_params(cfg, f, d, seed=9)
        e = rng.normal(size=(4, f, d))
        perm = np.array([2, 0, 1])
        bitperm = np.concatenate([np.arange(d) + q * d for q in perm])
        p2 = AttnParams(
            max_w1=Tensor(p.max_w1.data[perm, :]), max_w2=Tensor(p.max_w2.data[:, perm]),
            mean_w1=Tensor(p.mean_w1.data[perm, :]), mean_w2=Tensor(p.mean_w2.data[:, perm]),
            bit_w1=Tensor(p.bit_w1.data[bitperm, :]), bit_w2=Tensor(p.bit_w2.data[:, bitperm]))
        base = apply_attention(Graph(), Tensor(e), p, cfg).data
        permuted = apply_attention(Graph(), Tensor(e[:, perm, :]), p2, cfg).data
        assert np.allclose(permuted, base[:, bitperm], atol=1e-12)


class TestConfigAndCounts:
    def test_bad_reduction_ratio(self):
        with pytest.raises(ConfigError):
            MMBAttnConfig(reduction_ratio=0)

    def test_bad_combine_mode(self):
        for mode in ("both", "paper_literal"):
            with pytest.raises(ConfigError, match="combine_mode"):
                MMBAttnConfig(combine_mode=mode)

    def test_hidden_width_clamped(self):
        assert hidden_width(8, 3) == 2
        assert hidden_width(2, 5) == 1

    @pytest.mark.parametrize("toggles", [(True, True, True), (True, False, False),
                                         (False, True, False), (False, False, True),
                                         (True, True, False)])
    def test_param_count_matches_enumeration(self, toggles):
        use_max, use_mean, use_bit = toggles
        cfg = MMBAttnConfig(use_max=use_max, use_mean=use_mean, use_bitwise=use_bit,
                            reduction_ratio=3)
        f, d = 7, 4
        total = sum(a.size for a in init_attn_params(cfg, f, d, seed=2).values())
        assert total == param_count(cfg, f, d)

    def test_param_count_formula_value(self):
        # F=7, R=3: field branches 2 * (2 * 7 * 2) = 56; bit: C=28, h=9 -> 2*28*9=504
        cfg = MMBAttnConfig(reduction_ratio=3)
        assert param_count(cfg, 7, 4) == 2 * (2 * 7 * 2) + 2 * (28 * 9)


class TestLayout:
    def test_registry_weights_are_in_out(self):
        f, d, r = 3, 2, 2
        schema = FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(f)),
                             label_column="y")
        vocab = Vocabulary([{"a": 1}] * f, [None] * f)
        model = build(schema, vocab, d, MMBAttnConfig(reduction_ratio=r),
                      TowerConfig((4,)), seed=1)
        for branch, c in (("max", f), ("mean", f), ("bit", f * d)):
            h = hidden_width(c, r)
            assert model.registry[f"attn.{branch}.w1"].shape == (c, h)
            assert model.registry[f"attn.{branch}.w2"].shape == (h, c)

    def test_initial_values_are_the_out_in_draw_with_axes_swapped(self):
        f, d, r, seed = 3, 2, 2, 4
        schema = FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(f)),
                             label_column="y")
        vocab = Vocabulary([{"a": 1}] * f, [None] * f)
        model = build(schema, vocab, d, MMBAttnConfig(reduction_ratio=r),
                      TowerConfig((4,)), seed)
        for branch, c in (("max", f), ("mean", f), ("bit", f * d)):
            h = hidden_width(c, r)
            std = 1.0 / np.sqrt(c)
            for part, shape in (("w1", (h, c)), ("w2", (c, h))):
                rng = np.random.default_rng(derive_seed(seed, f"init:attn.{branch}.{part}"))
                drawn = rng.normal(0.0, std, size=shape)
                stored = model.registry[f"attn.{branch}.{part}"].data
                assert stored.flags["C_CONTIGUOUS"]
                assert np.array_equal(stored, drawn.T)
