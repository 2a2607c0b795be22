import hashlib
import itertools
import math
import os
import re

import numpy as np
import pytest

from mmbattn import gradcheck
from mmbattn.attention import ABLATION_ROWS, MMBAttnConfig, param_count
from mmbattn.autograd import Graph, stable_sigmoid
from mmbattn.checkpoint import load_checkpoint, restore_model, save_checkpoint
from mmbattn.data import CATEGORICAL, Batch, FieldSchema, SynthSpec, Vocabulary, synth_generate
from mmbattn.errors import ConfigError
from mmbattn.gradcheck import check_model, run_gradcheck
from mmbattn.model import TRAINING_COPIES, TowerConfig, build, check_fits
from mmbattn.training import TrainConfig, train

ATTN_OFF = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)


def schema_of(n_fields):
    return FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(n_fields)),
                       label_column="y")


def vocab_of(sizes):
    return Vocabulary([{f"v{k}": k + 1 for k in range(s - 1)} for s in sizes],
                      [None] * len(sizes))


def batch_of(indices, labels=None):
    idx = np.asarray(indices, dtype=np.uint32)
    y = np.zeros(idx.shape[0]) if labels is None else np.asarray(labels, float)
    return Batch(idx, y)


def predict(model, batch):
    """Forward-only click probabilities, as evaluate computes them."""
    return stable_sigmoid(model.forward_logits(Graph(record=False), batch).data)


class TestForward:
    def test_zero_parameters_give_half(self):
        model = build(schema_of(3), vocab_of([4, 4, 4]), 2,
                      MMBAttnConfig(reduction_ratio=2), TowerConfig((4,)), seed=1)
        for t in model.registry.values():
            t.data[...] = 0.0
        probs = predict(model, batch_of([[1, 2, 3], [0, 0, 0]]))
        assert probs.tolist() == [0.5, 0.5]

    def test_output_shape_matches_labels(self):
        model = build(schema_of(2), vocab_of([3, 3]), 2, ATTN_OFF, TowerConfig((4,)), seed=1)
        batch = batch_of([[1, 1], [2, 2], [0, 1]])
        assert predict(model, batch).shape == batch.labels.shape

    def test_single_row_pencil_and_paper(self):
        # F=2, d=2, attention off, tower [2]; all weights hand-set.
        model = build(schema_of(2), vocab_of([3, 3]), 2, ATTN_OFF, TowerConfig((2,)), seed=0)
        model.registry["embed.f0"].data[...] = [[0, 0], [0.5, -1.0], [0, 0]]
        model.registry["embed.f1"].data[...] = [[0, 0], [0, 0], [2.0, 0.25]]
        w0 = np.array([[1.0, -0.5], [0.25, 0.5], [-1.0, 0.75], [0.5, 1.0]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[2.0], [-1.5]])
        b1 = np.array([0.3])
        model.registry["tower.0.weight"].data[...] = w0
        model.registry["tower.0.bias"].data[...] = b0
        model.registry["tower.1.weight"].data[...] = w1
        model.registry["tower.1.bias"].data[...] = b1
        got = float(predict(model, batch_of([[1, 2]]))[0])

        # by hand: x = [0.5, -1.0, 2.0, 0.25]
        x = [0.5, -1.0, 2.0, 0.25]
        h = [max(0.0, sum(x[i] * w0[i, j] for i in range(4)) + b0[j]) for j in range(2)]
        logit = sum(h[j] * w1[j, 0] for j in range(2)) + b1[0]
        want = 1.0 / (1.0 + math.exp(-logit))
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("record", [True, False])
    def test_400_wide_tower_equals_out_of_place_numpy_bit_for_bit(self, record):
        # attention off, so the tower's input is the gathered embedding rows
        sizes, n = [50] * 10, 256
        model = build(schema_of(10), vocab_of(sizes), 10, ATTN_OFF,
                      TowerConfig((400, 400, 400)), seed=4)
        rng = np.random.default_rng(1)
        for i in range(4):  # biases start at zero; give them something to add
            model.registry[f"tower.{i}.bias"].data[...] = rng.normal(size=400 if i < 3 else 1)
        idx = rng.integers(0, 50, (n, 10))
        x = np.concatenate([model.registry[f"embed.f{f}"].data[idx[:, f]]
                            for f in range(10)], axis=1)
        for i in range(4):
            w, b = (model.registry[f"tower.{i}.{part}"].data for part in ("weight", "bias"))
            x = x @ w + b
            if i < 3:
                x = np.maximum(x, 0.0)
        got = model.forward_logits(Graph(record=record), batch_of(idx)).data
        assert got.tobytes() == x.reshape(n).tobytes()

    def test_probabilities_in_open_interval(self):
        model = build(schema_of(2), vocab_of([5, 5]), 3,
                      MMBAttnConfig(), TowerConfig((8,)), seed=3)
        probs = predict(model, batch_of(np.random.default_rng(0).integers(0, 5, (50, 2))))
        assert np.all(probs > 0) and np.all(probs < 1)


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build(schema_of(2), vocab_of([4, 4]), 2, MMBAttnConfig(), TowerConfig((4,)), seed=7)
        b = build(schema_of(2), vocab_of([4, 4]), 2, MMBAttnConfig(), TowerConfig((4,)), seed=7)
        assert list(a.registry) == list(b.registry)
        for name in a.registry:
            assert np.array_equal(a.registry[name].data, b.registry[name].data)

    def test_attn_disabled_registry_has_no_attn_names(self):
        off = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)
        model = build(schema_of(2), vocab_of([4, 4]), 2, off, TowerConfig((4,)), seed=1)
        assert not any(name.startswith("attn.") for name in model.registry)
        model2 = build(schema_of(2), vocab_of([4, 4]), 2, ATTN_OFF, TowerConfig((4,)), seed=1)
        assert list(model.registry) == list(model2.registry)

    def test_registry_order_documented(self):
        model = build(schema_of(2), vocab_of([4, 4]), 2,
                      MMBAttnConfig(reduction_ratio=2), TowerConfig((4,)), seed=1)
        assert list(model.registry) == [
            "embed.f0", "embed.f1",
            "attn.max.w1", "attn.max.w2", "attn.mean.w1", "attn.mean.w2",
            "attn.bit.w1", "attn.bit.w2",
            "tower.0.weight", "tower.0.bias", "tower.1.weight", "tower.1.bias"]

    def test_parameter_count_closed_form(self):
        f, d, v = 3, 2, 5
        hidden = (4, 3)
        attn = MMBAttnConfig(reduction_ratio=2)
        model = build(schema_of(f), vocab_of([v] * f), d, attn,
                      TowerConfig(hidden), seed=2)
        total = sum(t.size for t in model.registry.values())
        embed = f * v * d
        tower = (f * d) * 4 + 4 + 4 * 3 + 3 + 3 * 1 + 1
        assert total == embed + param_count(attn, f, d) + tower

    def test_toggling_attention_leaves_other_inits_unchanged(self):
        kwargs = dict(d=2, tower=TowerConfig((4,)), seed=11)
        on = build(schema_of(2), vocab_of([4, 4]), attn=MMBAttnConfig(), **kwargs)
        off = build(schema_of(2), vocab_of([4, 4]), attn=ATTN_OFF, **kwargs)
        for name in off.registry:
            assert np.array_equal(on.registry[name].data, off.registry[name].data)

    def test_invalid_widths_rejected(self):
        with pytest.raises(ConfigError):
            build(schema_of(2), vocab_of([4, 4]), 0, ATTN_OFF, TowerConfig((4,)), seed=1)
        with pytest.raises(ConfigError):
            TowerConfig((0,))

    @pytest.mark.parametrize("spare, refused", [(0, False), (-1, True)])
    def test_memory_bound_counts_the_training_state(self, monkeypatch, spare, refused):
        # params, grads, Adam's m and v, and the best epoch: five float64
        # copies of the parameters (Adam's scratch is one block long)
        args = (schema_of(3), vocab_of([4] * 3), 2, MMBAttnConfig(reduction_ratio=2),
                TowerConfig((4,)))
        assert TRAINING_COPIES == 5
        memory = TRAINING_COPIES * 8 * build(*args, seed=1).params.size + spare
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1,
                                            "SC_PHYS_PAGES": memory}.__getitem__)
        if not refused:
            check_fits(*args)
            return
        with pytest.raises(ConfigError, match=re.escape(
                f"model.hidden_sizes: training the model needs at least {memory + 1:,} "
                f"bytes, more than the {memory:,} bytes of physical memory")):
            check_fits(*args)

    def test_module_maps_fd_to_fd(self):
        # plug-and-play: tower input width is F*d with or without attention
        for attn in (ATTN_OFF, MMBAttnConfig(reduction_ratio=2)):
            model = build(schema_of(3), vocab_of([4] * 3), 2, attn,
                          TowerConfig((5,)), seed=4)
            assert model.registry["tower.0.weight"].shape == (6, 5)


def assert_layout(model):
    """``model.layout`` tiles ``params`` in registry order, and each registry
    tensor's data and grad sit at its layout offset."""
    assert [name for name, _, _ in model.layout] == list(model.registry)
    end = 0
    for name, shape, offset in model.layout:
        assert offset == end, name
        t = model.registry[name]
        assert t.shape == shape, name
        for arr, store in ((t.data, model.params), (t.grad, model.grads)):
            assert np.shares_memory(arr, store), name
            assert arr.ctypes.data == store.ctypes.data + 8 * offset, name
        end = offset + math.prod(shape)
    assert end == model.params.size == model.grads.size


class TestParameterStore:
    def test_registry_views_survive_train_restore_and_checkpoint(self, tmp_path):
        spec = SynthSpec(n_rows=600, cardinalities=(3, 4, 5), informative=(0,),
                         weight_scale=4.0, seed=2)
        tr, va, te, _ = synth_generate(spec)
        model = build(spec.schema(), spec, 2,
                      MMBAttnConfig(reduction_ratio=2), TowerConfig((4,)), seed=3)
        assert_layout(model)
        before = model.params.copy()
        train(model, tr, va, te, TrainConfig(batch_size=64, max_epochs=1), run_seed=1)
        assert not np.array_equal(before, model.params)
        assert_layout(model)
        np.copyto(model.params, before)
        assert np.array_equal(model.params, before)
        assert_layout(model)
        path = tmp_path / "m.mmbc"
        save_checkpoint(path, model.registry, bytes(32))
        model.params[...] = 0.0
        restore_model(model, load_checkpoint(path))
        assert np.array_equal(model.params, before)
        assert_layout(model)

    def test_stacked_table_rows_are_field_views(self):
        model = build(schema_of(2), vocab_of([3, 5]), 2, ATTN_OFF, TowerConfig((4,)), seed=1)
        table = model.embedding.table.data
        assert table.shape == (8, 2)
        assert np.array_equal(table[:3], model.registry["embed.f0"].data)
        assert np.array_equal(table[3:], model.registry["embed.f1"].data)
        assert np.shares_memory(table, model.params[:16])


# SHA-256 of the initial parameter vector of a 3-field model (vocab sizes
# 4, 3, 5; d 2; R 2; tower 4, 3; seed 7) under each ablation row.
INIT_SHA256 = {
    "base": "c33cc6e12ab5f4045df68d84cb627247f1bb7708f243c41d9d5a99a2edc42abe",
    "mean": "017868e532480d8f58b2e8941f71d6c44b39081f4a08d91893c22960c95032c4",
    "max": "8891a71a53d87a5ea9d4600fb2ad7c3e50d99f9b13b0c43292877ca567f539be",
    "bitwise": "e07ae94b6036163639da22aed8177705f598ad528d43e79a7965c973e34b3179",
    "max_mean": "2c217d514940a31907d4821eb456e0213e6241195fcdd5f5862e8388ff98cd11",
    "max_mean_bitwise": "acbecab5b02925530735e15ca203e316f05f47f89b2698cff4902fb921f50898",
}


def build_row(toggles):
    use_max, use_mean, use_bit = toggles
    attn = MMBAttnConfig(use_max=use_max, use_mean=use_mean, use_bitwise=use_bit,
                         reduction_ratio=2)
    return build(schema_of(3), vocab_of([4, 3, 5]), 2, attn, TowerConfig((4, 3)), seed=7)


@pytest.mark.parametrize("slug, toggles", [(slug, t) for _, slug, t in ABLATION_ROWS],
                         ids=[slug for _, slug, _ in ABLATION_ROWS])
class TestLayout:
    def test_initial_parameters_are_pinned(self, slug, toggles):
        model = build_row(toggles)
        assert hashlib.sha256(model.params.tobytes()).hexdigest() == INIT_SHA256[slug]

    def test_layout_tiles_params_and_places_every_view(self, slug, toggles, tmp_path):
        model = build_row(toggles)
        assert_layout(model)
        path = tmp_path / "m.mmbc"
        save_checkpoint(path, model.registry, bytes(32))
        assert load_checkpoint(path).entries == list(model.layout)


class TestEndToEndGradcheck:
    def test_tiny_model_all_parameters(self):
        # F=3, d=2, tower [4]: every registered parameter within 1e-4 of
        # central finite differences
        rng = np.random.default_rng(17)
        schema, vocab = schema_of(3), vocab_of([4, 4, 4])
        batch = batch_of(rng.integers(0, 4, size=(6, 3)),
                         rng.integers(0, 2, size=6))
        model = build(schema, vocab, 2, MMBAttnConfig(reduction_ratio=2),
                      TowerConfig((4,)), seed=13)
        errs = check_model(model, batch)
        assert max(errs.values()) < 1e-4

    def test_run_gradcheck_covers_all_combos(self):
        rng = np.random.default_rng(18)
        schema, vocab = schema_of(3), vocab_of([4, 4, 4])
        batch = batch_of(rng.integers(0, 4, size=(4, 3)),
                         rng.integers(0, 2, size=4))
        worst = run_gradcheck(schema, vocab, batch, 2, TowerConfig((4,)),
                              reduction_ratio=2, seeds=(19,))
        assert max(worst.values()) < 1e-4
        assert set(worst) == {
            "embed.f0", "embed.f1", "embed.f2",
            "attn.max.w1", "attn.max.w2", "attn.mean.w1", "attn.mean.w2",
            "attn.bit.w1", "attn.bit.w2",
            "tower.0.weight", "tower.0.bias", "tower.1.weight", "tower.1.bias"}

    def test_run_gradcheck_builds_every_toggle_triple_for_every_seed(self, monkeypatch):
        built = []

        def recording_build(schema, vocab, d, attn, tower, seed):
            built.append((seed, (attn.use_max, attn.use_mean, attn.use_bitwise)))
            return build(schema, vocab, d, attn, tower, seed)

        monkeypatch.setattr(gradcheck, "build", recording_build)
        rng = np.random.default_rng(20)
        batch = batch_of(rng.integers(0, 3, size=(2, 2)), rng.integers(0, 2, size=2))
        run_gradcheck(schema_of(2), vocab_of([3, 3]), batch, 1, TowerConfig((2,)),
                      reduction_ratio=2, seeds=(4, 7))
        triples = set(itertools.product((False, True), repeat=3))
        assert sorted(built) == sorted((seed, t) for seed in (4, 7) for t in triples)
