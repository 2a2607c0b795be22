import math
import tracemalloc

import numpy as np
import pytest

from mmbattn import training
from mmbattn.attention import MMBAttnConfig
from mmbattn.autograd import Graph, Tensor, stable_sigmoid
from mmbattn.data import CATEGORICAL, Batch, FieldSchema, SynthSpec, Vocabulary, synth_generate
from mmbattn.errors import ConfigError, ContractError, DataError, TrainingError
from mmbattn.model import TRAINING_COPIES, TowerConfig, build
from mmbattn.training import (EvalReport, TrainConfig, adam_step, auc, bce_loss,
                              bce_with_logits, evaluate, init_adam_state, train)

ATTN_OFF = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)


def pairwise_auc_oracle(scores, labels):
    """O(n^2) all-pairs AUC; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def stable_midrank_auc(scores, labels):
    """Midrank AUC over a stable sort, as ``auc`` computed it before it
    took numpy's default sort: the bit-for-bit reference."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int(y.sum())
    order = np.argsort(s, kind="stable")
    boundaries = np.nonzero(np.diff(s[order]))[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries, [s.size - 1]))
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return (float(ranks[y == 1.0].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * (y.size - n_pos))


class TestBceLoss:
    def test_half_probability_is_ln2(self):
        assert bce_loss([0.5], [1.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_confident_correct_tends_to_zero(self):
        assert bce_loss([1 - 1e-12, 1e-12], [1.0, 0.0]) < 1e-10

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(0)
        y_hat = rng.uniform(1e-6, 1 - 1e-6, size=200)
        y = rng.integers(0, 2, size=200).astype(float)
        oracle = -np.mean(y * np.log(y_hat) + (1 - y) * np.log(1 - y_hat))
        assert abs(bce_loss(y_hat, y) - oracle) < 1e-12

    def test_exact_zero_one_probabilities_cost_nothing(self):
        # 0 * log(0) would be nan and warn; only the true class's log is taken
        assert bce_loss([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert bce_loss([1.0, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2) / 2, abs=1e-15)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ContractError, match="^labels must be 0 or 1$"):
            bce_loss([0.5], [0.7])

    @pytest.mark.parametrize("y_hat, y", [([[0.9], [0.1]], [1.0, 0.0]),
                                          ([0.9, 0.1, 0.5], [1.0])])
    def test_unequal_shapes_refused_not_broadcast(self, y_hat, y):
        with pytest.raises(ContractError, match="^probabilities shape .* != labels shape "):
            bce_loss(y_hat, y)


class TestBceWithLogits:
    def test_logit_gradient_is_residual_over_n(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=32)
        y = rng.integers(0, 2, size=32).astype(float)
        logits = Tensor(z)
        g = Graph()
        g.backward(bce_with_logits(g, logits, y))
        assert np.array_equal(logits.grad, (stable_sigmoid(z) - y) / 32)

    def test_stable_equals_naive_on_moderate_range(self):
        # within 1e-9 wherever y_hat is in [1e-7, 1 - 1e-7]
        rng = np.random.default_rng(2)
        z = rng.uniform(-16, 16, size=500)
        y = rng.integers(0, 2, size=500).astype(float)
        y_hat = stable_sigmoid(z)
        assert np.all(y_hat >= 1e-7) and np.all(y_hat <= 1 - 1e-7)
        stable = float(bce_with_logits(Graph(record=False), Tensor(z), y).data)
        assert abs(stable - bce_loss(y_hat, y)) < 1e-9

    def test_zero_logits_give_ln2(self):
        val = float(bce_with_logits(Graph(record=False), Tensor(np.zeros(5)),
                                    np.ones(5)).data)
        assert abs(val - math.log(2)) < 1e-12

    def test_extreme_logits_finite(self):
        val = float(bce_with_logits(Graph(record=False), Tensor([1000.0, -1000.0]),
                                    np.array([0.0, 1.0])).data)
        assert np.isfinite(val) and val == pytest.approx(1000.0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1.0, 0.0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1.0, 0.0, 1.0, 0.0]) == 0.5

    def test_exact_match_with_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 1001))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 10, size=n) / 10.0
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                labels[0] = 1.0 - labels[0]
            assert auc(scores, labels) == pairwise_auc_oracle(scores, labels)

    def test_bit_equal_to_stable_sort_reference_on_ties(self):
        rng = np.random.default_rng(22)
        for size in [None] * 300 + [200_000]:  # 300 random sizes, then one large split
            n = size or int(rng.integers(2, 20001))
            # a few distinct values, signed zeros among them: large tie groups
            scores = rng.integers(-4, 5, size=n) * float(rng.choice([0.25, 1e-300, 3.0]))
            scores[rng.random(n) < 0.1] = -0.0
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                labels[0] = 1.0 - labels[0]
            assert auc(scores, labels) == stable_midrank_auc(scores, labels)

    def test_single_class_undefined(self):
        with pytest.raises(DataError):
            auc([0.1, 0.2], [1.0, 1.0])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ContractError, match="^labels must be 0 or 1$"):
            auc([0.1, 0.2], [0.0, 2.0])

    @pytest.mark.parametrize("scores, labels", [
        ([math.nan, 0.5], [1.0, 0.0]),
        ([0.2, math.nan, 0.9], [1.0, 0.0, 1.0]),
        ([math.inf, 0.5], [1.0, 0.0]),
    ])
    def test_non_finite_scores_rejected(self, scores, labels):
        with pytest.raises(ContractError, match="^scores must be finite$"):
            auc(scores, labels)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=500)
        y = rng.integers(0, 2, size=500).astype(float)
        base = auc(s, y)
        assert auc(2 * s + 1, y) == base
        assert auc(stable_sigmoid(s), y) == base


class TestAdam:
    def make_registry(self, values):
        return {"w": np.asarray(values, float)}

    def test_zero_gradient_leaves_parameters_unchanged(self):
        reg = self.make_registry([1.0, -2.0])
        state = init_adam_state(reg)
        adam_step(reg, {"w": np.zeros(2)}, state, TrainConfig(), t=1)
        assert reg["w"].tolist() == [1.0, -2.0]

    def test_first_step_moves_by_lr_sign(self):
        cfg = TrainConfig(learning_rate=0.01)
        reg = self.make_registry([1.0, 1.0])
        state = init_adam_state(reg)
        adam_step(reg, {"w": np.array([0.5, -0.25])}, state, cfg, t=1)
        # bias-corrected m/sqrt(v) is sign(g) on step 1, up to eps effects
        assert np.allclose(reg["w"], [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)

    def test_converges_on_quadratic_bowl(self):
        # minimize f(w) = sum((w - target)^2); minimum value is 0
        target = np.array([0.5, -0.25, 0.1])
        reg = self.make_registry([0.0, 0.0, 0.0])
        state = init_adam_state(reg)
        cfg = TrainConfig(learning_rate=0.05)
        for t in range(1, 101):
            grad = 2 * (reg["w"] - target)
            adam_step(reg, {"w": grad}, state, cfg, t)
        assert float(np.sum((reg["w"] - target) ** 2)) < 1e-3

    def test_matches_the_temporary_making_expression_bit_for_bit(self):
        rng = np.random.default_rng(4)
        grads = rng.normal(size=(5, 64)) * np.logspace(-30, 150, 64)
        grads[:, :4] = [0.0, -0.0, 1e150, -1e150]
        p = rng.normal(size=64)
        p[:2] = [0.0, -0.0]
        reg, (m, v) = {"w": p.copy()}, (np.zeros(64), np.zeros(64))
        state = init_adam_state(reg)
        cfg = TrainConfig(learning_rate=0.003)
        for t, g in enumerate(grads, start=1):
            adam_step(reg, {"w": g}, state, cfg, t)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * (g * g)
            p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            got_m, got_v = state["w"][:2]
            assert (reg["w"].tobytes(), got_m.tobytes(), got_v.tobytes()) == \
                (p.tobytes(), m.tobytes(), v.tobytes())

    @pytest.mark.parametrize("size", [1, training.ADAM_BLOCK - 1, training.ADAM_BLOCK,
                                      training.ADAM_BLOCK + 1, 3 * training.ADAM_BLOCK + 7])
    def test_blocked_step_equals_the_dense_ufunc_sequence_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        grads = rng.normal(size=(15, size)) * rng.choice([0.0, 1e-30, 1.0, 1e150], (15, size))
        p = rng.normal(size=size)
        reg = {"w": p.copy()}
        state = init_adam_state(reg)
        block = min(size, training.ADAM_BLOCK)
        assert [x.size for x in state["w"]] == [size, size, block, block]
        m, v, a, b = (np.zeros(size) for _ in range(4))
        cfg = TrainConfig(learning_rate=0.003)
        for t, g in enumerate(grads, start=1):
            adam_step(reg, {"w": g}, state, cfg, t)
            # the same 14 ufuncs over the whole vector at once
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            m *= 0.9
            np.multiply(g, 1.0 - 0.9, out=a)
            m += a
            v *= 0.999
            np.multiply(g, g, out=a)
            a *= 1.0 - 0.999
            v += a
            np.divide(m, c1, out=a)
            a *= cfg.learning_rate
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += 1e-8
            a /= b
            p -= a
        got_m, got_v = state["w"][:2]
        assert (reg["w"].tobytes(), got_m.tobytes(), got_v.tobytes()) == \
            (p.tobytes(), m.tobytes(), v.tobytes())

    def test_step_index_validated(self):
        reg = self.make_registry([1.0])
        with pytest.raises(ContractError):
            adam_step(reg, {"w": np.ones(1)}, init_adam_state(reg), TrainConfig(), t=0)


def tiny_planted():
    # 1 informative near-deterministic binary field + 2 noise fields
    spec = SynthSpec(n_rows=6000, cardinalities=(2, 4, 4), informative=(0,),
                     weight_scale=10.0, seed=7)
    return spec, synth_generate(spec)


class TestEarlyStopping:
    def train_scripted(self, monkeypatch, patience, valid_aucs):
        """Train while the valid split scores the scripted AUCs, one per epoch.

        Returns the emitted records, the parameters at each valid scoring
        and the parameters left after training."""
        spec, (tr, va, te, _) = tiny_planted()
        model = build(spec.schema(), spec, 4, ATTN_OFF,
                      TowerConfig((16,)), seed=1)
        real_evaluate, scripted, params_at = training.evaluate, iter(valid_aucs), []

        def scripted_evaluate(model, data, *args, **kwargs):
            if data is not va:
                return real_evaluate(model, data, *args, **kwargs)
            params_at.append(model.params.copy())
            return EvalReport(auc=next(scripted), logloss=0.5, n=data.n,
                              scores=np.full(data.n, 0.5))

        monkeypatch.setattr(training, "evaluate", scripted_evaluate)
        records = []
        cfg = TrainConfig(batch_size=1024, max_epochs=len(valid_aucs),
                          patience=patience, learning_rate=5e-3)
        train(model, tr, va, te, cfg, run_seed=1, emit=records.append)
        return records, params_at, model.params

    def test_patience_one_stops_after_decline(self, monkeypatch):
        records, params_at, final = self.train_scripted(monkeypatch, 1, [0.9, 0.8, 0.95])
        assert [(r["epoch"], r["split"]) for r in records] == [
            (1, "valid"), (2, "valid"), (2, "test")]
        assert np.array_equal(final, params_at[0])
        assert not np.array_equal(final, params_at[1])

    def test_improvement_resets_patience(self, monkeypatch):
        # epoch 3 improves and resets the count; the tie at epoch 4 does not
        records, params_at, final = self.train_scripted(
            monkeypatch, 2, [0.5, 0.4, 0.6, 0.6, 0.55, 0.99])
        assert [r["auc"] for r in records[:-1]] == [0.5, 0.4, 0.6, 0.6, 0.55]
        assert records[-1]["split"] == "test" and records[-1]["epoch"] == 5
        assert np.array_equal(final, params_at[2])
        assert not np.array_equal(final, params_at[3])


class TestTrainLoop:
    def build_model(self, spec, seed=1, attn=ATTN_OFF):
        return build(spec.schema(), spec, 4, attn,
                     TowerConfig((16,)), seed=seed)

    def test_planted_signal_reaches_high_auc_within_three_epochs(self):
        spec, (tr, va, te, truth) = tiny_planted()
        assert truth.bayes_auc > 0.99
        model = self.build_model(spec)
        cfg = TrainConfig(batch_size=256, max_epochs=3, learning_rate=5e-3)
        report = train(model, tr, va, te, cfg, run_seed=1)
        assert report.auc > 0.95

    def test_same_seed_bitwise_identical_curves(self):
        spec, (tr, va, te, _) = tiny_planted()
        cfg = TrainConfig(batch_size=512, max_epochs=2, learning_rate=1e-3)
        runs = []
        for _ in range(2):
            model = self.build_model(spec)
            records = []
            train(model, tr, va, te, cfg, run_seed=9, emit=records.append)
            runs.append(records)
        assert len(runs[0]) == 3
        for a, b in zip(*runs):
            assert a["auc"] == b["auc"]
            assert a["logloss"] == b["logloss"]
            assert a.get("train_loss") == b.get("train_loss")

    def test_nan_abort_names_batch(self):
        spec, (tr, va, te, _) = tiny_planted()
        model = self.build_model(spec)
        model.registry["tower.0.weight"].data[0, 0] = np.nan
        cfg = TrainConfig(batch_size=512, max_epochs=1)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
            train(model, tr, va, te, cfg, run_seed=1)

    def test_empty_train_split_rejected(self):
        spec, (tr, va, te, _) = tiny_planted()
        model = self.build_model(spec)
        with pytest.raises(ContractError, match="empty"):
            train(model, tr.take(slice(0, 0)), va, te, TrainConfig(max_epochs=1),
                  run_seed=1)

    def test_non_finite_parameters_after_last_step_name_epoch(self):
        # one step per epoch: the step loss stays finite, the update is not
        spec, (tr, va, te, _) = tiny_planted()
        model = self.build_model(spec)
        cfg = TrainConfig(batch_size=tr.n, max_epochs=2, learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError, match=r"epoch 1, valid split: non-finite logit"):
            train(model, tr, va, te, cfg, run_seed=1)

    def test_one_class_valid_split_names_epoch_and_split(self):
        spec, (tr, va, te, _) = tiny_planted()
        model = self.build_model(spec)
        positives = va.take(np.flatnonzero(va.labels == 1.0))
        with pytest.raises(DataError, match=r"^epoch 1, valid split: AUC undefined"):
            train(model, tr, positives, te, TrainConfig(batch_size=1024, max_epochs=1),
                  run_seed=1)

    def test_one_step_decreases_loss_for_some_lr(self):
        # line-search invariant over lr in {1e-2, 1e-3, 1e-4}
        spec, (tr, _, _, _) = tiny_planted()
        frozen = tr.take(slice(0, 512))
        decreased = []
        for lr in (1e-2, 1e-3, 1e-4):
            model = self.build_model(spec, seed=5)
            g = Graph()
            loss = bce_with_logits(g, model.forward_logits(g, frozen), frozen.labels)
            before = float(loss.data)
            model.zero_grad()
            g.backward(loss)
            params = {"params": model.params}
            adam_step(params, {"params": model.grads}, init_adam_state(params),
                      TrainConfig(learning_rate=lr), t=1)
            g2 = Graph(record=False)
            after = float(bce_with_logits(g2, model.forward_logits(g2, frozen),
                                          frozen.labels).data)
            decreased.append(after < before)
        assert any(decreased)

    def test_restores_best_epoch_parameters(self):
        spec, (tr, va, te, _) = tiny_planted()
        model = self.build_model(spec)
        cfg = TrainConfig(batch_size=256, max_epochs=4, learning_rate=5e-3,
                          patience=4)
        report = train(model, tr, va, te, cfg, run_seed=2)
        # test metrics recomputed from the restored model must match
        assert evaluate(model, te).auc == report.auc

    def test_multi_seed_mean_std_recomputable(self):
        spec, (tr, va, te, _) = tiny_planted()
        cfg = TrainConfig(batch_size=512, max_epochs=2, learning_rate=2e-3)
        aucs = []
        for seed in (1, 2, 3):
            model = self.build_model(spec, seed=seed)
            aucs.append(train(model, tr, va, te, cfg, run_seed=seed).auc)
        mean, std = float(np.mean(aucs)), float(np.std(aucs))
        assert mean == np.mean(aucs) and std == np.std(aucs)


class TestTrainingMemory:
    def test_peak_stays_within_the_counted_copies(self):
        # 2 fields x 100,000 ids at d 8: the parameter vector (12.8 MB)
        # dwarfs the activations of a 1,000-row batch through a tower of 8
        ids = 100_000
        schema = FieldSchema(fields=(("a", CATEGORICAL), ("b", CATEGORICAL)),
                             label_column="y")
        vocab = Vocabulary([{f"v{k}": k + 1 for k in range(ids - 1)}] * 2, [None] * 2)
        model = build(schema, vocab, 8, ATTN_OFF, TowerConfig((8,)), seed=1)
        rng = np.random.default_rng(0)

        def split(n):
            idx = rng.integers(0, ids, size=(n, 2), dtype=np.uint32)
            return Batch(idx, (idx[:, 0] % 2).astype(np.float64))

        tr, va, te = split(2000), split(500), split(500)
        cfg = TrainConfig(batch_size=1000, max_epochs=4, patience=4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(model, tr, va, te, cfg, run_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parameters and their gradients exist before train starts
        assert peak - base <= (TRAINING_COPIES - 2 + 0.5) * model.params.nbytes

    @staticmethod
    def paper_shaped_step_peak(n=1024):
        # 10 fields x 50 ids, d 10, full attention, a 400x400x400 tower and
        # n rows.  The first step does the one-off set-up, so the traced
        # second step holds only its own arrays.
        card = (50,) * 10
        spec = SynthSpec(n_rows=10, cardinalities=card, informative=(0,))
        model = build(spec.schema(), spec, 10, MMBAttnConfig(),
                      TowerConfig((400, 400, 400)), seed=1)
        rng = np.random.default_rng(0)
        batch = Batch(rng.integers(0, 50, size=(n, len(card))).astype(np.uint32),
                      (rng.random(n) < 0.5).astype(np.float64))

        def step():
            g = Graph()
            loss = bce_with_logits(g, model.forward_logits(g, batch), batch.labels)
            model.zero_grad()
            g.backward(loss)

        step()
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_paper_shaped_step_peak_stays_under_9_activations(self):
        # One 1024x400 float64 activation is 1024 * 400 * 8 B = 3.125 MiB.
        # The tape keeps one such buffer per hidden layer, as the bias and
        # relu write into the product's.  Three buffers per layer (product,
        # + bias, relu) are nine, 28.1 MiB, on the tape alone: the step then
        # peaked at 37.7 MiB (12 activations), in place at 22.6 MiB (7.2).
        n = 1024
        assert self.paper_shaped_step_peak(n) < 9 * n * 400 * 8

    def test_paper_shaped_step_peak_stays_under_6_activations(self):
        # A node's output is let go before its own backward runs, so a hidden
        # layer's activation is freed before its matmul backward allocates
        # the next gradient; the bit-wise sigmoid and the residual add reuse
        # their product's buffer.  The step peaked at 7.22 activations
        # (22.56 MiB) with the tape holding each output through its own
        # backward, and at 5.67 (17.71 MiB) without.
        n = 1024
        assert self.paper_shaped_step_peak(n) < 6 * n * 400 * 8


class TestEvaluate:
    # te has 600 rows: 100 divides it; 128 does not; 250 and 8192 make
    # fewer batches (3 and 1) than the 4 threads
    @pytest.mark.parametrize("batch_size", [100, 128, 250, 8192])
    def test_sharded_evaluation_matches_single_thread(self, batch_size):
        spec, (tr, va, te, _) = tiny_planted()
        model = build(spec.schema(), spec, 4,
                      MMBAttnConfig(reduction_ratio=2), TowerConfig((8,)), seed=3)
        one = evaluate(model, te, batch_size=batch_size, threads=1)
        many = evaluate(model, te, batch_size=batch_size, threads=4)
        assert one.scores.tobytes() == many.scores.tobytes()
        assert one.auc == many.auc and one.logloss == many.logloss

    def test_planted_evaluation_peak_stays_under_8_mib(self):
        # planted-shaped: 8 fields x 8 ids, d 8, full attention, a 64x64
        # tower; the first call does the one-off set-up, so the traced
        # second call holds only evaluation's own arrays
        card, n = (8,) * 8, 16384
        spec = SynthSpec(n_rows=10, cardinalities=card, informative=(0,))
        model = build(spec.schema(), spec, 8, MMBAttnConfig(),
                      TowerConfig((64, 64)), seed=1)
        rng = np.random.default_rng(0)
        data = Batch(rng.integers(0, 8, size=(n, len(card))).astype(np.uint32),
                     (rng.random(n) < 0.5).astype(np.float64))
        evaluate(model, data)
        tracemalloc.start()
        try:
            evaluate(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_nan_parameter_raises_naming_row_and_group(self):
        spec, (_, _, te, _) = tiny_planted()
        model = build(spec.schema(), spec, 4,
                      MMBAttnConfig(reduction_ratio=2), TowerConfig((8,)), seed=3)
        model.registry["tower.1.bias"].data[0] = np.nan
        with pytest.raises(TrainingError, match=r"non-finite logit at row 0, first "
                                                r"non-finite parameter group: tower.1.bias"):
            evaluate(model, te)

    def test_config_validation(self):
        for lr in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
