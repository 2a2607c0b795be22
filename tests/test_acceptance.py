"""Acceptance suite: one test per criterion, one printed line per criterion."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mmbattn import cli
from mmbattn.attention import MMBAttnConfig
from mmbattn.autograd import Graph, Tensor
from mmbattn.checkpoint import load_checkpoint, restore_model, save_checkpoint
from mmbattn.config import load_run_config, load_schema, load_synth_spec
from mmbattn.data import batches, build_vocab_rows, encode_rows, read_table
from mmbattn.model import TowerConfig, build
from mmbattn.training import TrainConfig, auc, bce_loss, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def report(capsys):
    def _report(name, ok, detail=""):
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
                  + (f" ({detail})" if detail else ""))
        assert ok, f"{name}: {detail}"
    return _report


def _metrics_without_timing(path):
    return [{k: v for k, v in json.loads(line).items() if k != "seconds"}
            for line in Path(path).read_text().splitlines()]


class TestGradientFidelity:
    def test_gradcheck_tiny_model(self, report, capsys):
        start = time.perf_counter()
        rc = cli.main(["gradcheck", "--config", str(CONFIGS / "gradcheck.conf")])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        worst = max(float(line.split()[-1]) for line in out.splitlines()
                    if "max relative error" in line
                    and not line.startswith("overall"))
        report("gradient fidelity",
               rc == 0 and worst < 1e-4 and elapsed < 30.0,
               f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestMetricOracles:
    def test_auc_exact_vs_pairwise_and_bce_vs_direct(self, report):
        rng = np.random.default_rng(2024)
        auc_ok = True
        for _ in range(200):
            n = int(rng.integers(2, 1001))
            scores = rng.integers(0, 12, size=n) / 12.0  # heavy ties
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.sum() in (0, n):
                labels[0] = 1.0 - labels[0]
            pos = scores[labels == 1.0]
            neg = scores[labels == 0.0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
            if auc(scores, labels) != oracle:
                auc_ok = False
                break

        y_hat = rng.uniform(1e-6, 1 - 1e-6, size=1000)
        y = rng.integers(0, 2, size=1000).astype(float)
        direct = float(-np.mean(y * np.log(y_hat) + (1 - y) * np.log(1 - y_hat)))
        bce_ok = abs(bce_loss(y_hat, y) - direct) < 1e-12
        report("metric oracles", auc_ok and bce_ok,
               f"200 AUC cases exact, bce delta {abs(bce_loss(y_hat, y) - direct):.1e}")


def _tiny_model(attn, seed=3):
    from mmbattn.data import CATEGORICAL, FieldSchema, Vocabulary
    schema = FieldSchema(fields=tuple((f"f{i}", CATEGORICAL) for i in range(3)),
                         label_column="y")
    vocab = Vocabulary([{f"v{k}": k + 1 for k in range(3)}] * 3, [None] * 3)
    return build(schema, vocab, 2, attn, TowerConfig((4,)), seed=seed)


class TestZeroInitFixedPoints:
    def test_zero_parameters(self, report):
        from mmbattn.data import Batch
        model = _tiny_model(MMBAttnConfig(reduction_ratio=2))
        for t in model.registry.values():
            t.data[...] = 0.0
        batch = Batch(np.array([[1, 2, 3], [0, 1, 2]], dtype=np.uint32),
                      np.array([1.0, 0.0]))
        collect = {}
        g = Graph(record=False)
        probs = g.sigmoid(model.forward_logits(g, batch, collect)).data
        weights_ok = (
            np.array_equal(collect["w_max"].data, np.full((2, 3), 0.5))
            and np.array_equal(collect["w_mean"].data, np.full((2, 3), 0.5))
            and np.array_equal(collect["w_mm"].data, np.ones((2, 3)))
            and np.array_equal(collect["w_bit"].data, np.full((2, 6), 0.5)))
        probs_ok = probs.tolist() == [0.5, 0.5]
        loss = bce_loss(probs, batch.labels)
        loss_ok = abs(loss - math.log(2)) < 1e-12
        report("zero-init fixed points", weights_ok and probs_ok and loss_ok,
               f"weights 0.5, W^MM 1.0, prob 0.5, bce-ln2 {abs(loss - math.log(2)):.1e}")


class TestIdentityAblation:
    def test_all_toggles_off_is_identity(self, report):
        from mmbattn.attention import AttnParams, apply_attention
        rng = np.random.default_rng(7)
        cfg = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)
        ok = True
        for _ in range(20):
            e = rng.normal(size=(4, 5, 3))
            out = apply_attention(Graph(), Tensor(e), AttnParams(), cfg)
            if out.data.tobytes() != e.reshape(4, 15).tobytes():
                ok = False
                break
        report("identity ablation", ok, "bit-identical on 20 random inputs")


@pytest.fixture(scope="module")
def planted_runs(tmp_path_factory):
    """Train full-attention and base models on the bundled planted spec."""
    out_root = tmp_path_factory.mktemp("planted")
    cfg = load_run_config(CONFIGS / "planted.conf")
    spec = load_synth_spec(cfg.path("data.synth"))
    prepared = cli.prepare_data(cfg)
    base_cfg = cfg.override({"attn.use_max": "false", "attn.use_mean": "false",
                             "attn.use_bitwise": "false"})
    start = time.perf_counter()
    full = {}
    for seed in cfg.seeds:
        run_dir = out_root / "full" / f"seed_{seed}"
        rep = cli.run_single(cfg, seed, run_dir, prepared)
        # the weights are read back from the run's own checkpoint
        model = build(prepared.schema, prepared.vocab, cfg.embedding_dim,
                      cfg.attn_config(), cfg.tower_config(), seed=0)
        restore_model(model, load_checkpoint(run_dir / "checkpoint.mmbc"),
                      expected_digest=cfg.digest(seed))
        weights = np.concatenate(
            [model.field_weights(b) for b in batches(prepared.test, 16384)])
        full[seed] = {"auc": rep.auc, "mean_weights": weights.mean(axis=0)}
    full_seconds = time.perf_counter() - start
    base = {}
    for seed in cfg.seeds:
        rep = cli.run_single(base_cfg, seed, out_root / "base" / f"seed_{seed}",
                             prepared)
        base[seed] = {"auc": rep.auc}
    return {"spec": spec, "truth": prepared.truth, "full": full, "base": base,
            "full_seconds": full_seconds, "out_root": out_root}


@pytest.mark.slow
class TestPlantedImportanceRecovery:
    def test_recovery(self, planted_runs, report):
        spec = planted_runs["spec"]
        truth = planted_runs["truth"]
        informative = list(spec.informative)
        noise = [f for f in range(spec.n_fields) if f not in informative]
        passed = 0
        details = []
        for seed, run in planted_runs["full"].items():
            gap = abs(run["auc"] - truth.bayes_auc)
            w = run["mean_weights"]
            ordered = w[informative].min() > w[noise].max()
            ok = gap <= 0.01 and ordered
            passed += ok
            details.append(f"seed {seed}: gap {gap:.4f} ordered {ordered}")
        ok = passed >= 4 and planted_runs["full_seconds"] < 600
        report("planted-importance recovery", ok,
               f"{passed}/5 seeds, {planted_runs['full_seconds']:.0f}s; "
               + "; ".join(details))


@pytest.mark.slow
class TestAblationDirection:
    def test_full_at_least_base(self, planted_runs, report):
        full_mean = float(np.mean([r["auc"] for r in planted_runs["full"].values()]))
        base_mean = float(np.mean([r["auc"] for r in planted_runs["base"].values()]))
        report("ablation direction", full_mean >= base_mean,
               f"full {full_mean:.5f} vs base {base_mean:.5f} over 5 shared seeds")


class TestFrappeStretch:
    def test_frappe_ingest_and_train(self, report):
        data_dir = os.environ.get("MMBATTN_FRAPPE_DIR")
        if not data_dir:
            pytest.skip("set MMBATTN_FRAPPE_DIR to run the Frappe stretch check")
        schema = load_schema(CONFIGS / "frappe_schema.conf")
        tables = {split: read_table(Path(data_dir) / f"{split}.csv", schema.delimiter)
                  for split in ("train", "valid", "test")}
        n_total = sum(len(rows) for _, rows in tables.values())
        fields_ok = schema.n_fields == 10
        count_ok = n_total == 288_609
        header, rows = tables["train"]
        vocab = build_vocab_rows(header, rows, schema)
        splits = {split: encode_rows(h, r, schema, vocab)
                  for split, (h, r) in tables.items()}
        model = build(schema, vocab, 10, MMBAttnConfig(reduction_ratio=3),
                      TowerConfig((400, 400, 400)), seed=1)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4096, max_epochs=10,
                          patience=2)
        rep = train(model, splits["train"], splits["valid"], splits["test"],
                    cfg, run_seed=1)
        ok = fields_ok and count_ok and rep.auc > 0.97
        if not ok:
            # the stretch check alone must not fail the suite
            pytest.xfail(f"frappe stretch: n={n_total}, auc={rep.auc:.4f}")
        report("frappe stretch", ok,
               f"{n_total} instances, {schema.n_fields} fields, auc {rep.auc:.4f}")


class TestDeterminism:
    def test_rerun_bit_identical(self, report, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = cli.main(["train", "--config", str(CONFIGS / "tiny.conf"),
                           "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        ok = True
        for seed in (1, 2):
            ma = _metrics_without_timing(outs[0] / f"seed_{seed}" / "metrics.jsonl")
            mb = _metrics_without_timing(outs[1] / f"seed_{seed}" / "metrics.jsonl")
            ca = (outs[0] / f"seed_{seed}" / "checkpoint.mmbc").read_bytes()
            cb = (outs[1] / f"seed_{seed}" / "checkpoint.mmbc").read_bytes()
            ok = ok and ma == mb and ca == cb
        report("determinism", ok, "metrics and checkpoints bit-identical")


class TestCheckpointRoundTrip:
    def test_save_load_save_byte_identical(self, report, tmp_path):
        model = _tiny_model(MMBAttnConfig(reduction_ratio=2), seed=8)
        digest = bytes(range(32))
        p1, p2 = tmp_path / "a.mmbc", tmp_path / "b.mmbc"
        save_checkpoint(p1, model.registry, digest)
        ckpt = load_checkpoint(p1)
        other = _tiny_model(MMBAttnConfig(reduction_ratio=2), seed=99)
        restore_model(other, ckpt, expected_digest=digest)
        save_checkpoint(p2, other.registry, ckpt.digest)
        ok = p1.read_bytes() == p2.read_bytes()
        report("checkpoint round-trip", ok, "save-load-save byte-identical")
