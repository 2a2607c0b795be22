import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmbattn import cli
from mmbattn.autograd import Graph, accumulate_grad
from mmbattn.checkpoint import load_checkpoint
from mmbattn.config import load_run_config
from mmbattn.data import SPLITS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_metrics(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def drop_timing(records):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in records]


def write_tiny_config(tmp_path, **extra):
    synth = tmp_path / "synth.conf"
    synth.write_text("synth.rows = 1500\nsynth.fields = 3\n"
                     "synth.cardinality = 5\nsynth.informative = 0,1\n"
                     "synth.weight_scale = 4.0\nsynth.seed = 3\n")
    lines = {
        "run.seeds": "1,2",
        "data.synth": "synth.conf",
        "model.embedding_dim": "3",
        "model.hidden_sizes": "8",
        "attn.reduction_ratio": "2",
        "train.learning_rate": "0.005",
        "train.batch_size": "256",
        "train.max_epochs": "2",
        "train.patience": "2",
    }
    lines.update(extra)
    cfg = tmp_path / "run.conf"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return cfg


class TestTrainCommand:
    def test_bundled_tiny_config_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", str(CONFIGS / "tiny.conf"),
                       "--out", str(out)])
        assert rc == 0
        for seed in (1, 2):
            assert (out / f"seed_{seed}" / "metrics.jsonl").exists()
            assert (out / f"seed_{seed}" / "checkpoint.mmbc").exists()
        records = read_metrics(out / "seed_1" / "metrics.jsonl")
        assert records[-1]["split"] == "test"
        assert all(set(r) >= {"epoch", "split", "auc", "logloss", "seconds"}
                   for r in records)

    def test_unknown_config_key_nonzero_exit(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        rc = cli.main(["train", "--config", str(cfg),
                       "--override", "train.warmup=5"])
        assert rc == 1
        assert "train.warmup" in capsys.readouterr().err

    def test_missing_config_file_nonzero_exit(self, tmp_path, capsys):
        missing = tmp_path / "missing.conf"
        assert cli.main(["train", "--config", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.conf" in err

    def test_missing_data_file_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("run.seeds = 1\ndata.synth = nothere.conf\n")
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "nothere" in capsys.readouterr().err

    def test_seed_override_updates_digest_seed_field_only(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(cfg), "--seed", "1",
                         "--out", str(out_a)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--seed", "5",
                         "--out", str(out_b)]) == 0
        info_a = json.loads((out_a / "seed_1" / "run_info.json").read_text())
        info_b = json.loads((out_b / "seed_5" / "run_info.json").read_text())
        diff = set(info_a["canonical_config"]) ^ set(info_b["canonical_config"])
        assert diff == {"run.seeds = 1", "run.seeds = 5"}

    def test_summary_mean_std_recomputable_from_per_seed_rows(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1,2,3"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        per_seed = [float(r.split(",")[1]) for r in rows[1:-2]]
        mean_row = float(rows[-2].split(",")[1])
        std_row = float(rows[-1].split(",")[1])
        assert mean_row == float(np.mean(per_seed))
        assert std_row == float(np.std(per_seed))

    def test_rerun_is_deterministic(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for seed in (1, 2):
            ma = drop_timing(read_metrics(out_a / f"seed_{seed}" / "metrics.jsonl"))
            mb = drop_timing(read_metrics(out_b / f"seed_{seed}" / "metrics.jsonl"))
            assert ma == mb
            ca = (out_a / f"seed_{seed}" / "checkpoint.mmbc").read_bytes()
            cb = (out_b / f"seed_{seed}" / "checkpoint.mmbc").read_bytes()
            assert ca == cb

    @pytest.mark.parametrize("key, value", [("model.embedding_dim", "999999999994"),
                                            ("model.hidden_sizes", "99999999999")])
    def test_model_too_big_for_memory_refused_and_makes_nothing(self, tmp_path, capsys,
                                                                key, value):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1", key: value})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(cfg))}: {key}: training the model "
                            r"needs at least [\d,]+ bytes, more than the [\d,]+ bytes "
                            r"of physical memory\n",
                            err), err
        assert not out.exists()

    def test_killed_run_keeps_every_record_emitted(self, tmp_path):
        # the child dies without unwinding right after the second record
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        script = ("import os, sys\n"
                  "from mmbattn import cli\n"
                  "real = cli.train\n"
                  "def train(*args, emit, **kwargs):\n"
                  "    seen = []\n"
                  "    def emit_then_die(record):\n"
                  "        emit(record)\n"
                  "        seen.append(record)\n"
                  "        if len(seen) == 2:\n"
                  "            os._exit(9)\n"
                  "    return real(*args, emit=emit_then_die, **kwargs)\n"
                  "cli.train = train\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, "train", "--config", str(cfg),
                               "--out", str(out)], env={"PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 9, proc.stderr
        records = read_metrics(out / "seed_1" / "metrics.jsonl")
        assert [(r["epoch"], r["split"]) for r in records] == [(1, "valid"), (2, "valid")]

    def test_default_out_is_runs_under_the_config_stem(self, tmp_path, monkeypatch):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1", "train.max_epochs": "1"})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "runs" / "run" / "seed_1" / "checkpoint.mmbc").is_file()

    def test_out_path_that_is_a_file_exits_with_error(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        out.write_text("")
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out / 'seed_1'}: Not a directory\n"

    @pytest.mark.parametrize("argv, run_dir", [
        (["train"], "seed_1"),
        (["ablate"], "base/seed_1"),
        (["sweep", "--axis", "reduction_ratio", "--values", "2,3"], "reduction_ratio_2/seed_1"),
    ], ids=["train", "ablate", "sweep"])
    @pytest.mark.parametrize("file_at, reason", [("out", "Not a directory"),
                                                 ("run_dir", "File exists")])
    def test_bad_out_refused_before_data_is_read(self, tmp_path, capsys, monkeypatch,
                                                 argv, run_dir, file_at, reason):
        def prepare_data(cfg):
            pytest.fail("prepare_data ran for an --out where no run directory can be made")

        monkeypatch.setattr(cli, "prepare_data", prepare_data)
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        blocker = out / run_dir if file_at == "run_dir" else out
        blocker.parent.mkdir(parents=True, exist_ok=True)
        blocker.write_text("")
        assert cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
        assert capsys.readouterr().err == f"error: {out / run_dir}: {reason}\n"
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("flags, extra", [
        (["--seed", "1", "--seed", "1"], {}),
        ([], {"run.seeds": "1,2,1"}),
    ])
    def test_repeated_seed_refused(self, tmp_path, capsys, flags, extra):
        cfg = write_tiny_config(tmp_path, **extra)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: run.seeds lists seed 1 "
                                           f"more than once\n")
        assert not out.exists()


class TestEvaluateCommand:
    def test_matches_training_test_metrics(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        test_record = read_metrics(out / "seed_1" / "metrics.jsonl")[-1]
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["auc"] == test_record["auc"]

    def test_digest_mismatch_refused_without_force(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "seed_1" / "checkpoint.mmbc"
        # an ablated-config checkpoint must not load into a full-attention
        # config without --force (and then fails on the manifest anyway)
        rc = cli.main(["evaluate", "--config", str(cfg), "--out", str(out),
                       "--override", "attn.reduction_ratio=1",
                       "--checkpoint", str(ckpt)])
        assert rc == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_model_too_big_for_memory_refused_naming_the_config(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out), "--force",
                         "--override", "model.embedding_dim=999999999994"]) == 1
        assert re.fullmatch(f"error: {re.escape(str(cfg))}: model.embedding_dim: "
                            r"training the model needs at least [\d,]+ bytes, more than "
                            r"the [\d,]+ bytes of physical memory\n",
                            capsys.readouterr().err)

    def test_force_loads_despite_digest_mismatch(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        test_record = read_metrics(out / "seed_1" / "metrics.jsonl")[-1]
        # a learning-rate override changes the digest but not the manifest
        args = ["evaluate", "--config", str(cfg), "--out", str(out),
                "--override", "train.learning_rate=0.5"]
        assert cli.main(args) == 1
        capsys.readouterr()
        assert cli.main(args + ["--force"]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["auc"] == test_record["auc"]

    def test_before_training_nonzero_exit(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "empty"
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint.mmbc" in err

    def test_missing_checkpoint_refused_before_data_is_read(self, tmp_path, capsys,
                                                            monkeypatch):
        def prepare_data(cfg):
            pytest.fail("prepare_data ran before the checkpoint was opened")

        monkeypatch.setattr(cli, "prepare_data", prepare_data)
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        path = tmp_path / "out" / "seed_1" / "checkpoint.mmbc"
        assert cli.main(["evaluate", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: {path}: cannot read "
                                           f"(No such file or directory)\n")

    def test_scores_every_seed(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out),
                         "--seed", "1", "--seed", "2"]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [p["seed"] for p in printed] == [1, 2]
        for p in printed:
            test_record = read_metrics(out / f"seed_{p['seed']}" / "metrics.jsonl")[-1]
            assert p["auc"] == test_record["auc"]

    def test_lone_checkpoint_scores_its_training_run(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        test_record = read_metrics(out / "seed_1" / "metrics.jsonl")[-1]
        alone = tmp_path / "alone" / "checkpoint.mmbc"
        alone.parent.mkdir()
        shutil.copy(out / "seed_1" / "checkpoint.mmbc", alone)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--checkpoint", str(alone)]) == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["auc"] == test_record["auc"]

    def test_flipped_payload_byte_refused_even_with_force(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "seed_1" / "checkpoint.mmbc"
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0x40
        path.write_bytes(bytes(blob))
        args = ["evaluate", "--config", str(cfg), "--out", str(out)]
        capsys.readouterr()
        for force in ([], ["--force"]):
            assert cli.main(args + force) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: payload checksum mismatch")

    def test_digest_mismatch_of_one_seed_names_its_checkpoint(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        wrong = out / "seed_2" / "checkpoint.mmbc"
        shutil.copy(out / "seed_1" / "checkpoint.mmbc", wrong)
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out),
                         "--seed", "1", "--seed", "2"]) == 1
        captured = capsys.readouterr()
        assert [json.loads(line)["seed"] for line in captured.out.splitlines()] == [1]
        assert captured.err.startswith(f"error: {wrong}: run digest mismatch: ")
        assert captured.err.endswith(" (use --force to load anyway)\n")

    def test_checkpoint_with_two_seeds_refused_before_data_is_read(self, tmp_path, capsys,
                                                                    monkeypatch):
        def prepare_data(cfg):
            pytest.fail("prepare_data ran for a --checkpoint given two seeds")

        monkeypatch.setattr(cli, "prepare_data", prepare_data)
        cfg = write_tiny_config(tmp_path)
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--checkpoint", str(tmp_path / "nope.mmbc")]) == 1
        assert capsys.readouterr().err == ("error: --checkpoint names one checkpoint, "
                                           "so it takes one seed, got 2\n")


class TestAblateCommand:
    def test_six_rows_and_base_formatting(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 7  # header + six combinations
        base = rows[1].split(",")
        assert base[0] == "DNN"
        assert base[3] == "Base"
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["DNN", "DNN + Mean", "DNN + Max", "DNN + Bit-wise",
                         "DNN + Max + Mean", "DNN + Max + Mean + Bit-wise"]
        for row in rows[2:]:
            assert row.split(",")[3].endswith("%")

    def test_all_rows_share_identical_data_splits(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        digests = set()
        for slug in ("base", "mean", "max", "bitwise", "max_mean",
                     "max_mean_bitwise"):
            info = json.loads((out / slug / "seed_1" / "run_info.json").read_text())
            digests.add(json.dumps(info["data_digest"], sort_keys=True))
        assert len(digests) == 1

    def test_toggles_do_not_shift_shared_parameters(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        # non-attention parameter NAMES and shapes agree across all combos
        manifests = []
        for slug in ("base", "max_mean_bitwise"):
            ckpt = load_checkpoint(out / slug / "seed_1" / "checkpoint.mmbc")
            manifests.append([(n, s) for n, s, _ in ckpt.entries
                              if not n.startswith("attn.")])
        assert manifests[0] == manifests[1]

    def test_model_too_big_for_memory_refused_naming_the_config(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"model.embedding_dim": "999999999994"})
        out = tmp_path / "out"
        assert cli.main(["ablate", "--config", str(cfg), "--out", str(out)]) == 1
        assert re.fullmatch(f"error: {re.escape(str(cfg))}: model.embedding_dim: "
                            r"training the model needs at least [\d,]+ bytes, more than "
                            r"the [\d,]+ bytes of physical memory\n",
                            capsys.readouterr().err)
        assert not out.exists()


class TestInspectCommand:
    def test_lists_manifest(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["inspect-checkpoint",
                       str(out / "seed_1" / "checkpoint.mmbc")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "version 3\nrun digest " in printed
        assert "embed.f0" in printed and "tower.0.weight" in printed

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert cli.main(["inspect-checkpoint", str(tmp_path / "nope.mmbc")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.mmbc" in err

    def test_corrupt_file_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.mmbc"
        bad.write_bytes(b"MMBC\x03\x00" + b"\0" * 8)
        assert cli.main(["inspect-checkpoint", str(bad)]) == 1
        assert "truncated" in capsys.readouterr().err


class TestNanAbort:
    def test_diverged_training_exits_nonzero(self, tmp_path, capsys):
        # a huge learning rate overflows the logits within the epoch budget
        cfg = write_tiny_config(tmp_path, **{
            "run.seeds": "1", "train.learning_rate": "1e150",
            "train.max_epochs": "5"})
        with np.errstate(all="ignore"):
            rc = cli.main(["train", "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "batch" in err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_nonzero(self, tmp_path, capsys, lr):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.learning_rate": lr})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: train.learning_rate must be positive "
                              f"and finite")
        assert not out.exists()


class TestSweepCommand:
    def test_embedding_dim_axis(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "embedding_dim", "--values", "2,4"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["embedding_dim", "2", "4"]

    def test_reduction_ratio_sweep_emits_rows(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "reduction_ratio", "--values", "1,2,3,4"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 5
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "4"]

    def test_non_swept_fields_bit_identical(self, tmp_path):
        cfg = write_tiny_config(tmp_path, **{"run.seeds": "1",
                                             "train.max_epochs": "1"})
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "reduction_ratio", "--values", "2,4"]) == 0
        canon = {}
        for value in ("2", "4"):
            info = json.loads((out / f"reduction_ratio_{value}" / "seed_1" /
                               "run_info.json").read_text())
            canon[value] = [line for line in info["canonical_config"]
                            if not line.startswith("attn.reduction_ratio")]
        assert canon["2"] == canon["4"]

    def test_bad_value_fails_before_any_training(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "reduction_ratio", "--values", "3,0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: --values 0: attn.reduction_ratio must be >= 1")
        assert not (out / "reduction_ratio_3").exists()

    def test_no_value_refused_naming_the_config(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "reduction_ratio", "--values", ","]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: --values must list at least "
                                           f"one value\n")
        assert not out.exists()

    def test_oversized_value_refused_before_any_training(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "embedding_dim", "--values", "4,999999999994"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(cfg))}: --values 999999999994: "
                            r"model.embedding_dim: training the model needs at least "
                            r"[\d,]+ bytes, more than the [\d,]+ bytes of physical memory\n",
                            err), err
        assert not out.exists()

    @pytest.mark.parametrize("values, repeated", [("2,4,2", "2"), ("2,02", "02")])
    def test_repeated_value_refused_before_any_training(self, tmp_path, capsys,
                                                         values, repeated):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--axis", "reduction_ratio", "--values", values]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: --values {repeated}: "
                                           f"repeats an earlier value\n")
        assert not out.exists()


class TestGradcheckCommand:
    def test_bundled_config_passes(self, capsys):
        rc = cli.main(["gradcheck", "--config", str(CONFIGS / "gradcheck.conf")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # every parameter group is listed exactly once
        lines = [l for l in out.splitlines() if "max relative error" in l
                 and not l.startswith("overall")]
        groups = [l.split()[0] for l in lines]
        assert len(groups) == len(set(groups))
        assert "attn.bit.w1" in groups and "tower.0.weight" in groups

    def test_corrupted_backward_rule_fails(self, monkeypatch, capsys):
        true_relu = Graph.relu

        def corrupt_relu(self, a, inplace=False):  # always out of place
            mask = a.data > 0

            def backward(g):
                accumulate_grad(a, g * mask * 1.01)  # wrong scale

            return self.record_op(np.maximum(a.data, 0.0), (a,), backward)

        monkeypatch.setattr(Graph, "relu", corrupt_relu)
        rc = cli.main(["gradcheck", "--config", str(CONFIGS / "gradcheck.conf")])
        monkeypatch.setattr(Graph, "relu", true_relu)
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_every_seed_is_checked(self, capsys):
        def errors(*seeds):
            flags = [flag for seed in seeds for flag in ("--seed", str(seed))]
            assert cli.main(["gradcheck", "--config", str(CONFIGS / "gradcheck.conf"),
                             *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            return dict(re.match(r"(\S+)\s+max relative error (\S+)", line).groups()
                        for line in lines)

        one, two, both = errors(1), errors(2), errors(1, 2)
        assert one != two
        assert both == {name: max(one[name], two[name], key=float) for name in one}

    def test_rejects_large_models(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, **{"model.embedding_dim": "5"})
        assert cli.main(["gradcheck", "--config", str(cfg)]) == 1
        assert "tiny" in capsys.readouterr().err

    def test_rejects_five_fields(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        synth = tmp_path / "synth.conf"
        synth.write_text(synth.read_text().replace("synth.fields = 3", "synth.fields = 5"))
        assert cli.main(["gradcheck", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: gradcheck needs a tiny "
                                           "model: at most 4 fields\n")


class TestSynthCommand:
    def test_deterministic_outputs(self, tmp_path):
        spec = CONFIGS / "tiny_synth.conf"
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
        assert cli.main(["synth", "--spec", str(spec), "--out", str(b)]) == 0
        for name in ("train.csv", "valid.csv", "test.csv", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_row_counts_and_base_rate(self, tmp_path):
        spec = CONFIGS / "tiny_synth.conf"
        out = tmp_path / "out"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        n_train = len((out / "train.csv").read_text().splitlines()) - 1
        n_valid = len((out / "valid.csv").read_text().splitlines()) - 1
        n_test = len((out / "test.csv").read_text().splitlines()) - 1
        assert (n_train, n_valid, n_test) == (3200, 400, 400)
        truth = json.loads((out / "ground_truth.json").read_text())
        assert 0.05 < truth["base_rate"] < 0.95

    def test_bad_spec_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("synth.rows = 100\nsynth.fields = 2\n"
                       "synth.cardinality = 4\nsynth.informative = \n")
        assert cli.main(["synth", "--spec", str(bad),
                         "--out", str(tmp_path / "o")]) == 1

    def test_base_rate_error_names_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.conf"
        spec.write_text("synth.rows = 1500\nsynth.fields = 3\n"
                        "synth.cardinality = 5\nsynth.informative = 0,1\n"
                        "synth.weight_scale = 200\nsynth.seed = 3\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: label base rate ")
        assert not (tmp_path / "o").exists()

    def test_too_many_informative_combinations_names_spec(self, tmp_path, capsys):
        # 2000 x 1001 informative values: 2,002,000 combinations, past the 2M cap
        spec = tmp_path / "spec.conf"
        spec.write_text("synth.rows = 100\nsynth.fields = 2\n"
                        "synth.cardinality = 2000,1001\nsynth.informative = 0,1\n")
        assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {spec}: too many value combinations for exact Bayes computation\n")
        assert not (tmp_path / "o").exists()

    def test_a_million_value_field_builds_no_vocabulary(self, tmp_path):
        # a synthetic run reads each field's size from the spec: holding the
        # 1,000-row splits takes kilobytes, not a dict entry per value
        import tracemalloc
        cfg = write_tiny_config(tmp_path)
        (tmp_path / "synth.conf").write_text(
            "synth.rows = 1000\nsynth.fields = 2\nsynth.cardinality = 8,1000000\n"
            "synth.informative = 0\n")
        run_cfg = load_run_config(cfg)
        cli.prepare_data(run_cfg)  # once untraced, so lazy imports are not counted
        tracemalloc.start()
        try:
            prepared = cli.prepare_data(run_cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert prepared.vocab.sizes == [9, 1_000_001]
        assert held < 2_000_000

    def test_out_path_that_is_a_file_exits_with_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert cli.main(["synth", "--spec", str(CONFIGS / "tiny_synth.conf"),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: File exists\n"
        assert out.read_text() == ""


class TestCsvPipeline:
    def write_csv_run(self, tmp_path, single_file=False):
        spec = CONFIGS / "tiny_synth.conf"
        data_dir = tmp_path / "data"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(data_dir)]) == 0
        schema = tmp_path / "schema.conf"
        schema.write_text("schema.label = label\n" + "".join(
            f"field.f{i} = categorical\n" for i in range(4)))
        lines = ["run.seeds = 1", "data.schema = schema.conf",
                 "model.embedding_dim = 3", "model.hidden_sizes = 8",
                 "train.max_epochs = 1", "train.batch_size = 256"]
        if single_file:
            lines.append("data.file = data/train.csv")
        else:
            lines += ["data.train = data/train.csv",
                      "data.valid = data/valid.csv",
                      "data.test = data/test.csv"]
        cfg = tmp_path / "run.conf"
        cfg.write_text("\n".join(lines) + "\n")
        return cfg

    def test_presplit_csv_training(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "seed_1" / "metrics.jsonl").exists()
        assert capsys.readouterr().err == ""  # no field is named unseen

    def test_single_file_hash_split(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path, single_file=True)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        info = json.loads((out / "seed_1" / "run_info.json").read_text())
        assert len(set(info["data_digest"].values())) == 3
        assert capsys.readouterr().err == ""

    def test_field_unseen_in_train_is_named(self, tmp_path, capsys):
        # a time-based split can make a field all new: the run goes on
        cfg = self.write_csv_run(tmp_path)
        paths = {split: tmp_path / "data" / f"{split}.csv" for split in ("valid", "test")}
        for path in paths.values():  # every f0 cell gets a value train never shows
            header, *rows = path.read_text().splitlines()
            path.write_text("".join(line + "\n" for line in (header, *("x" + r for r in rows))))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {path}: {split} field 'f0': 100% of values unseen in train "
            f"(train: 0%)\n" for split, path in paths.items())

    def test_presplit_files_read_by_their_own_header(self, tmp_path):
        cfg = self.write_csv_run(tmp_path)
        plain = cli.prepare_data(load_run_config(cfg))
        for split in ("valid", "test"):  # swap the first two columns
            path = tmp_path / "data" / f"{split}.csv"
            rows = [line.split(",") for line in path.read_text().splitlines()]
            path.write_text("".join(",".join([r[1], r[0], *r[2:]]) + "\n" for r in rows))
        swapped = cli.prepare_data(load_run_config(cfg))
        assert ([getattr(swapped, split).digest() for split in SPLITS]
                == [getattr(plain, split).digest() for split in SPLITS])

    def test_evaluate_refuses_a_reordered_train_csv(self, tmp_path, capsys):
        # reordering rows changes the first-seen vocabulary order, so every
        # embedding row would be read under another value's index
        cfg = self.write_csv_run(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "seed_1" / "checkpoint.mmbc"
        trained_on = load_checkpoint(path).digest
        self.reorder_train_rows(tmp_path)
        run_cfg = load_run_config(cfg)
        current = cli.run_digest(run_cfg, 1, cli.prepare_data(run_cfg))
        capsys.readouterr()
        args = ["evaluate", "--config", str(cfg), "--out", str(out)]
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: run digest mismatch: checkpoint {trained_on.hex()} vs "
            f"current {current.hex()} (use --force to load anyway)\n")
        assert cli.main(args + ["--force"]) == 0

    def test_lone_checkpoint_refused_after_train_csv_reordered(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        alone = tmp_path / "alone.mmbc"
        shutil.copy(out / "seed_1" / "checkpoint.mmbc", alone)
        args = ["evaluate", "--config", str(cfg), "--checkpoint", str(alone)]
        assert cli.main(args) == 0
        self.reorder_train_rows(tmp_path)
        capsys.readouterr()
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {alone}: run digest mismatch: ")
        assert cli.main(args + ["--force"]) == 0

    @staticmethod
    def reorder_train_rows(tmp_path):
        path = tmp_path / "data" / "train.csv"
        header, *rows = path.read_text().splitlines()
        rows.sort(key=lambda row: row.split(",")[1:])
        path.write_text("".join(line + "\n" for line in (header, *rows)))

    def test_header_missing_a_schema_column_names_file(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path)
        valid = tmp_path / "data" / "valid.csv"
        rows = [line.split(",") for line in valid.read_text().splitlines()]
        drop = rows[0].index("f2")
        valid.write_text("".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {valid}: missing column 'f2' in header\n"

    def test_header_naming_a_schema_column_twice_names_file(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path)
        train = tmp_path / "data" / "train.csv"
        rows = [line.split(",") for line in train.read_text().splitlines()]
        train.write_text("".join(",".join([*r, r[1]]) + "\n" for r in rows))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {train}: column 'f1' appears more "
                                           f"than once in header\n")

    @pytest.mark.parametrize("line", ["schema.min_count = abc", "schema.buckets = 2.5"])
    def test_bad_schema_integer_nonzero_exit(self, tmp_path, capsys, line):
        cfg = self.write_csv_run(tmp_path)
        schema = tmp_path / "schema.conf"
        schema.write_text(schema.read_text() + line + "\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        key, value = (part.strip() for part in line.split("="))
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "schema.conf" in err and key in err and repr(value) in err

    @pytest.mark.parametrize("value", [";;", ""])
    def test_bad_delimiter_nonzero_exit(self, tmp_path, capsys, value):
        cfg = self.write_csv_run(tmp_path)
        schema = tmp_path / "schema.conf"
        schema.write_text(schema.read_text() + f"schema.delimiter = {value}\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {schema}: bad value for schema.delimiter: ")
        assert repr(value) in err

    @pytest.mark.parametrize("damage", ["latin-1", "directory"])
    def test_unreadable_csv_nonzero_exit(self, tmp_path, capsys, damage):
        cfg = self.write_csv_run(tmp_path)
        valid = tmp_path / "data" / "valid.csv"
        if damage == "latin-1":
            valid.write_bytes(valid.read_bytes() + "caf\u00e9,v1,v1,v1,1\n".encode("latin-1"))
        else:
            valid.unlink()
            valid.mkdir()
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "valid.csv" in err

    @pytest.mark.parametrize("content", ["", "label,f0,f1,f2,f3\n"])
    def test_empty_valid_csv_names_file(self, tmp_path, capsys, content):
        cfg = self.write_csv_run(tmp_path)
        valid = tmp_path / "data" / "valid.csv"
        valid.write_text(content)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {valid}: ")


    def test_single_file_with_empty_split_names_file_and_split(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path, single_file=True)
        data = tmp_path / "data" / "train.csv"
        data.write_text("".join(data.read_text().splitlines(keepends=True)[:6]))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.match(rf"error: {re.escape(str(data))}: the (valid|test) split has no rows",
                        err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split, line, edit, message", [
        ("valid", 3, lambda row: row.rsplit(",", 1)[0] + ",x", "label 'x' is not a number"),
        ("train", 2, lambda row: row + ",v0", "expected 5 columns, got 6"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, split, line, edit,
                                         message):
        cfg = self.write_csv_run(tmp_path)
        path = tmp_path / "data" / f"{split}.csv"
        lines = path.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: line {line}: {message}\n"

    def test_bad_row_of_hash_split_file_names_its_file_line(self, tmp_path, capsys):
        # blank lines count as file lines, and the row's split does not matter
        cfg = self.write_csv_run(tmp_path, single_file=True)
        data = tmp_path / "data" / "train.csv"
        lines = data.read_text().splitlines()
        lines[40] = lines[40].rsplit(",", 1)[0] + ",2"
        lines[3:3] = ["", ""]
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {data}: line 43: "
                                           f"label must be 0 or 1, got '2'\n")

    def test_oversized_cell_names_file_and_line(self, tmp_path, capsys):
        # the csv module refuses a field over 131072 characters
        cfg = self.write_csv_run(tmp_path, single_file=True)
        data = tmp_path / "data" / "train.csv"
        lines = data.read_text().splitlines()
        lines[4] = "x" * 200_000 + lines[4][lines[4].index(","):]
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {data}: line 5: "
                                           f"field larger than field limit (131072)\n")
        assert not (tmp_path / "o").exists()

    def test_single_class_valid_csv_fails_before_training(self, tmp_path, capsys):
        cfg = self.write_csv_run(tmp_path)
        valid = tmp_path / "data" / "valid.csv"
        header, *rows = valid.read_text().splitlines(keepends=True)
        label = header.rstrip().split(",").index("label")
        valid.write_text(header + "".join(r for r in rows
                                          if r.rstrip().split(",")[label] == "0"))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {valid}: the valid split needs both label classes")
        assert not (tmp_path / "o").exists()


class TestConfigErrorsNameTheirFile:
    def run_error(self, cfg, capsys, tmp_path):
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("train.batch_size = many", "bad value for train.batch_size"),
        ("train.batch_size = 0", "train.batch_size must be >= 1"),
        ("train.batch_size", ":7: expected 'key = value'"),
        ("model.hidden_sizes = 0", "model.hidden_sizes entries must be >= 1"),
        ("model.embedding_dim = 0", "model.embedding_dim must be >= 1"),
        ("train.max_epochs = 0", "train.max_epochs must be >= 1"),
    ])
    def test_run_config(self, tmp_path, capsys, line, message):
        cfg = write_tiny_config(tmp_path)
        key = line.split("=")[0].strip()
        cfg.write_text("".join(f"{line if ln.startswith(key + ' ') else ln}\n"
                               for ln in cfg.read_text().splitlines()))
        err = self.run_error(cfg, capsys, tmp_path)
        assert err.startswith(f"error: {cfg}") and message in err
        assert err.count(str(cfg)) == 1

    def test_override_named_with_file(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg), "--override", "attn.use_max=false",
                         "--override", "train.batch_size=0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg} with --override attn.use_max=false "
                              f"--override train.batch_size=0: "
                              f"train.batch_size must be >= 1")

    @pytest.mark.parametrize("line, message", [
        ("synth.bogus = 1", "unknown config key 'synth.bogus'"),
        ("synth.rows = lots", "bad value for synth.rows: invalid literal for int() "
                              "with base 10: 'lots'"),
        ("synth.informative = 0,7", "informative field index out of range"),
        ("synth.weight_scale = 200", "label base rate 0.0400 outside (0.05, 0.95)"),
        ("synth.cardinality = 5,5", "synth.cardinality must have one entry or one per field"),
        ("synth.rows = 9", "n_rows must be at least 10"),
        ("synth.fields = 0", "need at least one field"),
        ("synth.cardinality = 1", "every field cardinality must be >= 2"),
        ("synth.informative = 0,0", "duplicate informative field index"),
        ("synth.weight_scale = 0", "weight_scale must be positive"),
    ])
    def test_synth_spec(self, tmp_path, capsys, line, message):
        cfg = write_tiny_config(tmp_path)
        spec = tmp_path / "synth.conf"
        key = line.split("=")[0].strip()
        kept = [ln for ln in spec.read_text().splitlines() if not ln.startswith(key)]
        spec.write_text("\n".join([*kept, line]) + "\n")
        err = self.run_error(cfg, capsys, tmp_path)
        assert err.startswith(f"error: {spec}: ") and message in err
        assert err.count(str(spec)) == 1

    # Each value's allocation passes physical memory; it is refused before
    # anything is allocated.
    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("line", ["synth.rows = 1000000000000",
                                      "synth.fields = 1000000000000"])
    def test_synth_spec_past_physical_memory(self, tmp_path, capsys, command, line):
        cfg = write_tiny_config(tmp_path)
        spec = tmp_path / "synth.conf"
        key = line.split("=")[0].strip()
        kept = [ln for ln in spec.read_text().splitlines() if not ln.startswith(key)]
        spec.write_text("\n".join([*kept, line]) + "\n")
        out = tmp_path / "o"
        args = (["train", "--config", str(cfg)] if command == "train"
                else ["synth", "--spec", str(spec)])
        assert cli.main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(spec))}: {key}: the synthetic data "
                            r"needs at least [\d,]+ bytes, more than the [\d,]+ bytes "
                            r"of physical memory\n", err), err
        assert not out.exists()

    # Indices are uint32 and 1-based: 2**32 values would wrap the largest.
    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("card", [2 ** 32, 10 ** 30])
    def test_synth_cardinality_past_uint32_indices(self, tmp_path, capsys, command, card):
        cfg = write_tiny_config(tmp_path)
        spec = tmp_path / "synth.conf"
        spec.write_text(spec.read_text().replace("synth.cardinality = 5",
                                                 f"synth.cardinality = 5,5,{card}"))
        out = tmp_path / "o"
        args = (["train", "--config", str(cfg)] if command == "train"
                else ["synth", "--spec", str(spec)])
        assert cli.main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {spec}: synth.cardinality: every field cardinality must be >= 2 "
            f"and at most 4,294,967,295, the largest uint32 index\n")
        assert not out.exists()

    def test_schema_buckets_past_physical_memory(self, tmp_path, capsys):
        cfg = TestCsvPipeline().write_csv_run(tmp_path)
        schema = tmp_path / "schema.conf"
        schema.write_text(schema.read_text().replace("field.f1 = categorical",
                                                     "field.f1 = numeric")
                          + "schema.buckets = 1000000000000\n")
        err = self.run_error(cfg, capsys, tmp_path)
        assert re.fullmatch(f"error: {re.escape(str(schema))}: schema.buckets: "
                            r"bucketing a numeric field needs at least [\d,]+ bytes, "
                            r"more than the [\d,]+ bytes of physical memory\n", err), err
        assert not (tmp_path / "o").exists()

    def test_schema(self, tmp_path, capsys):
        cfg = TestCsvPipeline().write_csv_run(tmp_path)
        schema = tmp_path / "schema.conf"
        schema.write_text(schema.read_text().replace("field.f1 = categorical",
                                                     "field.f1 = categorial"))
        err = self.run_error(cfg, capsys, tmp_path)
        assert err.startswith(f"error: {schema}: field 'f1': unknown kind 'categorial'")
        assert err.count(str(schema)) == 1


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["train", "--force"],
        ["ablate", "--force"],
        ["sweep", "--axis", "embedding_dim", "--values", "2", "--force"],
        ["gradcheck", "--force"],
        ["gradcheck", "--out", "runs/x"],
    ])
    def test_flag_on_command_that_never_reads_it_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], "--config", str(CONFIGS / "tiny.conf"), *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_common_flags_equal_shared_run_flags(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        sentence = text.split("Common flags:", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[a-z-]+)", sentence))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        run_commands = [sp for sp in sub.choices.values()
                        if any("--config" in a.option_strings for a in sp._actions)]
        shared = set.intersection(*(
            {opt for a in sp._actions for opt in a.option_strings
             if opt.startswith("--") and opt != "--help"}
            for sp in run_commands))
        assert len(run_commands) == 5
        assert documented == shared
