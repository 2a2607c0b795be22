"""Seeded byte-mutation fuzz of the five files a user hands the CLI.

Each case flips, replaces, deletes or inserts a few bytes of one input (the
run config, the synth spec, the schema, the train CSV or a checkpoint) with
a numpy RNG, runs the command that reads it through ``cli.main``, and
requires exit 0, or exit 1 with an ``error:`` line: never a traceback.
The cases are fixed by their seeds, so a failure reruns exactly.
"""

import shutil

import numpy as np
import pytest

from mmbattn import cli

CASES_PER_INPUT = 200
# Bytes the file formats give meaning to, so replacements reach the parsers.
SYNTAX = b"0123456789-+.,=#_ \t\ne"

SYNTH = ("synth.rows = 1000\nsynth.fields = 3\nsynth.cardinality = 5\n"
         "synth.informative = 0,1\nsynth.weight_scale = 2.0\nsynth.seed = 3\n")
SCHEMA = "schema.label = label\n" + "".join(f"field.f{i} = categorical\n" for i in range(3))
MODEL = ("run.seeds = 1\nmodel.embedding_dim = 3\nmodel.hidden_sizes = 8\n"
         "attn.reduction_ratio = 2\ntrain.batch_size = 128\ntrain.max_epochs = 1\n")
RUN_SYNTH = "data.synth = synth.conf\n" + MODEL
RUN_CSV = ("data.schema = schema.conf\ndata.train = data/train.csv\n"
           "data.valid = data/valid.csv\ndata.test = data/test.csv\n" + MODEL)


def mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    """One to three byte edits; half land in the first 256 bytes, where
    the headers are."""
    data = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        span = len(data) if rng.random() < 0.5 else min(len(data), 256)
        pos = int(rng.integers(span + 1))
        op = int(rng.integers(4)) if pos < len(data) else 3
        if op == 0:
            data[pos] ^= 1 << int(rng.integers(8))
        elif op == 1:
            data[pos] = SYNTAX[int(rng.integers(len(SYNTAX)))]
        elif op == 2:
            del data[pos]
        else:
            data.insert(pos, int(rng.integers(256)))
    return bytes(data)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid copies of every input, and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.conf").write_text(SYNTH)
    (root / "schema.conf").write_text(SCHEMA)
    (root / "run_synth.conf").write_text(RUN_SYNTH)
    (root / "run_csv.conf").write_text(RUN_CSV)
    assert cli.main(["synth", "--spec", str(root / "synth.conf"),
                     "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--config", str(root / "run_synth.conf"),
                     "--out", str(root / "trained")]) == 0
    shutil.copy(root / "trained" / "seed_1" / "checkpoint.mmbc", root / "checkpoint.mmbc")
    shutil.rmtree(root / "trained")
    return root


# input -> (the file mutated, the run config, the command that reads the file)
CASES = {
    "run_config": ("run_synth.conf", "run_synth.conf", "train"),
    "synth_spec": ("synth.conf", "run_synth.conf", "train"),
    "schema": ("schema.conf", "run_csv.conf", "train"),
    "train_csv": ("data/train.csv", "run_csv.conf", "train"),
    "checkpoint": ("checkpoint.mmbc", "run_synth.conf", "evaluate"),
}


@pytest.mark.parametrize("kind", list(CASES))
def test_mutated_input_exits_0_or_1_with_an_error_line(inputs, tmp_path, capsys, kind):
    target, config, command = CASES[kind]
    original = (inputs / target).read_bytes()
    rng = np.random.default_rng([22, list(CASES).index(kind)])
    for case in range(CASES_PER_INPUT):
        work = tmp_path / str(case)
        shutil.copytree(inputs, work)
        blob = mutate(original, rng)
        (work / target).write_bytes(blob)
        argv = [command, "--config", str(work / config), "--out", str(work / "out")]
        if command == "evaluate":
            argv += ["--checkpoint", str(work / target)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        where = f"{kind} case {case}: {blob[:300]!r}"
        assert code in (0, 1), where
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines()), where
        shutil.rmtree(work)
