from pathlib import Path

import numpy as np
import pytest

from mmbattn import blas, cli, training
from mmbattn.attention import MMBAttnConfig
from mmbattn.data import SynthSpec, synth_generate
from mmbattn.errors import TrainingError
from mmbattn.model import TowerConfig, build
from mmbattn.training import TrainConfig, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LIB = blas._openblas()
ATTN_OFF = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)
needs_openblas = pytest.mark.skipif(LIB is None, reason="numpy is not linked to OpenBLAS")


@pytest.fixture
def two_threads():
    """Run the test with OpenBLAS at 2 threads, whatever the host default."""
    get, put = LIB
    before = get()
    put(2)
    try:
        yield
    finally:
        put(before)


def record_threads(monkeypatch, name):
    """Wrap ``training.<name>`` so that each call records the BLAS thread count."""
    seen = []
    inner = getattr(training, name)

    def recorder(*args, **kwargs):
        seen.append(LIB[0]())
        return inner(*args, **kwargs)

    monkeypatch.setattr(training, name, recorder)
    return seen


def small_run(hidden=(16,), rows=1200):
    spec = SynthSpec(n_rows=rows, cardinalities=(2, 4, 4), informative=(0,),
                     weight_scale=10.0, seed=7)
    tr, va, te, _ = synth_generate(spec)
    model = build(spec.schema(), spec.vocabulary(), 4, ATTN_OFF, TowerConfig(hidden), seed=1)
    return model, (tr, va, te), TrainConfig(batch_size=128, max_epochs=1)


@needs_openblas
class TestTrain:
    def test_small_steps_on_one_thread_and_restored(self, two_threads, monkeypatch):
        steps = record_threads(monkeypatch, "adam_step")
        evals = record_threads(monkeypatch, "evaluate")
        model, splits, cfg = small_run()
        train(model, *splits, cfg, run_seed=1)
        assert steps and set(steps) == {1}
        assert evals and set(evals) == {2}  # evaluation keeps the default
        assert LIB[0]() == 2

    def test_restored_after_training_error(self, two_threads, monkeypatch):
        steps = record_threads(monkeypatch, "adam_step")
        model, splits, cfg = small_run()
        model.registry["tower.0.weight"].data[0, 0] = np.nan
        with pytest.raises(TrainingError):
            train(model, *splits, cfg, run_seed=1)
        assert steps == []
        assert LIB[0]() == 2

    def test_400_wide_tower_keeps_default(self, two_threads, monkeypatch):
        # 128 rows × a 400×400 weight is 20M multiply-adds per GEMM
        steps = record_threads(monkeypatch, "adam_step")
        model, splits, cfg = small_run(hidden=(400, 400), rows=400)
        train(model, *splits, cfg, run_seed=1)
        assert steps and set(steps) == {2}

    def test_tiny_config_bit_identical_without_switching(self, two_threads,
                                                         monkeypatch, tmp_path):
        steps = record_threads(monkeypatch, "adam_step")
        config = str(CONFIGS / "tiny.conf")
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "a")]) == 0
        assert steps and set(steps) == {1}
        monkeypatch.setattr(blas, "SINGLE_THREAD_WORK", 0)
        steps.clear()
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert steps and set(steps) == {2}
        for seed in (1, 2):
            a, b = (tmp_path / run / f"seed_{seed}" / "checkpoint.mmbc" for run in "ab")
            assert a.read_bytes() == b.read_bytes()


class TestThreadsFor:
    def test_no_op_without_openblas(self, monkeypatch):
        before = LIB[0]() if LIB is not None else None
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        with blas.threads_for(0):
            assert (LIB[0]() if LIB is not None else None) == before

    def test_no_op_when_already_one_thread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(blas, "_openblas", lambda: (lambda: 1, calls.append))
        with blas.threads_for(0):
            pass
        assert calls == []

    def test_switches_and_restores_around_small_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(blas, "_openblas", lambda: (lambda: 4, calls.append))
        with pytest.raises(KeyError):
            with blas.threads_for(blas.SINGLE_THREAD_WORK - 1):
                assert calls == [1]
                raise KeyError("inside")
        assert calls == [1, 4]

    def test_large_work_untouched(self, monkeypatch):
        calls = []
        monkeypatch.setattr(blas, "_openblas", lambda: (lambda: 4, calls.append))
        with blas.threads_for(blas.SINGLE_THREAD_WORK):
            pass
        assert calls == []
