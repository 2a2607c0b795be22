import resource
import sys

import numpy as np
import pytest

from mmbattn import heap, training
from mmbattn.attention import MMBAttnConfig
from mmbattn.data import Batch, SynthSpec
from mmbattn.model import TowerConfig, build

has_mallopt = sys.platform.startswith("linux") and hasattr(heap._libc(), "mallopt")


@pytest.fixture
def fresh_setter():
    """Let the test call the setter anew; the next real call sets the heap."""
    heap.keep_freed_memory.cache_clear()
    yield
    heap.keep_freed_memory.cache_clear()


@pytest.mark.skipif(not has_mallopt, reason="needs glibc's mallopt")
def test_repeated_evaluation_faults_in_no_new_pages():
    # planted-shaped: 8 fields x 8 ids, d 8, full attention, a 64x64 tower;
    # each 2,048-row batch makes temporaries of 128 KiB to 1 MiB, at or
    # above glibc's default 128 KiB mmap threshold
    card, n = (8,) * 8, 8192
    spec = SynthSpec(n_rows=10, cardinalities=card, informative=(0,))
    model = build(spec.schema(), spec, 8, MMBAttnConfig(),
                  TowerConfig((64, 64)), seed=1)
    rng = np.random.default_rng(0)
    data = Batch(rng.integers(0, 8, size=(n, len(card))).astype(np.uint32),
                 (rng.random(n) < 0.5).astype(np.float64))
    training.evaluate(model, data)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        training.evaluate(model, data)
    # without the setting each call faults in about 7,000 fresh pages
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_no_op_without_mallopt(monkeypatch, fresh_setter):
    monkeypatch.setattr(heap, "_libc", lambda: None)
    assert heap.keep_freed_memory() is None


def test_sets_both_thresholds_once(monkeypatch, fresh_setter):
    calls = []

    class Lib:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(heap, "_libc", Lib)
    heap.keep_freed_memory()
    heap.keep_freed_memory()
    assert calls == [(heap.M_MMAP_THRESHOLD, 32 << 20), (heap.M_TRIM_THRESHOLD, 1 << 30)]
