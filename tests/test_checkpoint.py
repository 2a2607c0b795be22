import struct

import numpy as np
import pytest

from mmbattn.attention import MMBAttnConfig
from mmbattn.checkpoint import load_checkpoint, restore_model, save_checkpoint
from mmbattn.data import CATEGORICAL, FieldSchema, Vocabulary
from mmbattn.errors import CheckpointError
from mmbattn.model import TowerConfig, build


def make_model(attn=None, seed=1):
    schema = FieldSchema(fields=(("a", CATEGORICAL), ("b", CATEGORICAL)),
                         label_column="y")
    vocab = Vocabulary([{"x": 1, "y": 2}] * 2, [None, None])
    return build(schema, vocab, 2, attn, TowerConfig((4,)), seed=seed)


DIGEST = bytes(range(32))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = make_model(MMBAttnConfig(reduction_ratio=2))
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        ckpt = load_checkpoint(path)
        assert ckpt.digest == DIGEST
        other = make_model(MMBAttnConfig(reduction_ratio=2), seed=99)
        restore_model(other, ckpt, expected_digest=DIGEST)
        for name in model.registry:
            assert np.array_equal(other.registry[name].data,
                                  model.registry[name].data)

    def test_save_load_save_byte_identical(self, tmp_path):
        model = make_model()
        p1, p2 = tmp_path / "a.mmbc", tmp_path / "b.mmbc"
        save_checkpoint(p1, model.registry, DIGEST)
        restore_model(model, load_checkpoint(p1), expected_digest=DIGEST)
        save_checkpoint(p2, model.registry, DIGEST)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_tiles_payload(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        ckpt = load_checkpoint(path)
        expected = 0
        for name, shape, offset in ckpt.entries:
            assert offset == expected
            expected += int(np.prod(shape))
        assert expected == ckpt.payload.size


class TestRejections:
    def test_truncated_file_names_byte_offset(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.mmbc"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_digest_mismatch_names_both_digests(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        other = bytes(reversed(range(32)))
        with pytest.raises(CheckpointError) as err:
            restore_model(model, load_checkpoint(path), expected_digest=other)
        assert DIGEST.hex() in str(err.value)
        assert other.hex() in str(err.value)

    def test_force_overrides_digest_mismatch(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        restore_model(model, load_checkpoint(path),
                      expected_digest=bytes(32), force=True)

    def test_manifest_mismatch_rejected(self, tmp_path):
        ablated = make_model()  # no attention parameters
        full = make_model(MMBAttnConfig(reduction_ratio=2))
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, ablated.registry, DIGEST)
        with pytest.raises(CheckpointError, match="manifest"):
            restore_model(full, load_checkpoint(path), expected_digest=DIGEST)

    def test_version_1_rejected_even_when_shapes_match(self, tmp_path):
        # with R = 1 every branch weight is square, so a v1 file, which held
        # them (out, in), would pass the shape check; the version must stop it
        model = make_model(MMBAttnConfig(reduction_ratio=1))
        assert all(t.shape[0] == t.shape[1] for name, t in model.registry.items()
                   if name.startswith("attn."))
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)
