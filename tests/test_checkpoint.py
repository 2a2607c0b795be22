import os
import struct
from pathlib import Path

import numpy as np
import pytest

from mmbattn.attention import MMBAttnConfig
from mmbattn.checkpoint import (load_checkpoint, restore_model, save_checkpoint,
                                write_atomic)
from mmbattn.data import CATEGORICAL, FieldSchema, Vocabulary
from mmbattn.errors import CheckpointError, MMBAttnError
from mmbattn.model import TowerConfig, build

ATTN_OFF = MMBAttnConfig(use_max=False, use_mean=False, use_bitwise=False)


def make_model(attn=ATTN_OFF, seed=1):
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

    def test_payload_bytes_equal_parameter_vector(self, tmp_path):
        model = make_model(MMBAttnConfig(reduction_ratio=2))
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        payload = model.params.astype("<f8").tobytes()
        assert path.read_bytes()[-len(payload):] == payload


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


class TestFuzz:
    """Every truncation and single-bit flip of the header fails cleanly or loads."""

    @pytest.fixture
    def blob(self, tmp_path):
        schema = FieldSchema(fields=(("a", CATEGORICAL),), label_column="y")
        model = build(schema, Vocabulary([{"x": 1}], [None]), 2, ATTN_OFF,
                      TowerConfig(()), seed=1)
        assert list(model.registry) == ["embed.a", "tower.0.weight", "tower.0.bias"]
        registry = {k: model.registry[k] for k in ("tower.0.weight", "tower.0.bias")}
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, registry, DIGEST)
        return path.read_bytes()

    @staticmethod
    def header_size(blob):
        (total,) = struct.unpack("<Q", blob[-8 * 3 - 8:-8 * 3])  # 3 payload values
        assert total == 3
        return len(blob) - 8 * total

    def load_or_mmbattn_error(self, path, data):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except MMBAttnError:
            pass

    def test_truncation_at_every_header_byte(self, tmp_path, blob):
        path = tmp_path / "cut.mmbc"
        for n in range(self.header_size(blob) + 1):
            with pytest.raises(CheckpointError):
                path.write_bytes(blob[:n])
                load_checkpoint(path)

    def test_bit_flip_of_every_header_byte(self, tmp_path, blob):
        path = tmp_path / "flip.mmbc"
        for pos in range(self.header_size(blob)):
            for bit in range(8):
                data = bytearray(blob)
                data[pos] ^= 1 << bit
                self.load_or_mmbattn_error(path, bytes(data))

    def test_non_utf8_name_names_path_and_byte(self, tmp_path, blob):
        # 42 bytes of fixed header, then a u16 name length and the first name
        data = bytearray(blob)
        assert data[44:58] == b"tower.0.weight"
        data[46] ^= 0x80
        path = tmp_path / "name.mmbc"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"name\.mmbc: .*not UTF-8 at byte 46"):
            load_checkpoint(path)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        model = make_model()
        path = tmp_path / "model.mmbc"
        save_checkpoint(path, model.registry, DIGEST)
        before = path.read_bytes()

        def half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        other = make_model(seed=2)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, other.registry, DIGEST)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.mmbc"]

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "run_info.json"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="Permission denied"):
            write_atomic(path, b"new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run_info.json"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("old\n")
        write_atomic(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
