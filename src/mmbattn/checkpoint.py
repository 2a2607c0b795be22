"""Versioned binary checkpoints: named parameter manifest + f64 payload.

Layout (little-endian):
  magic "MMBC" | u16 version | 32-byte config digest | u32 entry count |
  entries { u16 name length | name utf-8 | u8 ndim | u32 × ndim extents |
            u64 element offset } |
  u64 total element count | payload (total × f64)
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError, ContractError

MAGIC = b"MMBC"
# Version 2 stores attention weights (in, out).  Version 1 files held them
# (out, in); square weights would pass the shape check, so v1 is refused.
VERSION = 2


@dataclass
class Checkpoint:
    digest: bytes
    entries: list[tuple[str, tuple[int, ...], int]]  # name, shape, element offset
    payload: np.ndarray


def save_checkpoint(path, registry: dict[str, Tensor], config_digest: bytes) -> None:
    if len(config_digest) != 32:
        raise ContractError("config digest must be 32 bytes (SHA-256)")
    chunks = [MAGIC, struct.pack("<H", VERSION), config_digest,
              struct.pack("<I", len(registry))]
    payloads = []
    offset = 0
    for name, tensor in registry.items():
        encoded = name.encode("utf-8")
        shape = tensor.data.shape
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", len(shape)))
        chunks.append(struct.pack(f"<{len(shape)}I", *shape))
        chunks.append(struct.pack("<Q", offset))
        offset += tensor.data.size
        payloads.append(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    chunks.append(struct.pack("<Q", offset))
    chunks.extend(payloads)
    write_atomic(path, b"".join(chunks))


def write_atomic(path, data: bytes) -> None:
    """Write a temp file beside ``path``, then rename it over ``path``.

    A run killed or failing mid-write leaves the previous file intact and
    removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Cursor:
    def __init__(self, blob: bytes, origin: str):
        self.blob = blob
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.origin}: truncated checkpoint, needed {n} bytes at byte {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror or exc})") from None
    cur = _Cursor(blob, str(path))
    if cur.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0")
    (version,) = cur.unpack("<H")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    digest = cur.take(32)
    (count,) = cur.unpack("<I")
    entries: list[tuple[str, tuple[int, ...], int]] = []
    for _ in range(count):
        (name_len,) = cur.unpack("<H")
        at = cur.pos
        try:
            name = cur.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: parameter name is not UTF-8 "
                                  f"at byte {at + exc.start}") from None
        (ndim,) = cur.unpack("<B")
        shape = tuple(cur.unpack(f"<{ndim}I")) if ndim else ()
        (offset,) = cur.unpack("<Q")
        entries.append((name, shape, offset))
    (total,) = cur.unpack("<Q")
    payload_bytes = cur.take(total * 8)
    if cur.pos != len(blob):
        raise CheckpointError(f"{path}: trailing garbage at byte {cur.pos}")
    expected = 0
    for name, shape, offset in entries:
        if offset != expected:
            raise CheckpointError(f"{path}: manifest does not tile the payload "
                                  f"(entry {name!r} at offset {offset}, expected {expected})")
        expected += int(np.prod(shape, dtype=np.int64))
    if expected != total:
        raise CheckpointError(f"{path}: manifest covers {expected} elements, "
                              f"payload has {total}")
    payload = np.frombuffer(payload_bytes, dtype="<f8").astype(np.float64)
    return Checkpoint(digest=digest, entries=entries, payload=payload)


def restore_model(model, ckpt: Checkpoint, expected_digest: bytes | None = None,
                  force: bool = False) -> None:
    """Copy checkpoint parameters into the model's registry (names must match)."""
    if expected_digest is not None and ckpt.digest != expected_digest and not force:
        raise CheckpointError(
            f"config digest mismatch: checkpoint {ckpt.digest.hex()} vs "
            f"current {expected_digest.hex()} (use --force to load anyway)")
    registry = model.registry
    ckpt_names = [name for name, _, _ in ckpt.entries]
    if ckpt_names != list(registry):
        raise CheckpointError(
            f"parameter manifest mismatch: checkpoint has {ckpt_names}, "
            f"model expects {list(registry)}")
    for name, shape, offset in ckpt.entries:
        tensor = registry[name]
        if tuple(shape) != tensor.data.shape:
            raise CheckpointError(f"shape mismatch for {name!r}: "
                                  f"checkpoint {shape}, model {tensor.data.shape}")
        size = tensor.data.size
        tensor.data[...] = ckpt.payload[offset:offset + size].reshape(shape)
