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
from .errors import CheckpointError, ContractError, reading

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
    chunks.append(struct.pack("<Q", offset))
    chunks.extend(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                  for t in registry.values())
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


def load_checkpoint(path) -> Checkpoint:
    with reading(path, CheckpointError):
        blob = Path(path).read_bytes()
    pos = 0

    def take(n: int) -> int:
        """Move past the next ``n`` bytes; returns where they start."""
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(
                f"{path}: truncated checkpoint, needed {n} bytes at byte {pos}")
        pos += n
        return pos - n

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt)))

    if unpack("4s") != (MAGIC,):
        raise CheckpointError(f"{path}: bad magic at byte 0")
    (version,) = unpack("<H")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (digest,) = unpack("32s")
    (count,) = unpack("<I")
    entries: list[tuple[str, tuple[int, ...], int]] = []
    for _ in range(count):
        (name_len,) = unpack("<H")
        at = pos
        try:
            name = unpack(f"{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: parameter name is not UTF-8 "
                                  f"at byte {at + exc.start}") from None
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        (offset,) = unpack("<Q")
        entries.append((name, shape, offset))
    (total,) = unpack("<Q")
    payload = np.frombuffer(blob, "<f8", count=total, offset=take(total * 8))
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing garbage at byte {pos}")
    expected = 0
    for name, shape, offset in entries:
        if offset != expected:
            raise CheckpointError(f"{path}: manifest does not tile the payload "
                                  f"(entry {name!r} at offset {offset}, expected {expected})")
        expected += int(np.prod(shape, dtype=np.int64))
    if expected != total:
        raise CheckpointError(f"{path}: manifest covers {expected} elements, "
                              f"payload has {total}")
    return Checkpoint(digest=digest, entries=entries, payload=payload)


def restore_model(model, ckpt: Checkpoint, expected_digest: bytes | None = None,
                  force: bool = False) -> None:
    """Copy the payload into ``model.params``; the manifest must equal
    ``model.layout``, offsets included."""
    if expected_digest is not None and ckpt.digest != expected_digest and not force:
        raise CheckpointError(
            f"config digest mismatch: checkpoint {ckpt.digest.hex()} vs "
            f"current {expected_digest.hex()} (use --force to load anyway)")
    if ckpt.entries != list(model.layout):
        raise CheckpointError(f"parameter manifest mismatch: checkpoint has "
                              f"{ckpt.entries}, model expects {list(model.layout)}")
    model.params[...] = ckpt.payload
