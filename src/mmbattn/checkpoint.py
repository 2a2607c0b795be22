"""Versioned binary checkpoints: named parameter manifest + f64 payload.

Layout (little-endian):
  magic "MMBC" | u16 version | 32-byte run digest | u32 entry count |
  entries { u16 name length | name utf-8 | u8 ndim | u32 × ndim extents |
            u64 element offset } |
  u64 total element count | 32-byte SHA-256 of the payload |
  payload (total × f64)
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError, ContractError, reading

MAGIC = b"MMBC"
# Version 3 adds the payload SHA-256.  Version 2 files have none, and version 1
# files held attention weights (out, in), which square weights would let past
# the shape check; both are refused.
VERSION = 3


@dataclass
class Checkpoint:
    digest: bytes
    entries: list[tuple[str, tuple[int, ...], int]]  # name, shape, element offset
    payload: np.ndarray


def save_checkpoint(path, registry: dict[str, Tensor], digest: bytes) -> None:
    if len(digest) != 32:
        raise ContractError("run digest must be 32 bytes (SHA-256)")
    chunks = [MAGIC, struct.pack("<H", VERSION), digest,
              struct.pack("<I", len(registry))]
    offset = 0
    for name, tensor in registry.items():
        encoded = name.encode("utf-8")
        shape = tensor.data.shape
        chunks.append(struct.pack(f"<H{len(encoded)}sB{len(shape)}IQ", len(encoded),
                                  encoded, len(shape), *shape, offset))
        offset += tensor.data.size
    payload = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                       for t in registry.values())
    chunks += [struct.pack("<Q", offset), hashlib.sha256(payload).digest(), payload]
    write_atomic(path, chunks)


def write_atomic(path, chunks) -> None:
    """Write the byte strings ``chunks`` yields to a temp file beside
    ``path``, then rename it over ``path``.

    A run killed or failing mid-write leaves the previous file intact and
    removes the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
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
    (checksum,) = unpack("32s")
    at = take(total * 8)
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing garbage at byte {pos}")
    if hashlib.sha256(memoryview(blob)[at:]).digest() != checksum:
        raise CheckpointError(f"{path}: payload checksum mismatch: the payload "
                              f"from byte {at} is corrupt")
    payload = np.frombuffer(blob, "<f8", count=total, offset=at)
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


def restore_model(model, ckpt: Checkpoint, expected_digest: bytes | None = None) -> None:
    """Copy the payload into ``model.params``; the manifest must equal
    ``model.layout``, offsets included, and the run digest must equal
    ``expected_digest`` unless that is None."""
    if expected_digest is not None and ckpt.digest != expected_digest:
        raise CheckpointError(
            f"run digest mismatch: checkpoint {ckpt.digest.hex()} vs "
            f"current {expected_digest.hex()} (use --force to load anyway)")
    if ckpt.entries != list(model.layout):
        raise CheckpointError(f"parameter manifest mismatch: checkpoint has "
                              f"{ckpt.entries}, model expects {list(model.layout)}")
    model.params[...] = ckpt.payload
