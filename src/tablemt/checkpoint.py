"""Versioned binary checkpoint: a JSON header (config, epoch, metric
history, tensor manifest) followed by the raw row-major float64 tensor
bytes.  Writing the same state twice produces identical bytes, and
load(save(x)) is bit-exact."""

from __future__ import annotations

import enum
import json
import struct
import typing
from dataclasses import fields, is_dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .model import init_params
from .trainer import Checkpoint, TrainConfig

MAGIC = b"TBLMT001"
ENCODER_KIND = "hash_window_mixer"


class CheckpointError(ValueError):
    """A file that is not a complete, well-formed checkpoint."""


def _to_json(value):
    """A dataclass as a JSON tree: enums by value, frozensets sorted."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _from_json(cls, tree: dict):
    """Inverse of ``_to_json``, typed by the field annotations; every field
    must be present (a missing one raises KeyError, never takes its default)."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        kind, value = hints[f.name], tree[f.name]
        if is_dataclass(kind):
            value = _from_json(kind, value)
        elif issubclass(kind, enum.Enum):
            value = kind(value)
        values[f.name] = value
    return cls(**values)


def _check_finite(path, name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{path}: tensor {name} holds non-finite values")


def _manifest(config: TrainConfig) -> list[tuple[str, list[int]]]:
    """(name, shape) of each tensor saved for ``config``, in file order."""
    shapes = init_params(config.encoder, config.mode, np.random.default_rng(0))
    return [(f"{group}/{name}", list(shapes[name].shape))
            for group in ("student", "teacher") for name in sorted(shapes)]


def _check_manifest(path, found: list[tuple[str, list[int]]], config: TrainConfig) -> None:
    """Raise ``CheckpointError`` naming the first (name, shape) of ``found``
    that differs from the tensors ``config`` builds, in file order."""
    for got, want in zip_longest(found, _manifest(config)):
        if got != want:
            raise CheckpointError(f"{path}: checkpoint has tensor {got}, config builds {want}")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt``; tensors other than those its config builds, or a
    non-finite tensor, raise ``CheckpointError`` before anything is written."""
    arrays = {f"{group}/{name}": np.ascontiguousarray(params[name], dtype="<f8")
              for group, params in (("student", ckpt.student), ("teacher", ckpt.teacher))
              for name in sorted(params)}
    tensors = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]
    _check_manifest(path, [(t["name"], t["shape"]) for t in tensors], ckpt.config)
    for name, arr in arrays.items():
        _check_finite(path, name, arr)
    header = {
        "version": 1,
        "config": {**_to_json(ckpt.config), "encoder_kind": ENCODER_KIND},
        "epoch": ckpt.epoch,
        "history": ckpt.history,
        "tensors": tensors,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for arr in arrays.values():
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Inverse of ``save_checkpoint``; raises ``CheckpointError`` naming
    ``path`` for a file that is not exactly one complete checkpoint, whose
    header is malformed (not JSON, a missing field, a config value
    ``TrainConfig`` rejects or the model cannot be built from), whose
    ``encoder_kind`` is not this encoder's, whose tensor
    names or shapes differ from those its config builds, or whose tensors
    hold a non-finite value."""
    raw = Path(path).read_bytes()
    off = len(MAGIC) + 8
    if raw[: len(MAGIC)] != MAGIC or len(raw) < off:
        raise CheckpointError(f"not a checkpoint file: {path}")
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC) : off])
    if len(raw) < off + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
        if header["version"] != 1:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        kind = header["config"]["encoder_kind"]
        if kind != ENCODER_KIND:
            raise CheckpointError(f"{path}: encoder_kind {kind!r}, expected {ENCODER_KIND!r}")
        config = _from_json(TrainConfig, header["config"])
        found = [(spec["name"], spec["shape"]) for spec in header["tensors"]]
        epoch, history = header["epoch"], header["history"]
        _check_manifest(path, found, config)
    except CheckpointError:
        raise
    except KeyError as exc:
        raise CheckpointError(f"{path}: header field {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {type(exc).__name__}: {exc}") from None
    off += hlen
    student: dict = {}
    teacher: dict = {}
    for name, shape in found:
        count = int(np.prod(shape)) if shape else 1
        if len(raw) < off + count * 8:
            raise CheckpointError(f"{path}: truncated in tensor {name}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape).copy()
        _check_finite(path, name, arr)
        off += count * 8
        group, key = name.split("/", 1)
        (student if group == "student" else teacher)[key] = arr
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} bytes after the last tensor")
    return Checkpoint(config, student, teacher, epoch, history)
