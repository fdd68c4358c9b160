"""Binary checkpoints: little-endian, magic "MSIA", version 1.

Layout: magic (4 bytes), u32 version, u64 step, u32 tensor count, then per
tensor: u32 name length, UTF-8 name, u32 ndim, ndim x u64 dims, u8 dtype tag
(0 = f64, the only tag defined), raw f64 values. A u32-length-prefixed UTF-8
block of key=value config lines closes the file.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .train import ConfigError, TrainState, config_from_text, config_to_text, init_state

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MSIA"
VERSION = 1
F64_TAG = 0


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or mismatched checkpoint files."""


def _named_tensors(state: TrainState) -> dict[str, np.ndarray]:
    """What a checkpoint of ``state`` holds, by name. The loader checks a file
    against this map of a fresh ``init_state``, and fills its arrays."""
    tensors: dict[str, np.ndarray] = {}
    for name, p in state.pair.online.items():
        tensors[f"online.{name}"] = p.data
    for name, p in state.pair.target.items():
        tensors[f"target.{name}"] = p.data
    for name, buf in state.opt_buffers.items():
        tensors[f"opt.{name}"] = buf
    if state.queue is not None:
        tensors["queue.buffer"] = state.queue.buffer
        tensors["queue.state"] = np.array([state.queue.size, state.queue.cursor],
                                          dtype=np.float64)
    return dict(sorted(tensors.items()))


def save_checkpoint(state: TrainState, path) -> None:
    """Write ``state`` to ``path``. The bytes go to a sibling temporary file
    that replaces ``path`` only once complete and fsynced, so a failed save
    leaves an existing checkpoint as it was and the rename never points
    ``path`` at bytes not yet on disk. A state inside an accumulation window,
    whose grads a checkpoint does not hold, is refused."""
    path = Path(path)
    if state.step % state.config.accumulation_steps:
        raise CheckpointError(f"{path}: step {state.step} is inside an accumulation window")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            tensors = _named_tensors(state)
            fh.write(MAGIC)
            fh.write(struct.pack("<IQI", VERSION, state.step, len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(struct.pack("<B", F64_TAG))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            config_blob = config_to_text(state.config).encode("utf-8")
            fh.write(struct.pack("<I", len(config_blob)))
            fh.write(config_blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = memoryview(blob)  # slices share the file's bytes
        self.off = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated (needed {n} more bytes)")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 ({err.reason})") from None


def _queue_state(state: np.ndarray, length: int, path) -> tuple[int, int]:
    """The (size, cursor) that a saved two-value ``queue.state`` holds, if a
    ``length``-row NegativeQueue can be in that state: the cursor trails the
    size until the queue is full."""
    if not np.isfinite(state).all() or (state != np.trunc(state)).any():
        raise CheckpointError(f"{path}: queue.state {state.tolist()} is not two integers")
    size, cursor = int(state[0]), int(state[1])
    if not (0 <= size <= length and 0 <= cursor < length and (size == length or cursor == size)):
        raise CheckpointError(f"{path}: queue.state (size {size}, cursor {cursor}) is not "
                              f"reachable in a queue of length {length}")
    return size, cursor


def load_checkpoint(path) -> TrainState:
    """Rebuild a full training state; raises CheckpointError on any damage.
    The file holds what ``save_checkpoint`` writes of ``init_state`` of its
    config, optimizer buffers optional, and its values fill that state."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version, step, count = r.unpack("<IQI")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<I")
        name = r.text(name_len, "tensor name")
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} appears twice")
        (ndim,) = r.unpack("<I")
        dims = r.unpack(f"<{ndim}Q") if ndim else ()
        (tag,) = r.unpack("<B")
        if tag != F64_TAG:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for {name}")
        n = math.prod(dims)  # a Python int: an int64 product of huge dims would wrap
        # a read-only view of the file's bytes, copied only into the state
        tensors[name] = np.frombuffer(r.take(n * 8), dtype="<f8").reshape(dims)

    (cfg_len,) = r.unpack("<I")
    try:
        cfg = config_from_text(r.text(cfg_len, "config block"))
    except ConfigError as err:
        raise CheckpointError(f"{path}: config block: {err}") from None
    if r.off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.off} trailing bytes")
    if step > cfg.steps or step % cfg.accumulation_steps:
        raise CheckpointError(f"{path}: step {step} is no accumulation boundary of steps="
                              f"{cfg.steps} (accumulation_steps={cfg.accumulation_steps})")

    state = init_state(cfg)
    state.step = step
    fresh = _named_tensors(state)
    for name, arr in tensors.items():
        group, _, key = name.partition(".")
        want = fresh.get(f"online.{key}" if group == "opt" else name)
        if want is None:
            raise CheckpointError(f"{path}: loss_mode={cfg.loss_mode} keeps no tensor {name}")
        if arr.shape != want.shape:
            raise CheckpointError(f"{path}: {name} has shape {arr.shape}, not {want.shape}")
        # training keeps every saved value finite; _queue_state checks queue.state
        if name != "queue.state" and not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} holds a non-finite value")
        if group == "opt":
            state.opt_buffers[key] = arr.astype(np.float64)
        else:
            want[...] = arr  # queue.state's is a copy: _queue_state reads it below
    missing = next((name for name in fresh if name not in tensors), None)
    if missing is not None:
        raise CheckpointError(f"{path}: tensor {missing} is missing")
    if state.queue is not None:
        state.queue.size, state.queue.cursor = _queue_state(tensors["queue.state"],
                                                            cfg.queue_length, path)
    return state
