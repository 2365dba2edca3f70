"""Flat binary parameter checkpoints.

Layout: 4-byte magic ``NCSC``, version u32 little-endian, then one record
per parameter: name length (u64 LE), name utf-8 bytes, rank (u64 LE), dims
(rank x u64 LE), raw float64 values little-endian. Records run to EOF;
parameters are written sorted by name so files are canonical.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"NCSC"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file (the message carries the byte offset), or a
    key that does not fit the model it is loaded into (the message names it)."""


def save_checkpoint(path, params: dict) -> None:
    """``params`` maps name -> Tensor or ndarray."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for name in sorted(params):
            arr = params[name]
            values = np.asarray(getattr(arr, "values", arr), dtype=np.float64)
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<Q", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<Q", values.ndim))
            for d in values.shape:
                f.write(struct.pack("<Q", d))
            f.write(values.astype("<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r} at offset 0, expected {MAGIC!r}")
    if len(data) < 8:
        raise CheckpointError(f"{path}: truncated header at offset {len(data)}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version} at offset 4")
    params: dict[str, np.ndarray] = {}
    off = 8

    def need(nbytes, what):
        if off + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated {what} at offset {off}")

    while off < len(data):
        need(8, "name length")
        (name_len,) = struct.unpack_from("<Q", data, off)
        off += 8
        need(name_len, "name")
        try:
            name = data[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: name is not utf-8 at offset {off}") from None
        off += name_len
        need(8, "rank")
        (rank,) = struct.unpack_from("<Q", data, off)
        off += 8
        need(8 * rank, "dims")
        dims = struct.unpack_from(f"<{rank}Q", data, off) if rank else ()
        off += 8 * rank
        count = 1
        for d in dims:
            count *= d
        need(8 * count, f"values of {name!r}")
        values = np.frombuffer(data, dtype="<f8", count=count, offset=off).reshape(dims)
        off += 8 * count
        params[name] = np.array(values, dtype=np.float64)
    return params
