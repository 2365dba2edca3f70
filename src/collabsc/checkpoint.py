"""Flat binary parameter checkpoints.

Layout: 4-byte magic ``NCSC``, version u32 little-endian, record count u64
LE, then one record per parameter: name length (u64 LE), name utf-8 bytes,
rank (u64 LE), dims (rank x u64 LE), raw float64 values little-endian.
Parameters are written sorted by name so files are canonical. The count
lets the reader refuse a file cut short at a record boundary, or one with
bytes after its last record. Version 1 files, which had no count, are
refused.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"NCSC"
VERSION = 2


class CheckpointError(ValueError):
    """Malformed checkpoint file (the message carries the byte offset), or a
    key that does not fit the model it is loaded into or holds a NaN or inf
    value (the message names it)."""


def save_checkpoint(path, params: dict) -> None:
    """``params`` maps name -> Tensor or ndarray."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IQ", VERSION, len(params)))
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
        raise CheckpointError(f"{path}: unsupported version {version} at offset 4, "
                              f"expected {VERSION}")
    params: dict[str, np.ndarray] = {}
    off = 8

    def need(nbytes, what):
        if off + nbytes > len(data):
            raise CheckpointError(f"{path}: truncated {what} at offset {off}")

    def read_u64s(count, what):
        nonlocal off
        need(8 * count, what)
        values = struct.unpack_from(f"<{count}Q", data, off)
        off += 8 * count
        return values

    (records,) = read_u64s(1, "record count")
    for _ in range(records):
        (name_len,) = read_u64s(1, "name length")
        need(name_len, "name")
        try:
            name = data[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: name is not utf-8 at offset {off}") from None
        if name in params:
            raise CheckpointError(f"{path}: duplicate name {name!r} at offset {off}")
        off += name_len
        (rank,) = read_u64s(1, "rank")
        dims = read_u64s(rank, "dims")
        count = 1
        for d in dims:
            count *= d
        need(8 * count, f"values of {name!r}")
        values = np.frombuffer(data, dtype="<f8", count=count, offset=off).reshape(dims)
        off += 8 * count
        params[name] = np.array(values, dtype=np.float64)
    if off != len(data):
        raise CheckpointError(f"{path}: {len(data) - off} bytes after the last of "
                              f"{records} records at offset {off}")
    return params
