"""Checkpoint binary format: round-trips and corruption errors."""

import struct

import numpy as np
import pytest

from collabsc.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from collabsc.rng import Xorshift64Star


def test_round_trip(tmp_path):
    rng = Xorshift64Star(1)
    params = {
        "encoder.0.W": rng.normals((3, 4)),
        "encoder.0.b": rng.normals((4,)),
        "scalar": np.asarray(2.5),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], np.asarray(params[name]))
        assert loaded[name].dtype == np.float64


def test_header_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.array([1.0, 2.0])})
    blob = path.read_bytes()
    assert blob[:4] == b"NCSC"
    assert struct.unpack_from("<I", blob, 4)[0] == 2  # version
    assert struct.unpack_from("<Q", blob, 8)[0] == 1  # record count
    assert struct.unpack_from("<Q", blob, 16)[0] == 1  # name length
    assert blob[24:25] == b"w"
    assert struct.unpack_from("<Q", blob, 25)[0] == 1  # rank
    assert struct.unpack_from("<Q", blob, 33)[0] == 2  # dim
    assert struct.unpack_from("<2d", blob, 41) == (1.0, 2.0)
    assert len(blob) == 57


def test_values_are_written_row_major_little_endian_whatever_the_layout(tmp_path):
    # the writer hands the file the array's own buffer when it can; an
    # F-ordered, a strided and a big-endian input must give the same bytes
    rows = np.arange(6.0).reshape(2, 3) - 2.5
    inputs = {"big_endian": rows.astype(">f8"), "f_ordered": np.asfortranarray(rows),
              "strided": np.arange(12.0).reshape(2, 6)[:, ::2],
              "zero_d": np.asarray(np.float64(-0.0))}
    assert not inputs["f_ordered"].flags.c_contiguous
    assert not inputs["strided"].flags.c_contiguous
    path = tmp_path / "layouts.ckpt"
    save_checkpoint(path, inputs)
    expected = b"NCSC" + struct.pack("<IQ", 2, 4)
    for name, dims, values in (
            ("big_endian", (2, 3), (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)),
            ("f_ordered", (2, 3), (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)),
            ("strided", (2, 3), (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)),
            ("zero_d", (), (-0.0,))):
        expected += struct.pack(f"<Q{len(name)}sQ{len(dims)}Q{len(values)}d", len(name),
                                name.encode(), len(dims), *dims, *values)
    assert path.read_bytes() == expected


def test_canonical_ordering_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, {"x": np.ones(2), "y": np.zeros(3)})
    save_checkpoint(b, {"y": np.zeros(3), "x": np.ones(2)})
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="offset 0"):
        load_checkpoint(path)


def test_truncated_values_report_offset(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, {"w": np.ones(4)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(b"NCSC" + struct.pack("<I", 9))
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint(path)


def test_version_1_is_refused(tmp_path):
    # version 1 had no record count: its records ran to the end of the file
    path = tmp_path / "v1.ckpt"
    record = struct.pack("<Q", 1) + b"w" + struct.pack("<QQ", 1, 1) + struct.pack("<d", 1.0)
    path.write_bytes(b"NCSC" + struct.pack("<I", 1) + record)
    with pytest.raises(CheckpointError, match="unsupported version 1 at offset 4, expected 2"):
        load_checkpoint(path)


def test_every_cut_of_a_file_is_refused(tmp_path):
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, {"w": np.ones((2, 2)), "x": np.asarray(3.0)})
    blob = full.read_bytes()
    assert set(load_checkpoint(full)) == {"w", "x"}
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def test_bytes_after_the_last_record_are_refused(tmp_path):
    path = tmp_path / "long.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="8 bytes after the last of 1 records"):
        load_checkpoint(path)


def test_duplicate_name_is_refused(tmp_path):
    # two records that would load as one parameter
    path = tmp_path / "dup.ckpt"
    record = struct.pack("<Q", 1) + b"w" + struct.pack("<QQ", 1, 1) + struct.pack("<d", 1.0)
    path.write_bytes(b"NCSC" + struct.pack("<IQ", 2, 2) + record + record)
    with pytest.raises(CheckpointError, match="duplicate name 'w' at offset 57"):
        load_checkpoint(path)


def test_non_utf8_name_reports_offset(tmp_path):
    path = tmp_path / "name.ckpt"
    save_checkpoint(path, {"w": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[24] = 0xFF  # first byte of the name
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="utf-8 at offset 24"):
        load_checkpoint(path)
