"""Tests for aligned container members and zero-copy mapping.

The contract: array members of a snapshot container start at 64-byte-
aligned file offsets (via a benign ZIP extra field any reader ignores),
``map_container`` yields memmaps byte-identical to ``read_container``'s
copies, and the file stays a plain, deterministic ZIP archive.
"""

import struct
import zipfile

import numpy as np
import pytest

from repro.persistence import (
    MEMBER_ALIGNMENT,
    SnapshotFormatError,
    array_member_offsets,
    map_container,
    read_container,
    write_container,
)
from repro.persistence.container import _LOCAL_HEADER_SIZE


def _sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "flat_x": rng.uniform(size=701),
        "flat_y": rng.uniform(size=701),
        "leaf_starts": np.arange(45, dtype=np.int64),
        "boxes": rng.uniform(size=(44, 4)),
        "mask": rng.uniform(size=44) > 0.5,
        "empty": np.empty(0, dtype=np.float64),
        "weird_name_αβ": np.arange(7, dtype=np.int16),
    }


class TestAlignment:
    def test_every_member_data_offset_is_aligned(self, tmp_path):
        path = tmp_path / "c.zip"
        write_container(path, {"kind": "test"}, _sample_arrays())
        offsets = array_member_offsets(path)
        assert set(offsets) == set(_sample_arrays())
        for name, offset in offsets.items():
            assert offset % MEMBER_ALIGNMENT == 0, (name, offset)

    def test_alignment_preserved_for_any_member_order(self, tmp_path):
        arrays = _sample_arrays()
        for i, order in enumerate((sorted(arrays), sorted(arrays, reverse=True))):
            path = tmp_path / f"c{i}.zip"
            write_container(path, {"kind": "test"}, {k: arrays[k] for k in order})
            for name, offset in array_member_offsets(path).items():
                assert offset % MEMBER_ALIGNMENT == 0

    def test_file_is_still_plain_zip(self, tmp_path):
        path = tmp_path / "c.zip"
        write_container(path, {"kind": "test"}, _sample_arrays())
        with zipfile.ZipFile(path) as archive:
            assert archive.testzip() is None
            names = set(archive.namelist())
        assert "manifest.json" in names
        assert "flat_x.npy" in names

    def test_writes_stay_deterministic(self, tmp_path):
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        write_container(a, {"kind": "test"}, _sample_arrays())
        write_container(b, {"kind": "test"}, _sample_arrays())
        assert a.read_bytes() == b.read_bytes()

    def test_alignment_math_matches_zip_headers(self, tmp_path):
        path = tmp_path / "c.zip"
        write_container(path, {"kind": "test"}, _sample_arrays())
        offsets = array_member_offsets(path)
        raw = path.read_bytes()
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[: -len(".npy")]
                header = raw[info.header_offset: info.header_offset + _LOCAL_HEADER_SIZE]
                name_len, extra_len = struct.unpack("<HH", header[26:30])
                data_offset = info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
                assert offsets[name] == data_offset


class TestMapContainer:
    def test_mapped_arrays_byte_identical_to_read(self, tmp_path):
        path = tmp_path / "c.zip"
        arrays = _sample_arrays()
        write_container(path, {"kind": "test"}, arrays)
        manifest_r, copied = read_container(path)
        manifest_m, mapped = map_container(path)
        assert manifest_r == manifest_m
        assert set(copied) == set(mapped)
        for name in copied:
            np.testing.assert_array_equal(copied[name], mapped[name])
            assert copied[name].dtype == mapped[name].dtype
            assert copied[name].shape == mapped[name].shape

    def test_nonempty_members_are_memmaps(self, tmp_path):
        path = tmp_path / "c.zip"
        write_container(path, {"kind": "test"}, _sample_arrays())
        _, mapped = map_container(path)
        for name, array in mapped.items():
            if array.size:
                assert isinstance(array, np.memmap), name
            assert not array.flags.writeable

    def test_mapped_arrays_survive_source_dict(self, tmp_path):
        # The mapping must read from the file, not from process state.
        path = tmp_path / "c.zip"
        arrays = _sample_arrays()
        write_container(path, {"kind": "test"}, arrays)
        expected = {k: v.copy() for k, v in arrays.items()}
        del arrays
        _, mapped = map_container(path)
        for name, want in expected.items():
            np.testing.assert_array_equal(mapped[name], want)

    def test_corrupt_file_raises_format_error(self, tmp_path):
        path = tmp_path / "c.zip"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(SnapshotFormatError):
            map_container(path)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises((SnapshotFormatError, OSError)):
            map_container(tmp_path / "nope.zip")
