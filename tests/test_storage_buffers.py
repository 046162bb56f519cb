"""Tests for the buffer-manager layer (repro.storage.buffers).

The contract: a ColumnStore owns the flat columns, everything above it
holds views.  The memory backend gathers from (or adopts) arrays without
copying; the mmap backend opens snapshot containers zero-copy; both sit
behind one read interface the index layer consumes without knowing which
it got.
"""

import numpy as np
import pytest

from repro.geometry import Point
from repro.persistence import save_snapshot
from repro.storage import (
    COLUMN_NAMES,
    ColumnStore,
    MemoryColumnStore,
    MmapColumnStore,
)
from repro.zindex import ZIndex


def _small_index(n=500, seed=3, **kwargs):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(n, 2))]
    return ZIndex(pts, leaf_capacity=16, **kwargs)


class TestColumnStoreInterface:
    def test_mapping_protocol(self):
        xs = np.arange(5.0)
        store = MemoryColumnStore.from_arrays({"flat_x": xs})
        assert "flat_x" in store
        assert store["flat_x"] is xs
        assert store.get("missing") is None
        assert list(store) == ["flat_x"]
        assert store.names() == ("flat_x",)
        assert dict(store.items())["flat_x"] is xs

    def test_missing_column_raises_keyerror(self):
        store = MemoryColumnStore.from_arrays({})
        with pytest.raises(KeyError):
            store["flat_x"]

    def test_generation_bumps(self):
        store = MemoryColumnStore.from_arrays({})
        assert store.generation == 0
        store.bump()
        store.bump()
        assert store.generation == 2

    def test_nbytes_sums_columns(self):
        store = MemoryColumnStore.from_arrays(
            {"a": np.zeros(4, dtype=np.float64), "b": np.zeros(2, dtype=np.int64)}
        )
        assert store.nbytes == 4 * 8 + 2 * 8

    def test_memory_store_is_writable_and_unmapped(self):
        store = MemoryColumnStore.from_arrays({"a": np.zeros(3)})
        assert store.writable
        assert not store.is_mapped("a")

    def test_canonical_column_names(self):
        assert "flat_x" in COLUMN_NAMES
        assert "leaf_starts" in COLUMN_NAMES
        assert "skip_right" in COLUMN_NAMES
        assert len(COLUMN_NAMES) == 9


class TestGather:
    def test_gather_matches_leaflist_contents(self):
        index = _small_index()
        store = MemoryColumnStore.gather(index.leaflist)
        starts = store["leaf_starts"]
        assert starts[0] == 0
        assert int(starts[-1]) == len(index)
        lo = 0
        for i, entry in enumerate(index.leaflist):
            hi = lo + len(entry.page)
            assert int(starts[i + 1]) == hi
            np.testing.assert_array_equal(store["flat_x"][lo:hi], entry.page.xs)
            np.testing.assert_array_equal(store["flat_y"][lo:hi], entry.page.ys)
            lo = hi

    def test_adopted_store_backs_the_flat_cache(self):
        index = _small_index()
        index.batch_range_query(())  # primes the flat cache
        store = index._store
        assert isinstance(store, MemoryColumnStore)
        assert np.shares_memory(index._flat_x, store["flat_x"])
        assert np.shares_memory(index._flat_y, store["flat_y"])

    def test_pages_become_views_after_gather(self):
        index = _small_index()
        index._ensure_flat()
        store = index._store
        assert any(not e.page.owns_buffers for e in index.leaflist if len(e.page))
        for entry in index.leaflist:
            if len(entry.page):
                assert np.shares_memory(entry.page.xs, store["flat_x"])

    def test_mutation_bumps_store_and_promotes_page(self):
        index = _small_index()
        index._ensure_flat()
        old_store = index._store
        generation = old_store.generation
        index.insert(Point(1.5, 2.5))
        # The store was dropped/bumped; queries still correct.
        assert index._store is None or index._store is not old_store
        assert old_store.generation > generation
        assert index.point_query(Point(1.5, 2.5))


class TestMmapStore:
    def test_open_container_maps_columns(self, tmp_path):
        index = _small_index(use_skipping=True)
        path = tmp_path / "snap.zip"
        save_snapshot(index, path)
        store = MmapColumnStore.open(path)
        assert not store.writable
        for name in COLUMN_NAMES:
            assert name in store
            assert store.is_mapped(name), name
        np.testing.assert_array_equal(store["flat_x"], index._flat_columns()[0])
        assert store.manifest["kind"] == "zindex-structure"
        assert store.path == path

    def test_mapped_columns_are_readonly(self, tmp_path):
        index = _small_index()
        path = tmp_path / "snap.zip"
        save_snapshot(index, path)
        store = MmapColumnStore.open(path)
        with pytest.raises(ValueError):
            store["flat_x"][0] = 99.0

    def test_base_store_type_not_writable(self):
        store = ColumnStore({"a": np.zeros(2)})
        assert not store.writable
