"""Round-trip tests for the columnar snapshot subsystem.

The contract under test: an index restored from a snapshot answers every
query with *byte-identical* results (contents and ordering) and identical
logical cost counters to the index that was saved — for structural Z-index
snapshots because the stored arrays reproduce the exact structure, and for
rebuild-recipe snapshots because construction is deterministic given the
stored seed.  Plus: format-version negotiation fails friendly, and loaded
indexes stay fully usable (updates, kNN, batch paths).
"""

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import build_index, build_or_load_index
from repro.engine import INDEX_NAMES
from repro.geometry import Point, Rect, points_to_arrays
from repro.interfaces import brute_force_range
from repro.persistence import (
    SNAPSHOT_FORMAT_VERSION,
    BuildRecipe,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    load_points_binary,
    load_points_columns,
    load_queries_binary,
    load_snapshot,
    read_manifest,
    save_points_binary,
    save_queries_binary,
    save_rebuild_snapshot,
    save_snapshot,
)
from repro.zindex import BaseZIndex, ZIndex
from repro.zindex.node import ORDER_BADC, pack_tree, unpack_tree
from repro.zindex.splitters import FixedDecisionStrategy, SplitDecision

#: Names whose built indexes support structural snapshots.
ZINDEX_NAMES = ("wazi", "wazi-sk", "base", "base+sk")


def as_rows(results):
    """Result lists as (x, y) tuples — ordering-sensitive on purpose."""
    return [p.as_tuple() for p in results]


def roundtrip(name, points, queries, tmp_path, leaf_capacity=32, seed=3):
    """Build ``name`` twice — directly and through a snapshot — and return both."""
    built = build_index(name, points, queries, leaf_capacity=leaf_capacity, seed=seed)
    path = tmp_path / "index.snapshot"
    if isinstance(built, ZIndex):
        save_snapshot(built, path)
    else:
        save_rebuild_snapshot(
            name, points, path, workload=queries, leaf_capacity=leaf_capacity, seed=seed
        )
    return built, load_snapshot(path)


class TestEveryIndexRoundtrips:
    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_results_and_counters_identical(
        self, name, clustered_points, small_workload, tmp_path
    ):
        points = clustered_points[:600]
        queries = small_workload.queries[:25]
        built, loaded = roundtrip(name, points, queries, tmp_path)
        built.reset_counters()
        loaded.reset_counters()
        # Identical query sequences on both sides: even the query-adaptive
        # baselines (QUASII cracks on queries) evolve identically.
        for query in queries:
            assert as_rows(built.range_query(query)) == as_rows(loaded.range_query(query))
        assert built.counters.snapshot() == loaded.counters.snapshot()
        assert len(built) == len(loaded)

    @pytest.mark.parametrize("name", INDEX_NAMES)
    def test_batch_and_knn_identical(
        self, name, clustered_points, small_workload, tmp_path
    ):
        points = clustered_points[:400]
        queries = small_workload.queries[:10]
        built, loaded = roundtrip(name, points, queries, tmp_path)
        built_batch = built.batch_range_query(queries)
        loaded_batch = loaded.batch_range_query(queries)
        assert [as_rows(r) for r in built_batch] == [as_rows(r) for r in loaded_batch]
        probes = points[:15]
        assert [as_rows(r) for r in built.batch_knn(probes, 5)] == [
            as_rows(r) for r in loaded.batch_knn(probes, 5)
        ]

    def test_results_match_brute_force(self, clustered_points, small_workload, tmp_path):
        points = clustered_points[:500]
        built, loaded = roundtrip("wazi", points, small_workload.queries[:20], tmp_path)
        for query in small_workload.queries[:20]:
            expected = sorted(as_rows(brute_force_range(points, query)))
            assert sorted(as_rows(loaded.range_query(query))) == expected


class TestStructuralSnapshot:
    @pytest.mark.parametrize("name", ZINDEX_NAMES)
    def test_structure_preserved(self, name, clustered_points, small_workload, tmp_path):
        built, loaded = roundtrip(
            name, clustered_points[:800], small_workload.queries[:20], tmp_path
        )
        assert loaded.name == built.name
        assert loaded.depth() == built.depth()
        assert loaded.node_counts() == built.node_counts()
        assert loaded.leaf_sizes() == built.leaf_sizes()
        assert loaded.size_bytes() == built.size_bytes()
        assert as_rows(loaded.all_points()) == as_rows(built.all_points())
        assert loaded.leaflist.check_linked()
        assert loaded.leaflist.check_skip_pointers_forward()
        assert loaded.use_skipping == built.use_skipping

    def test_save_is_deterministic(self, clustered_points, small_workload, tmp_path):
        index = build_index(
            "wazi", clustered_points[:300], small_workload.queries[:10], seed=5
        )
        first = tmp_path / "a.snapshot"
        second = tmp_path / "b.snapshot"
        save_snapshot(index, first)
        save_snapshot(index, second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_does_not_disturb_queries(self, clustered_points, small_workload, tmp_path):
        """Saving mid-workload neither mutates results nor cost counters."""
        index = build_index(
            "base+sk", clustered_points[:400], small_workload.queries[:5], seed=2
        )
        query = small_workload.queries[0]
        index.reset_counters()
        before = as_rows(index.range_query(query))
        counters_before = index.counters.snapshot()
        save_snapshot(index, tmp_path / "mid.snapshot")
        index.reset_counters()
        assert as_rows(index.range_query(query)) == before
        assert index.counters.snapshot() == counters_before

    def test_snapshot_after_updates(self, clustered_points, tmp_path):
        """A mutated index (stale flat cache) snapshots correctly."""
        index = BaseZIndex(clustered_points[:300], leaf_capacity=16)
        for offset in range(120):
            index.insert(Point(30.0 + offset * 1e-3, 32.0 + offset * 1e-3))
        index.delete(clustered_points[0])
        path = tmp_path / "mutated.snapshot"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        assert as_rows(loaded.all_points()) == as_rows(index.all_points())
        query = Rect(29.0, 31.0, 31.0, 33.0)
        assert as_rows(loaded.range_query(query)) == as_rows(index.range_query(query))

    def test_loaded_index_supports_updates(self, clustered_points, small_workload, tmp_path):
        built, loaded = roundtrip(
            "wazi", clustered_points[:400], small_workload.queries[:10], tmp_path
        )
        for offset in range(150):  # enough to overflow leaves and split
            loaded.insert(Point(30.0 + offset * 1e-4, 32.0 + offset * 1e-4))
        assert loaded.point_query(Point(30.0, 32.0))
        assert loaded.delete(Point(30.0, 32.0))
        assert not loaded.point_query(Point(30.0, 32.0))
        loaded.insert(Point(-500.0, -500.0))  # out-of-extent rebuild path
        assert loaded.point_query(Point(-500.0, -500.0))
        query = small_workload.queries[0]
        expected = sorted(as_rows(brute_force_range(loaded.all_points(), query)))
        assert sorted(as_rows(loaded.range_query(query))) == expected

    def test_empty_index(self, tmp_path):
        path = tmp_path / "empty.snapshot"
        save_snapshot(BaseZIndex([]), path)
        loaded = load_snapshot(path)
        assert len(loaded) == 0
        assert loaded.range_query(Rect(0.0, 0.0, 1.0, 1.0)) == []
        loaded.insert(Point(0.5, 0.5))
        assert loaded.point_query(Point(0.5, 0.5))

    def test_oversized_leaf(self, tmp_path):
        """Heavily duplicated coordinates produce pages beyond leaf_capacity."""
        points = [Point(1.0, 1.0)] * 40 + [Point(2.0, 2.0)] * 3
        index = BaseZIndex(points, leaf_capacity=8)
        path = tmp_path / "dupes.snapshot"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        query = Rect(0.0, 0.0, 3.0, 3.0)
        assert as_rows(loaded.range_query(query)) == as_rows(index.range_query(query))
        assert len(loaded) == 43

    def test_nonmonotone_ordering_roundtrips(self, tmp_path):
        """ORDER_BADC trees keep their four-corner projection after load."""
        rng = np.random.default_rng(9)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, (400, 2))]
        index = ZIndex(
            points,
            leaf_capacity=8,
            split_strategy=FixedDecisionStrategy(
                SplitDecision(50.0, 50.0, ORDER_BADC)
            ),
        )
        assert index._has_nonmonotone_ordering
        path = tmp_path / "badc.snapshot"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        assert loaded._has_nonmonotone_ordering
        for query in (Rect(10, 10, 60, 60), Rect(40, 0, 80, 100)):
            expected = sorted(as_rows(brute_force_range(points, query)))
            assert sorted(as_rows(loaded.range_query(query))) == expected

    def test_non_zindex_rejected_with_pointer(self, uniform_points, tmp_path):
        index = build_index("str", uniform_points)
        with pytest.raises(TypeError, match="save_rebuild_snapshot"):
            save_snapshot(index, tmp_path / "nope.snapshot")

    @given(
        n=st.integers(min_value=1, max_value=120),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        use_skipping=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_roundtrip_property(self, n, seed, use_skipping, tmp_path_factory):
        """Random datasets: structural round trip is byte-identical."""
        rng = np.random.default_rng(seed)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 64, (n, 2))]
        index = ZIndex(points, leaf_capacity=4, use_skipping=use_skipping)
        path = tmp_path_factory.mktemp("snap") / "rand.snapshot"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        x1, x2 = sorted(rng.uniform(0, 64, 2))
        y1, y2 = sorted(rng.uniform(0, 64, 2))
        query = Rect(float(x1), float(y1), float(x2), float(y2))
        index.reset_counters()
        loaded.reset_counters()
        assert as_rows(index.range_query(query)) == as_rows(loaded.range_query(query))
        assert index.counters.snapshot() == loaded.counters.snapshot()
        center = points[0]
        assert as_rows(index.knn(center, 3)) == as_rows(loaded.knn(center, 3))


class TestPackTreeTables:
    def test_roundtrip_preserves_structure(self, clustered_points):
        index = BaseZIndex(clustered_points[:300], leaf_capacity=8)
        tables, orderings = pack_tree(index.root)
        root, leaves = unpack_tree(tables, orderings)
        assert len(leaves) == len(index.leaflist)
        assert sorted(leaf.leaf_index for leaf in leaves) == list(range(len(leaves)))

    def test_empty_tree(self):
        tables, orderings = pack_tree(None)
        assert tables["tree_kind"].shape == (0,)
        root, leaves = unpack_tree(tables, orderings)
        assert root is None and leaves == []

    def test_malformed_child_id_rejected(self, clustered_points):
        index = BaseZIndex(clustered_points[:200], leaf_capacity=8)
        tables, orderings = pack_tree(index.root)
        if (tables["tree_kind"] == 0).any():
            bad = dict(tables)
            children = np.array(bad["tree_children"])
            children[0, 0] = 10_000_000
            bad["tree_children"] = children
            with pytest.raises(ValueError):
                unpack_tree(bad, orderings)


class TestVersionNegotiation:
    def _tamper_manifest(self, path, mutate):
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        manifest = json.loads(members["manifest.json"].decode("utf-8"))
        mutate(manifest)
        members["manifest.json"] = json.dumps(manifest).encode("utf-8")
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)

    @pytest.fixture
    def snapshot_path(self, uniform_points, tmp_path):
        path = tmp_path / "victim.snapshot"
        save_snapshot(BaseZIndex(uniform_points[:100]), path)
        return path

    def test_future_version_refused_with_both_versions_named(self, snapshot_path):
        self._tamper_manifest(
            snapshot_path, lambda m: m.update(format_version=SNAPSHOT_FORMAT_VERSION + 7)
        )
        with pytest.raises(SnapshotVersionError) as excinfo:
            load_snapshot(snapshot_path)
        message = str(excinfo.value)
        assert str(SNAPSHOT_FORMAT_VERSION + 7) in message
        assert str(SNAPSHOT_FORMAT_VERSION) in message

    def test_unknown_kind_refused(self, snapshot_path):
        self._tamper_manifest(snapshot_path, lambda m: m.update(kind="hologram"))
        with pytest.raises(SnapshotFormatError, match="hologram"):
            load_snapshot(snapshot_path)

    def test_missing_array_refused(self, uniform_points, tmp_path):
        path = tmp_path / "victim.snapshot"
        save_snapshot(BaseZIndex(uniform_points[:50]), path)
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        del members["flat_x.npy"]
        with zipfile.ZipFile(path, "w") as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="flat_x"):
            load_snapshot(path)

    def test_not_a_zip_refused(self, tmp_path):
        path = tmp_path / "garbage.snapshot"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_fingerprint_detects_repaired_coordinates(self):
        """Re-pairing the same x/y multisets must change the fingerprint."""
        import numpy as np
        from repro.persistence import dataset_fingerprint

        a = dataset_fingerprint(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        b = dataset_fingerprint(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert a != b
        # ... while permutations of the same pairs are equal (curve order
        # vs caller order).
        c = dataset_fingerprint(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert a == c

    def test_workload_content_mismatch_is_rebuilt(self, uniform_points, tmp_path):
        import repro.engine as engine

        queries = [Rect(0.1, 0.1, 0.5, 0.5), Rect(0.2, 0.2, 0.8, 0.8)]
        path = tmp_path / "wl.snapshot"
        build_or_load_index(
            "flood", uniform_points, queries, snapshot_path=path,
            leaf_capacity=32, seed=1,
        )
        assert engine._snapshot_matches_request(
            path, "flood", uniform_points, 32, 1, workload=queries
        )
        other = [Rect(0.1, 0.1, 0.5, 0.5), Rect(0.3, 0.3, 0.9, 0.9)]
        assert not engine._snapshot_matches_request(
            path, "flood", uniform_points, 32, 1, workload=other
        )
        # Same queries in a different order: adaptive baselines crack in
        # order, so the fingerprint is order-sensitive.
        assert not engine._snapshot_matches_request(
            path, "flood", uniform_points, 32, 1, workload=list(reversed(queries))
        )

    def test_snapshot_file_honours_umask(self, uniform_points, tmp_path):
        import os

        path = tmp_path / "perm.snapshot"
        save_snapshot(BaseZIndex(uniform_points[:50]), path)
        umask = os.umask(0)
        os.umask(umask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_corrupt_leaf_boxes_refused(self, uniform_points, tmp_path):
        """A shrunken bbox row must not load and hide points from queries."""
        import io

        path = tmp_path / "boxes.snapshot"
        save_snapshot(BaseZIndex(uniform_points[:200], leaf_capacity=8), path)
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        boxes = np.lib.format.read_array(io.BytesIO(members["leaf_boxes.npy"]))
        boxes[0] = (0.4, 0.4, 0.4, 0.4)
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, boxes)
        members["leaf_boxes.npy"] = buffer.getvalue()
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="leaf_boxes"):
            load_snapshot(path)

    def test_corrupt_nonempty_mask_refused(self, uniform_points, tmp_path):
        """A mask hiding populated leaves must not load silently."""
        import io

        path = tmp_path / "mask.snapshot"
        save_snapshot(BaseZIndex(uniform_points[:200], leaf_capacity=8), path)
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        mask = np.lib.format.read_array(io.BytesIO(members["leaf_nonempty.npy"]))
        mask[0] = not mask[0]
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, mask)
        members["leaf_nonempty.npy"] = buffer.getvalue()
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="leaf_nonempty"):
            load_snapshot(path)

    def test_corrupt_skip_pointers_refused(self, clustered_points, tmp_path):
        """Out-of-range look-ahead pointers must not load and drop results."""
        import io

        path = tmp_path / "sk.snapshot"
        save_snapshot(
            build_index("base+sk", clustered_points[:300], leaf_capacity=8), path
        )
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        column = np.lib.format.read_array(io.BytesIO(members["skip_below.npy"]))
        column[:] = 10_000_000
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, column)
        members["skip_below.npy"] = buffer.getvalue()
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="skip pointer"):
            load_snapshot(path)

    def test_corrupt_manifest_scalars_refused(self, snapshot_path):
        """Bad scalar types must map to SnapshotFormatError, not ValueError/TypeError."""
        self._tamper_manifest(
            snapshot_path, lambda m: m["index"].update(leaf_capacity="abc")
        )
        with pytest.raises(SnapshotFormatError):
            load_snapshot(snapshot_path)

    def test_malformed_extent_refused(self, snapshot_path):
        self._tamper_manifest(
            snapshot_path, lambda m: m["index"].update(extent=[0.0, 0.0, 1.0])
        )
        with pytest.raises(SnapshotFormatError):
            load_snapshot(snapshot_path)

    def test_foreign_zip_refused(self, tmp_path):
        path = tmp_path / "foreign.zip"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("readme.txt", "hello")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_all_errors_are_snapshot_errors(self, snapshot_path):
        """Serving code needs exactly one except clause for the fallback."""
        self._tamper_manifest(snapshot_path, lambda m: m.update(format_version=99))
        with pytest.raises(SnapshotError):
            load_snapshot(snapshot_path)

    def test_nonzero_leaf_starts_base_refused(self, snapshot_path):
        """A shifted offset table must not silently drop leading points."""
        with zipfile.ZipFile(snapshot_path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        import io

        starts = np.lib.format.read_array(io.BytesIO(members["leaf_starts.npy"]))
        starts = starts + 5
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, starts)
        members["leaf_starts.npy"] = buffer.getvalue()
        with zipfile.ZipFile(snapshot_path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="begin at 0"):
            load_snapshot(snapshot_path)


def _rewrite_members(path, edit):
    """Rewrite a snapshot container after ``edit(manifest, members)``."""
    with zipfile.ZipFile(path, "r") as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    manifest = json.loads(members["manifest.json"].decode("utf-8"))
    edit(manifest, members)
    members["manifest.json"] = json.dumps(manifest).encode("utf-8")
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name, payload in members.items():
            archive.writestr(name, payload)


class TestBuildRecipe:
    def test_aliases_resolve_and_value_is_frozen(self):
        recipe = BuildRecipe("WAZI_NOSK", [Rect(0, 0, 1, 1)], kwargs={"a": 1})
        assert recipe.name == "wazi-sk"
        assert recipe == BuildRecipe("wazi-sk", (Rect(0, 0, 1, 1),), kwargs={"a": 1})
        assert isinstance(recipe.workload, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            recipe.seed = 5

    def test_matches_only_its_own_request_and_dataset(self, uniform_points):
        xs, ys = points_to_arrays(uniform_points)
        recipe = BuildRecipe("base", [Rect(0.1, 0.1, 0.2, 0.2)], leaf_capacity=32, seed=3)
        section = recipe.section(xs, ys)
        assert recipe.matches(section, xs, ys)
        assert not recipe.matches(dict(section, seed=4), xs, ys)
        assert not recipe.matches(section, xs[:-1], ys[:-1])
        assert not recipe.matches(section, ys, xs)
        assert not recipe.matches(None, xs, ys)
        assert not recipe.matches(["base"], xs, ys)

    def test_adapted_section_matches_on_index_kwargs_and_dataset(self, uniform_points):
        xs, ys = points_to_arrays(uniform_points)
        adapted = BuildRecipe(
            "wazi", [Rect(0.5, 0.5, 0.9, 0.9)], leaf_capacity=16, seed=9, adapted=True
        ).section(xs, ys)
        assert adapted["adapted"] is True
        request = BuildRecipe("wazi", [Rect(0.0, 0.0, 0.1, 0.1)], leaf_capacity=64, seed=0)
        assert request.matches(adapted, xs, ys)
        assert not BuildRecipe("base").matches(adapted, xs, ys)
        assert not BuildRecipe("wazi", kwargs={"x": 1}).matches(adapted, xs, ys)
        assert not request.matches(adapted, xs[:-1], ys[:-1])

    def test_unstorable_kwargs_record_no_build_section(self, uniform_points, tmp_path):
        recipe = BuildRecipe("base", kwargs={"density": object()})
        xs, ys = points_to_arrays(uniform_points)
        assert recipe.section(xs, ys) is None
        assert not recipe.matches({"name": "base"}, xs, ys)
        path = tmp_path / "x.snapshot"
        manifest = save_snapshot(build_index("base", uniform_points), path, recipe=recipe)
        assert "build" not in manifest and "build" not in read_manifest(path)
        assert len(load_snapshot(path)) == len(uniform_points)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m, a: m["build"].update(kwargs=[1, 2]), "not a mapping"),
            (lambda m, a: m.update(build="base"), "malformed build section"),
            (lambda m, a: a.pop("workload_rects.npy"), "workload_rects"),
        ],
        ids=["kwargs-list", "section-string", "no-workload-member"],
    )
    def test_malformed_build_section_fails_load(
        self, uniform_points, tmp_path, edit, message
    ):
        path = tmp_path / "x.snapshot"
        save_snapshot(
            build_index("base", uniform_points[:200], leaf_capacity=16),
            path,
            recipe=BuildRecipe("base", leaf_capacity=16),
        )
        _rewrite_members(path, edit)
        with pytest.raises(SnapshotFormatError, match=message):
            load_snapshot(path)


class TestRebuildSnapshot:
    def test_kwargs_must_be_json(self, uniform_points, tmp_path):
        with pytest.raises(TypeError, match="JSON"):
            save_rebuild_snapshot(
                "base", uniform_points, tmp_path / "x.snapshot",
                not_serialisable=object(),
            )

    def test_unknown_name_fails_friendly(self, uniform_points, tmp_path):
        path = tmp_path / "x.snapshot"
        save_rebuild_snapshot("base", uniform_points[:50], path)
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        manifest = json.loads(members["manifest.json"].decode("utf-8"))
        manifest["build"]["name"] = "warp-drive"
        members["manifest.json"] = json.dumps(manifest).encode("utf-8")
        with zipfile.ZipFile(path, "w") as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        with pytest.raises(SnapshotFormatError, match="warp-drive"):
            load_snapshot(path)

    @pytest.mark.parametrize("name", ["str", "cur", "flood", "quasii", "rtree", "quadtree"])
    def test_loaded_index_supports_updates(self, name, uniform_points, tmp_path):
        path = tmp_path / f"{name}.snapshot"
        save_rebuild_snapshot(name, uniform_points, path, seed=1)
        loaded = load_snapshot(path)
        loaded.insert(Point(0.123, 0.987))
        assert loaded.point_query(Point(0.123, 0.987))
        assert loaded.delete(Point(0.123, 0.987))
        assert not loaded.point_query(Point(0.123, 0.987))
        query = Rect(0.1, 0.1, 0.6, 0.6)
        expected = sorted(as_rows(brute_force_range(uniform_points, query)))
        assert sorted(as_rows(loaded.range_query(query))) == expected


class TestBuildOrLoad:
    def test_second_call_loads_instead_of_building(
        self, clustered_points, small_workload, tmp_path, monkeypatch
    ):
        points = clustered_points[:400]
        queries = small_workload.queries[:10]
        path = tmp_path / "serving" / "wazi.snapshot"
        first = build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=4
        )
        assert path.exists()
        import repro.engine as engine

        def refuse(*args, **kwargs):
            raise AssertionError("second call must load the snapshot, not rebuild")

        monkeypatch.setattr(engine, "build_index", refuse)
        second = build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=4
        )
        for query in queries:
            assert as_rows(first.range_query(query)) == as_rows(second.range_query(query))

    def test_corrupt_snapshot_falls_back_to_build(
        self, clustered_points, small_workload, tmp_path
    ):
        points = clustered_points[:300]
        queries = small_workload.queries[:5]
        path = tmp_path / "wazi.snapshot"
        path.write_bytes(b"corrupted beyond recognition")
        index = build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=4
        )
        assert len(index) == len(points)
        assert load_snapshot(path).name == index.name  # overwritten with a good one

    def test_mismatched_snapshot_is_rebuilt(
        self, clustered_points, small_workload, tmp_path
    ):
        """A snapshot of a different index/dataset must not be served."""
        points = clustered_points[:300]
        queries = small_workload.queries[:5]
        path = tmp_path / "shared.snapshot"
        build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=4
        )
        # Different name, different dataset size: must rebuild, not serve WaZI.
        other = build_or_load_index(
            "str", clustered_points[:120], queries, snapshot_path=path,
            leaf_capacity=32, seed=4,
        )
        assert other.name == "STR"
        assert len(other) == 120
        # The stale snapshot was overwritten with the matching recipe.
        assert load_snapshot(path).name == "STR"

    def test_structural_seed_or_workload_change_is_rebuilt(
        self, clustered_points, small_workload, tmp_path, monkeypatch
    ):
        """The helper records the build request; changing it must rebuild."""
        points = clustered_points[:300]
        queries = small_workload.queries[:8]
        path = tmp_path / "w.snapshot"
        build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=1
        )
        import repro.engine as engine

        calls = []
        original = engine.build_index

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "build_index", counting)
        # Different seed: rebuild.
        build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=2
        )
        assert len(calls) == 1
        # Different workload content (same size): rebuild.
        build_or_load_index(
            "wazi", points, list(reversed(queries)), snapshot_path=path,
            leaf_capacity=32, seed=2,
        )
        assert len(calls) == 2
        # Identical request: served from the snapshot.
        build_or_load_index(
            "wazi", points, list(reversed(queries)), snapshot_path=path,
            leaf_capacity=32, seed=2,
        )
        assert len(calls) == 2

    def test_bare_save_snapshot_is_not_served_by_helper(
        self, clustered_points, tmp_path
    ):
        """No build_request recorded -> the helper conservatively rebuilds."""
        points = clustered_points[:200]
        path = tmp_path / "bare.snapshot"
        save_snapshot(build_index("base", points, leaf_capacity=16), path)
        import repro.engine as engine

        assert not engine._snapshot_matches_request(path, "base", points, 16, 0)

    def test_legacy_build_request_snapshot_loads_but_is_rebuilt(
        self, clustered_points, small_workload, tmp_path, monkeypatch
    ):
        """Structural snapshots from before the shared ``build`` section
        carry a ``build_request`` instead: they still load, and the helper
        rebuilds them rather than serve a recipe it cannot verify."""
        import repro.engine as engine
        from repro.engine import SpatialEngine
        from repro.persistence import read_manifest

        points = clustered_points[:300]
        queries = small_workload.queries[:5]
        path = tmp_path / "legacy.snapshot"
        save_snapshot(build_index("wazi", points, queries, leaf_capacity=32, seed=4), path)
        with zipfile.ZipFile(path, "r") as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        manifest = json.loads(members["manifest.json"].decode("utf-8"))
        manifest["build_request"] = {
            "name": "wazi", "seed": 4, "num_queries": len(queries),
            "workload_fingerprint": "0-5", "kwargs": {},
        }
        members["manifest.json"] = json.dumps(manifest).encode("utf-8")
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)

        assert len(load_snapshot(path)) == len(points)
        loaded = SpatialEngine.load(path)
        assert (loaded._recipe.name, loaded._recipe.leaf_capacity) == ("wazi", 32)

        calls = []
        original = engine.build_index

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "build_index", counting)
        build_or_load_index(
            "wazi", points, queries, snapshot_path=path, leaf_capacity=32, seed=4
        )
        assert len(calls) == 1
        rewritten = read_manifest(path)
        assert "build_request" not in rewritten and rewritten["build"]["seed"] == 4

    def test_extra_kwargs_force_structural_rebuild(
        self, clustered_points, small_workload, tmp_path
    ):
        """kwargs live in the recorded build_request: differing ones rebuild.

        (An identical repeated request, kwargs included, is served from the
        snapshot — the rebuild here happens because the stored request has
        no ``max_depth`` while the new one does.)
        """
        points = clustered_points[:200]
        path = tmp_path / "kw.snapshot"
        build_or_load_index(
            "base", points, snapshot_path=path, leaf_capacity=16, seed=4
        )
        index = build_or_load_index(
            "base", points, snapshot_path=path, leaf_capacity=16, seed=4, max_depth=2
        )
        assert index.max_depth == 2

    def test_same_dataset_size_different_content_is_rebuilt(
        self, clustered_points, tmp_path
    ):
        points = clustered_points[:200]
        path = tmp_path / "fp.snapshot"
        build_or_load_index("base", points, snapshot_path=path, leaf_capacity=16, seed=4)
        other = [Point(p.x + 1.5, p.y) for p in points]
        index = build_or_load_index(
            "base", other, snapshot_path=path, leaf_capacity=16, seed=4
        )
        assert index.point_query(other[0])
        assert not index.point_query(points[0]) or points[0] in other

    def test_same_class_different_leaf_capacity_is_rebuilt(
        self, clustered_points, small_workload, tmp_path
    ):
        points = clustered_points[:200]
        queries = small_workload.queries[:5]
        path = tmp_path / "cap.snapshot"
        build_or_load_index(
            "base", points, queries, snapshot_path=path, leaf_capacity=8, seed=4
        )
        index = build_or_load_index(
            "base", points, queries, snapshot_path=path, leaf_capacity=64, seed=4
        )
        assert index.leaf_capacity == 64

    def test_rebuild_recipe_seed_mismatch_is_rebuilt(self, uniform_points, tmp_path):
        """The recipe records the seed; a different request must not reuse it."""
        path = tmp_path / "flood.snapshot"
        build_or_load_index(
            "flood", uniform_points, snapshot_path=path, leaf_capacity=32, seed=1
        )
        import repro.engine as engine

        assert engine._snapshot_matches_request(path, "flood", uniform_points, 32, 1)
        assert not engine._snapshot_matches_request(path, "flood", uniform_points, 32, 2)
        # Same size, different content: the fingerprint must catch it.
        shifted = [Point(p.x + 0.25, p.y) for p in uniform_points]
        assert not engine._snapshot_matches_request(path, "flood", shifted, 32, 1)

    def test_non_zindex_uses_rebuild_recipe(self, uniform_points, tmp_path):
        path = tmp_path / "str.snapshot"
        first = build_or_load_index(
            "str", uniform_points, snapshot_path=path, leaf_capacity=32, seed=4
        )
        second = build_or_load_index(
            "str", uniform_points, snapshot_path=path, leaf_capacity=32, seed=4
        )
        query = Rect(0.2, 0.2, 0.7, 0.7)
        assert as_rows(first.range_query(query)) == as_rows(second.range_query(query))


class TestBinaryDatasetCodecs:
    def test_points_roundtrip(self, uniform_points, tmp_path):
        path = tmp_path / "points.cols"
        save_points_binary(uniform_points, path)
        assert load_points_binary(path) == uniform_points
        xs, ys = load_points_columns(path)
        assert xs.shape == (len(uniform_points),)
        assert float(xs[0]) == uniform_points[0].x

    def test_empty_points(self, tmp_path):
        path = tmp_path / "empty.cols"
        save_points_binary([], path)
        assert load_points_binary(path) == []

    def test_queries_roundtrip(self, sample_queries, tmp_path):
        path = tmp_path / "queries.cols"
        save_queries_binary(sample_queries, path)
        assert load_queries_binary(path) == sample_queries

    def test_kind_mismatch_rejected(self, uniform_points, tmp_path):
        path = tmp_path / "points.cols"
        save_points_binary(uniform_points[:5], path)
        with pytest.raises(SnapshotFormatError):
            load_queries_binary(path)

    def test_mismatched_column_lengths_refused(self, tmp_path):
        from repro.persistence import write_container
        from repro.persistence.arrays import ARRAYS_FORMAT_VERSION, KIND_POINTS

        path = tmp_path / "bad.cols"
        write_container(
            path,
            {"kind": KIND_POINTS, "format_version": ARRAYS_FORMAT_VERSION},
            {"xs": np.zeros(3), "ys": np.zeros(2)},
        )
        with pytest.raises(SnapshotFormatError):
            load_points_binary(path)

    def test_points_loader_rejects_queries_file(self, sample_queries, tmp_path):
        path = tmp_path / "queries.cols"
        save_queries_binary(sample_queries[:3], path)
        with pytest.raises(SnapshotFormatError):
            load_points_binary(path)

    def test_manifest_records_kind_and_version(self, uniform_points, tmp_path):
        from repro.persistence import read_manifest
        from repro.persistence.arrays import ARRAYS_FORMAT_VERSION, KIND_POINTS

        path = tmp_path / "points.cols"
        save_points_binary(uniform_points[:3], path)
        manifest = read_manifest(path)
        assert manifest["kind"] == KIND_POINTS
        assert manifest["format_version"] == ARRAYS_FORMAT_VERSION
        assert "library_version" in manifest

    def test_wrong_version_rejected(self, tmp_path):
        from repro.persistence import write_container
        from repro.persistence.arrays import KIND_QUERIES

        path = tmp_path / "future.cols"
        write_container(
            path,
            {"kind": KIND_QUERIES, "format_version": 99},
            {"rects": np.zeros((0, 4))},
        )
        with pytest.raises(SnapshotVersionError, match="99"):
            load_queries_binary(path)

    @pytest.mark.parametrize(
        "payload", [b"not a container at all", json.dumps([1, 2, 3]).encode("utf-8")]
    )
    def test_foreign_file_refused(self, payload, tmp_path):
        path = tmp_path / "foreign.cols"
        path.write_bytes(payload)
        with pytest.raises(SnapshotError):
            load_points_binary(path)

    def test_missing_column_refused(self, tmp_path):
        from repro.persistence import write_container
        from repro.persistence.arrays import ARRAYS_FORMAT_VERSION, KIND_POINTS

        path = tmp_path / "one-column.cols"
        write_container(
            path,
            {"kind": KIND_POINTS, "format_version": ARRAYS_FORMAT_VERSION},
            {"xs": np.zeros(3)},
        )
        with pytest.raises(SnapshotFormatError, match="ys"):
            load_points_binary(path)

    def test_malformed_rects_table_refused(self, tmp_path):
        from repro.persistence import write_container
        from repro.persistence.arrays import ARRAYS_FORMAT_VERSION, KIND_QUERIES

        path = tmp_path / "bad-rects.cols"
        write_container(
            path,
            {"kind": KIND_QUERIES, "format_version": ARRAYS_FORMAT_VERSION},
            {"rects": np.zeros((1, 3))},
        )
        with pytest.raises(SnapshotFormatError, match="rects"):
            load_queries_binary(path)
