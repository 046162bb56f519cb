"""Runtime sanitizer: clean indexes pass, corrupted state is caught with a
named invariant, install/uninstall leaves the library pristine."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.devtools import invariants
from repro.devtools.invariants import (
    InvariantViolation,
    check_index_invariants,
    check_shard_conservation,
    install_sanitizer,
    sanitize_enabled,
    sanitizer_installed,
    uninstall_sanitizer,
)
from repro.engine import build_index
from repro.geometry import Point, Rect
from repro.persistence import load_snapshot, save_snapshot
from repro.serving import build_shards, open_sharded
from repro.zindex.base import ZIndex


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(41)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0.0, 1.0, (900, 2))]


@pytest.fixture(scope="module")
def workload():
    return [Rect(0.1, 0.1, 0.45, 0.45), Rect(0.5, 0.5, 0.9, 0.9)]


@pytest.fixture()
def wazi(points, workload):
    return build_index("wazi", points, workload, leaf_capacity=16, seed=0)


@pytest.fixture()
def snapshot(wazi, tmp_path):
    path = tmp_path / "index.snapshot"
    save_snapshot(wazi, path)
    return path


class TestCleanIndexesPass:
    @pytest.mark.parametrize("name", ["base", "wazi"])
    def test_fresh_build(self, name, points, workload):
        index = build_index(name, points, workload, leaf_capacity=16, seed=0)
        check_index_invariants(index)

    def test_after_queries_and_mutations(self, wazi, points):
        wazi.range_query(Rect(0.2, 0.2, 0.7, 0.7))
        check_index_invariants(wazi)
        wazi.insert(Point(0.31, 0.77))
        wazi.delete(points[3])
        check_index_invariants(wazi)

    def test_snapshot_load_memory_and_mmap(self, snapshot):
        check_index_invariants(load_snapshot(snapshot))
        loaded = load_snapshot(snapshot, mmap=True)
        check_index_invariants(loaded)

    def test_non_zindex_passes_vacuously(self, points, workload):
        index = build_index("str", points, workload)
        check_index_invariants(index)


class TestCorruptionIsNamed:
    def test_backward_skip_pointer(self, snapshot):
        index = load_snapshot(snapshot)
        index.leaflist.entries[2].set_skip_pointer("below", 0)
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(index)
        assert exc.value.invariant == "skip-pointer-range"
        assert "skip-pointer-range" in str(exc.value)

    def test_in_range_but_wrong_skip_pointer(self, snapshot):
        index = load_snapshot(snapshot)
        assert index.use_skipping
        entries = index.leaflist.entries
        mutated = False
        for position, entry in enumerate(entries[:-2]):
            current = entry.skip_pointer("left")
            if current not in (-1, position + 1):
                entry.set_skip_pointer("left", position + 1)
                mutated = True
                break
        assert mutated, "workload should produce at least one long left pointer"
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(index)
        assert exc.value.invariant == "skip-pointer-rebuild"

    def test_shrunken_leaf_box(self, snapshot):
        index = load_snapshot(snapshot)
        packed = index.leaflist.packed()
        packed._ensure_writable()
        row = int(np.flatnonzero(np.asarray(packed.nonempty))[0])
        packed.boxes[row, 2] -= 1e-3
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(index)
        assert exc.value.invariant == "leaf-boxes-tight"

    def test_inconsistent_nonempty_flag(self, snapshot):
        index = load_snapshot(snapshot)
        packed = index.leaflist.packed()
        packed._ensure_writable()
        row = int(np.flatnonzero(np.asarray(packed.nonempty))[0])
        packed.nonempty[row] = False
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(index)
        assert exc.value.invariant == "leaf-nonempty-consistent"

    def test_stale_flat_cache(self, wazi):
        wazi.range_query(Rect(0.2, 0.2, 0.7, 0.7))  # installs the flat cache
        assert wazi._flat_x is not None
        # Mutate a page behind the cache's back (promote first so the write
        # hits a private buffer, leaving the cached column stale).
        entry = next(e for e in wazi.leaflist.entries if len(e.page) > 0)
        page = entry.page
        page._promote()
        page._xs[0] += 0.5
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(wazi)
        assert exc.value.invariant in ("flat-cache-coherent", "leaf-boxes-tight")

    def test_writable_readonly_store_column(self, snapshot):
        index = load_snapshot(snapshot, mmap=True)
        # Forge a writeable column inside the read-only store.
        name = index._store.names()[0]
        index._store._columns[name] = np.array(index._store[name])
        with pytest.raises(InvariantViolation) as exc:
            check_index_invariants(index)
        assert exc.value.invariant == "mmap-read-only"


class TestShardConservation:
    def test_counters_conserved_and_corruption_caught(self, wazi, tmp_path):
        directory = tmp_path / "shards"
        build_shards(wazi, directory, num_shards=3)
        with open_sharded(directory, workers=0) as sharded:
            sharded.reset_counters()
            for query in (Rect(0.1, 0.1, 0.6, 0.6), Rect(0.4, 0.2, 0.9, 0.8)):
                sharded.range_query(query)
            check_shard_conservation(sharded)
            sharded.counters.pages_scanned += 1  # simulate a lost delta
            with pytest.raises(InvariantViolation) as exc:
                check_shard_conservation(sharded)
            assert exc.value.invariant == "shard-conservation"


class TestDeltaConservation:
    def _online(self, points):
        from repro.online import OnlineIndex

        return OnlineIndex(ZIndex(points[:300], leaf_capacity=16))

    def test_clean_online_index_passes(self, points):
        from repro.devtools.invariants import check_delta_conservation

        online = self._online(points)
        check_delta_conservation(online)
        online.insert(Point(0.5, 0.5))
        online.insert(Point(0.5, 0.5))
        online.delete(points[0])
        online.delete(Point(0.5, 0.5))
        check_delta_conservation(online)
        online.compact()
        check_delta_conservation(online)

    def test_unmatched_tombstone_is_caught(self, points):
        from repro.devtools.invariants import check_delta_conservation

        online = self._online(points)
        # corrupt behind the API: a tombstone no delete() ever validated
        online._state.delta.tombstone(99.0, 99.0)
        with pytest.raises(InvariantViolation) as exc:
            check_delta_conservation(online)
        assert exc.value.invariant == "delta-conservation"

    def test_installed_sanitizer_samples_the_write_path(
        self, points, pristine_sanitizer
    ):
        from repro.online.index import OnlineIndex

        install_sanitizer(delta_sample_every=2)
        try:
            online = self._online(points)
            online._state.delta.tombstone(99.0, 99.0)
            with pytest.raises(InvariantViolation) as exc:
                online.insert(Point(0.1, 0.1))
                online.insert(Point(0.2, 0.2))  # second mutation samples
            assert exc.value.invariant == "delta-conservation"
        finally:
            uninstall_sanitizer()
        assert not hasattr(OnlineIndex.insert, "__wrapped__")
        assert not hasattr(OnlineIndex.delete, "__wrapped__")
        assert not hasattr(OnlineIndex.compact, "__wrapped__")

    def test_sample_every_must_be_positive(self, pristine_sanitizer):
        with pytest.raises(ValueError):
            install_sanitizer(delta_sample_every=0)


@pytest.fixture()
def pristine_sanitizer():
    """Start the test with the sanitizer uninstalled; restore after.

    Under a REPRO_SANITIZE=1 run the session fixture installed it already —
    these tests exercise install/uninstall themselves, so they need the
    pristine entry points to compare against.
    """
    was_installed = sanitizer_installed()
    if was_installed:
        uninstall_sanitizer()
    yield
    uninstall_sanitizer()
    if was_installed:
        install_sanitizer()


class TestDisabledModeIsFree:
    """Off, the sanitizer costs nothing; on, it only reads."""

    def test_importing_the_sanitizer_patches_nothing(self):
        script = "\n".join([
            "from repro.zindex.base import ZIndex",
            "build = ZIndex.__dict__['_build']",
            "load = ZIndex.__dict__['from_snapshot_state'].__func__",
            "from repro.devtools import invariants",
            "assert not invariants.sanitizer_installed()",
            "assert ZIndex.__dict__['_build'] is build",
            "assert ZIndex.__dict__['from_snapshot_state'].__func__ is load",
        ])
        env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_sanitized_run_matches_pristine_and_uninstall_restores(
        self, points, workload, tmp_path, pristine_sanitizer
    ):
        build = ZIndex.__dict__["_build"]
        load = ZIndex.__dict__["from_snapshot_state"].__func__
        queries = [Rect(0.05 * i, 0.1, 0.05 * i + 0.3, 0.6) for i in range(12)]

        def signature():
            built = build_index("wazi", points, workload, leaf_capacity=16, seed=0)
            save_snapshot(built, tmp_path / "s.snapshot")
            rows = []
            for index in (built, load_snapshot(tmp_path / "s.snapshot")):
                index.reset_counters()
                results = [[p.as_tuple() for p in index.range_query(q)] for q in queries]
                rows.append((results, index.counters.snapshot()))
            return rows

        pristine = signature()
        install_sanitizer()
        try:
            sanitized = signature()
        finally:
            uninstall_sanitizer()
        assert sanitized == pristine
        assert ZIndex.__dict__["_build"] is build
        assert ZIndex.__dict__["from_snapshot_state"].__func__ is load


class TestInstallation:
    def test_install_checks_builds_and_loads(
        self, points, workload, tmp_path, pristine_sanitizer
    ):
        pristine_build = ZIndex._build
        install_sanitizer()
        try:
            assert sanitizer_installed()
            assert ZIndex._build is not pristine_build
            index = build_index("wazi", points[:300], workload, leaf_capacity=8, seed=0)
            path = tmp_path / "s.snapshot"
            save_snapshot(index, path)
            load_snapshot(path, mmap=True)
            install_sanitizer()  # idempotent
        finally:
            uninstall_sanitizer()
        assert not sanitizer_installed()
        assert ZIndex._build is pristine_build

    def test_installed_sanitizer_rejects_corrupt_snapshot_state(
        self, wazi, pristine_sanitizer
    ):
        # An in-range but *wrong* skip pointer: the loader's own validation
        # (range, monotone starts, tight boxes) cannot see it — only the
        # sanitizer's fresh Algorithm 4 rebuild does.
        from dataclasses import replace

        state = wazi.snapshot_state()
        arrays = dict(state.arrays)
        skip_left = np.array(arrays["skip_left"], dtype=np.int64)
        row = next(
            i for i, target in enumerate(skip_left[:-2].tolist())
            if target not in (-1, i + 1)
        )
        skip_left[row] = row + 1
        arrays["skip_left"] = skip_left
        corrupt = replace(state, arrays=arrays)
        install_sanitizer()
        try:
            with pytest.raises(InvariantViolation) as exc:
                ZIndex.from_snapshot_state(corrupt)
            assert exc.value.invariant == "skip-pointer-rebuild"
        finally:
            uninstall_sanitizer()

    def test_enabled_flag_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()

    def test_expected_pointers_match_builder(self, wazi):
        expected = invariants.expected_skip_pointers(wazi.leaflist.entries)
        for criterion, pointers in expected.items():
            stored = [e.skip_pointer(criterion) for e in wazi.leaflist.entries]
            assert pointers == stored


# ---------------------------------------------------------------------------
# kernel-parity: sampled differential re-execution of the kernel tier
# ---------------------------------------------------------------------------


def _backend_copy(**overrides):
    """A standalone backend namespace cloned from the reference kernels."""
    import types

    from repro.kernels import KERNEL_NAMES, fallback

    backend = types.SimpleNamespace(BACKEND="numpy")
    for name in KERNEL_NAMES:
        setattr(backend, name, getattr(fallback, name))
    for name, fn in overrides.items():
        setattr(backend, name, fn)
    return backend


def _dropping_range_select(*args, **kwargs):
    # A miscompiled kernel in miniature: silently drops the last match.
    from repro.kernels import fallback

    sel = fallback.range_select(*args, **kwargs)
    return sel[:-1] if sel.size else sel


def _wrong_dtype_range_select(*args, **kwargs):
    from repro.kernels import fallback

    return fallback.range_select(*args, **kwargs).astype(np.int32)


def _off_by_one_range_count(*args, **kwargs):
    from repro.kernels import fallback

    return fallback.range_count(*args, **kwargs) + 1


class TestKernelParityChecker:
    COLUMNS = (
        np.linspace(0.0, 1.0, 32),
        np.linspace(1.0, 0.0, 32),
    )

    def _call_select(self, checker):
        x, y = self.COLUMNS
        return checker.range_select(x, y, 0, 32, 0.0, 0.0, 1.0, 1.0)

    def test_sample_every_must_be_positive(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        with pytest.raises(ValueError):
            KernelParityChecker(fallback, fallback, sample_every=0)

    def test_clean_backend_passes_and_counts_checks(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        checker = KernelParityChecker(_backend_copy(), fallback, sample_every=3)
        for _ in range(9):
            self._call_select(checker)
        assert checker.calls == 9
        assert checker.checked == 3  # deterministic 1-in-3, no RNG

    def test_dropped_match_fires_named_violation(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        checker = KernelParityChecker(
            _backend_copy(range_select=_dropping_range_select),
            fallback, sample_every=1,
        )
        with pytest.raises(InvariantViolation) as exc:
            self._call_select(checker)
        assert exc.value.invariant == "kernel-parity"
        assert "range_select()" in str(exc.value)

    def test_wrong_dtype_fires(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        checker = KernelParityChecker(
            _backend_copy(range_select=_wrong_dtype_range_select),
            fallback, sample_every=1,
        )
        with pytest.raises(InvariantViolation) as exc:
            self._call_select(checker)
        assert "dtype" in str(exc.value)

    def test_wrong_scalar_fires(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        checker = KernelParityChecker(
            _backend_copy(range_count=_off_by_one_range_count),
            fallback, sample_every=1,
        )
        x, y = self.COLUMNS
        with pytest.raises(InvariantViolation) as exc:
            checker.range_count(x, y, 0, 32, 0.0, 0.0, 1.0, 1.0)
        assert exc.value.invariant == "kernel-parity"
        assert "range_count()" in str(exc.value)

    def test_sampling_skips_unsampled_calls(self):
        from repro.devtools.invariants import KernelParityChecker
        from repro.kernels import fallback

        checker = KernelParityChecker(
            _backend_copy(range_select=_dropping_range_select),
            fallback, sample_every=2,
        )
        self._call_select(checker)  # call 1 of 2: unsampled, passes through
        with pytest.raises(InvariantViolation):
            self._call_select(checker)  # call 2 of 2: sampled, caught

    def test_tuple_kernel_mismatch_names_element(self):
        from repro.devtools.invariants import assert_kernel_parity

        good = (np.array([1, 2], dtype=np.int64), np.array([0.5, 0.25]))
        bad = (np.array([1, 2], dtype=np.int64), np.array([0.5, 0.75]))
        with pytest.raises(InvariantViolation) as exc:
            assert_kernel_parity("knn_candidates", bad, good)
        assert "element 1" in str(exc.value)


class TestKernelParityInstallation:
    def test_install_interposes_and_uninstall_restores(self, pristine_sanitizer):
        from repro import kernels
        from repro.devtools.invariants import KernelParityChecker

        original = kernels.get_kernels()
        install_sanitizer()
        try:
            active = kernels.get_kernels()
            assert isinstance(active, KernelParityChecker)
            assert active.wrapped is original
            # The wrapped backend's name still shows through.
            assert kernels.backend_name() == getattr(
                original, "BACKEND", kernels.backend_name()
            )
        finally:
            uninstall_sanitizer()
        assert kernels.get_kernels() is original

    def test_sanitized_queries_catch_corrupt_backend(
        self, points, workload, pristine_sanitizer
    ):
        from repro import kernels

        original = kernels.set_kernels(
            _backend_copy(range_select=_dropping_range_select)
        )
        try:
            install_sanitizer(kernel_sample_every=1)
            try:
                index = build_index(
                    "wazi", points[:200], workload, leaf_capacity=8, seed=0
                )
                with pytest.raises(InvariantViolation) as exc:
                    index.range_query(Rect(0.1, 0.1, 0.9, 0.9))
                assert exc.value.invariant == "kernel-parity"
            finally:
                uninstall_sanitizer()
        finally:
            kernels.set_kernels(original)

    def test_sanitized_clean_queries_pass(self, points, workload, pristine_sanitizer):
        from repro import kernels

        install_sanitizer(kernel_sample_every=1)
        try:
            checker = kernels.get_kernels()
            index = build_index(
                "wazi", points[:200], workload, leaf_capacity=8, seed=0
            )
            result = index.range_query(Rect(0.1, 0.1, 0.9, 0.9))
            assert len(result) == index.range_count(Rect(0.1, 0.1, 0.9, 0.9))
            assert checker.checked >= 1  # every call was differentially checked
        finally:
            uninstall_sanitizer()
