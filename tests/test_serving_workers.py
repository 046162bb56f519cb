"""Tests for worker-process serving: shard hosts and replicas.

The headline property (the mmap byte-identity guarantee): N separate
processes opening the same mmap'd snapshot answer a shared query batch
byte-identically — results *and* cost counters — to a single in-memory
engine.  Plus the worker plumbing: pipelined requests, error replies,
round-robin shard hosting, and clean shutdown.
"""

import os
import signal
from contextlib import ExitStack

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.persistence import save_snapshot
from repro.serving import (
    ServingError,
    ShardHost,
    build_shards,
    open_sharded,
    process_rss,
)
from repro.zindex import ZIndex


def _build(n=2500, seed=31, span=250.0, **kwargs):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, span, size=(n, 2))]
    kwargs.setdefault("leaf_capacity", 32)
    return ZIndex(pts, **kwargs), rng


def _query_batch(rng, count=30, span=250.0):
    windows = []
    for _ in range(count):
        x0, x1 = sorted(rng.uniform(0, span, 2).tolist())
        y0, y1 = sorted(rng.uniform(0, span, 2).tolist())
        windows.append([x0, y0, x1, y1])
    return np.asarray(windows, dtype=np.float64)


def _broadcast(replicas, method, payload=None):
    """Send one request to every replica host; replies in replica order."""
    for host in replicas:
        host.send(0, method, payload)
    return [host.receive() for host in replicas]


class TestReplicaByteIdentity:
    """Satellite property test: N processes × one mmap snapshot ≡ one engine."""

    N_REPLICAS = 3

    @pytest.fixture()
    def setup(self, tmp_path):
        index, rng = _build(use_skipping=True)
        path = tmp_path / "snap.zip"
        save_snapshot(index, path)
        with ExitStack() as stack:
            replicas = [
                stack.enter_context(ShardHost([path], mmap=True, validate=False))
                for _ in range(self.N_REPLICAS)
            ]
            yield index, replicas, rng

    def test_ranges_and_counters_identical_across_processes(self, setup):
        index, replicas, rng = setup
        windows = _query_batch(rng)
        index.reset_counters()
        _broadcast(replicas, "reset")
        rects = [Rect(*row) for row in windows.tolist()]
        expect = [r.as_arrays() for r in index.batch_range_query(rects)]
        expect_counters = dict(vars(index.counters))
        replies = _broadcast(replicas, "batch_range_rows", windows)
        assert len(replies) == self.N_REPLICAS
        for rows, delta, busy in replies:
            assert busy >= 0.0
            assert delta == expect_counters
            for (ex, ey), (gx, gy) in zip(expect, rows):
                np.testing.assert_array_equal(ex, gx)
                np.testing.assert_array_equal(ey, gy)
        # The replicas' cumulative counters agree with each other too.
        counters = _broadcast(replicas, "counters")
        assert all(c == expect_counters for c in counters)

    def test_knn_and_radius_identical_across_processes(self, setup):
        index, replicas, rng = setup
        centers = rng.uniform(0, 250, size=(10, 2))
        probes = [Point(float(x), float(y)) for x, y in centers]
        radius = index._default_radius()
        index.reset_counters()
        _broadcast(replicas, "reset")
        expect = [r.as_arrays() for r in index.batch_knn(probes, 6, initial_radius=radius)]
        expect_counters = dict(vars(index.counters))
        for rows, delta, _busy in _broadcast(replicas, "batch_knn_rows", (centers, 6, radius)):
            assert delta == expect_counters
            for (ex, ey), (gx, gy) in zip(expect, rows):
                np.testing.assert_array_equal(ex, gx)
                np.testing.assert_array_equal(ey, gy)
        expect_rad = [r.as_arrays() for r in index.batch_radius_query(probes, 9.0)]
        for rows, _delta, _busy in _broadcast(replicas, "batch_radius_rows", (centers, 9.0)):
            for (ex, ey), (gx, gy) in zip(expect_rad, rows):
                np.testing.assert_array_equal(ex, gx)
                np.testing.assert_array_equal(ey, gy)

    def test_replicas_map_not_copy(self, setup):
        _index, replicas, _rng = setup
        for info in _broadcast(replicas, "column_info"):
            assert info["store"] == "MmapColumnStore"
            assert info["mapped"] and all(info["mapped"].values())
        sizes = _broadcast(replicas, "num_points")
        assert len(set(sizes)) == 1


class TestShardHost:
    def test_host_serves_multiple_slots(self, tmp_path):
        index, rng = _build(n=1000)
        a, b = tmp_path / "a.zip", tmp_path / "b.zip"
        save_snapshot(index, a)
        save_snapshot(index, b)
        with ShardHost([a, b]) as host:
            assert host.slot_sizes == [len(index), len(index)]
            assert host.request(0, "num_points") == len(index)
            assert host.request(1, "num_points") == len(index)
            # Pipelined: both submitted before either reply is read.
            host.send(0, "num_points")
            host.send(1, "size_bytes")
            assert host.receive() == len(index)
            assert host.receive() > 0

    def test_error_replies_do_not_kill_the_worker(self, tmp_path):
        index, _ = _build(n=400)
        path = tmp_path / "s.zip"
        save_snapshot(index, path)
        with ShardHost([path]) as host:
            with pytest.raises(ServingError):
                host.request(0, "no_such_method")
            # Still serving.
            assert host.request(0, "num_points") == len(index)

    def test_bad_snapshot_fails_fast(self, tmp_path):
        bad = tmp_path / "bad.zip"
        bad.write_bytes(b"junk")
        with pytest.raises(ServingError):
            ShardHost([bad])

    def test_receive_without_send_raises(self, tmp_path):
        index, _ = _build(n=300)
        path = tmp_path / "s.zip"
        save_snapshot(index, path)
        with ShardHost([path]) as host:
            with pytest.raises(RuntimeError):
                host.receive()

    def test_dead_worker_raises_serving_error_and_stays_failed(self, tmp_path):
        index, _ = _build(n=300)
        path = tmp_path / "s.zip"
        save_snapshot(index, path)
        with ShardHost([path]) as host:
            os.kill(host.pid, signal.SIGKILL)
            host._process.join(timeout=10.0)
            with pytest.raises(ServingError) as first:
                host.request(0, "num_points")
            with pytest.raises(ServingError) as again:
                host.request(0, "num_points")
            assert str(again.value) == str(first.value)

    def test_worker_dying_before_its_reply_raises_serving_error(self, tmp_path):
        index, _ = _build(n=300)
        path = tmp_path / "s.zip"
        save_snapshot(index, path)
        with ShardHost([path]) as host:
            # Stopped, the worker never reads the request: it dies unanswered.
            os.kill(host.pid, signal.SIGSTOP)
            host.send(0, "num_points")
            os.kill(host.pid, signal.SIGKILL)
            host._process.join(timeout=10.0)
            with pytest.raises(ServingError):
                host.receive()
            with pytest.raises(ServingError):
                host.request(0, "num_points")

    def test_rss_probe(self, tmp_path):
        index, _ = _build(n=300)
        path = tmp_path / "s.zip"
        save_snapshot(index, path)
        with ShardHost([path]) as host:
            readings = host.request(0, "rss")
        rss = readings["rss_bytes"]
        assert rss is None or rss > 0
        assert process_rss() is None or process_rss() > 0


class TestWorkerShardedIndex:
    """The dispatcher over real worker processes: identical to in-process."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_all_byte_identical(self, tmp_path, workers):
        index, rng = _build(n=2000, use_skipping=True)
        build_shards(index, tmp_path / "shards", num_shards=4)
        queries = []
        for _ in range(25):
            x0, x1 = sorted(rng.uniform(0, 250, 2).tolist())
            y0, y1 = sorted(rng.uniform(0, 250, 2).tolist())
            queries.append(Rect(x0, y0, x1, y1))
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 250, size=(8, 2))]
        expect_ranges = index.batch_range_query(queries)
        expect_knn = index.batch_knn(centers, 5)
        expect_radius = index.batch_radius_query(centers, 11.0)
        with open_sharded(tmp_path / "shards", workers=workers) as sharded:
            got_ranges = sharded.batch_range_query(queries)
            got_knn = sharded.batch_knn(centers, 5)
            got_radius = sharded.batch_radius_query(centers, 11.0)
            for expect, got in (
                (expect_ranges, got_ranges),
                (expect_knn, got_knn),
                (expect_radius, got_radius),
            ):
                for e, g in zip(expect, got):
                    np.testing.assert_array_equal(e.as_arrays()[0], g.as_arrays()[0])
                    np.testing.assert_array_equal(e.as_arrays()[1], g.as_arrays()[1])
            assert sharded.point_query(index.all_points()[0])
            info = sharded.column_info()
            assert all(entry["store"] == "MmapColumnStore" for entry in info)
            readings = sharded.worker_rss()
            assert len(readings) == sharded.num_shards

    def test_close_shuts_workers_down(self, tmp_path):
        index, _ = _build(n=600)
        build_shards(index, tmp_path / "shards", num_shards=2)
        sharded = open_sharded(tmp_path / "shards", workers=2)
        hosts = {backend.host for backend in sharded._backends}
        pids = [host.pid for host in hosts]
        assert all(pid is not None for pid in pids)
        sharded.close()
        for pid in pids:
            # After close+join the pid must no longer be a live child.
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            # Reaped zombies keep the pid visible briefly; waitpid confirms.
            done, _ = os.waitpid(pid, os.WNOHANG)
            assert done in (0, pid)


class TestFailedScatterOverWorkers:
    def test_rejected_method_leaves_the_pipes_in_sync(self, tmp_path):
        index, _ = _build(n=2000)
        build_shards(index, tmp_path / "shards", num_shards=4)
        with open_sharded(tmp_path / "shards", workers=2) as sharded:
            with pytest.raises(ServingError):
                sharded._scatter([(i, None) for i in range(4)], "no_such_method")
            for rect in (Rect(0, 0, 50, 50), Rect(20, 30, 200, 120)):
                assert sharded.range_count(rect) == index.range_count(rect)

