"""Serving workers: query engines behind a message protocol, in or out of process.

The dispatcher (:mod:`repro.serving.dispatcher`) talks to every shard
through one small backend surface — *submit* a request, *collect* the
reply.  This module provides both implementations of that surface:

* :class:`LocalBackend` — the shard index loaded in the calling process.
  ``submit`` executes immediately; useful for tests, small deployments and
  as the semantics reference.
* :class:`WorkerBackend` — the shard served by a forked worker process
  (:class:`ShardHost`).  ``submit`` writes a request down the host's pipe
  and ``collect`` reads the reply, so a scatter across many workers
  pipelines: all requests go out before any reply is awaited, and hosts
  execute concurrently.

A host serves one *or several* shards (slots): deployments with fewer
workers than shards round-robin shards onto hosts, which is how the
serving benchmark models 1..W worker scaling over a fixed shard count.
Workers opened with ``mmap=True`` share the snapshot's column pages
through the OS page cache — each extra worker adds page tables, not
another copy of the data (the zero-copy claim
``column_info``/:func:`process_rss` make observable).

Every query reply carries ``(data, counter_delta, busy_seconds)``: the
logical :class:`~repro.evaluation.metrics.CostCounters` delta the request
caused and the wall-clock the engine spent on it.  The dispatcher adds the
deltas to its own counters (cost accounting stays exact across process
boundaries) and aggregates the busy times for capacity modelling.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry import Point, Rect

PathLike = Union[str, Path]

#: Query methods every backend understands (reply: data, delta, busy).
QUERY_METHODS = (
    "batch_range_rows",
    "batch_range_count",
    "batch_knn_rows",
    "batch_radius_rows",
    "point_query",
)


def process_rss(field: str = "Rss") -> Optional[int]:
    """This process's resident set (bytes), from the best available source.

    ``field`` selects the ``/proc/self/smaps_rollup`` line — ``Rss``,
    ``Pss``, ``Shared_Clean``, ``Private_Dirty``, ...  ``Pss``
    (proportional set size) is the honest per-worker cost of shared mmap
    pages.  ``smaps_rollup`` needs Linux >= 4.14; for plain ``Rss`` the
    function falls back to ``/proc/self/statm`` (any Linux) and then to
    ``resource.getrusage`` (POSIX — peak rather than current, kilobytes
    on Linux, bytes on macOS), so callers on older kernels or macOS still
    get a usable figure.  Only the rollup knows the other fields; those
    return ``None`` when it is absent.
    """
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:
        text = None
    if text is not None:
        prefix = field + ":"
        for line in text.splitlines():
            if line.startswith(prefix):
                return int(line.split()[1]) * 1024
        return None
    if field != "Rss":
        return None
    try:
        statm = Path("/proc/self/statm").read_text()
        resident_pages = int(statm.split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):
        return None
    # ru_maxrss is kilobytes on Linux/BSD but bytes on macOS.
    return ru_maxrss if sys.platform == "darwin" else ru_maxrss * 1024


class ShardEngine:
    """One loaded index behind the serving message protocol.

    Both backends funnel through :meth:`handle`, so in-process and
    worker-process serving execute literally the same code — the only
    difference is which process runs it.
    """

    def __init__(self, index) -> None:
        self.index = index

    def handle(self, method: str, payload: Any) -> Any:
        handler = getattr(self, "_op_" + method, None)
        if handler is None:
            raise ValueError(f"unknown serving method {method!r}")
        if method in QUERY_METHODS:
            before = dict(vars(self.index.counters))
            started = time.perf_counter()
            data = handler(payload)
            busy = time.perf_counter() - started
            after = vars(self.index.counters)
            delta = {name: after[name] - before[name] for name in before}
            return data, delta, busy
        return handler(payload)

    # -- queries (reply: data, counter delta, busy seconds) ---------------
    def _op_batch_range_rows(self, windows) -> List[Tuple[np.ndarray, np.ndarray]]:
        rects = [Rect(*row) for row in np.asarray(windows, dtype=np.float64).tolist()]
        return [result.as_arrays() for result in self.index.batch_range_query(rects)]

    def _op_batch_range_count(self, windows) -> np.ndarray:
        rects = [Rect(*row) for row in np.asarray(windows, dtype=np.float64).tolist()]
        return np.asarray(self.index.batch_range_count(rects), dtype=np.int64)

    def _op_batch_knn_rows(self, payload) -> List[Tuple[np.ndarray, np.ndarray]]:
        centers, k, radius = payload
        probes = [Point(x, y) for x, y in np.asarray(centers, dtype=np.float64).tolist()]
        results = self.index.batch_knn(probes, int(k), initial_radius=radius)
        return [result.as_arrays() for result in results]

    def _op_batch_radius_rows(self, payload) -> List[Tuple[np.ndarray, np.ndarray]]:
        centers, radius = payload
        probes = [Point(x, y) for x, y in np.asarray(centers, dtype=np.float64).tolist()]
        results = self.index.batch_radius_query(probes, float(radius))
        return [result.as_arrays() for result in results]

    def _op_point_query(self, payload) -> bool:
        x, y = payload
        return bool(self.index.point_query(Point(float(x), float(y))))

    # -- introspection -----------------------------------------------------
    def _op_num_points(self, _payload) -> int:
        return len(self.index)

    def _op_size_bytes(self, _payload) -> int:
        return int(self.index.size_bytes())

    def _op_reset(self, _payload) -> bool:
        self.index.reset_counters()
        return True

    def _op_counters(self, _payload) -> Dict[str, int]:
        return dict(vars(self.index.counters))

    def _op_rss(self, _payload) -> Dict[str, Optional[int]]:
        return {
            "rss_bytes": process_rss("Rss"),
            "pss_bytes": process_rss("Pss"),
            "shared_clean_bytes": process_rss("Shared_Clean"),
            "private_bytes": process_rss("Private_Dirty"),
        }

    def _op_column_info(self, _payload) -> Dict[str, Any]:
        """How the engine's columns are held — the zero-copy observability hook."""
        store = getattr(self.index, "_store", None)
        if store is None:
            return {"store": None, "mapped": {}, "column_bytes": 0}
        return {
            "store": type(store).__name__,
            "mapped": {name: store.is_mapped(name) for name in store.names()},
            "column_bytes": store.nbytes,
        }


def _load_engine(path: PathLike, mmap: bool, validate: bool) -> ShardEngine:
    from repro.persistence.snapshot import load_snapshot

    return ShardEngine(load_snapshot(path, mmap=mmap, validate=validate))


def _serve_shards(conn, paths: Sequence[str], mmap: bool, validate: bool) -> None:
    """Worker-process main loop: load the slot engines, answer until closed."""
    try:
        engines = [_load_engine(path, mmap, validate) for path in paths]
    except BaseException as exc:  # noqa: BLE001 - report and die
        conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ready", [len(engine.index) for engine in engines]))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        slot, method, payload = message
        if method == "close":
            conn.send(("ok", True))
            break
        try:
            reply = engines[slot].handle(method, payload)
        except Exception as exc:  # noqa: BLE001 - serve next request
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", reply))
    conn.close()


class ServingError(RuntimeError):
    """A worker reported a failure while serving a request."""


class ShardHost:
    """A forked worker process hosting one or more shard engines.

    Requests are pipelined FIFO over one duplex pipe: callers may ``send``
    several requests (for different slots) before ``receive``-ing the
    replies in order, which is what lets a scatter over W hosts run W
    engines concurrently.

    A pipe that fails (the worker died) raises :class:`ServingError`, and
    the host stays failed: every later ``send`` or ``receive`` raises the
    same error without touching the pipe.
    """

    def __init__(
        self,
        paths: Sequence[PathLike],
        *,
        mmap: bool = True,
        validate: bool = False,
        context: Optional[str] = None,
    ) -> None:
        ctx = multiprocessing.get_context(context) if context else multiprocessing
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_serve_shards,
            args=(child_conn, [str(p) for p in paths], bool(mmap), bool(validate)),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._outstanding = 0
        #: Why the pipe failed, once it has; the host serves nothing after.
        self._failure: Optional[str] = None
        status, detail = self._conn.recv()
        if status != "ready":
            self._process.join(timeout=5.0)
            raise ServingError(f"shard worker failed to start: {detail}")
        self.slot_sizes: List[int] = list(detail)

    def send(self, slot: int, method: str, payload: Any = None) -> None:
        if self._failure is not None:
            raise ServingError(self._failure)
        try:
            self._conn.send((slot, method, payload))
        except (OSError, EOFError) as exc:
            raise self._fail(exc) from exc
        self._outstanding += 1

    def receive(self) -> Any:
        if self._outstanding <= 0:
            raise RuntimeError("no outstanding request on this shard host")
        self._outstanding -= 1
        if self._failure is not None:
            raise ServingError(self._failure)
        try:
            status, detail = self._conn.recv()
        except (OSError, EOFError) as exc:
            raise self._fail(exc) from exc
        if status == "ok":
            return detail
        raise ServingError(detail)

    def _fail(self, exc: BaseException) -> ServingError:
        """Mark the host failed after a pipe error; the error to raise."""
        self._failure = (
            f"shard worker (pid {self.pid}) is unreachable: "
            f"{type(exc).__name__}: {exc}"
        )
        return ServingError(self._failure)

    def request(self, slot: int, method: str, payload: Any = None) -> Any:
        self.send(slot, method, payload)
        return self.receive()

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    def close(self) -> None:
        if self._process is None:
            return
        try:
            if self._process.is_alive():
                self._conn.send((0, "close", None))
                self._conn.recv()
        except (OSError, EOFError, BrokenPipeError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._process = None

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass


class LocalBackend:
    """The shard engine loaded in the calling process (no IPC)."""

    def __init__(self, engine: ShardEngine) -> None:
        self.engine = engine
        self._pending: List[Any] = []

    @classmethod
    def open(
        cls, path: PathLike, *, mmap: bool = True, validate: bool = False
    ) -> "LocalBackend":
        return cls(_load_engine(path, mmap, validate))

    def submit(self, method: str, payload: Any = None) -> None:
        """Execute now; a failure is raised by the matching ``collect``,
        where a worker-process backend would report it."""
        try:
            reply = self.engine.handle(method, payload)
        except Exception as exc:  # noqa: BLE001 - deferred to collect()
            reply = exc
        self._pending.append(reply)

    def collect(self) -> Any:
        if not self._pending:
            raise RuntimeError("no outstanding request on this backend")
        reply = self._pending.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def request(self, method: str, payload: Any = None) -> Any:
        return self.engine.handle(method, payload)

    def close(self) -> None:
        self._pending.clear()


class WorkerBackend:
    """One shard slot of a (possibly shared) :class:`ShardHost`."""

    def __init__(self, host: ShardHost, slot: int, *, owns_host: bool = False) -> None:
        self.host = host
        self.slot = slot
        self._owns_host = owns_host

    def submit(self, method: str, payload: Any = None) -> None:
        self.host.send(self.slot, method, payload)

    def collect(self) -> Any:
        return self.host.receive()

    def request(self, method: str, payload: Any = None) -> Any:
        return self.host.request(self.slot, method, payload)

    def close(self) -> None:
        if self._owns_host:
            self.host.close()


def spawn_shard_backends(
    paths: Sequence[PathLike],
    workers: int,
    *,
    mmap: bool = True,
    validate: bool = False,
) -> List[WorkerBackend]:
    """Start worker processes serving ``paths`` and return one backend per shard.

    ``workers`` hosts are forked and the shards are assigned round-robin
    (shard ``i`` → host ``i % workers``), so any worker count from 1 to
    ``len(paths)`` serves every shard.  The first backend of each host owns
    it: closing all backends shuts every process down.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    workers = min(workers, len(paths)) or 1
    assignments: List[List[int]] = [[] for _ in range(workers)]
    for shard_id in range(len(paths)):
        assignments[shard_id % workers].append(shard_id)
    backends: List[Optional[WorkerBackend]] = [None] * len(paths)
    hosts: List[ShardHost] = []
    try:
        for worker_id, shard_ids in enumerate(assignments):
            host = ShardHost(
                [paths[i] for i in shard_ids], mmap=mmap, validate=validate
            )
            hosts.append(host)
            for slot, shard_id in enumerate(shard_ids):
                backends[shard_id] = WorkerBackend(host, slot, owns_host=slot == 0)
    except BaseException:
        for host in hosts:
            host.close()
        raise
    return [backend for backend in backends if backend is not None]
