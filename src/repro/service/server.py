# repro-lint: public-api
"""A stdlib HTTP JSON API over a :class:`~repro.engine.SpatialEngine`.

The service exposes the engine's whole serving lifecycle over HTTP:

* ``POST /query``  — execute one plan (``{"kind": "range", ...}``) or a
  batch (``{"queries": [...]}``), with ``count_only`` / ``limit``.
* ``GET /stats``   — index identity, cost counters, plan-cache stats,
  workload-log sizes, process RSS.
* ``GET /metrics`` — the attached registry in Prometheus text format.
* ``POST /advise`` — score the current layout against observed traffic.
* ``POST /adapt``  — re-derive the layout and hot-swap it atomically.
* ``POST /ingest`` — absorb inserts/deletes into the online delta buffer
  (409 unless the engine is online, see :meth:`SpatialEngine.online`).
* ``GET/POST /maintenance`` — the maintenance loop's status, or drive it
  (``run_once`` / ``start`` / ``stop``; POST is 409 when not online).
* ``GET /healthz`` — liveness.

Failures follow the :mod:`repro.service.errors` taxonomy, so clients
always get ``{"error": {"code", "status", "message"}}`` bodies.

Concurrency: the transport is a ``ThreadingHTTPServer`` (slow readers
don't block the accept loop), but query execution, advise and adapt are
serialized under one lock.  That is what makes the exported metrics
*exact* — per-kind histogram counts equal queries served, and the
scan-cost totals reconcile to the engine's CostCounters with equality,
not approximately — and it matches the engine's own thread-safety
contract.  The adapt hot-swap itself is a single attribute rebind
(atomic under the GIL), so even requests that slipped in before the
lock see either the old or the new layout, never a mix; retained
ResultSets stay valid via the Z-index generation counters.

All JSON rendering goes through :func:`render_json_bytes` — sorted keys,
``repr`` floats (exact float64 round-trip) — so a response body can be
compared byte-for-byte against an in-process twin; the service benchmark
does exactly that.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Union
from urllib.parse import urlsplit

from repro.engine import SpatialEngine, as_engine
from repro.geometry import Point, Rect
from repro.obs import MetricsRegistry, render_prometheus
from repro.query import KnnQuery, PointQuery, Query, RadiusQuery, RangeQuery
from repro.results import ResultSet
from repro.service.errors import (
    BadRequestError,
    ConflictError,
    InternalError,
    MethodNotAllowedError,
    NotFoundError,
    ServiceError,
    UnsupportedError,
)
from repro.serving.workers import process_rss

__all__ = ["SpatialService", "ServiceServer", "render_json_bytes", "serve"]


def render_json_bytes(payload: object) -> bytes:
    """A deterministic JSON encoding: sorted keys, exact float round-trip.

    Two identical payloads always render to identical bytes, which is
    what lets the service benchmark assert HTTP responses are
    *byte-identical* to in-process execution.
    """
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _require_number(spec: Dict, key: str) -> float:
    value = spec.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadRequestError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _require_pair(spec: Dict, key: str) -> Point:
    value = spec.get(key)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise BadRequestError(f"{key!r} must be a [x, y] pair, got {value!r}")
    return Point(float(value[0]), float(value[1]))


class SpatialService:
    """The transport-independent request handlers behind the HTTP server.

    Wraps an engine (or a bare index / sharded backend — anything
    :func:`~repro.engine.as_engine` accepts), attaches a metrics
    registry to it (and, for a sharded backend, to the dispatcher), and
    exposes one ``handle_*`` method per endpoint, each taking and
    returning plain JSON-shaped data.  The HTTP layer is a thin shell
    over these, so tests and the CLI's local mode call them directly.
    """

    def __init__(
        self,
        engine: Union[SpatialEngine, object],
        *,
        registry: Optional[MetricsRegistry] = None,
        record: bool = True,
        verbose: bool = False,
    ) -> None:
        self.engine = as_engine(engine)
        if registry is None:
            registry = (
                self.engine.metrics.registry
                if self.engine.metrics is not None
                else MetricsRegistry()
            )
        self.registry = registry
        if self.engine.metrics is None:
            self.engine.attach_metrics(registry)
        index = self.engine.index
        if getattr(index, "metrics", None) is None and hasattr(
            index, "attach_metrics"
        ):
            index.attach_metrics(registry)
        # An engine taken online before the service attached its registry
        # has a maintenance loop with no metrics sink — backfill it so
        # /ingest and /maintenance observations land in /metrics.
        loop = getattr(self.engine, "online_loop", None)
        if loop is not None and loop.metrics is None:
            from repro.obs.instrument import OnlineMetrics

            loop.metrics = OnlineMetrics(registry)
        if record:
            self.engine.start_recording()
        self.verbose = verbose
        # Serializes execute/advise/adapt: the engine's thread-safety
        # contract, and the reason /metrics reconciles exactly.
        self._lock = threading.Lock()

    # -- plan parsing --------------------------------------------------
    def parse_plan(self, spec: object) -> Query:
        """One JSON query spec -> a typed plan (BadRequestError on junk)."""
        if not isinstance(spec, dict):
            raise BadRequestError(f"query spec must be an object, got {spec!r}")
        kind = spec.get("kind")
        try:
            if kind == "range":
                rect = spec.get("rect")
                if not isinstance(rect, (list, tuple)) or len(rect) != 4:
                    raise BadRequestError(
                        f"'rect' must be [xmin, ymin, xmax, ymax], got {rect!r}"
                    )
                return RangeQuery(Rect(*(float(v) for v in rect)))
            if kind == "knn":
                k = spec.get("k")
                if not isinstance(k, int) or isinstance(k, bool):
                    raise BadRequestError(f"'k' must be an integer, got {k!r}")
                initial_radius = None
                if spec.get("initial_radius") is not None:
                    initial_radius = _require_number(spec, "initial_radius")
                return KnnQuery(_require_pair(spec, "center"), k, initial_radius)
            if kind == "radius":
                return RadiusQuery(
                    _require_pair(spec, "center"), _require_number(spec, "radius")
                )
            if kind == "point":
                return PointQuery(_require_pair(spec, "point"))
        except ServiceError:
            raise
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"invalid {kind} plan: {exc}") from exc
        raise BadRequestError(
            f"unknown plan kind {kind!r} (expected range/knn/radius/point)"
        )

    @staticmethod
    def _parse_limit(payload: Dict) -> Optional[int]:
        limit = payload.get("limit")
        if limit is None:
            return None
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise BadRequestError(f"'limit' must be a positive integer, got {limit!r}")
        return limit

    @staticmethod
    def _encode_result(value: object) -> Dict[str, object]:
        if isinstance(value, bool):
            return {"found": value}
        if isinstance(value, int):
            return {"count": value}
        if isinstance(value, ResultSet):
            xs, ys = value.as_arrays()
            return {"count": len(xs), "xs": xs.tolist(), "ys": ys.tolist()}
        raise InternalError(f"unencodable result type {type(value).__name__}")

    # -- endpoint handlers ---------------------------------------------
    def handle_query(self, payload: Dict) -> Dict[str, object]:
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        count_only = bool(payload.get("count_only", False))
        limit = self._parse_limit(payload)
        specs = payload.get("queries")
        if specs is not None:
            if not isinstance(specs, list):
                raise BadRequestError(f"'queries' must be a list, got {specs!r}")
            plans = [self.parse_plan(spec) for spec in specs]
            with self._lock:
                values = self.engine.execute_many(
                    plans, count_only=count_only, limit=limit
                )
            return {"results": [self._encode_result(v) for v in values]}
        plan = self.parse_plan(payload)
        with self._lock:
            value = self.engine.execute(plan, count_only=count_only, limit=limit)
        return {"result": self._encode_result(value)}

    def handle_stats(self) -> Dict[str, object]:
        engine = self.engine
        log = engine.workload_log
        stats: Dict[str, object] = {
            "index": engine.name,
            "num_points": len(engine),
            "size_bytes": engine.size_bytes(),
            "counters": engine.counters.snapshot(),
            "recording": engine.is_recording,
            "observed": {
                "ranges": log.num_ranges if log is not None else 0,
                "knn": log.num_knn if log is not None else 0,
                "radius": log.num_radius if log is not None else 0,
            },
            "process_rss_bytes": process_rss(),
        }
        if engine.plan_cache is not None:
            stats["plan_cache"] = engine.plan_cache.stats.snapshot()
        num_shards = getattr(engine.index, "num_shards", None)
        if num_shards is not None:
            stats["num_shards"] = num_shards
            stats["shard_busy_seconds"] = list(engine.index.shard_busy_seconds)
        return stats

    def handle_advise(self, payload: Dict) -> Dict[str, object]:
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        kwargs: Dict[str, object] = {}
        if payload.get("min_improvement") is not None:
            kwargs["min_improvement"] = _require_number(payload, "min_improvement")
        if payload.get("expected_future_queries") is not None:
            kwargs["expected_future_queries"] = _require_number(
                payload, "expected_future_queries"
            )
        sample = payload.get("sample")
        if sample is not None:
            if not isinstance(sample, int) or isinstance(sample, bool) or sample < 1:
                raise BadRequestError(
                    f"'sample' must be a positive integer, got {sample!r}"
                )
            kwargs["sample"] = sample
        try:
            with self._lock:
                report = self.engine.advise(**kwargs)
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc
        except TypeError as exc:
            raise UnsupportedError(str(exc)) from exc
        return {"report": report.to_dict(), "rendered": report.render()}

    def handle_adapt(self, payload: Dict) -> Dict[str, object]:
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        tune = payload.get("tune_leaf_capacity", True)
        if not isinstance(tune, bool):
            raise BadRequestError(
                f"'tune_leaf_capacity' must be a boolean, got {tune!r}"
            )
        engine = self.engine
        try:
            with self._lock:
                engine.adapt(tune_leaf_capacity=tune)
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc
        except TypeError as exc:
            raise UnsupportedError(str(exc)) from exc
        return {
            "adapted": True,
            "index": engine.name,
            "leaf_capacity": getattr(engine.index, "leaf_capacity", None),
            "seconds": engine._build_seconds,
        }

    # -- online lifecycle (repro.online) -------------------------------
    def _require_online(self):
        """The engine's maintenance loop, or 409 when not online."""
        loop = self.engine.online_loop
        if not self.engine.is_online or loop is None:
            raise ConflictError(
                "engine is not online — start the service with --online "
                "(or call engine.online()) to enable ingest and maintenance"
            )
        return loop

    @staticmethod
    def _parse_coord_list(payload: Dict, key: str) -> list:
        rows = payload.get(key, [])
        if rows is None:
            return []
        if not isinstance(rows, list):
            raise BadRequestError(f"'{key}' must be a list of [x, y] pairs")
        points = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise BadRequestError(
                    f"'{key}' entries must be [x, y] pairs, got {row!r}"
                )
            try:
                points.append(Point(float(row[0]), float(row[1])))
            except (TypeError, ValueError) as exc:
                raise BadRequestError(f"invalid {key} entry {row!r}: {exc}") from exc
        return points

    def handle_ingest(self, payload: Dict) -> Dict[str, object]:
        """Absorb inserts/deletes into the online index's delta buffer."""
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        loop = self._require_online()
        inserts = self._parse_coord_list(payload, "insert")
        deletes = self._parse_coord_list(payload, "delete")
        if not inserts and not deletes:
            raise BadRequestError("nothing to ingest: provide 'insert' and/or 'delete'")
        index = self.engine.index
        deleted = 0
        with self._lock:
            for point in inserts:
                try:
                    index.insert(point)
                except ValueError as exc:
                    raise BadRequestError(str(exc)) from exc
            for point in deletes:
                if index.delete(point):
                    deleted += 1
        metrics = loop.metrics
        if metrics is not None:
            if inserts:
                metrics.observe_ingest("insert", len(inserts))
            if deleted:
                metrics.observe_ingest("delete", deleted)
            metrics.observe_delta(index.delta_stats())
        return {
            "inserted": len(inserts),
            "deleted": deleted,
            "delete_misses": len(deletes) - deleted,
            "num_points": len(index),
            "delta": index.delta_stats(),
        }

    def handle_maintenance_status(self) -> Dict[str, object]:
        """The maintenance loop's status (``online: false`` when offline)."""
        loop = self.engine.online_loop
        if not self.engine.is_online or loop is None:
            return {"online": False}
        status = loop.status()
        status["online"] = True
        return status

    def handle_maintenance(self, payload: Dict) -> Dict[str, object]:
        """Drive the maintenance loop: run_once (default), start, or stop."""
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        loop = self._require_online()
        action = payload.get("action", "run_once")
        if action == "run_once":
            with self._lock:
                summary = loop.run_once()
            body: Dict[str, object] = {"action": action, "summary": summary}
        elif action == "start":
            loop.start()
            body = {"action": action}
        elif action == "stop":
            loop.stop()
            body = {"action": action}
        else:
            raise BadRequestError(
                f"unknown action {action!r} (expected run_once/start/stop)"
            )
        status = loop.status()
        status["online"] = True
        body["status"] = status
        return body

    def handle_healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "index": self.engine.name,
            "num_points": len(self.engine),
        }

    def metrics_text(self) -> str:
        return render_prometheus(self.registry)


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: SpatialService

    def handle_error(self, request, client_address) -> None:
        # A client hanging up mid-response (scraper timeout, curl | head)
        # is normal operation, not a server error worth a traceback.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        self._send(status, render_json_bytes(payload), "application/json")

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            if path in ("/healthz", "/stats", "/metrics"):
                if method != "GET":
                    raise MethodNotAllowedError(f"{path} only supports GET")
                if path == "/metrics":
                    self._send(
                        200,
                        service.metrics_text().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                    return
                handler = (
                    service.handle_healthz if path == "/healthz"
                    else service.handle_stats
                )
                self._send_json(200, handler())
                return
            if path == "/maintenance" and method == "GET":
                self._send_json(200, service.handle_maintenance_status())
                return
            if path in ("/query", "/advise", "/adapt", "/ingest", "/maintenance"):
                if method != "POST":
                    raise MethodNotAllowedError(f"{path} only supports POST")
                payload = self._read_json()
                handler = {
                    "/query": service.handle_query,
                    "/advise": service.handle_advise,
                    "/adapt": service.handle_adapt,
                    "/ingest": service.handle_ingest,
                    "/maintenance": service.handle_maintenance,
                }[path]
                self._send_json(200, handler(payload))
                return
            raise NotFoundError(f"no route at {path!r}")
        except ServiceError as exc:
            self._send_json(exc.status, exc.to_payload())
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, InternalError(f"{type(exc).__name__}: {exc}").to_payload())

    def _read_json(self) -> Dict:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError as exc:
            raise BadRequestError("invalid Content-Length header") from exc
        if length < 0:
            raise BadRequestError("negative Content-Length header")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from exc

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.service.verbose:
            super().log_message(format, *args)


class ServiceServer:
    """The HTTP shell around a :class:`SpatialService`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`).
    Use :meth:`serve_forever` for a foreground server (the CLI), or
    :meth:`start` / :meth:`close` for a daemon-thread one (tests,
    benchmarks).
    """

    def __init__(
        self, service: SpatialService, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = service
        self.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def start(self) -> "ServiceServer":
        thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        thread.start()
        self._thread = thread
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(
    engine: Union[SpatialEngine, object],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    record: bool = True,
    verbose: bool = False,
) -> ServiceServer:
    """Wrap ``engine`` in a service and bind (but don't run) its server."""
    service = SpatialService(
        engine, registry=registry, record=record, verbose=verbose
    )
    return ServiceServer(service, host=host, port=port)
