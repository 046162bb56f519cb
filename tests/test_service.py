"""Unit + HTTP round-trip tests for the service layer (repro.service)."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.engine import SpatialEngine
from repro.obs import COST_FIELDS, MetricsRegistry
from repro.query import KnnQuery, PointQuery, RadiusQuery, RangeQuery
from repro.service import SpatialService, render_json_bytes, serve
from repro.service.errors import (
    BadRequestError,
    ConflictError,
    ServiceError,
)


@pytest.fixture()
def engine(clustered_points, small_workload):
    return SpatialEngine.build(
        "wazi", clustered_points, small_workload.queries, leaf_capacity=64, seed=1
    )


@pytest.fixture()
def service(engine):
    return SpatialService(engine, record=False)


def _rect_spec(rect):
    return {"kind": "range", "rect": [rect.xmin, rect.ymin, rect.xmax, rect.ymax]}


class TestErrors:
    def test_payload_shape(self):
        payload = BadRequestError("nope").to_payload()
        assert payload == {
            "error": {"code": "bad-request", "status": 400, "message": "nope"}
        }

    def test_taxonomy_statuses(self):
        from repro.service.errors import (
            InternalError,
            MethodNotAllowedError,
            NotFoundError,
            UnsupportedError,
        )

        assert BadRequestError("x").status == 400
        assert NotFoundError("x").status == 404
        assert MethodNotAllowedError("x").status == 405
        assert ConflictError("x").status == 409
        assert InternalError("x").status == 500
        assert UnsupportedError("x").status == 501
        assert isinstance(BadRequestError("x"), ServiceError)


class TestRenderJsonBytes:
    def test_deterministic_and_sorted(self):
        assert render_json_bytes({"b": 1, "a": 2}) == b'{"a":2,"b":1}\n'

    def test_float_round_trip(self):
        value = 0.1 + 0.2
        body = render_json_bytes({"v": value})
        assert json.loads(body)["v"] == value


class TestParsePlan:
    def test_range(self, service, small_workload):
        plan = service.parse_plan(_rect_spec(small_workload.queries[0]))
        assert isinstance(plan, RangeQuery)

    def test_knn_radius_point(self, service):
        assert isinstance(
            service.parse_plan({"kind": "knn", "center": [0.5, 0.5], "k": 3}),
            KnnQuery,
        )
        assert isinstance(
            service.parse_plan(
                {"kind": "radius", "center": [0.5, 0.5], "radius": 0.1}
            ),
            RadiusQuery,
        )
        assert isinstance(
            service.parse_plan({"kind": "point", "point": [0.5, 0.5]}),
            PointQuery,
        )

    @pytest.mark.parametrize("spec", [
        "not-a-dict",
        {"kind": "teleport"},
        {"kind": "range", "rect": [0.0, 0.0, 1.0]},
        {"kind": "range", "rect": [1.0, 1.0, 0.0, 0.0]},  # malformed rect
        {"kind": "knn", "center": [0.5, 0.5], "k": "three"},
        {"kind": "knn", "center": [0.5, 0.5], "k": True},
        {"kind": "knn", "center": [0.5], "k": 3},
        {"kind": "radius", "center": [0.5, 0.5], "radius": "wide"},
    ])
    def test_junk_is_bad_request(self, service, spec):
        with pytest.raises(BadRequestError):
            service.parse_plan(spec)


class TestHandleQuery:
    def test_single_range_rows(self, service, engine, small_workload):
        rect = small_workload.queries[0]
        out = service.handle_query(_rect_spec(rect))
        result = out["result"]
        assert result["count"] == len(result["xs"]) == len(result["ys"])
        assert result["count"] == engine.index.range_count(rect)

    def test_count_only(self, service, engine, small_workload):
        rect = small_workload.queries[0]
        out = service.handle_query({**_rect_spec(rect), "count_only": True})
        assert out["result"] == {"count": engine.index.range_count(rect)}

    def test_limit(self, service, small_workload):
        rect = max(
            small_workload.queries, key=lambda r: (r.xmax - r.xmin) * (r.ymax - r.ymin)
        )
        out = service.handle_query({**_rect_spec(rect), "limit": 2})
        assert out["result"]["count"] <= 2

    def test_batch(self, service, engine, small_workload):
        rects = small_workload.queries[:5]
        out = service.handle_query({
            "queries": [_rect_spec(r) for r in rects], "count_only": True,
        })
        counts = [r["count"] for r in out["results"]]
        assert counts == engine.index.batch_range_count(rects)

    def test_point_query_returns_found(self, service, clustered_points):
        point = clustered_points[0]
        out = service.handle_query({"kind": "point", "point": [point.x, point.y]})
        assert out["result"] == {"found": True}

    @pytest.mark.parametrize("payload", [
        [],  # not an object
        {"queries": "not-a-list"},
        {"kind": "range", "rect": [0, 0, 1, 1], "limit": 0},
        {"kind": "range", "rect": [0, 0, 1, 1], "limit": True},
    ])
    def test_bad_payloads(self, service, payload):
        with pytest.raises(BadRequestError):
            service.handle_query(payload)


class TestHandleStatsAdviseAdapt:
    def test_stats_shape(self, service, engine, small_workload):
        service.handle_query({**_rect_spec(small_workload.queries[0]),
                              "count_only": True})
        stats = service.handle_stats()
        assert stats["index"] == engine.name
        assert stats["num_points"] == len(engine)
        assert stats["counters"]["pages_scanned"] >= 0
        assert set(stats["observed"]) == {"ranges", "knn", "radius"}

    def test_advise_without_history_conflicts(self, service):
        with pytest.raises(ConflictError):
            service.handle_advise({})

    def test_advise_and_adapt_round_trip(self, engine, small_workload):
        service = SpatialService(engine, record=True)
        service.handle_query({
            "queries": [_rect_spec(r) for r in small_workload.queries],
            "count_only": True,
        })
        advise = service.handle_advise({})
        assert "should_adapt" in advise["report"]
        assert isinstance(advise["rendered"], str)
        adapt = service.handle_adapt({})
        assert adapt["adapted"] is True
        assert adapt["seconds"] > 0

    def test_adapt_rejects_non_bool_tune(self, service):
        with pytest.raises(BadRequestError):
            service.handle_adapt({"tune_leaf_capacity": "yes"})

    def test_healthz(self, service, engine):
        out = service.handle_healthz()
        assert out["status"] == "ok"
        assert out["num_points"] == len(engine)


class TestMetricsWiring:
    def test_service_attaches_registry_to_engine(self, engine):
        service = SpatialService(engine, record=False)
        assert engine.metrics is not None
        assert engine.metrics.registry is service.registry

    def test_reuses_pre_attached_registry(self, clustered_points, small_workload):
        registry = MetricsRegistry()
        engine = SpatialEngine.build(
            "wazi", clustered_points, small_workload.queries,
            leaf_capacity=64, seed=1, metrics=registry,
        )
        service = SpatialService(engine, record=False)
        assert service.registry is registry

    def test_metrics_text_counts_queries(self, service, small_workload):
        service.handle_query({**_rect_spec(small_workload.queries[0]),
                              "count_only": True})
        text = service.metrics_text()
        assert 'repro_queries_total{kind="range"} 1' in text


class TestHTTPServer:
    @pytest.fixture()
    def server(self, engine):
        with serve(engine, record=False).start() as server:
            yield server

    @staticmethod
    def _post(server, path, payload):
        request = urllib.request.Request(
            server.url + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()

    def test_query_is_byte_identical_to_in_process(
        self, server, engine, small_workload
    ):
        payload = {
            "queries": [_rect_spec(r) for r in small_workload.queries[:4]],
        }
        status, body = self._post(server, "/query", payload)
        twin = SpatialService(SpatialEngine(engine.index), record=False)
        assert status == 200
        assert body == render_json_bytes(twin.handle_query(payload))

    def test_healthz_stats_metrics(self, server):
        for path in ("/healthz", "/stats"):
            with urllib.request.urlopen(server.url + path) as response:
                assert response.status == 200
                assert json.loads(response.read())
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")

    def test_error_statuses(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self._post(server, "/query", {"kind": "teleport"})
        assert exc_info.value.code == 400
        assert json.loads(exc_info.value.read())["error"]["code"] == "bad-request"

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(server.url + "/nowhere")
        assert exc_info.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(server.url + "/query")  # GET on a POST route
        assert exc_info.value.code == 405

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            self._post(server, "/advise", {})  # nothing observed yet
        assert exc_info.value.code == 409

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request)
        assert exc_info.value.code == 400

    def test_negative_content_length_is_400(self, server):
        request = (
            b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
        )
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_non_numeric_content_length_is_400(self, server):
        request = (
            b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: ten\r\n\r\n"
        )
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(request)
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_trailing_slash_routes(self, server):
        with urllib.request.urlopen(server.url + "/healthz/") as response:
            assert response.status == 200

    def test_ephemeral_port_and_context_manager(self, engine):
        server = serve(engine, record=False)
        assert server.port != 0
        assert server.url.startswith("http://127.0.0.1:")
        server.start()
        server.close()
        server.close()  # idempotent

    def test_sharded_backend_over_http(self, engine, small_workload, tmp_path):
        from repro.serving import build_shards, open_sharded

        build_shards(engine.index, tmp_path / "shards", 2,
                     workload=small_workload.queries)
        with open_sharded(tmp_path / "shards", workers=0) as sharded:
            with serve(sharded, record=False).start() as server:
                payload = {
                    "queries": [_rect_spec(r) for r in small_workload.queries[:4]],
                    "count_only": True,
                }
                status, body = self._post(server, "/query", payload)
                assert status == 200
                counts = [
                    r["count"] for r in json.loads(body)["results"]
                ]
                assert counts == engine.index.batch_range_count(
                    small_workload.queries[:4]
                )
                stats_body = urllib.request.urlopen(server.url + "/stats").read()
                stats = json.loads(stats_body)
                assert stats["num_shards"] == 2
                metrics = urllib.request.urlopen(server.url + "/metrics").read()
                assert b"repro_shard_busy_micros" in metrics

    def test_sharded_responses_byte_identical_and_metrics_exact(
        self, engine, small_workload, tmp_path
    ):
        from repro.serving import build_shards, open_sharded

        rects = small_workload.queries[:8]
        centers = [[(r.xmin + r.xmax) / 2, (r.ymin + r.ymax) / 2] for r in rects]
        radii = [(r.xmax - r.xmin) / 2 for r in rects]
        payloads = [
            {"queries": [_rect_spec(r) for r in rects], "count_only": True},
            {"queries": [_rect_spec(r) for r in rects]},
            {"queries": [{"kind": "knn", "center": c, "k": 8} for c in centers]},
            {"queries": [{"kind": "radius", "center": c, "radius": r}
                         for c, r in zip(centers, radii)]},
            dict(_rect_spec(rects[0]), limit=16),
            {"kind": "knn", "center": centers[0], "k": 8},
            {"kind": "radius", "center": centers[0], "radius": radii[0]},
        ]
        sent = {"range": 2 * len(rects) + 1, "knn": len(rects) + 1,
                "radius": len(rects) + 1}
        twin = SpatialService(SpatialEngine(engine.index), record=False)
        build_shards(engine.index, tmp_path / "shards", 3,
                     workload=small_workload.queries)
        with open_sharded(tmp_path / "shards", workers=0) as sharded:
            with serve(sharded, record=False).start() as server:
                for payload in payloads:
                    status, body = self._post(server, "/query", payload)
                    assert status == 200
                    assert body == render_json_bytes(twin.handle_query(payload))
                metrics = urllib.request.urlopen(server.url + "/metrics").read()
                stats = json.loads(urllib.request.urlopen(server.url + "/stats").read())
        samples = dict(
            line.rsplit(" ", 1) for line in metrics.decode().splitlines()
            if line and not line.startswith("#")
        )
        for kind, count in sent.items():
            assert float(samples[f'repro_queries_total{{kind="{kind}"}}']) == count
            assert float(
                samples[f'repro_query_latency_micros_count{{kind="{kind}"}}']
            ) == count
        for field in COST_FIELDS:
            exported = float(samples.get(f'repro_scan_cost_total{{counter="{field}"}}', 0))
            assert exported == stats["counters"].get(field, 0), field


class TestOnlineRoutes:
    @pytest.fixture()
    def online_service(self, engine):
        from repro.online import MaintenancePolicy

        engine.online(
            MaintenancePolicy(adapt_min_queries=16, compact_min_rows=64),
            start=False,
        )
        try:
            yield SpatialService(engine, record=False)
        finally:
            engine.offline()

    def test_offline_engine_conflicts(self, service):
        with pytest.raises(ConflictError):
            service.handle_ingest({"insert": [[0.5, 0.5]]})
        with pytest.raises(ConflictError):
            service.handle_maintenance({})
        assert service.handle_maintenance_status() == {"online": False}

    def test_ingest_round_trip(self, online_service, engine, clustered_points):
        before = len(engine)
        body = online_service.handle_ingest(
            {
                "insert": [[0.11, 0.22], [0.33, 0.44]],
                "delete": [
                    [clustered_points[0].x, clustered_points[0].y],
                    [123.0, 456.0],
                ],
            }
        )
        assert body["inserted"] == 2
        assert body["deleted"] == 1
        assert body["delete_misses"] == 1
        assert body["num_points"] == before + 1
        assert body["delta"]["live"] == 2
        assert body["delta"]["tombstones"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"insert": "nope"},
            {"insert": [[1.0]]},
            {"insert": [[1.0, "x"]]},
            {"insert": [[float("nan"), 0.5]]},
        ],
    )
    def test_ingest_bad_payloads(self, online_service, payload):
        with pytest.raises(BadRequestError):
            online_service.handle_ingest(payload)

    def test_maintenance_run_once_and_status(self, online_service):
        online_service.handle_ingest({"insert": [[0.61, 0.62]]})
        body = online_service.handle_maintenance({})
        assert body["action"] == "run_once"
        assert body["status"]["online"] is True
        assert body["status"]["ticks"] == 1
        status = online_service.handle_maintenance_status()
        assert status["online"] is True
        assert status["delta"]["live"] == 1  # below compact_min_rows: kept

    def test_maintenance_start_stop_and_bad_action(self, online_service, engine):
        assert online_service.handle_maintenance({"action": "start"})["status"]["running"]
        online_service.handle_maintenance({"action": "stop"})
        assert not engine.online_loop.running
        with pytest.raises(BadRequestError):
            online_service.handle_maintenance({"action": "explode"})

    def test_ingest_metrics_rendered(self, online_service):
        online_service.handle_ingest({"insert": [[0.5, 0.5]]})
        text = online_service.metrics_text()
        assert 'repro_ingest_total{kind="insert"} 1' in text
        assert "repro_delta_live_rows 1" in text

    def test_http_ingest_and_maintenance(self, engine):
        from repro.online import MaintenancePolicy

        engine.online(MaintenancePolicy(compact_min_rows=2), start=False)
        try:
            with serve(engine, record=False).start() as server:
                status, body = TestHTTPServer._post(
                    server, "/ingest", {"insert": [[0.4, 0.4], [0.6, 0.6]]}
                )
                assert status == 200
                assert json.loads(body)["inserted"] == 2
                status, body = TestHTTPServer._post(server, "/maintenance", {})
                assert status == 200
                assert json.loads(body)["summary"]["compacted"] is True
                with urllib.request.urlopen(server.url + "/maintenance") as response:
                    assert json.loads(response.read())["online"] is True
        finally:
            engine.offline()
