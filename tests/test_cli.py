"""Tests for the command-line interface (python -m repro / repro.cli).

Fast commands run in-process through ``main(argv)``; ``serve`` — which
blocks — is exercised once as a real subprocess, the way wrappers use it.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """A small built snapshot, reused by every in-process CLI test."""
    path = tmp_path_factory.mktemp("cli") / "small.snapshot"
    code = main([
        "build", str(path), "--num-points", "4000",
        "--workload-queries", "60", "--seed", "17",
    ])
    assert code == 0
    return path


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestBuild:
    def test_build_announces_snapshot(self, snapshot, tmp_path, capsys):
        path = tmp_path / "t.snapshot"
        assert main(["build", str(path), "--num-points", "2000",
                     "--workload-queries", "40"]) == 0
        event = _last_json(capsys)
        assert event["event"] == "built"
        assert event["num_points"] == 2000
        assert Path(event["snapshot"]).exists()

    def test_build_with_shards(self, tmp_path, capsys):
        path = tmp_path / "t.snapshot"
        assert main(["build", str(path), "--num-points", "2000",
                     "--workload-queries", "40", "--shards", "2"]) == 0
        event = _last_json(capsys)
        assert event["event"] == "sharded"
        assert event["num_shards"] == 2
        assert (Path(event["directory"]) / "shards.json").exists()


class TestQuery:
    def test_range_count_only(self, snapshot, capsys):
        assert main(["query", "--snapshot", str(snapshot),
                     "--rect", "10", "10", "50", "50",
                     "--count-only"]) == 0
        body = _last_json(capsys)
        assert body["result"]["count"] > 0

    def test_knn(self, snapshot, capsys):
        assert main(["query", "--snapshot", str(snapshot),
                     "--center", "30", "30", "--k", "5"]) == 0
        body = _last_json(capsys)
        assert body["result"]["count"] == 5

    def test_radius(self, snapshot, capsys):
        assert main(["query", "--snapshot", str(snapshot),
                     "--center", "30", "30", "--radius", "5"]) == 0
        body = _last_json(capsys)
        assert body["result"]["count"] == len(body["result"]["xs"])

    def test_missing_plan_exits_with_usage_error(self, snapshot):
        with pytest.raises(SystemExit):
            main(["query", "--snapshot", str(snapshot)])

    def test_missing_snapshot_is_exit_2(self, tmp_path):
        assert main(["query", "--snapshot", str(tmp_path / "nope.snapshot"),
                     "--rect", "0", "0", "1", "1"]) == 2


class TestAdaptAndExport:
    def test_adapt_missing_snapshot_is_exit_2(self, tmp_path):
        assert main(["adapt", str(tmp_path / "missing.snapshot")]) == 2

    def test_adapt_force_writes_out(self, snapshot, tmp_path, capsys):
        out = tmp_path / "adapted.snapshot"
        code = main(["adapt", str(snapshot), "--out", str(out), "--force"])
        assert code == 0
        event = _last_json(capsys)
        assert event["event"] in ("adapted", "kept")
        if event["event"] == "adapted":
            assert Path(event["snapshot"]).exists()

    def test_adapt_rebuild_recipe_snapshot(self, tmp_path, capsys):
        """A rebuild-recipe snapshot stores its recipe and dataset: adapt works."""
        path = tmp_path / "str.snapshot"
        assert main(["build", str(path), "--index", "str", "--num-points", "2000",
                     "--workload-queries", "40"]) == 0
        assert main(["adapt", str(path), "--force"]) == 0
        assert _last_json(capsys)["event"] == "adapted"

    def test_export_history(self, snapshot, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(["export", "--snapshot", str(snapshot),
                     "--out", str(out), "--format", "npy"]) == 0
        event = _last_json(capsys)
        assert event["event"] == "exported"
        ranges = np.load(out / "workload_ranges.npy")
        assert ranges.shape[1] == 5

    def test_export_missing_snapshot_is_exit_2(self, tmp_path):
        assert main(["export", "--snapshot", str(tmp_path / "no.snapshot"),
                     "--out", str(tmp_path / "dump")]) == 2


class TestServeSubprocess:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve")
        snapshot = tmp / "serve.snapshot"
        assert main(["build", str(snapshot), "--num-points", "4000",
                     "--workload-queries", "60"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(snapshot),
             "--port", "0", "--quiet", "--shards", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        url = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    break
                continue
            event = json.loads(line)
            if event.get("event") == "ready":
                url = event["url"]
                break
        if url is None:
            proc.kill()
            pytest.fail("repro serve did not announce readiness")
        yield url
        proc.terminate()
        proc.wait(timeout=10)

    def test_healthz(self, server):
        with urllib.request.urlopen(server + "/healthz") as response:
            body = json.loads(response.read())
        assert body["status"] == "ok"
        assert body["num_points"] == 4000

    def test_query_via_cli_url_mode(self, server, capsys):
        assert main(["query", "--url", server,
                     "--rect", "10", "10", "50", "50",
                     "--count-only"]) == 0
        body = _last_json(capsys)
        assert body["result"]["count"] > 0

    def test_metrics_scrape_and_export(self, server, tmp_path, capsys):
        assert main(["export", "--url", server, "--what", "metrics",
                     "--out", str(tmp_path)]) == 0
        event = _last_json(capsys)
        text = Path(event["files"][0]).read_text()
        assert "repro_queries_total" in text

    def test_stats_shows_shards(self, server):
        with urllib.request.urlopen(server + "/stats") as response:
            stats = json.loads(response.read())
        assert stats["num_shards"] == 2


class TestServeOnlineSubprocess:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve_online")
        snapshot = tmp / "online.snapshot"
        assert main(["build", str(snapshot), "--num-points", "3000",
                     "--workload-queries", "40"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(snapshot),
             "--port", "0", "--quiet", "--online",
             "--maintenance-interval", "0.05", "--compact-min-rows", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        url = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                if proc.poll() is not None:
                    break
                continue
            event = json.loads(line)
            if event.get("event") == "ready":
                assert event["online"] is True
                url = event["url"]
                break
        if url is None:
            proc.kill()
            pytest.fail("repro serve --online did not announce readiness")
        yield url
        proc.terminate()
        proc.wait(timeout=10)

    @staticmethod
    def _post(url, path, payload):
        request = urllib.request.Request(
            url + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())

    def test_ingest_maintenance_round_trip(self, server):
        status, body = self._post(server, "/ingest", {
            "insert": [[10.0 + i, 10.0] for i in range(12)],
        })
        assert status == 200
        assert body["inserted"] == 12
        status, body = self._post(server, "/maintenance", {"action": "run_once"})
        assert status == 200
        assert body["status"]["online"] is True
        with urllib.request.urlopen(server + "/maintenance") as response:
            maintenance = json.loads(response.read())
        assert maintenance["online"] is True
        # 12 buffered rows >= compact-min-rows 8: some tick compacted them
        assert maintenance["compactions"] >= 1
        with urllib.request.urlopen(server + "/healthz") as response:
            assert json.loads(response.read())["num_points"] == 3012

    def test_metrics_include_online_families(self, server):
        with urllib.request.urlopen(server + "/metrics") as response:
            text = response.read().decode()
        assert "repro_ingest_total" in text
        assert "repro_maintenance_ticks_total" in text


def test_serve_online_rejects_sharded_backend(tmp_path, capsys):
    snapshot = tmp_path / "guard.snapshot"
    assert main(["build", str(snapshot), "--num-points", "1000",
                 "--workload-queries", "20"]) == 0
    code = main(["serve", str(snapshot), "--port", "0", "--quiet",
                 "--online", "--shards", "2"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["event"] == "error"
    assert "--online" in err["message"]


def test_serve_refusal_removes_shard_copy_and_restores_sigterm(
    snapshot, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    handler = signal.getsignal(signal.SIGTERM)
    code = main(["serve", str(snapshot), "--port", "0", "--quiet",
                 "--online", "--shards", "2"])
    assert code == 2
    assert list(tmp_path.glob("repro-shards-*")) == []
    assert signal.getsignal(signal.SIGTERM) is handler


def test_serve_sharded_removes_its_shard_copy_on_sigterm(snapshot, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmpdir)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(snapshot),
         "--port", "0", "--quiet", "--shards", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        assert json.loads(proc.stdout.readline())["event"] == "ready"
        assert len(list(tmpdir.glob("repro-shards-*"))) == 1
    finally:
        proc.terminate()
        code = proc.wait(timeout=30)
        proc.stdout.close()
    # SIGTERM leaves through the serve loop's cleanup, like Ctrl-C
    assert code == 0
    assert list(tmpdir.glob("repro-shards-*")) == []
