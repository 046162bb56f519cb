"""A keep-alive HTTP/1.1 client on a raw socket, and the served subprocess.

The client sets ``TCP_NODELAY`` and sends each request, headers and body,
in one ``sendall``, then reads the response framed by ``Content-Length``.
So no client-side Nagle delay can ever be booked as server latency: what
the timer sees is the server's reply time plus loopback transport.

:class:`ServerProcess` starts ``python -m repro serve``, waits for its
ready line (at most :data:`READY_TIMEOUT_S`) and always terminates the
process, whether the run succeeded or not.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Sequence, Tuple

#: Seconds a server may take to print its ready line.
READY_TIMEOUT_S = 120.0


class HttpClient:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._host = f"{host}:{port}".encode("ascii")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request and return ``(status, body)``."""
        head = b"%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n" % (
            method.encode("ascii"), path.encode("ascii"), self._host, len(body)
        )
        if body:
            head += b"Content-Type: application/json\r\n"
        self._sock.sendall(head + b"\r\n" + body)
        reader = self._reader
        status_line = reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise ConnectionError(f"malformed status line {status_line!r}")
        length = None
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("connection closed inside the response headers")
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if length is None:
            raise ConnectionError("response without Content-Length")
        payload = reader.read(length)
        if len(payload) != length:
            raise ConnectionError(f"short body: {len(payload)} of {length} bytes")
        return int(parts[1]), payload

    def get_json(self, path: str) -> Dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class ServerProcess:
    """``python -m repro serve ARGS`` as a child process, ready to take requests."""

    def __init__(self, args: Sequence[str], *, cwd: Path, env: Dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            cwd=str(cwd), env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            ready = json.loads(self._ready_line())
            if ready.get("event") != "ready":
                raise RuntimeError(f"unexpected first line from the server: {ready}")
            host, _, port = ready["url"].removeprefix("http://").rpartition(":")
            self.host, self.port = host, int(port)
        except BaseException:
            self.close()
            raise

    def _ready_line(self) -> bytes:
        stream = self.process.stdout
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no ready line from the server within {READY_TIMEOUT_S} s")
            readable, _, _ = select.select([stream], [], [], remaining)
            if readable:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before it was ready (code {self.process.wait()})"
                    )
                buffered += chunk
        return buffered.split(b"\n", 1)[0]

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        """Terminate the server and wait until it has exited."""
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


def server_env(src: Path, tmpdir: Path) -> Dict[str, str]:
    """The child's environment: this checkout's ``src`` first, temp files kept local."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmpdir)
    return env
