"""Per-node live telemetry: a ``/metrics`` endpoint and incremental JSONL.

Two small adapters turn one in-process :class:`~repro.obs.collector.Collector`
into the live-observability surface of a swarm node:

- :class:`MetricsServer` — a stdlib ``http.server`` on a daemon thread
  serving the collector's Prometheus snapshot at ``/metrics``.  Port 0
  auto-assigns; the bound port is recorded in the node's status file so
  scrapers (and the CI smoke job) can find it without configuration.
- :class:`TelemetryStream` — an append-only incremental JSONL writer:
  each ``flush()`` appends only the events recorded since the previous
  flush, so the stream on disk is live (tail-able mid-run) and merging
  ``node-*.jsonl`` files later needs no dedup.

Both are observation plumbing, deliberately outside the protocol hot
path: the HTTP thread only *reads* collector aggregates (plain dict
scans — worst case a torn read of one counter, never an exception that
could reach the round loop), and stream flushes happen at round
boundaries from the node's own supervisor hook.  The handler is a round
root of the determinism lint (:mod:`repro.lint.roots`), so a source it
could reach in project code is reported; the stdlib HTTP server consumes
the wall clock internally for socket timeouts, which is fine — no protocol
decision ever flows from it.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, List, Optional

from repro.obs.export import to_jsonl, to_prometheus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.collector import Collector

__all__ = ["MetricsServer", "TelemetryStream"]


class _MetricsHandler(BaseHTTPRequestHandler):
    """GET /metrics → the collector's Prometheus text snapshot."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API name
        if self.path.split("?", 1)[0] != "/metrics":
            self.send_error(404, "only /metrics is served")
            return
        body = to_prometheus(self.server.collector).encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default per-request stderr chatter."""


class MetricsServer:
    """Serve a collector as a local Prometheus ``/metrics`` endpoint.

    The server binds ``host:port`` (port 0 auto-assigns) and answers from
    a daemon thread, so a crashing scrape can never take the node down
    and process exit never blocks on the server.  ``close()`` is
    idempotent.
    """

    def __init__(
        self,
        collector: "Collector",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.collector = collector
        self._host = host
        self._requested_port = int(port)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (0 until :meth:`start`)."""
        if self._server is None:
            return 0
        return self._server.server_address[1]

    def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        if self._server is not None:
            return self.port
        server = ThreadingHTTPServer(
            (self._host, self._requested_port), _MetricsHandler
        )
        server.daemon_threads = True
        server.collector = self.collector  # read by _MetricsHandler
        thread = threading.Thread(
            target=server.serve_forever,
            name=f"repro-metrics-{server.server_address[1]}",
            daemon=True,
        )
        self._server = server
        self._thread = thread
        thread.start()
        return self.port

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=2.0)

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class TelemetryStream:
    """Append-only incremental JSONL writer over a collector's events.

    ``flush(collector)`` appends every event recorded since the previous
    flush and returns how many were written.  The on-disk stream is the
    same namespaced JSONL layout as :func:`repro.obs.export.write_jsonl`,
    so ``read_jsonl`` and ``repro report`` consume it directly.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._written = 0

    @property
    def written(self) -> int:
        """Total events flushed to disk so far."""
        return self._written

    def flush(self, source: object) -> int:
        """Append events recorded since the last flush; return the count."""
        events: List[object] = getattr(source, "events", source)
        fresh = events[self._written :]
        if not fresh:
            return 0
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(to_jsonl(fresh))
        self._written = len(events)
        return len(fresh)
