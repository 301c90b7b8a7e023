"""The HTTP layer of the sweep service (stdlib asyncio, no deps).

A deliberately small hand-rolled HTTP/1.1 server on
``asyncio.start_server`` — enough protocol for a JSON job API and SSE
streaming, with keep-alive (the cached-submit benchmark pushes
thousands of requests down one connection):

========================  =============================================
``POST /jobs``            submit an ExperimentSpec (the ``exp --spec``
                          JSON schema); 202 + job id, or 200 when the
                          job deduplicated onto an existing one
``GET /jobs``             all job snapshots, oldest first (dashboard)
``GET /jobs/<id>``        status/progress snapshot
``GET /jobs/<id>/result`` the canonical ResultSet JSON (byte-identical
                          to a local ``run_experiment`` on this store)
``GET /jobs/<id>/events`` per-cell completion events as SSE
``GET /healthz``          liveness + queue depth + job counts
``GET /metrics``          latency histograms + store stats (JSON;
                          ``?format=prometheus`` for text exposition)
``GET /dashboard``        self-contained live HTML dashboard
========================  =============================================

Blocking work (spec validation + journal writes on submit, store
walks on ``/metrics``) runs in the default thread executor; cell
execution never blocks the event loop — it lives on the
:class:`~repro.service.jobs.JobManager` worker threads.

:func:`run_server` is the blocking CLI entry point (SIGTERM/SIGINT →
graceful drain); :class:`ServerThread` runs the same server on a
background thread for tests, examples, and the load harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
import threading
from typing import Any, Dict, Optional, Tuple, Union

from ..api.spec import SpecError
from ..log import kv
from ..obs.dashboard import DASHBOARD_HTML
from ..obs.prometheus import render_prometheus
from ..store.cas import ExperimentStore
from .jobs import Job, JobManager, QueueFullError, ServiceError
from .metrics import ServiceMetrics

_log = logging.getLogger("repro.service")

#: Protocol limits: one header line / header count / total body.
MAX_HEADER_LINE = 16 * 1024
MAX_HEADERS = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Idle keep-alive timeout between requests on one connection.
KEEPALIVE_TIMEOUT_S = 60.0

#: Deadline for a request's header block and body, once its request
#: line has arrived.
REQUEST_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


class RequestError(Exception):
    """A request that cannot be read; answered with ``status`` and a
    JSON error body, then the connection is closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepServer:
    """One listening sweep service over a :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then drain the job manager (in-flight jobs
        finish; queued jobs stay journalled for the next boot)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.to_thread(self.manager.shutdown)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except RequestError as exc:
                    self._write_response(
                        writer, exc.status,
                        _json_bytes({"error": str(exc)}),
                        "application/json", close=True,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                path, _, query = target.partition("?")
                close = headers.get("connection", "").lower() == "close"
                if method == "GET" and self._events_job_id(path):
                    await self._stream_events(
                        writer, self._events_job_id(path)
                    )
                    break  # SSE connections end with the stream
                loop = asyncio.get_running_loop()
                started = loop.time()
                status, payload, content_type = await self._dispatch(
                    method, path, query, body
                )
                self.metrics.observe(
                    self._label(method, path),
                    (loop.time() - started) * 1000.0, status,
                )
                self._write_response(
                    writer, status, payload, content_type,
                    close=close,
                )
                await writer.drain()
                if close:
                    break
        except (
            asyncio.IncompleteReadError, asyncio.TimeoutError,
            ConnectionError, ValueError,
        ):
            pass  # half-closed or malformed connection: just drop it
        except asyncio.CancelledError:
            pass  # loop teardown mid-read: finish quietly
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """The next request, or None when the client is gone or idle.

        Raises :class:`RequestError` for a request that arrived but
        cannot be served: malformed, over a protocol limit, or not
        complete within :data:`REQUEST_TIMEOUT_S`.
        """
        try:
            line = await asyncio.wait_for(
                reader.readline(), KEEPALIVE_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return None
        if not line:
            return None
        if len(line) > MAX_HEADER_LINE:
            raise RequestError(400, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise RequestError(400, "malformed request line")
        method, target, _version = parts
        try:
            headers, body = await asyncio.wait_for(
                self._read_head_and_body(reader), REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            raise RequestError(
                408, f"request incomplete after {REQUEST_TIMEOUT_S}s"
            ) from None
        return method, target, headers, body

    @staticmethod
    async def _read_head_and_body(
        reader: asyncio.StreamReader,
    ) -> Tuple[Dict[str, str], bytes]:
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                raise RequestError(
                    431, f"more than {MAX_HEADERS} header lines"
                )
            if len(raw) > MAX_HEADER_LINE:
                raise RequestError(431, "header line too long")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise RequestError(
                400, f"invalid Content-Length {raw_length!r}"
            )
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise RequestError(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return headers, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _job_id(path: str) -> Optional[str]:
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs" and parts[1]:
            return parts[1]
        return None

    @staticmethod
    def _events_job_id(path: str) -> Optional[str]:
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "jobs" and \
                parts[2] == "events":
            return parts[1]
        return None

    def _label(self, method: str, path: str) -> str:
        parts = path.strip("/").split("/")
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                return f"{method} /jobs"
            if len(parts) == 2:
                return f"{method} /jobs/{{id}}"
            return f"{method} /jobs/{{id}}/{parts[2]}"
        if path in ("/healthz", "/metrics", "/dashboard"):
            return f"{method} {path}"
        return "OTHER"

    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        """Route one request; returns (status, payload, content-type)."""
        json_type = "application/json"
        if path == "/jobs":
            if method == "GET":
                snapshots = await asyncio.to_thread(
                    self.manager.list_jobs
                )
                return 200, _json_bytes({"jobs": snapshots}), json_type
            if method != "POST":
                return 405, _json_bytes(
                    {"error": "GET or POST only"}
                ), json_type
            return await self._submit(body)
        job_id = self._job_id(path)
        if job_id is not None:
            if method != "GET":
                return 405, _json_bytes({"error": "GET only"}), json_type
            job = self.manager.get(job_id)
            if job is None:
                return 404, _json_bytes(
                    {"error": f"no job {job_id}"}
                ), json_type
            tail = path.strip("/").split("/")[2:]
            if not tail:
                return 200, _json_bytes(job.snapshot()), json_type
            if tail == ["result"]:
                return await self._result(job)
            return 404, _json_bytes({"error": "unknown path"}), json_type
        if path == "/healthz":
            return 200, _json_bytes({
                "ok": True,
                "store": self.manager.store.root,
                "queue_depth": self.manager.queue_depth,
                "jobs": self.manager.job_counts(),
                "uptime_s": self.metrics.snapshot()["uptime_s"],
            }), json_type
        if path == "/metrics":
            stats = await asyncio.to_thread(self.manager.store.stats)
            payload = {
                "service": self.metrics.snapshot(),
                "queue_depth": self.manager.queue_depth,
                "jobs": self.manager.job_counts(),
                "store": stats,
            }
            if "format=prometheus" in query:
                return 200, render_prometheus(payload).encode(
                    "utf-8"
                ), "text/plain; version=0.0.4; charset=utf-8"
            return 200, _json_bytes(payload), json_type
        if path == "/dashboard":
            if method != "GET":
                return 405, _json_bytes({"error": "GET only"}), json_type
            return 200, DASHBOARD_HTML.encode(
                "utf-8"
            ), "text/html; charset=utf-8"
        return 404, _json_bytes({"error": "unknown path"}), json_type

    async def _submit(self, body: bytes) -> Tuple[int, bytes, str]:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return 400, _json_bytes(
                {"error": "body must be JSON"}
            ), "application/json"
        try:
            job, deduped = await asyncio.to_thread(
                self.manager.submit, data
            )
        except SpecError as exc:
            return 400, _json_bytes(
                {"error": str(exc)}
            ), "application/json"
        except QueueFullError as exc:
            return 429, _json_bytes(
                {"error": str(exc)}
            ), "application/json"
        except ServiceError as exc:
            return 503, _json_bytes(
                {"error": str(exc)}
            ), "application/json"
        return 200 if deduped else 202, _json_bytes({
            "job": job.id,
            "state": job.state,
            "deduped": deduped,
            "cells": job.progress["total"],
        }), "application/json"

    async def _result(self, job: Job) -> Tuple[int, bytes, str]:
        snapshot = job.snapshot()
        if snapshot["state"] in ("queued", "running"):
            return 409, _json_bytes({
                "error": "job not finished", "state": snapshot["state"],
            }), "application/json"
        if snapshot["state"] == "failed":
            return 500, _json_bytes({
                "error": snapshot["error"] or "job failed",
            }), "application/json"
        text = await asyncio.to_thread(self.manager.job_result, job)
        if text is None:
            return 404, _json_bytes({
                "error": "result blob no longer in the store "
                         "(gc'd?); resubmit the spec",
            }), "application/json"
        return 200, text.encode("utf-8"), "application/json"

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._write_response(
                writer, 404, _json_bytes({"error": f"no job {job_id}"}),
                "application/json", close=True,
            )
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        cursor = 0
        while True:
            for event in job.events_since(cursor):
                cursor += 1
                writer.write(
                    b"data: " + _json_bytes(event) + b"\n\n"
                )
            await writer.drain()
            snapshot = job.snapshot()
            if (
                snapshot["state"] in ("done", "failed")
                and cursor >= len(job.events)
            ):
                writer.write(
                    b"event: end\ndata: " + _json_bytes(snapshot)
                    + b"\n\n"
                )
                await writer.drain()
                return
            await asyncio.sleep(0.05)

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        close: bool = False,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        connection = "close" if close else "keep-alive"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)


async def _serve(
    manager: JobManager,
    host: str,
    port: int,
    ready: Optional[threading.Event] = None,
    stop_event: Optional[asyncio.Event] = None,
    announce: bool = False,
) -> SweepServer:
    server = SweepServer(manager, host=host, port=port)
    await server.start()
    if announce:
        print(f"repro.service listening on {server.address} "
              f"(store {manager.store.root})", flush=True)
        _log.info(kv("service.start", address=server.address,
                     store=manager.store.root))
    if stop_event is None:
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, stop_event.set)
    if ready is not None:
        ready.set()
    server_stop = stop_event
    await server_stop.wait()
    if announce:
        print("repro.service draining in-flight jobs ...", flush=True)
    await server.stop()
    if announce:
        print("repro.service stopped (journal is resumable)",
              flush=True)
    return server


def run_server(
    manager: JobManager, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Blocking CLI entry point: serve until SIGINT/SIGTERM, then
    drain gracefully."""
    asyncio.run(_serve(manager, host, port, announce=True))


class ServerThread:
    """A sweep server on a background thread (tests/examples/bench).

    Usable as a context manager::

        with ServerThread(store=tmpdir) as server:
            client = ServiceClient(server.host, server.port)
            ...

    The event loop runs on a daemon thread; ``stop()`` drains the job
    manager exactly like the CLI's SIGTERM path.
    """

    def __init__(
        self,
        store: Union[ExperimentStore, str, None] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        inner_jobs: int = 1,
        retry=None,
        queue_size: int = 64,
        resume: bool = True,
    ) -> None:
        self.manager = JobManager(
            store=store, workers=workers, inner_jobs=inner_jobs,
            retry=retry, queue_size=queue_size, resume=resume,
        )
        self.host = host
        self.port = port
        self._requested_port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServerThread":
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            server = SweepServer(
                self.manager, host=self.host,
                port=self._requested_port,
            )
            try:
                await server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                raise
            self.port = server.port
            self._ready.set()
            await self._stop_event.wait()
            await server.stop()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            daemon=True, name="repro-service-http",
        )
        self._thread.start()
        self._ready.wait(30.0)
        if self._error is not None:
            raise ServiceError(
                f"server failed to start: {self._error}"
            ) from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(60.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
