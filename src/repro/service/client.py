"""Blocking client for the ``repro serve`` HTTP API.

Used by the ``repro submit`` / ``repro status`` CLI commands and by the
test and CI harnesses. Pure stdlib: :mod:`http.client` over TCP, or over a
unix socket via a tiny connection subclass (the server's default and the
recommended deployment — filesystem permissions are the auth model).

Error mapping: any non-2xx response raises
:class:`~repro.exceptions.ServiceError`; a 429 specifically raises
:class:`~repro.exceptions.AdmissionRejectedError` rebuilt from the
server's structured rejection payload, so callers can branch on
``exc.reason`` exactly as in-process queue users do.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Dict, Iterator, List, Optional

from repro.exceptions import AdmissionRejectedError, InvalidParameterError, ServiceError

__all__ = ["ServiceClient"]


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.ReproService`."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 30.0,
    ):
        if socket_path and (host or port):
            raise InvalidParameterError("give a socket path or host/port, not both")
        if not socket_path and not (host and port):
            raise InvalidParameterError("give a socket path or both host and port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- wire ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self.socket_path:
            return _UnixHTTPConnection(self.socket_path, timeout=self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict:
        conn = self._connection()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"service unreachable at {self._target()}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            try:
                document = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceError(
                    f"malformed response from service "
                    f"(status {response.status})"
                ) from exc
            if response.status >= 400:
                raise self._error_for(response.status, document)
            return document
        finally:
            conn.close()

    def _target(self) -> str:
        if self.socket_path:
            return self.socket_path
        return f"{self.host}:{self.port}"

    @staticmethod
    def _error_for(status: int, document: Dict) -> ServiceError:
        error = document.get("error", {})
        reason = error.get("reason", "unknown")
        detail = error.get("detail", "")
        if status == 429:
            return AdmissionRejectedError(
                reason=reason,
                detail=detail,
                limit=error.get("limit", 0),
                queue_depth=error.get("queue_depth", 0),
            )
        return ServiceError(f"{reason}: {detail}", status=status)

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """Raw Prometheus text from ``GET /metrics`` (not JSON)."""
        conn = self._connection()
        try:
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"service unreachable at {self._target()}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if response.status >= 400:
                try:
                    document = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    document = {}
                raise self._error_for(response.status, document)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def submit(self, kind: str, params: Dict, client: str = "anonymous",
               priority: int = 0) -> Dict:
        """Submit a job; returns its record. Raises on 400/429."""
        return self._request("POST", "/jobs", body={
            "kind": kind,
            "params": params,
            "client": client,
            "priority": priority,
        })

    def jobs(self) -> List[Dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def shutdown(self) -> Dict:
        return self._request("POST", "/shutdown")

    def events(self, job_id: str, follow: bool = False) -> Iterator[Dict]:
        """Yield the job's JSONL events; ``follow`` tails until terminal."""
        conn = self._connection()
        try:
            suffix = "?follow=1" if follow else ""
            try:
                conn.request("GET", f"/jobs/{job_id}/events{suffix}")
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"service unreachable at {self._target()}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if response.status >= 400:
                raw = response.read()
                try:
                    document = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    document = {}
                raise self._error_for(response.status, document)
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        try:
                            yield json.loads(line.decode("utf-8"))
                        except (UnicodeDecodeError, json.JSONDecodeError):
                            continue  # torn trailing line mid-write
            if buffer.strip():
                try:
                    yield json.loads(buffer.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.2) -> Dict:
        """Block until the job reaches a terminal state; return its record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for {job_id} "
                    f"(still {record['state']})"
                )
            time.sleep(poll)
