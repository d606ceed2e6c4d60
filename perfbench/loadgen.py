"""Measurement helpers and the load generator of ``serve_predict``.

* :func:`percentile` — the reporting rule: a percentile is reported only
  when at least :data:`MIN_TAIL` samples lie beyond it.
* :class:`ResponseBook` — matches pipelined responses to requests by id,
  checks each answer bit for bit against the in-process reference, and
  keeps the open-loop timestamps (due, sent, received) of every request.
* :class:`PipelinedClient` — one connection, one sender (the caller's
  thread) and one reader thread, so the generator never uses more
  threads or connections than a 2-core machine has.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond it: a p90 needs at least 100 samples, a p99 at least 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100); got {q}")
    xs = sorted(samples)
    rank = math.ceil(q / 100.0 * len(xs))
    beyond = len(xs) - rank
    if rank < 1 or beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples leaves {max(beyond, 0)} beyond "
            f"it; need {MIN_TAIL}"
        )
    return xs[rank - 1]


def same_bits(got, expected) -> bool:
    """True when two prediction vectors are identical float64 for float64."""
    a = np.asarray(got, dtype=np.float64)
    b = np.asarray(expected, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class Request:
    """One predict request: its timestamps, its answer and the reference."""

    due: float
    sent: float
    #: In-process prediction for the same rows; may be set after sending.
    expected: np.ndarray | None = None
    received: float | None = None
    got: list | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Answered without error, bit-identical to the reference."""
        return (
            self.received is not None
            and self.error is None
            and self.expected is not None
            and same_bits(self.got, self.expected)
        )

    @property
    def latency_s(self) -> float:
        """Response time counted from when the request was due."""
        return self.received - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent it (0 when on time)."""
        return max(0.0, self.sent - self.due)


@dataclass
class ResponseBook:
    """Requests in flight and answered, keyed by JSON-RPC id.

    Predict requests carry integer ids; other calls (telemetry,
    shutdown) carry string ids and land in :attr:`replies`.
    """

    requests: dict[int, Request] = field(default_factory=dict)
    replies: dict[str, dict] = field(default_factory=dict)
    #: Responses whose id matched no request, or answered one twice.
    strays: int = 0

    def __post_init__(self) -> None:
        self._cond = threading.Condition()

    def add(self, req_id: int, request: Request) -> None:
        with self._cond:
            self.requests[req_id] = request

    def answer(self, line: str, received: float) -> None:
        """Record one response line against the request it answers."""
        try:
            doc = json.loads(line)
            req_id = doc.get("id")
        except (ValueError, AttributeError):
            doc, req_id = {}, None  # unparseable: counts as a stray
        with self._cond:
            if isinstance(req_id, str):
                self.replies[req_id] = doc
            else:
                req = self.requests.get(req_id)
                if req is None or req.received is not None:
                    self.strays += 1
                else:
                    req.received = received
                    result = doc.get("result") or {}
                    if "error" in doc or "predictions" not in result:
                        req.error = json.dumps(doc.get("error"))[:200]
                    else:
                        req.got = result["predictions"]
            self._cond.notify_all()

    def wait(self, predicate, timeout: float) -> bool:
        """Block until ``predicate()`` holds (checked under the lock)."""
        with self._cond:
            return self._cond.wait_for(predicate, timeout)

    def outstanding(self) -> int:
        return sum(r.received is None for r in self.requests.values())

    def tally(self) -> tuple[int, int, int]:
        """``(sent, ok, failed)``: every request that is not ok failed,
        unanswered and wrong answers included, and so does a stray."""
        with self._cond:
            sent = len(self.requests)
            ok = sum(r.ok for r in self.requests.values())
            return sent, ok, sent - ok + self.strays


class PipelinedClient:
    """One TCP connection; requests are sent without waiting for answers."""

    def __init__(self, host: str, port: int, book: ResponseBook) -> None:
        self.book = book
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.settimeout(None)  # the reader idles between phases
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = threading.Thread(
            target=self._read, name="perfbench-reader", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        try:
            with self.sock.makefile("r") as lines:
                for line in lines:
                    if line.strip():
                        self.book.answer(line, time.monotonic())
        except OSError:
            pass  # connection closed by close()

    def send(self, doc: dict) -> None:
        """Send one request line without waiting for its answer."""
        self.sock.sendall((json.dumps(doc) + "\n").encode())

    def call(self, name: str, method: str, timeout: float = 30.0,
             **params) -> dict:
        """A non-predict call answered in line with the predict stream."""
        self.send({"id": name, "method": method, "params": params})
        if not self.book.wait(lambda: name in self.book.replies, timeout):
            raise TimeoutError(f"no answer to {method!r} within {timeout}s")
        reply = self.book.replies[name]
        if "error" in reply:
            raise RuntimeError(f"{method} failed: {reply['error']}")
        return reply.get("result") or {}

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)


def sleep_until(deadline: float) -> None:
    """Sleep until the monotonic clock reaches ``deadline``."""
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return
        time.sleep(left)
