"""`repro serve`: a fault-tolerant prediction server over line-delimited JSON-RPC.

One request per line, one response per line, ids echoed back::

    {"id": 1, "method": "predict", "params": {"kernel": "gemm",
     "arch": "volta", "rows": [{"n": 4096, "threads": 256}]}}
    {"id": 1, "result": {"predictions": [0.0123], "version": "ab12…"}}

The request loop **coalesces**: every pass it drains whatever requests
are already queued (up to ``--max-batch``), groups the predict calls by
resolved model, and answers each group with a single
:meth:`ServableFit.predict_many` pass — so ten clients asking the same
model cost one stacked forest traversal, not ten. Responses are written
in arrival order regardless of grouping, and batching is semantically
invisible: the predictions are bit-identical to serving each request
alone (the stacking lemma ``tests/serve/test_server.py`` pins).

On top of the batching core sits the production hardening
(docs/serving.md "Operations"):

* **Concurrency** — :func:`serve_tcp` runs a threaded accept loop, one
  reader thread per connection, and a bounded worker pool pulling from a
  bounded request queue. All request handling serializes through one
  lock, so N concurrent clients receive responses byte-identical to the
  serial stdio server; the speedup comes from cross-client coalescing
  and overlapped socket I/O (the ``serve_concurrent`` bench op).
* **Load shedding** — a full queue answers immediately with a typed
  ``overloaded`` error (:data:`OVERLOADED`) instead of stalling the
  reader; shed requests count into ``serve.shed``.
* **Deadlines** — a request may carry ``params.deadline_ms`` (and the
  server a ``--request-timeout`` default); a request still unprocessed
  when its monotonic deadline passes is refused with
  :data:`DEADLINE_EXCEEDED` (``serve.timeouts``).
* **Hot reload** — each batch checks the registry's watch digests
  (``repro-fit-index/1`` plus version manifests); a re-publish
  invalidates the affected :class:`FitCache` entries and resets the
  model's breaker, so a stale fit is never served (``serve.reloads``).
* **Circuit breaker** — repeated :class:`RegistryIntegrityError` /
  unexpected predict failures open a per-``(campaign, version)``
  breaker (:mod:`repro.serve.breaker`); open models fast-fail with
  :data:`BREAKER_OPEN` and recover via deterministic half-open probes.
* **Graceful drain** — ``shutdown`` (or SIGTERM on the TCP frontend)
  stops accepting, finishes in-flight work, answers late arrivals with
  :data:`DRAINING`, and reports drained counts in the ``serve.drain``
  event.
* **Chaos** — the ``serve.request`` fault site (modes ``raise``/
  ``delay``) fires inside request handling so ``repro chaos --serve``
  can exercise all of the above deterministically.

* **Telemetry** — ``--telemetry PATH`` samples the server's metrics
  into a rotating ``repro-telemetry/1`` JSONL journal
  (:class:`repro.obs.telemetry.TelemetryExporter`), and the
  ``telemetry`` RPC serves the same snapshot live (JSON or a
  Prometheus-style text exposition) for scrapers and ``repro top``.
* **Flight recorder** — ``--flight-recorder PATH`` keeps a bounded ring
  of recent request outcomes/errors/breaker transitions
  (:class:`repro.obs.flightrec.FlightRecorder`) and dumps it atomically
  as ``repro-flightrec/1`` on SIGTERM, on an unhandled worker
  exception, and (edge-triggered, exactly once) on the first
  breaker-open transition.

Methods: ``predict``, ``models``, ``stats``, ``telemetry``, ``ping``,
``shutdown``. ``ping`` returns the ``repro-serve-health/1`` readiness
document (status ``ready``/``draining``, registry digest, breaker
states). EOF on the input is a graceful shutdown too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro.faults.plan import should_inject
from repro.obs import metrics as obs_metrics
from repro.obs.flightrec import FlightRecorder
from repro.obs.log import emit as emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    TelemetryExporter,
    render_prometheus,
    snapshot_doc,
)
from repro.core.store import CampaignKey

from .breaker import CircuitBreaker
from .cache import FitCache
from .registry import FitRegistry, RegistryIntegrityError

__all__ = [
    "PredictionServer",
    "drain_lines",
    "serve_stdio",
    "serve_tcp",
    "ready_line",
    "HEALTH_SCHEMA",
    "ERROR_KINDS",
]

# JSON-RPC 2.0 standard codes plus the serve-specific ones.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
MODEL_NOT_FOUND = -32004
REGISTRY_CORRUPT = -32005
OVERLOADED = -32006
DEADLINE_EXCEEDED = -32007
BREAKER_OPEN = -32008
DRAINING = -32009

#: Stable kind names carried alongside the numeric codes, so clients
#: and logs never need the table above to read an error.
ERROR_KINDS: dict[int, str] = {
    PARSE_ERROR: "parse_error",
    INVALID_REQUEST: "invalid_request",
    METHOD_NOT_FOUND: "method_not_found",
    INVALID_PARAMS: "invalid_params",
    INTERNAL_ERROR: "internal_error",
    MODEL_NOT_FOUND: "model_not_found",
    REGISTRY_CORRUPT: "registry_corrupt",
    OVERLOADED: "overloaded",
    DEADLINE_EXCEEDED: "deadline_exceeded",
    BREAKER_OPEN: "breaker_open",
    DRAINING: "draining",
}

#: Schema tag of the ``ping`` readiness document (registered in
#: :mod:`repro.analysis.schemas`).
HEALTH_SCHEMA = "repro-serve-health/1"

#: Prefix of the machine-readable line printed once the TCP frontend
#: has bound its socket (see :func:`ready_line`).
READY_PREFIX = "repro-serve-ready"


def ready_line(host: str, port: int) -> str:
    """The single machine-readable ready line the TCP frontend prints
    after ``bind()``: ``repro-serve-ready host=<host> port=<port>``."""
    return f"{READY_PREFIX} host={host} port={port}"


def drain_lines(stream, max_batch: int) -> list[str] | None:
    """Block for one line, then greedily take queued ones up to the cap.

    Returns ``None`` on EOF. Streams without a real file descriptor
    (``StringIO``, test doubles) still coalesce: whatever is already
    buffered is drained without blocking.
    """
    first = stream.readline()
    if first == "":
        return None
    lines = [first]
    while len(lines) < max_batch and _has_queued_input(stream):
        line = stream.readline()
        if line == "":
            break
        lines.append(line)
    return lines


def _has_queued_input(stream) -> bool:
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        # In-memory stream: "queued" means not yet at its end.
        tell = getattr(stream, "tell", None)
        seek = getattr(stream, "seek", None)
        if tell is None or seek is None:
            return False
        pos = tell()
        end = seek(0, 2)
        seek(pos)
        return pos < end
    import select

    ready, _, _ = select.select([fd], [], [], 0.0)
    return bool(ready)


class _RpcError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class PredictionServer:
    """Registry-backed prediction service; one instance per process.

    Thread-safe: every handling path serializes through an internal
    lock, which is what makes concurrent frontends bit-identical to the
    serial stdio loop.

    Parameters
    ----------
    request_timeout_s:
        Default per-request deadline (seconds from arrival). ``None``
        (the default) means no server-side deadline; a request's own
        ``params.deadline_ms`` always takes precedence.
    breaker_threshold / breaker_cooldown:
        :class:`~repro.serve.breaker.CircuitBreaker` knobs — consecutive
        integrity failures that open a model's breaker, and rejected
        requests between deterministic half-open probes.
    watch_reload:
        Watch the registry's content digests and hot-reload on
        re-publish (invalidate the affected cache entries, reset the
        model's breaker). On by default; disable for digest-stable
        benchmarking.
    telemetry_path / telemetry_interval_s:
        Opt-in rotating ``repro-telemetry/1`` journal of periodic
        metric snapshots; the TCP frontend starts/stops the sampler
        thread. Telemetry never touches the predict path — responses
        are bit-identical with it on or off.
    flightrec_path:
        Opt-in flight recorder: a bounded ring of recent request
        outcomes dumped as ``repro-flightrec/1`` on SIGTERM, unhandled
        worker exception, or the first breaker-open transition.
    """

    def __init__(
        self,
        registry: FitRegistry,
        *,
        max_batch: int = 32,
        cache_size: int = 8,
        request_timeout_s: float | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: int = 8,
        watch_reload: bool = True,
        telemetry_path: str | None = None,
        telemetry_interval_s: float = 5.0,
        flightrec_path: str | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive (or None); "
                f"got {request_timeout_s}"
            )
        self.registry = registry
        self.max_batch = int(max_batch)
        self.cache = FitCache(max_entries=cache_size)
        self.request_timeout_s = request_timeout_s
        self.watch_reload = bool(watch_reload)
        self.breakers = CircuitBreaker(
            threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            on_event=self._breaker_event,
        )
        #: Server-local metrics (always on, independent of whether an
        #: ambient ``collect()`` window is installed).
        self.metrics = MetricsRegistry()
        self.telemetry: TelemetryExporter | None = None
        if telemetry_path is not None:
            self.telemetry = TelemetryExporter(
                telemetry_path,
                self.telemetry_doc,
                source="serve",
                interval_s=telemetry_interval_s,
            )
        self.flightrec: FlightRecorder | None = None
        if flightrec_path is not None:
            self.flightrec = FlightRecorder(flightrec_path)
        self.requests_served = 0
        self.inflight = 0
        self._stop = False
        self._draining = False
        self._served_at_drain: int | None = None
        self._watched: dict[str, str] | None = None
        self._registry_digest: str | None = None
        self._lock = threading.RLock()

    # -- request handling ----------------------------------------------

    def handle_batch(self, lines: Sequence[str]) -> list[str]:
        """Answer one drained window of request lines, in arrival order.

        Notifications (requests without an id) produce no reply and are
        dropped from the output; :meth:`handle_lines` keeps alignment.
        """
        return [out for out in self.handle_lines(lines) if out is not None]

    def handle_lines(
        self,
        lines: Sequence[str],
        arrivals: Sequence[float | None] | None = None,
    ) -> list[str | None]:
        """Answer request lines; output aligned with the input.

        ``arrivals`` are per-line ``time.monotonic()`` stamps from the
        transport (the moment each line was read); deadlines are
        enforced against them. ``None`` entries (or no list at all)
        treat the batch start as the arrival. Entry ``i`` of the result
        is the response line for input ``i``, or ``None`` when no reply
        is owed (notification or unaddressable parse error).
        """
        with self._lock:
            return self._handle_locked(lines, arrivals)

    def _handle_locked(
        self,
        lines: Sequence[str],
        arrivals: Sequence[float | None] | None,
    ) -> list[str | None]:
        t_batch = time.monotonic()
        self.check_reload()
        requests = [self._parse(line) for line in lines]
        responses: list[dict | None] = [None] * len(requests)
        done = [False] * len(requests)

        # Admission pass: parse errors, injected faults, deadlines.
        for i, req in enumerate(requests):
            if isinstance(req, _RpcError):
                responses[i] = self._error(None, req)
                done[i] = True
                continue
            arrival = t_batch
            if arrivals is not None and arrivals[i] is not None:
                arrival = arrivals[i]
            method = req["method"]
            spec = should_inject(
                "serve.request", method=method, rid=str(req.get("id"))
            )
            if spec is not None:
                if spec.mode == "delay":
                    time.sleep(
                        float(spec.payload_dict.get("seconds", 0.005))
                    )
                else:  # raise
                    err = _RpcError(
                        INTERNAL_ERROR,
                        "injected fault at serve.request",
                    )
                    responses[i] = self._error(req.get("id"), err)
                    self._observe(method, time.monotonic() - arrival)
                    done[i] = True
                    continue
            try:
                expiry = self._deadline_expiry(req, arrival)
            except _RpcError as exc:
                responses[i] = self._error(req.get("id"), exc)
                done[i] = True
                continue
            now = time.monotonic()
            if expiry is not None and now > expiry:
                err = _RpcError(
                    DEADLINE_EXCEEDED,
                    f"deadline exceeded before processing "
                    f"({(now - arrival) * 1e3:.1f} ms since arrival)",
                )
                responses[i] = self._error(req.get("id"), err)
                self.metrics.inc("serve.timeouts")
                obs_metrics.inc("serve.timeouts")
                self._observe(method, now - arrival)
                done[i] = True

        # Group surviving predict requests by resolved model so each
        # group is one stacked predict_many pass.
        groups: dict[tuple, list[int]] = {}
        singles: list[int] = []
        for i, req in enumerate(requests):
            if done[i]:
                continue
            if req.get("method") == "predict":
                try:
                    addr = self._resolve_address(req.get("params") or {})
                except _RpcError as exc:
                    responses[i] = self._error(req.get("id"), exc)
                    continue
                groups.setdefault(addr, []).append(i)
            else:
                singles.append(i)

        for addr, members in groups.items():
            self._answer_predict_group(addr, members, requests, responses)
        # Control-plane methods go after the groups so a `stats` queued
        # behind predicts reports them; responses stay in arrival order.
        for i in singles:
            responses[i] = self._dispatch_single(requests[i])

        return [
            None if resp is None else json.dumps(resp, sort_keys=True)
            for resp in responses
        ]

    def _parse(self, line: str):
        line = line.strip()
        if not line:
            return _RpcError(INVALID_REQUEST, "empty request line")
        try:
            req = json.loads(line)
        except json.JSONDecodeError as exc:
            return _RpcError(PARSE_ERROR, f"request is not valid JSON: {exc}")
        if not isinstance(req, dict) or not isinstance(
            req.get("method"), str
        ):
            return _RpcError(
                INVALID_REQUEST, "request must be an object with a 'method'"
            )
        return req

    def _deadline_expiry(self, req: dict, arrival: float) -> float | None:
        params = req.get("params")
        deadline_ms = (
            params.get("deadline_ms") if isinstance(params, dict) else None
        )
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(
                deadline_ms, (int, float)
            ):
                raise _RpcError(
                    INVALID_PARAMS,
                    f"'deadline_ms' must be a number; got {deadline_ms!r}",
                )
            if deadline_ms <= 0:
                raise _RpcError(
                    INVALID_PARAMS,
                    f"'deadline_ms' must be positive; got {deadline_ms}",
                )
            return arrival + float(deadline_ms) / 1000.0
        if self.request_timeout_s is not None:
            return arrival + self.request_timeout_s
        return None

    def _dispatch_single(self, req) -> dict | None:
        if isinstance(req, _RpcError):
            return self._error(None, req)
        req_id = req.get("id")
        method = req["method"]
        t0 = time.monotonic()
        try:
            if method == "ping":
                result = self.health()
            elif method == "stats":
                result = self.stats()
            elif method == "telemetry":
                result = self._telemetry_rpc(req.get("params") or {})
            elif method == "models":
                result = self._models()
            elif method == "shutdown":
                self.begin_drain()
                self._stop = True
                result = {"ok": True, "requests_served": self.requests_served}
            elif method == "predict":
                # Reached only via direct dispatch (not handle_batch).
                result = self._predict_one(req.get("params") or {})
            else:
                raise _RpcError(
                    METHOD_NOT_FOUND, f"unknown method {method!r}"
                )
        except _RpcError as exc:
            return self._error(req_id, exc)
        finally:
            self._observe(method, time.monotonic() - t0)
        if req_id is None:
            return None
        return {"id": req_id, "result": result}

    # -- predict path --------------------------------------------------

    def _resolve_address(self, params: dict) -> tuple:
        kernel = params.get("kernel")
        arch = params.get("arch")
        if not kernel or not arch:
            raise _RpcError(
                INVALID_PARAMS,
                "predict params need 'kernel' and 'arch'",
            )
        key = CampaignKey(
            kernel=str(kernel),
            arch=str(arch),
            tag=params.get("tag") or None,
        )
        try:
            version = self.registry.resolve_version(
                key, params.get("version")
            )
        except FileNotFoundError as exc:
            raise _RpcError(MODEL_NOT_FOUND, str(exc)) from None
        except RegistryIntegrityError as exc:
            raise _RpcError(REGISTRY_CORRUPT, str(exc)) from None
        return (key, version)

    def _load(self, addr: tuple):
        key, version = addr
        try:
            return self.cache.get(
                (key.dirname, version),
                lambda: self.registry.load(key, version),
            )
        except FileNotFoundError as exc:
            raise _RpcError(MODEL_NOT_FOUND, str(exc)) from None
        except RegistryIntegrityError as exc:
            raise _RpcError(REGISTRY_CORRUPT, str(exc)) from None

    def _query_matrix(self, servable, params: dict) -> np.ndarray:
        rows = params.get("rows")
        X = params.get("X")
        if (rows is None) == (X is None):
            raise _RpcError(
                INVALID_PARAMS,
                "predict params need exactly one of 'rows' (list of "
                "feature dicts) or 'X' (2-D feature matrix)",
            )
        try:
            if rows is not None:
                mat = servable.rows_from_dicts(list(rows))
            else:
                mat = np.asarray(X, dtype=float)
                if mat.ndim != 2:
                    raise ValueError(
                        f"'X' must be 2-D (n_samples, n_features); got "
                        f"shape {mat.shape}"
                    )
            # Check width and finiteness here, per request, so one
            # malformed query is refused alone instead of failing its
            # whole batch group in the forest's own input check.
            want = len(servable.feature_names)
            if mat.shape[1] != want:
                raise ValueError(
                    f"'X' has {mat.shape[1]} columns; this fit expects "
                    f"{want} features {servable.feature_names}"
                )
            if not np.isfinite(mat).all():
                raise ValueError(
                    "query holds NaN or infinite values; a forest cannot "
                    "answer a non-finite query"
                )
            return mat
        except (TypeError, ValueError) as exc:
            raise _RpcError(INVALID_PARAMS, str(exc)) from None

    def _answer_predict_group(
        self,
        addr: tuple,
        members: list[int],
        requests: list,
        responses: list,
    ) -> None:
        t0 = time.monotonic()
        key, version = addr
        bkey = (key.dirname, version)

        def fail_all(exc: _RpcError) -> None:
            dt = time.monotonic() - t0
            for i in members:
                responses[i] = self._error(requests[i].get("id"), exc)
                self._observe("predict", dt / len(members))

        if not self.breakers.allow(bkey):
            fail_all(_RpcError(
                BREAKER_OPEN,
                f"circuit breaker open for {key.dirname}@{version}; "
                f"fast-failing until a half-open probe succeeds",
            ))
            return

        try:
            servable = self._load(addr)
        except _RpcError as exc:
            # Only infrastructure failures feed the breaker: a corrupt
            # artifact counts, a model that simply is not there (client
            # or retention decision) does not.
            if exc.code == REGISTRY_CORRUPT:
                self.breakers.record_failure(bkey, str(exc))
            else:
                self.breakers.record_success(bkey)
            fail_all(exc)
            return

        mats, ok = [], []
        for i in members:
            try:
                mats.append(
                    self._query_matrix(
                        servable, requests[i].get("params") or {}
                    )
                )
                ok.append(i)
            except _RpcError as exc:
                responses[i] = self._error(requests[i].get("id"), exc)

        infra_failed = False
        if ok:
            preds = None
            try:
                preds = servable.predict_many(mats)
            except ValueError as exc:
                err = _RpcError(INVALID_PARAMS, str(exc))
                for i in ok:
                    responses[i] = self._error(requests[i].get("id"), err)
            except Exception as exc:  # unexpected: infrastructure failure
                infra_failed = True
                err = _RpcError(INTERNAL_ERROR, f"predict failed: {exc}")
                for i in ok:
                    responses[i] = self._error(requests[i].get("id"), err)
            if preds is not None:
                for i, pred in zip(ok, preds):
                    req_id = requests[i].get("id")
                    responses[i] = (
                        None
                        if req_id is None
                        else {
                            "id": req_id,
                            "result": {
                                "predictions": [float(v) for v in pred],
                                "version": version,
                                "response": servable.response,
                            },
                        }
                    )
        if infra_failed:
            self.breakers.record_failure(bkey, "predict failed")
        else:
            self.breakers.record_success(bkey)
        # Per-request latency: the group's wall time amortized evenly —
        # what each client would bill for, keeping p50/p95/p99 honest
        # about the benefit of batching.
        dt = time.monotonic() - t0
        for _ in members:
            self._observe("predict", dt / len(members))

    def _predict_one(self, params: dict) -> dict:
        addr = self._resolve_address(params)
        servable = self._load(addr)
        X = self._query_matrix(servable, params)
        pred = servable.predict(X)
        return {
            "predictions": [float(v) for v in pred],
            "version": addr[1],
            "response": servable.response,
        }

    # -- hot reload ----------------------------------------------------

    def check_reload(self) -> list[str]:
        """Diff the registry's watch digests; hot-reload changed campaigns.

        For every campaign whose digest moved since the last check
        (re-publish, gc, or manual edit), the warm cache entries of that
        campaign are invalidated and its breakers reset — the next
        request re-loads (and re-verifies) from disk. The first check
        primes the watch state without reloading. Returns the changed
        campaign dirnames.
        """
        if not self.watch_reload:
            return []
        try:
            current = self.registry.watch_digests()
        except OSError:
            return []  # transient filesystem hiccup; next batch retries
        changed: list[str] = []
        if self._watched is not None:
            changed = sorted(
                d for d in set(current) | set(self._watched)
                if current.get(d) != self._watched.get(d)
            )
            for dirname in changed:
                invalidated = self.cache.invalidate_key(dirname)
                cleared = self.breakers.reset(dirname)
                self.metrics.inc("serve.reloads")
                obs_metrics.inc("serve.reloads")
                if self.flightrec is not None:
                    self.flightrec.record("reload", campaign=dirname)
                emit_event(
                    "serve.reload",
                    campaign=dirname,
                    invalidated=invalidated,
                    breakers_cleared=cleared,
                )
        self._watched = current
        self._registry_digest = hashlib.sha256(
            repr(sorted(current.items())).encode()
        ).hexdigest()
        return changed

    # -- lifecycle -----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting new work; in-flight requests still finish.

        Idempotent. The TCP frontend checks :attr:`draining` to stop
        accepting connections and to answer late request lines with a
        typed :data:`DRAINING` error.
        """
        if not self._draining:
            self._draining = True
            self._served_at_drain = self.requests_served
            if self.flightrec is not None:
                self.flightrec.record(
                    "drain.begin", requests_served=self.requests_served
                )
            emit_event(
                "serve.drain.begin", requests_served=self.requests_served
            )

    @property
    def draining(self) -> bool:
        return self._draining

    def drained_count(self) -> int:
        """Requests finished after the drain began (0 before any drain)."""
        if self._served_at_drain is None:
            return 0
        return self.requests_served - self._served_at_drain

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        """The ``repro-serve-health/1`` readiness document (``ping``)."""
        status = "draining" if self._draining else "ready"
        return {
            "schema": HEALTH_SCHEMA,
            "ok": status == "ready",
            "status": status,
            "registry_digest": self._registry_digest,
            "breakers": self.breakers.summary(),
            "inflight": int(self.inflight),
            "requests_served": self.requests_served,
        }

    def _models(self) -> dict:
        models = []
        for key in self.registry.keys():
            models.append(
                {
                    "kernel": key.kernel,
                    "arch": key.arch,
                    "tag": key.tag,
                    "versions": self.registry.versions(key),
                }
            )
        return {"models": models}

    def stats(self) -> dict:
        """Live cache/robustness counters and latency snapshot (p50/p95/p99)."""
        snap = self.metrics.snapshot()
        return {
            "requests_served": self.requests_served,
            "cache": dict(self.cache.stats),
            "cache_entries": len(self.cache),
            "max_batch": self.max_batch,
            "latency": snap["timer"],
            "counters": snap["counter"],
            "breakers": self.breakers.summary(),
        }

    def telemetry_doc(self) -> dict:
        """Telemetry body: metric snapshot plus serving-layer state.

        The one source both the rotating journal and the ``telemetry``
        RPC (and through it ``repro top``) sample, so an operator's
        scrape and the on-disk heartbeat can never disagree about
        shape.
        """
        doc = snapshot_doc(self.metrics)
        cache = dict(self.cache.stats)
        looked_up = cache.get("hit", 0) + cache.get("miss", 0)
        doc["breakers"] = self.breakers.summary()
        doc["server"] = {
            "requests_served": self.requests_served,
            "inflight": int(self.inflight),
            "draining": int(self._draining),
            "drained": self.drained_count(),
            "max_batch": self.max_batch,
            "cache_entries": len(self.cache),
            "cache_hits": cache.get("hit", 0),
            "cache_misses": cache.get("miss", 0),
            "cache_evictions": cache.get("eviction", 0),
            "cache_hit_rate": (
                cache.get("hit", 0) / looked_up if looked_up else 0.0
            ),
        }
        return doc

    def _telemetry_rpc(self, params: dict) -> dict:
        fmt = params.get("format", "json")
        doc = self.telemetry_doc()
        if fmt == "json":
            return {"format": "json", "telemetry": doc}
        if fmt == "prometheus":
            return {"format": "prometheus", "text": render_prometheus(doc)}
        raise _RpcError(
            INVALID_PARAMS,
            f"'format' must be 'json' or 'prometheus'; got {fmt!r}",
        )

    def _observe(self, method: str, seconds: float) -> None:
        self.requests_served += 1
        seconds = max(seconds, 0.0)
        self.metrics.observe("serve.request", seconds, method=method)
        obs_metrics.observe("serve.request", seconds, method=method)
        if self.flightrec is not None:
            self.flightrec.record(
                "request", method=method, ms=round(seconds * 1e3, 3)
            )

    def _breaker_event(self, kind: str, key: tuple) -> None:
        self.metrics.inc(f"serve.breaker.{kind}")
        obs_metrics.inc(f"serve.breaker.{kind}")
        model = "@".join(str(part) for part in key)
        if self.flightrec is not None:
            self.flightrec.record("breaker", state=kind, model=model)
            if kind == "open":
                # Edge-triggered: the first open captures the ring; a
                # flapping breaker must not overwrite that state.
                self.flightrec.dump_once("breaker_open")
        if kind in ("open", "close"):
            emit_event("serve.breaker", state=kind, model=model)

    def set_inflight(self, n: int) -> None:
        """Frontend hook: admitted-but-unanswered request gauge."""
        self.inflight = int(n)
        self.metrics.set_gauge("serve.inflight", n)
        obs_metrics.set_gauge("serve.inflight", n)

    def count_shed(self) -> None:
        """Frontend hook: one request refused because the queue was full."""
        self.metrics.inc("serve.shed")
        obs_metrics.inc("serve.shed")
        if self.flightrec is not None:
            self.flightrec.record("shed")

    def reject_line(self, line: str, code: int, message: str) -> str | None:
        """Typed refusal for a request that never reached a worker
        (shed under overload, or arriving after drain began). ``None``
        when the line carries no id to address a reply to."""
        try:
            req = json.loads(line)
            rid = req.get("id") if isinstance(req, dict) else None
        except json.JSONDecodeError:
            rid = None
        if rid is None:
            return None
        resp = self._error(rid, _RpcError(code, message))
        return json.dumps(resp, sort_keys=True)

    def _error(self, req_id, exc: _RpcError) -> dict | None:
        if self.flightrec is not None:
            self.flightrec.record(
                "error",
                code=exc.code,
                kind=ERROR_KINDS.get(exc.code, "error"),
                message=str(exc)[:200],
            )
        if req_id is None:
            return None
        return {
            "id": req_id,
            "error": {
                "code": exc.code,
                "kind": ERROR_KINDS.get(exc.code, "error"),
                "message": str(exc),
            },
        }

    # -- request loop --------------------------------------------------

    def run(
        self,
        read_batch: Callable[[], list[str] | None],
        write_line: Callable[[str], None],
    ) -> int:
        """Serve until EOF or a ``shutdown`` request; returns requests served."""
        emit_event(
            "serve.start",
            registry=str(self.registry.root),
            max_batch=self.max_batch,
        )
        while not self._stop:
            lines = read_batch()
            if lines is None:
                break
            for out in self.handle_batch(lines):
                write_line(out)
        emit_event("serve.stop", requests_served=self.requests_served)
        return self.requests_served


def serve_stdio(
    server: PredictionServer,
    stdin=None,
    stdout=None,
) -> int:
    """Run the request loop over text streams (stdio by default)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def write_line(text: str) -> None:
        stdout.write(text + "\n")
        stdout.flush()

    if server.telemetry is not None:
        server.telemetry.start()
    try:
        return server.run(
            lambda: drain_lines(stdin, server.max_batch), write_line
        )
    finally:
        if server.telemetry is not None:
            server.telemetry.stop()


# -- concurrent TCP frontend -------------------------------------------------


class _Job:
    __slots__ = ("line", "arrival", "writer")

    def __init__(self, line: str, arrival: float, writer: "_ConnWriter"):
        self.line = line
        self.arrival = arrival
        self.writer = writer


class _ConnWriter:
    """Per-connection response writer; a lock keeps response lines whole
    when two workers answer the same client."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._wf = conn.makefile("w")
        self._lock = threading.Lock()
        self.closed = False

    def send(self, text: str | None) -> None:
        if text is None:
            return
        with self._lock:
            if self.closed:
                return
            try:
                self._wf.write(text + "\n")
                self._wf.flush()
            except (OSError, ValueError):
                self.closed = True

    def close(self) -> None:
        with self._lock:
            self.closed = True
            for closer in (self._wf.close, self._conn.close):
                try:
                    closer()
                except OSError:
                    pass


def serve_tcp(
    server: PredictionServer,
    host: str,
    port: int,
    *,
    workers: int = 4,
    queue_size: int = 64,
    on_ready: Callable[[str, int], None] | None = None,
    poll_s: float = 0.05,
    announce: bool = True,
    linger_s: float = 0.0,
) -> int:
    """Serve concurrent local-socket clients until shutdown/SIGTERM.

    A threaded accept loop spawns one reader thread per connection;
    readers enqueue raw request lines (with their monotonic arrival
    stamp) into a bounded queue drained by ``workers`` worker threads
    that coalesce up to ``max_batch`` lines per :meth:`handle_lines`
    pass — cross-client batching. A full queue **sheds**: the reader
    answers immediately with a typed ``overloaded`` error instead of
    blocking the connection.

    After ``bind()`` the frontend prints the single machine-readable
    ready line (:func:`ready_line`) and invokes ``on_ready(host, port)``
    — scripts wait for that instead of polling connects. ``shutdown``
    requests and SIGTERM/SIGINT (when run in the main thread) trigger a
    graceful drain: stop accepting, refuse late lines with ``draining``,
    finish every queued request, then close and report drained counts in
    the ``serve.drain`` event.

    ``linger_s > 0`` opens a bounded batching window: a worker that has
    the lock waits up to ``linger_s`` between takes for more lines to
    arrive before running the pass. Closed-loop clients otherwise
    convoy into batches of one or two; a millisecond of linger turns
    their near-simultaneous sends into one stacked forest pass. The
    cost is up to ``linger_s`` of added latency per batch — keep it at
    0 for latency-sensitive single-client use.
    """
    import queue as queue_mod
    import socket

    if workers < 1:
        raise ValueError(f"workers must be >= 1; got {workers}")
    jobs: "queue_mod.Queue[_Job]" = queue_mod.Queue(
        maxsize=max(int(queue_size), 1)
    )
    stop = threading.Event()
    writers: list[_ConnWriter] = []

    def worker_loop() -> None:
        while True:
            try:
                job = jobs.get(timeout=poll_s)
            except queue_mod.Empty:
                if stop.is_set():
                    return
                continue
            # Coalesce AFTER acquiring the server lock, not before:
            # while another worker holds the lock, new arrivals pile up
            # in the queue, and grabbing them here turns the wait into a
            # bigger predict_many batch. Draining before the lock would
            # let idle workers fragment the queue into batches of one.
            with server._lock:
                batch = [job]
                while len(batch) < server.max_batch:
                    try:
                        if linger_s > 0.0:
                            # Batching window: trade up to linger_s of
                            # latency for a fuller predict_many batch.
                            batch.append(jobs.get(timeout=linger_s))
                        else:
                            batch.append(jobs.get_nowait())
                    except queue_mod.Empty:
                        break
                server.set_inflight(jobs.unfinished_tasks)
                try:
                    outs = server.handle_lines(
                        [b.line for b in batch], [b.arrival for b in batch]
                    )
                except Exception as exc:  # keep the pool alive, always
                    if server.flightrec is not None:
                        server.flightrec.record(
                            "worker_exception", error=str(exc)[:200]
                        )
                        server.flightrec.dump("worker_exception")
                    outs = [
                        server.reject_line(
                            b.line, INTERNAL_ERROR, f"request failed: {exc}"
                        )
                        for b in batch
                    ]
            # Socket writes stay outside the lock: response IO overlaps
            # the next worker's predict pass.
            for b, out in zip(batch, outs):
                b.writer.send(out)
                jobs.task_done()
            server.set_inflight(jobs.unfinished_tasks)

    def reader_loop(conn) -> None:
        writer = _ConnWriter(conn)
        writers.append(writer)
        try:
            with conn.makefile("r") as rf:
                for line in rf:
                    if not line.strip():
                        continue
                    if server.draining or stop.is_set():
                        writer.send(server.reject_line(
                            line, DRAINING,
                            "server is draining; no new work admitted",
                        ))
                        continue
                    job = _Job(line, time.monotonic(), writer)
                    try:
                        jobs.put_nowait(job)
                    except queue_mod.Full:
                        server.count_shed()
                        writer.send(server.reject_line(
                            line, OVERLOADED,
                            "request queue full; shed under overload "
                            "— retry with backoff",
                        ))
        except (OSError, ValueError):
            pass  # client went away mid-read

    # SIGTERM/SIGINT → graceful drain (only installable from the main
    # thread; tests running the frontend in a helper thread skip this).
    import signal

    previous_handlers: dict = {}
    if threading.current_thread() is threading.main_thread():
        def _on_signal(signum, frame):
            server.begin_drain()
            server._stop = True
            if server.flightrec is not None:
                server.flightrec.record("signal", signum=int(signum))
                server.flightrec.dump("sigterm")

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[sig] = signal.signal(sig, _on_signal)
            except (ValueError, OSError):
                pass

    worker_threads = [
        threading.Thread(target=worker_loop, daemon=True, name=f"serve-w{i}")
        for i in range(int(workers))
    ]
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(16)
        bound = sock.getsockname()
        if announce:
            print(ready_line(bound[0], bound[1]), flush=True)
        emit_event(
            "serve.start",
            registry=str(server.registry.root),
            max_batch=server.max_batch,
            host=bound[0],
            port=bound[1],
            workers=workers,
            queue_size=queue_size,
        )
        if on_ready is not None:
            on_ready(bound[0], bound[1])
        if server.telemetry is not None:
            server.telemetry.start()
        for t in worker_threads:
            t.start()
        sock.settimeout(poll_s)
        while not server._stop and not server.draining:
            try:
                conn, _ = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=reader_loop, args=(conn,), daemon=True
            ).start()
    finally:
        server.begin_drain()
        try:
            sock.close()
        except OSError:
            pass
        jobs.join()  # finish in-flight work before reporting the drain
        stop.set()
        for t in worker_threads:
            if t.is_alive():
                t.join(timeout=5.0)
        emit_event(
            "serve.drain",
            drained=server.drained_count(),
            requests_served=server.requests_served,
            shed=server.metrics.counters.get(("serve.shed",), 0),
        )
        for writer in writers:
            writer.close()
        for sig, handler in previous_handlers.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        if server.telemetry is not None:
            # Final flush after the drain so the journal's tail carries
            # the complete request/shed/drain accounting.
            server.telemetry.stop()
        emit_event("serve.stop", requests_served=server.requests_served)
    return server.requests_served
