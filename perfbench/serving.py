"""The ``serve_predict`` workload: a published reduce1 fit behind
``repro serve --socket``, driven over one pipelined connection.

Phase 1 is an open loop of single-row queries at :data:`RATE_RPS`, each
timed from the moment it was due, so a stall also delays the requests
queued behind it. Phase 2 keeps :data:`WINDOW` 64-row requests
outstanding and times rounds of :data:`ROUND_REQUESTS` of them. The run
alternates blocks of the two phases, and reports medians over blocks
and rounds, so that both sample the machine over the whole run: the
machine's speed shifts for seconds at a time.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import GTX580, BlackForest, Campaign, ReductionKernel
from repro.core.store import CampaignKey
from repro.serve import FitRegistry, servable_from_fit
from repro.serve.server import READY_PREFIX

from loadgen import (
    PipelinedClient,
    Request,
    ResponseBook,
    percentile,
    sleep_until,
)
from pipelines import held_out_quality

RATE_RPS = 20.0
#: Phase-1 requests per block: the fewest that support a p90.
BLOCK_REQUESTS = 100
WINDOW = 8
ROUND_REQUESTS = 32
BATCH_ROWS = 64
#: Phase-2 rounds after each phase-1 block.
ROUNDS_PER_BLOCK = 2
MIN_BLOCKS = 3
#: Longest wait for any answer before the request counts as failed.
ANSWER_TIMEOUT_S = 30.0


def publish(registry: Path) -> tuple:
    """Fit reduce1 as ``repro publish reduce1 --arch GTX580`` does (seed 0)
    and publish it; returns the fit and its in-process servable form."""
    campaign = Campaign(ReductionKernel(1), GTX580, rng=0).run()
    fit = BlackForest(n_trees=300, rng=1).fit(campaign)
    servable = servable_from_fit(
        fit, source={"trees": 300, "seed": 0, "n_runs": len(campaign)}
    )
    FitRegistry(registry).publish(servable)
    return fit, servable


def query_rows(X_train: np.ndarray, n: int, rng) -> np.ndarray:
    """``n`` rows drawn uniformly inside the training feature ranges, so
    that queries descend the trees to realistic depths."""
    lo = np.nanmin(X_train, axis=0)
    hi = np.nanmax(X_train, axis=0)
    return lo + (hi - lo) * rng.random((n, X_train.shape[1]))


class Server:
    """A ``repro serve --socket 127.0.0.1:0`` subprocess with CLI defaults."""

    def __init__(self, registry: Path, log: Path) -> None:
        start = time.monotonic()
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--registry", str(registry), "--socket", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith(READY_PREFIX):
            self.stop(None)
            raise RuntimeError(f"server did not come up: {line!r}")
        self.ready_s = time.monotonic() - start
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        self.host, self.port = fields["host"], int(fields["port"])

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server process, from /proc."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, client: PipelinedClient | None) -> None:
        """Drain through ``shutdown`` (SIGTERM without a client) and wait
        for the process to end."""
        try:
            if client is None:
                self.proc.terminate()
            else:
                client.call("shutdown", "shutdown")
                client.close()
            self.proc.wait(timeout=30)
        except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()
            self._log.close()


def predict_doc(req_id: int, X: np.ndarray) -> dict:
    return {"id": req_id, "method": "predict",
            "params": {"kernel": "reduce1", "arch": "GTX580",
                       "X": X.tolist()}}


class ServeSession:
    """Server start and first answer for a published fit, then the phases."""

    def __init__(self, workdir: Path, seed: int, published) -> None:
        self.fit, self.servable = published
        self.registry = workdir / "models"
        self.rng = np.random.default_rng([seed, 2])
        self.first_row = query_rows(self.fit.X_train, 1, self.rng)
        self.server = Server(self.registry, workdir / "server.log")
        self.book = ResponseBook()
        try:
            self.client = PipelinedClient(
                self.server.host, self.server.port, self.book
            )
        except OSError:
            self.server.stop(None)
            raise
        self._next_id = 0
        start = time.monotonic()
        self.first = self._send(self.first_row, due=start)
        self.book.wait(
            lambda: self.first.received is not None, ANSWER_TIMEOUT_S
        )
        self.first_predict_ms = 1e3 * (time.monotonic() - start)

    def _send(self, X: np.ndarray, due: float) -> Request:
        req = Request(due=due, sent=time.monotonic())
        self.book.add(self._next_id, req)
        self.client.send(predict_doc(self._next_id, X))
        self._next_id += 1
        return req

    def phase1(self) -> list[Request]:
        """One open-loop block: single-row queries at ``RATE_RPS``, each
        timed from when it was due."""
        n = BLOCK_REQUESTS
        self.phase1_rows = X = query_rows(self.fit.X_train, n, self.rng)
        start = time.monotonic() + 0.05
        sent = []
        for i in range(n):
            due = start + i / RATE_RPS
            sleep_until(due)
            sent.append(self._send(X[i:i + 1], due))
        self.book.wait(
            lambda: all(r.received is not None for r in sent),
            ANSWER_TIMEOUT_S,
        )
        expected = self.servable.predict(X)
        for i, req in enumerate(sent):
            req.expected = expected[i:i + 1]
        return sent

    def phase2(self) -> list[float]:
        """``ROUNDS_PER_BLOCK`` rounds of 64-row requests with ``WINDOW``
        outstanding; returns each round's wall time, first send to last
        answer."""
        if not hasattr(self, "pool"):
            self.pool = [query_rows(self.fit.X_train, BATCH_ROWS, self.rng)
                         for _ in range(ROUND_REQUESTS)]
            self.expected = [self.servable.predict(X) for X in self.pool]
        walls = []
        for _ in range(ROUNDS_PER_BLOCK):
            round_reqs = []
            for X, ref in zip(self.pool, self.expected):
                if not self.book.wait(
                    lambda: self.book.outstanding() < WINDOW,
                    ANSWER_TIMEOUT_S,
                ):
                    break
                req = self._send(X, due=time.monotonic())
                req.expected = ref
                round_reqs.append(req)
            answered = self.book.wait(
                lambda: all(r.received is not None for r in round_reqs),
                ANSWER_TIMEOUT_S,
            )
            if not answered or len(round_reqs) < len(self.pool):
                break
            walls.append(
                max(r.received for r in round_reqs) - round_reqs[0].sent
            )
        return walls

    def telemetry(self, name: str) -> dict:
        return self.client.call(name, "telemetry")["telemetry"]

    def close(self) -> None:
        self.server.stop(self.client)


def server_p50_ms(doc: dict) -> float:
    """The server's own predict p50, from a ``telemetry`` RPC answer."""
    return 1e3 * doc["timers"]["serve.request{method=predict}"]["p50_s"]


def pass_ms(servable, mats) -> float:
    """Median wall time of one in-process ``predict_many`` pass per matrix."""
    times = []
    for X in mats:
        start = time.perf_counter()
        servable.predict_many([X])
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def run(workdir: Path, seed: int, seconds: float, t_spawn: float,
        setup_only: bool, trace: bool) -> dict:
    """One ``serve_predict`` run in this (fresh) process."""
    if trace:
        from layers import LayerTracer, layer_metrics

        def timed_publish(registry: Path) -> float:
            start = time.perf_counter()
            publish(registry)
            return time.perf_counter() - start

        # Untraced publishes before and after the traced one are the
        # baseline of trace.overhead_ratio.
        untraced_s = [timed_publish(workdir / "untraced-a")]
        tracer = LayerTracer()
        with tracer:
            start = time.perf_counter()
            published = publish(workdir / "models")
            traced_s = time.perf_counter() - start
        untraced_s.append(timed_publish(workdir / "untraced-b"))
    else:
        published = publish(workdir / "models")
    session = ServeSession(workdir, seed, published)
    setup_s = time.monotonic() - t_spawn
    blocks, walls = [], []
    try:
        if setup_only:
            return {"setup_s": setup_s}
        session.first.expected = session.servable.predict(session.first_row)
        start = time.monotonic()
        while len(blocks) < MIN_BLOCKS or (
            time.monotonic() - start
        ) * (len(blocks) + 1) / len(blocks) <= seconds:
            blocks.append(session.phase1())
            if len(blocks) == 1:
                after_block1 = session.telemetry("telemetry-block1")
            walls += session.phase2()
        final = session.telemetry("telemetry-final")
        peak_rss = session.server.peak_rss_mb()
    finally:
        session.close()
    sent, ok, failed = session.book.tally()
    latencies = [[r.latency_s for r in block if r.received is not None]
                 for block in blocks]
    p50 = 1e3 * float(np.median([percentile(b, 50) for b in latencies]))
    out = {
        "setup_s": setup_s,
        "attempted": sent,
        "failed": failed,
        "problems": [f"{failed} of {sent} requests failed"] if failed else [],
    }
    fit = session.fit
    if not trace:
        rows = ROUND_REQUESTS * BATCH_ROWS
        explained_variance, mean_relative_error = held_out_quality(fit)
        out["metrics"] = {
            "wall_s": float(np.median(walls)),
            "explained_variance": explained_variance,
            "mean_relative_error": mean_relative_error,
            "p50_ms": p50,
            "rows_per_s": float(np.median([rows / w for w in walls])),
            "peak_rss_mb": peak_rss,
        }
        return out

    passes = LayerTracer()
    with passes:
        served = FitRegistry(session.registry).load(
            CampaignKey(fit.kernel, fit.arch)
        )
        one_row = pass_ms(
            served, [session.phase1_rows[i:i + 1] for i in range(30)]
        )
        batch = pass_ms(served, session.pool)
    metrics = layer_metrics(tracer)
    metrics.update({
        "serve.registry_load_s": passes.self_s["serve.registry_load"],
        "serve.ready_s": session.server.ready_s,
        "serve.first_predict_ms": session.first_predict_ms,
        "serve.forest_pass_1row_ms": one_row,
        "serve.forest_pass_batch_ms": batch,
        "serve.overhead_p50_ms": p50 - one_row,
        "serve.server_p50_ms": server_p50_ms(after_block1),
        "serve.client_p90_ms": 1e3 * float(
            np.median([percentile(b, 90) for b in latencies])
        ),
        "serve.requests_sent": sent,
        "serve.requests_ok": ok,
        "serve.requests_failed": failed,
        "serve.shed": final["counters"].get("serve.shed", 0),
        "serve.cache_hit_rate": final["server"]["cache_hit_rate"],
        "serve.gen_late_ms": 1e3 * percentile(
            [r.late_s for block in blocks for r in block], 90
        ),
        "trace.overhead_ratio": traced_s / float(np.mean(untraced_s)),
        "trace.wall_s": traced_s,
        "trace.unattributed_s": traced_s - tracer.attributed_s(),
    })
    return {**out, "metrics": metrics}
