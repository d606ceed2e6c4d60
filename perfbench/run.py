"""End-to-end benchmark of the BlackForest reproduction (``repro``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze_reduce1 --seed 1 \\
        --seconds 32 --trace 0

Each run starts fresh worker processes that import ``repro`` from
``src/``: several that only set up (their median is ``setup_s``) and
one that also measures. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` times calls into each layer from outside the program
(:mod:`layers`) and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``). See README.md
in this directory for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("analyze_reduce1", "transfer_nw", "serve_predict")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "explained_variance": "ratio",
    "mean_relative_error": "ratio",
    "p50_ms": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "profiling.campaign_s": "s",
    "profiling.runs": "count",
    "profiling.quarantined": "count",
    "gpusim.launch_s": "s",
    "gpusim.launches": "count",
    "profiling.repo_save_s": "s",
    "profiling.repo_load_s": "s",
    "profiling.repo_bytes": "bytes",
    "ml.partial_dependence_s": "s",
    "ml.predict_calls": "count",
    "ml.predict_rows": "count",
    "ml.predict_s": "s",
    "ml.forest_fit_s": "s",
    "ml.trees_fitted": "count",
    "ml.pca_s": "s",
    "core.blackforest_fit_self_s": "s",
    "core.rank_importance_self_s": "s",
    "core.reduced_check_self_s": "s",
    "core.hw_fit_self_s": "s",
    "core.assess_s": "s",
    "serve.publish_s": "s",
    "serve.registry_load_s": "s",
    "serve.ready_s": "s",
    "serve.first_predict_ms": "ms",
    "serve.forest_pass_1row_ms": "ms",
    "serve.forest_pass_batch_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "serve.server_p50_ms": "ms",
    "serve.client_p90_ms": "ms",
    "serve.requests_sent": "count",
    "serve.requests_ok": "count",
    "serve.requests_failed": "count",
    "serve.shed": "count",
    "serve.cache_hit_rate": "ratio",
    "serve.gen_late_ms": "ms",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-ups per run, the measuring worker's included.
SETUPS = {"analyze_reduce1": 5, "transfer_nw": 5, "serve_predict": 3}
#: Every worker of a run must have finished by then.
RUN_BUDGET_S = 170.0
#: Fewest iterations a pipeline run measures, whatever ``--seconds``.
MIN_ITERATIONS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the role of a worker process started by the orchestrator.
    p.add_argument("--worker", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- orchestrator --------------------------------------------------------

def spawn(args, role: str, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion; returns its result."""
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--worker", role, "--workdir", str(workdir),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    with open(workdir / "worker.log", "w") as log:
        t_spawn = time.monotonic()
        # Its own session, so a timeout also ends the server it started.
        proc = subprocess.Popen(
            cmd + ["--t-spawn", repr(t_spawn)], env=env, text=True,
            stdout=subprocess.PIPE, stderr=log, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, deadline - t_spawn)
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            try:  # nothing the worker started may outlive it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if proc.returncode != 0:
        tail = (workdir / "worker.log").read_text()[-3000:]
        raise RuntimeError(
            f"{role} worker exited with {proc.returncode}:\n{tail}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def orchestrate(args) -> int:
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = Path.cwd() / ".perfbench" / f"run-{os.getpid()}"
    try:
        # Set-up probes go before and after the measuring worker, so
        # their median samples the machine over the whole run.
        probes = 0 if args.trace else SETUPS[args.workload] - 1
        setups = [
            spawn(args, "setup", work / f"setup-{i}", deadline)["setup_s"]
            for i in range(probes // 2)
        ]
        result = spawn(args, "measure", work / "measure", deadline)
        setups += [
            spawn(args, "setup", work / f"setup-{i}", deadline)["setup_s"]
            for i in range(probes // 2, probes)
        ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    metrics = result["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


# -- worker --------------------------------------------------------------

def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pipeline(args, workdir: Path) -> dict:
    """Iterate one pipeline for ``--seconds``; with ``--trace 1`` every
    other iteration runs under the layer tracer."""
    import numpy as np
    from pipelines import PIPELINES

    pipeline = PIPELINES[args.workload](workdir)
    setup_s = time.monotonic() - args.t_spawn
    if args.worker == "setup":
        return {"setup_s": setup_s}
    tracer = None
    if args.trace:
        from layers import LayerTracer, layer_metrics

        tracer = LayerTracer()
    start = time.perf_counter()
    walls, problems, traced = [], [], []
    failed = 0
    # Only the latest iteration is kept, so memory does not grow with
    # the number of iterations a run fits in.
    while len(walls) < MIN_ITERATIONS or (
        time.perf_counter() - start + walls[-1] <= args.seconds
    ):
        if tracer is not None and len(walls) % 2:
            tracer.reset()
            with tracer:
                it = pipeline.run(len(walls))
            layers = layer_metrics(tracer)
            layers["trace.wall_s"] = it.wall_s
            layers["trace.unattributed_s"] = it.wall_s - tracer.attributed_s()
            traced.append(layers)
        else:
            it = pipeline.run(len(walls))
        walls.append(it.wall_s)
        problems += it.problems
        failed += bool(it.problems)
    result = {"setup_s": setup_s, "attempted": len(walls), "failed": failed,
              "problems": problems}
    if tracer is not None:
        metrics = {name: float(np.median([t[name] for t in traced]))
                   for name in traced[0]}
        metrics["trace.overhead_ratio"] = (
            metrics["trace.wall_s"] / float(np.median(walls[::2]))
        )
        return {**result, "metrics": metrics}
    # A pipeline run is the unit a user waits for: its latency is the
    # iteration's wall time, its rows the profiled runs it characterizes.
    wall = float(np.median(walls))
    explained_variance, mean_relative_error = it.quality()
    return {**result, "metrics": {
        "wall_s": wall,
        "explained_variance": explained_variance,
        "mean_relative_error": mean_relative_error,
        "p50_ms": 1e3 * wall,
        "rows_per_s": pipeline.runs / wall,
        "peak_rss_mb": peak_rss_mb(),
    }}


def work(args) -> int:
    workdir = Path(args.workdir)
    if args.workload == "serve_predict":
        import serving

        result = serving.run(workdir, args.seed, args.seconds,
                             args.t_spawn, args.worker == "setup",
                             bool(args.trace))
    else:
        result = run_pipeline(args, workdir)
    if args.trace:
        result["metrics"].update(
            {n: 0.0 for n in PER_LAYER if n not in result["metrics"]}
        )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return work(args) if args.worker else orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
