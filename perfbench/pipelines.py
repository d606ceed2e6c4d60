"""The two batch workloads: the paper's Fig 2 and Fig 8 pipelines.

Each pipeline runs at the reproduction seeds the paper-figure benches
pin (``benchmarks/conftest.py``, ``benchmarks/test_fig2_reduce1.py``,
``benchmarks/test_fig8_nw_hwscale.py``), so every iteration does the
same work and its outputs can be checked against the paper's claims.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    GTX580,
    K20M,
    BlackForest,
    Campaign,
    NeedlemanWunschKernel,
    ReductionKernel,
)
from repro.core.hardware import HardwareScalingPredictor, common_predictors
from repro.profiling.repository import ProfileRepository


@dataclass
class Iteration:
    """One pipeline iteration: its wall time and what its checks found."""

    wall_s: float
    problems: list[str]
    #: ``(explained_variance, mean_relative_error)`` on held-out runs,
    #: evaluated after the run's iterations, outside the timed region.
    quality: Callable[[], tuple[float, float]]


class AnalyzeReduce1:
    """Fig 2: characterize reduce1 on the GTX580 (80 sizes, 1 replicate)."""

    name = "analyze_reduce1"

    def __init__(self, workdir: Path) -> None:
        self.kernel = ReductionKernel(1)
        self.sizes = self.kernel.default_sweep()
        #: Profiled runs (dataset rows) that one iteration characterizes.
        self.runs = len(self.sizes)

    def run(self, index: int) -> Iteration:
        start = time.perf_counter()
        campaign = Campaign(self.kernel, GTX580, rng=0).run(
            problems=self.sizes, replicates=1
        )
        fit = BlackForest(n_trees=300, importance_repeats=3, rng=1).fit(
            campaign
        )
        wall = time.perf_counter() - start
        problems = []
        keys = [b.pattern.key for b in fit.bottlenecks]
        if not keys or keys[0] != "shared_bank_conflicts":
            problems.append(f"primary bottleneck is {keys[:1]}")
        if "l1_shared_bank_conflict" not in fit.importance.top(5):
            problems.append(f"top 5 lacks l1_shared_bank_conflict: "
                            f"{fit.importance.top(5)}")
        return Iteration(wall_s=wall, problems=problems,
                         quality=lambda: held_out_quality(fit))


class TransferNW:
    """Fig 8: NW from the GTX580 to the K20m through a profile repository."""

    name = "transfer_nw"

    def __init__(self, workdir: Path) -> None:
        self.kernel = NeedlemanWunschKernel()
        self.sizes = self.kernel.default_sweep()[::4]
        self.runs = 2 * len(self.sizes)
        self.workdir = workdir

    def run(self, index: int) -> Iteration:
        root = self.workdir / f"repo-{index}"
        start = time.perf_counter()
        saved = [
            Campaign(self.kernel, GTX580, rng=0).run(problems=self.sizes),
            Campaign(self.kernel, K20M, rng=1).run(problems=self.sizes),
        ]
        repo = ProfileRepository(root)
        for campaign in saved:
            repo.save(campaign)
        train, test = (repo.load(c.kernel, c.arch) for c in saved)
        predictor = HardwareScalingPredictor(n_trees=300, rng=3)
        fit = predictor.fit(train, common=common_predictors(train, test))
        report = fit.assess(test).report
        wall = time.perf_counter() - start
        problems = [
            f"{a.arch} campaign differs after the repository round trip"
            for a, b in zip(saved, (train, test))
            if (a.kernel, a.arch, a.family, a.records, a.quarantined)
            != (b.kernel, b.arch, b.family, b.records, b.quarantined)
        ]
        shutil.rmtree(root, ignore_errors=True)
        return Iteration(
            wall_s=wall,
            problems=problems,
            quality=lambda: (
                report.explained_variance, report.mean_relative_error
            ),
        )


def held_out_quality(fit) -> tuple[float, float]:
    """Explained variance and mean relative error of a
    :class:`~repro.core.model.BlackForestFit` on its test split."""
    error = np.abs(fit.predict(fit.X_test) - fit.y_test) / fit.y_test
    return fit.test_explained_variance, float(np.mean(error))


PIPELINES = {p.name: p for p in (AnalyzeReduce1, TransferNW)}
