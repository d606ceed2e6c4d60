"""Layer attribution for the traced run.

The traced run times calls into each ``repro`` layer's public entry
points from outside the program: :class:`LayerTracer` patches those
functions with timing wrappers for the duration of a ``with`` block and
restores the originals afterwards, so the untraced run executes the
program unmodified. Every wrapper pushes a frame on one stack; a call's
*self time* is its wall time minus the wall time of the wrapped calls
nested inside it, so the self times of all layers add up to the traced
wall time they cover, with nothing counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path


class LayerTracer:
    """Self time, call counts and work counts per named layer."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        #: ``(owner, attribute, original or None when inherited)``
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def call(self, layer: str, fn, args, kwargs, on_result=None):
        """Run ``fn`` as one call of ``layer`` and charge its self time."""
        self._stack.append(0.0)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            nested = self._stack.pop()
            self.self_s[layer] += elapsed - nested
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1] += elapsed
        if on_result is not None:
            on_result(self.counts, args, result)
        return result

    def attributed_s(self) -> float:
        """Wall time covered by any wrapped call (sum of self times)."""
        return sum(self.self_s.values())

    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        own = attr in vars(owner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(layer, original, args, kwargs, on_result)

        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        for owner, attr, layer, on_result in entry_points():
            self.patch(owner, attr, layer, on_result)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _count_campaign(counts, args, result) -> None:
    counts["profiling.runs"] += len(result)
    counts["profiling.quarantined"] += len(result.quarantined)


def _count_predict_rows(counts, args, result) -> None:
    counts["ml.predict_rows"] += len(result)


def _count_trees(counts, args, result) -> None:
    counts["ml.trees_fitted"] += len(result.trees_)


def _count_repo_bytes(counts, args, result) -> None:
    # ``save`` returns the campaign's directory
    counts["profiling.repo_bytes"] += sum(
        p.stat().st_size for p in Path(result).rglob("*") if p.is_file()
    )


def entry_points() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, layer, count hook)`` for every wrapped call.

    Names imported into a module by ``from ... import`` are patched where
    they are looked up: ``partial_dependence`` inside
    ``repro.core.importance``, ``rank_importance`` and
    ``reduced_model_check`` inside ``repro.core.model``.
    """
    import repro.core.importance as importance
    import repro.core.model as model
    from repro.core.hardware import HardwareScalingPredictor
    from repro.gpusim.simulator import GPUSimulator
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.pca import PCA
    from repro.profiling.campaign import Campaign
    from repro.profiling.repository import ProfileRepository
    from repro.serve.artifact import ServableFit
    from repro.serve.registry import FitRegistry

    return [
        (Campaign, "run", "profiling.campaign", _count_campaign),
        (GPUSimulator, "launch", "gpusim.launch", None),
        (ProfileRepository, "save", "profiling.repo_save", _count_repo_bytes),
        (ProfileRepository, "load", "profiling.repo_load", None),
        (RandomForestRegressor, "fit", "ml.forest_fit", _count_trees),
        (RandomForestRegressor, "predict", "ml.predict", _count_predict_rows),
        (RandomForestRegressor, "predict_many", "ml.predict_many", None),
        (PCA, "fit", "ml.pca", None),
        (importance, "partial_dependence", "ml.partial_dependence", None),
        (model.BlackForest, "fit", "core.blackforest_fit", None),
        (model, "rank_importance", "core.rank_importance", None),
        (model, "reduced_model_check", "core.reduced_check", None),
        (HardwareScalingPredictor, "fit", "core.hw_fit", None),
        (HardwareScalingPredictor, "assess", "core.assess", None),
        (FitRegistry, "publish", "serve.publish", None),
        (FitRegistry, "load", "serve.registry_load", None),
        (ServableFit, "predict_many", "serve.servable_predict_many", None),
    ]


def layer_metrics(tracer: LayerTracer) -> dict[str, float]:
    """The per-layer metrics of one traced unit of work."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    return {
        "profiling.campaign_s": s["profiling.campaign"],
        "profiling.runs": counts["profiling.runs"],
        "profiling.quarantined": counts["profiling.quarantined"],
        "gpusim.launch_s": s["gpusim.launch"],
        "gpusim.launches": calls["gpusim.launch"],
        "profiling.repo_save_s": s["profiling.repo_save"],
        "profiling.repo_load_s": s["profiling.repo_load"],
        "profiling.repo_bytes": counts["profiling.repo_bytes"],
        "ml.partial_dependence_s": s["ml.partial_dependence"],
        "ml.predict_calls": calls["ml.predict"],
        "ml.predict_rows": counts["ml.predict_rows"],
        "ml.predict_s": s["ml.predict"] + s["ml.predict_many"],
        "ml.forest_fit_s": s["ml.forest_fit"],
        "ml.trees_fitted": counts["ml.trees_fitted"],
        "ml.pca_s": s["ml.pca"],
        "core.blackforest_fit_self_s": s["core.blackforest_fit"],
        "core.rank_importance_self_s": s["core.rank_importance"],
        "core.reduced_check_self_s": s["core.reduced_check"],
        "core.hw_fit_self_s": s["core.hw_fit"],
        "core.assess_s": s["core.assess"],
        "serve.publish_s": s["serve.publish"],
        "serve.registry_load_s": s["serve.registry_load"],
    }
