"""Partial dependence: the marginal effect of a predictor on the response.

The paper uses partial dependence plots (Section 4.1.1 and Figs. 2b, 3b,
4b) to determine *in which direction* an important variable affects the
predicted execution time: the plot "shows how the response changes as a
predictor ... change(s)". We also provide the monotonic-correlation
summary the paper applies to these plots ("monotonic variation over the
entire range reveals strong correlation with the response, either
positively or negatively").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PartialDependence", "partial_dependence", "dependence_direction"]


@dataclass
class PartialDependence:
    """Result of a 1-D partial dependence computation."""

    feature: str
    grid: np.ndarray
    values: np.ndarray
    #: Spearman-style rank correlation of grid vs. averaged response.
    monotonicity: float = field(default=float("nan"))
    #: Optional confidence band (paper Section 7: "integrating
    #: confidence intervals into the partial dependence plots would help
    #: interpretation"): per-grid-point quantiles over the ensemble's
    #: member predictions. None when the model is not an ensemble or the
    #: band was not requested.
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def direction(self, threshold: float = 0.5) -> str:
        """Qualitative direction: 'positive', 'negative' or 'mixed'."""
        if self.monotonicity >= threshold:
            return "positive"
        if self.monotonicity <= -threshold:
            return "negative"
        return "mixed"

    @property
    def has_band(self) -> bool:
        return self.lower is not None and self.upper is not None

    def band_width(self) -> np.ndarray:
        """Pointwise width of the confidence band."""
        if not self.has_band:
            raise ValueError("no confidence band computed")
        return self.upper - self.lower


def _rank(a: np.ndarray) -> np.ndarray:
    """Average ranks (ties broken by averaging), for Spearman correlation."""
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=float)
    ranks[order] = np.arange(a.size, dtype=float)
    # Average ranks over tied groups.
    sorted_a = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j)
        i = j + 1
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    rx, ry = _rank(x), _rank(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


#: Cap on the stacked (grid points x background rows) matrix scored in
#: one pass; grids whose stack would exceed it are split into chunks of
#: whole grid points.
_PD_BATCH_BYTES = 16 << 20


def partial_dependence(
    model,
    X: np.ndarray,
    feature: int,
    grid_resolution: int = 20,
    feature_name: str | None = None,
    percentile_clip: tuple[float, float] = (0.0, 100.0),
    confidence: float | None = None,
) -> PartialDependence:
    """Average model prediction as one feature sweeps a value grid.

    For each grid value ``v`` the feature column is overwritten with
    ``v`` on a copy of the full dataset and the model's predictions are
    averaged — the standard Friedman partial-dependence estimator.

    The copies for all grid values are stacked into one matrix and
    scored in a single model pass (one ``tree.predict`` per tree for the
    confidence band), then each grid value's contiguous slice is
    averaged. Forest prediction maps rows independently, so this is
    bit-identical to one pass per grid value
    (:func:`repro.ml._reference.reference_partial_dependence`); the
    stack is chunked by grid value only past ``_PD_BATCH_BYTES``.

    Parameters
    ----------
    model:
        Any object with ``predict(X) -> y`` that predicts each row
        independently of the others.
    X:
        Background dataset (typically the training predictors).
    feature:
        Column index to sweep.
    grid_resolution:
        Number of grid points, taken at evenly spaced quantiles of the
        observed feature values (so empty value ranges are not probed).
    percentile_clip:
        Percentile window of the feature's empirical distribution used
        to bound the grid, e.g. ``(5, 95)`` to avoid extrapolating tails.
    confidence:
        When set (e.g. 0.9) and the model is a tree ensemble (exposes
        ``trees_``), a per-grid-point confidence band is computed from
        the spread of the individual trees' averaged predictions — the
        Section 7 "confidence intervals into the partial dependence
        plots" improvement.
    """
    X, grid = _validated_grid(
        X, feature, grid_resolution, percentile_clip, confidence
    )
    n, p = X.shape
    trees = getattr(model, "trees_", None) if confidence is not None else None
    members = trees if trees else [model]
    # means[g, k]: member k's average prediction at grid value g
    means = np.empty((grid.size, len(members)))
    chunk = max(1, _PD_BATCH_BYTES // (n * p * 8))
    for lo in range(0, grid.size, chunk):
        points = grid[lo : lo + chunk]
        stack = np.tile(X, (points.size, 1))
        stack[:, feature] = np.repeat(points, n)
        for k, member in enumerate(members):
            pred = member.predict(stack)
            for i in range(points.size):
                means[lo + i, k] = np.mean(pred[i * n : (i + 1) * n])
    if not trees:
        return _assemble(feature, feature_name, grid, means[:, 0], None, None)

    values = np.empty(grid.size)
    lower = np.empty(grid.size)
    upper = np.empty(grid.size)
    alpha = (1.0 - confidence) / 2.0
    for i, row in enumerate(means):
        values[i] = float(row.mean())
        lower[i] = float(np.quantile(row, alpha))
        upper[i] = float(np.quantile(row, 1.0 - alpha))
    return _assemble(feature, feature_name, grid, values, lower, upper)


def _validated_grid(
    X: np.ndarray,
    feature: int,
    grid_resolution: int,
    percentile_clip: tuple[float, float],
    confidence: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Check the arguments; return ``X`` as floats and the value grid."""
    if confidence is not None and not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not 0 <= feature < X.shape[1]:
        raise ValueError(f"feature index {feature} out of range")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")

    col = X[:, feature]
    lo, hi = np.percentile(col, percentile_clip)
    quantiles = np.linspace(*percentile_clip, grid_resolution)
    grid = np.unique(np.percentile(col, quantiles))
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size < 2:  # near-constant feature: flat dependence
        grid = np.array([col.min(), col.max()] if np.ptp(col) > 0 else [col[0]])
    return X, grid


def _assemble(
    feature: int,
    feature_name: str | None,
    grid: np.ndarray,
    values: np.ndarray,
    lower: np.ndarray | None,
    upper: np.ndarray | None,
) -> PartialDependence:
    mono = _spearman(grid, values) if grid.size > 1 else 0.0
    name = feature_name if feature_name is not None else f"x{feature}"
    return PartialDependence(
        feature=name, grid=grid, values=values, monotonicity=mono,
        lower=lower, upper=upper,
    )


def dependence_direction(
    model, X: np.ndarray, feature: int, **kwargs
) -> str:
    """Convenience wrapper returning only the qualitative direction."""
    return partial_dependence(model, X, feature, **kwargs).direction()
