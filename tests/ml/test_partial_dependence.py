"""Unit tests for partial dependence."""

import importlib

import numpy as np
import pytest

from repro.ml._reference import reference_partial_dependence
from repro.ml.forest import RandomForestRegressor
from repro.ml.partial_dependence import dependence_direction, partial_dependence

# ``repro.ml`` re-exports the function under the submodule's name.
pd_module = importlib.import_module("repro.ml.partial_dependence")


class LinearModel:
    """Deterministic stand-in with predict()."""

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def predict(self, X):
        return X @ self.coef


class TestPartialDependence:
    def test_linear_positive_effect(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        pd = partial_dependence(LinearModel([2.0, 0.0, 0.0]), X, 0)
        assert pd.monotonicity == pytest.approx(1.0)
        assert pd.direction() == "positive"
        # slope recovered on the grid
        slope = np.diff(pd.values) / np.diff(pd.grid)
        assert np.allclose(slope, 2.0)

    def test_linear_negative_effect(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        pd = partial_dependence(LinearModel([0.0, -1.5]), X, 1)
        assert pd.direction() == "negative"

    def test_irrelevant_feature_flat(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2))
        pd = partial_dependence(LinearModel([3.0, 0.0]), X, 1)
        assert np.ptp(pd.values) == pytest.approx(0.0, abs=1e-12)

    def test_nonmonotone_is_mixed(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(200, 1))

        class Quad:
            def predict(self, X):
                return X[:, 0] ** 2

        pd = partial_dependence(Quad(), X, 0)
        assert pd.direction() == "mixed"

    def test_grid_respects_percentile_clip(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 1))
        pd = partial_dependence(LinearModel([1.0]), X, 0, percentile_clip=(10, 90))
        assert pd.grid.min() >= np.percentile(X[:, 0], 10) - 1e-12
        assert pd.grid.max() <= np.percentile(X[:, 0], 90) + 1e-12

    def test_feature_name_propagates(self):
        X = np.random.default_rng(5).normal(size=(50, 2))
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0, feature_name="occ")
        assert pd.feature == "occ"

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0)
        assert pd.grid.size >= 1

    def test_with_forest(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(150, 3))
        y = 5 * X[:, 1]
        rf = RandomForestRegressor(n_trees=40, rng=0).fit(X, y)
        assert dependence_direction(rf, X, 1) == "positive"

    def test_bad_feature_index(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError):
            partial_dependence(LinearModel([1.0, 1.0]), X, 5)

    def test_bad_resolution(self):
        X = np.random.default_rng(7).normal(size=(10, 1))
        with pytest.raises(ValueError):
            partial_dependence(LinearModel([1.0]), X, 0, grid_resolution=1)


class TestConfidenceBand:
    """Section 7 extension: confidence intervals on partial dependence."""

    def fitted(self, n=150, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = 4 * X[:, 0] + 0.3 * rng.normal(size=n)
        rf = RandomForestRegressor(n_trees=60, importance=False, rng=1).fit(X, y)
        return rf, X

    def test_band_present_when_requested(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0, confidence=0.9)
        assert pd.has_band
        assert pd.lower.shape == pd.values.shape

    def test_band_brackets_mean(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0, confidence=0.9)
        assert np.all(pd.lower <= pd.values + 1e-12)
        assert np.all(pd.upper >= pd.values - 1e-12)

    def test_wider_confidence_wider_band(self):
        rf, X = self.fitted()
        narrow = partial_dependence(rf, X, 0, confidence=0.5)
        wide = partial_dependence(rf, X, 0, confidence=0.95)
        assert wide.band_width().mean() >= narrow.band_width().mean()

    def test_no_band_by_default(self):
        rf, X = self.fitted()
        pd = partial_dependence(rf, X, 0)
        assert not pd.has_band
        with pytest.raises(ValueError):
            pd.band_width()

    def test_non_ensemble_model_gets_no_band(self):
        X = np.random.default_rng(2).normal(size=(50, 2))
        pd = partial_dependence(LinearModel([1.0, 0.0]), X, 0, confidence=0.9)
        assert not pd.has_band

    def test_invalid_confidence(self):
        rf, X = self.fitted()
        with pytest.raises(ValueError):
            partial_dependence(rf, X, 0, confidence=1.5)


def _random_forest(seed, n=64, p=6, n_trees=25, n_jobs=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, size=p)
    y = X[:, 0] * rng.normal() + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=n)
    forest = RandomForestRegressor(
        n_trees=n_trees, min_samples_leaf=int(rng.integers(1, 6)),
        importance=False, n_jobs=n_jobs, rng=seed,
    ).fit(X, y)
    return forest, X


def _assert_matches_reference(model, X, feature, **kwargs):
    stacked = partial_dependence(model, X, feature, **kwargs)
    looped = reference_partial_dependence(model, X, feature, **kwargs)
    for attr in ("grid", "values", "lower", "upper"):
        a, b = getattr(stacked, attr), getattr(looped, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert np.array_equal(a, b), attr
    assert stacked.monotonicity == looped.monotonicity
    assert stacked.feature == looped.feature
    return stacked


class TestStackedMatchesReference:
    """The stacked grid pass is bit-identical to one pass per grid point."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_forests(self, seed):
        forest, X = _random_forest(seed)
        for j in range(X.shape[1]):
            _assert_matches_reference(forest, X, j, feature_name=f"f{j}")

    @pytest.mark.parametrize("clip", [(5.0, 95.0), (10.0, 60.0), (0.0, 80.0)])
    def test_percentile_clip(self, clip):
        forest, X = _random_forest(11)
        for j in range(3):
            _assert_matches_reference(forest, X, j, percentile_clip=clip)

    def test_near_constant_features(self):
        forest, X = _random_forest(12)
        X = X.copy()
        X[:, 2] = 1.0                  # constant: one grid point
        X[:, 3] = 1.0
        X[-1, 3] = 5.0                 # one outlier: two grid points
        assert _assert_matches_reference(forest, X, 2).grid.size == 1
        assert _assert_matches_reference(forest, X, 3).grid.size == 2
        # the clip drops the outlier; the fallback grid is [min, max]
        pd = _assert_matches_reference(forest, X, 3, percentile_clip=(0, 90))
        assert pd.grid.size == 2
        pd = _assert_matches_reference(forest, X, 2, confidence=0.9)
        assert pd.has_band and pd.grid.size == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_confidence_band(self, seed):
        forest, X = _random_forest(20 + seed, n_trees=40)
        for j in range(3):
            pd = _assert_matches_reference(forest, X, j, confidence=0.9)
            assert pd.has_band

    def test_parallel_fitted_forest(self):
        forest, X = _random_forest(30, n_jobs=2)
        for j in range(3):
            _assert_matches_reference(forest, X, j)
            _assert_matches_reference(forest, X, j, confidence=0.8)

    def test_predict_only_model(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(57, 4))

        class Cubic:
            def predict(self, X):
                return X[:, 0] ** 3 - 2.0 * X[:, 1] * X[:, 2] + np.exp(X[:, 3] / 4)

        for j in range(4):
            _assert_matches_reference(Cubic(), X, j)
            # no trees_: a requested band is silently absent on both paths
            assert not _assert_matches_reference(
                Cubic(), X, j, confidence=0.9
            ).has_band

    @pytest.mark.parametrize("points_per_chunk", [1, 3, 7])
    def test_byte_cap_chunking(self, monkeypatch, points_per_chunk):
        forest, X = _random_forest(50, n_trees=15)
        n, p = X.shape
        monkeypatch.setattr(
            pd_module, "_PD_BATCH_BYTES", points_per_chunk * n * p * 8
        )
        calls = []
        predict = RandomForestRegressor.predict
        monkeypatch.setattr(
            RandomForestRegressor, "predict",
            lambda self, Z: calls.append(Z.shape[0]) or predict(self, Z),
        )
        for j in range(2):
            calls.clear()
            pd = _assert_matches_reference(forest, X, j)
            stacked_rows = calls[: -pd.grid.size]  # then the reference's
            assert max(stacked_rows) == min(points_per_chunk, pd.grid.size) * n
            assert sum(stacked_rows) == pd.grid.size * n
            _assert_matches_reference(forest, X, j, confidence=0.9)

    def test_one_model_pass_per_grid_without_cap(self):
        forest, X = _random_forest(60, n_trees=10)
        calls = []

        class Counting:
            def predict(self, Z):
                calls.append(Z.shape[0])
                return forest.predict(Z)

        pd = partial_dependence(Counting(), X, 0)
        assert calls == [pd.grid.size * X.shape[0]]
