"""Flat forest descent against the per-tree loop it replaced.

``RandomForestRegressor.predict`` walks every (tree, row) pair of a
block of trees at once over forest-level node arrays. The per-tree loop
survives as :func:`repro.ml._reference.reference_forest_predict`; every
test here compares the two byte for byte (``tobytes``, so a ``-0.0``
that should be ``+0.0`` fails too).
"""

import importlib

import numpy as np
import pytest

from repro.ml._reference import reference_forest_predict
from repro.ml.forest import RandomForestRegressor, _FlatForest
from repro.ml.incremental import forest_state, restore_forest
from repro.ml.tree import _LEAF
from repro.serve.artifact import forest_from_dict, forest_to_dict

forest_module = importlib.import_module("repro.ml.forest")


def _data(seed, n=60, p=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, size=p)
    y = X[:, 0] * rng.normal() + np.sin(X[:, 1]) + rng.normal(scale=0.3, size=n)
    return X, y


def _forest(seed, n_trees=20, n_jobs=1, n=60, p=5):
    X, y = _data(seed, n, p)
    rng = np.random.default_rng(seed + 100)
    forest = RandomForestRegressor(
        n_trees=n_trees, min_samples_leaf=int(rng.integers(1, 6)),
        importance=False, n_jobs=n_jobs, rng=seed,
    ).fit(X, y)
    return forest, X


def _queries(X, rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(X.min(axis=0), X.max(axis=0), size=(rows, X.shape[1]))


def _assert_flat_matches(forest, Q):
    got = forest.predict(Q)
    want = reference_forest_predict(forest, Q)
    assert got.shape == want.shape == (np.asarray(Q).shape[0],)
    assert got.tobytes() == want.tobytes()


class TestOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rows", [1, 2, 17, 300])
    def test_random_forests(self, seed, rows):
        forest, X = _forest(seed)
        _assert_flat_matches(forest, _queries(X, rows, seed))

    def test_training_rows(self):
        forest, X = _forest(3)
        _assert_flat_matches(forest, X)

    @pytest.mark.parametrize("rows", [0, 1, 2])
    def test_tiny_inputs(self, rows):
        forest, X = _forest(4)
        _assert_flat_matches(forest, _queries(X, rows))

    @pytest.mark.parametrize("budget", [1, 3, 7])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 64])
    def test_block_boundaries(self, monkeypatch, budget, rows):
        monkeypatch.setattr(forest_module, "_PREDICT_PAIR_BUDGET", budget)
        forest, X = _forest(5, n_trees=11)
        _assert_flat_matches(forest, _queries(X, rows, budget))

    def test_batch_beyond_budget(self):
        forest, X = _forest(6, n_trees=5)
        rows = forest_module._PREDICT_PAIR_BUDGET + 3
        _assert_flat_matches(forest, _queries(X, rows))

    def test_single_leaf_trees(self):
        X, _ = _data(7)
        forest = RandomForestRegressor(
            n_trees=9, importance=False, rng=1
        ).fit(X, np.full(X.shape[0], 2.5))
        assert all(t.n_nodes == 1 for t in forest.trees_)
        _assert_flat_matches(forest, _queries(X, 4))

    def test_leaf_trees_mixed_with_deep_ones(self):
        forest, X = _forest(8, n_trees=6)
        stumps = RandomForestRegressor(
            n_trees=4, importance=False, rng=2
        ).fit(X, np.full(X.shape[0], -1.0))
        forest.trees_ = stumps.trees_[:2] + forest.trees_ + stumps.trees_[2:]
        for rows in (1, 2, 9):
            _assert_flat_matches(forest, _queries(X, rows, rows))

    # Small blocks of many rows add tree by tree; the other shapes
    # accumulate down the tree axis. Both must match the loop.
    SUM_SHAPES = pytest.mark.parametrize(
        "rows,budget", [(1, None), (3, None), (64, 1), (70, 140), (200, 600)]
    )

    @SUM_SHAPES
    def test_signed_zero_leaves(self, monkeypatch, rows, budget):
        # The per-tree loop starts from +0.0, so a forest of -0.0 leaves
        # predicts +0.0; a sum that skips the zero start gives -0.0.
        if budget:
            monkeypatch.setattr(forest_module, "_PREDICT_PAIR_BUDGET", budget)
        forest, X = _forest(9, n_trees=7)
        for tree in forest.trees_:
            tree.value_ = np.where(np.arange(tree.n_nodes) % 2, -0.0, 0.0)
        forest.trees_ = list(forest.trees_)
        _assert_flat_matches(forest, _queries(X, rows))
        for tree in forest.trees_:
            tree.value_ = np.full(tree.n_nodes, -0.0)
        forest.trees_ = list(forest.trees_)
        _assert_flat_matches(forest, _queries(X, rows))
        assert not np.signbit(forest.predict(_queries(X, rows))).any()

    @SUM_SHAPES
    def test_sum_order_is_tree_order(self, monkeypatch, rows, budget):
        # Leaf values of wildly mixed magnitude make any reassociation
        # of the sum (pairwise, blocked, reversed) change the bits.
        if budget:
            monkeypatch.setattr(forest_module, "_PREDICT_PAIR_BUDGET", budget)
        forest, X = _forest(10, n_trees=300, n=40, p=3)
        rng = np.random.default_rng(0)
        for tree in forest.trees_:
            tree.value_ = rng.normal(size=tree.n_nodes) * 10.0 ** rng.integers(
                -8, 9, size=tree.n_nodes
            )
        forest.trees_ = list(forest.trees_)
        for seed in range(5):
            _assert_flat_matches(forest, _queries(X, rows, seed))

    def test_non_contiguous_and_fortran_inputs(self):
        forest, X = _forest(11)
        Q = _queries(X, 12)
        wide = np.repeat(Q, 2, axis=1)  # every column twice
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        fortran = np.asfortranarray(Q)
        for view in (strided, fortran, Q[::-1], Q[::3]):
            _assert_flat_matches(forest, view)
        assert forest.predict(strided).tobytes() == forest.predict(Q).tobytes()

    def test_parallel_fit(self):
        serial, X = _forest(12, n_trees=10)
        parallel, _ = _forest(12, n_trees=10, n_jobs=2)
        for rows in (1, 2, 33):
            Q = _queries(X, rows)
            _assert_flat_matches(parallel, Q)
            assert parallel.predict(Q).tobytes() == serial.predict(Q).tobytes()

    def test_predict_many_matches_per_query_reference(self):
        forest, X = _forest(13)
        queries = [_queries(X, k, k) for k in (1, 0, 4, 1, 64)]
        for got, Q in zip(forest.predict_many(queries), queries):
            assert got.tobytes() == reference_forest_predict(forest, Q).tobytes()


class TestLayout:
    def test_offsets_and_self_loops(self):
        forest, _ = _forest(14, n_trees=5)
        flat = _FlatForest(forest.trees_)
        base = 0
        for t, tree in enumerate(forest.trees_):
            assert flat.roots[t] == base
            ids = base + np.arange(tree.n_nodes)
            leaf = tree.feature_ == _LEAF
            assert np.array_equal(flat.feature[ids], tree.feature_)
            assert np.array_equal(flat.value[ids], tree.value_)
            assert np.array_equal(flat.left[ids][~leaf], tree.left_[~leaf] + base)
            assert np.array_equal(flat.right[ids][~leaf], tree.right_[~leaf] + base)
            assert np.array_equal(flat.left[ids][leaf], ids[leaf])
            assert np.array_equal(flat.right[ids][leaf], ids[leaf])
            base += tree.n_nodes
        assert flat.feature.size == base


class TestCacheLifetime:
    def test_refit_drops_flat_arrays(self):
        X, y = _data(15, n=80)
        forest = RandomForestRegressor(
            n_trees=8, importance=False, rng=3
        ).fit(X[:60], y[:60])
        Q = _queries(X, 5)
        before = forest.predict(Q)
        _assert_flat_matches(forest, Q)
        forest.refit(X, y, n_new_trees=4)
        assert len(forest.trees_) == 12
        _assert_flat_matches(forest, Q)
        assert forest.predict(Q).tobytes() != before.tobytes()

    def test_refit_matches_replay(self):
        X, y = _data(16, n=80)
        grown = RandomForestRegressor(n_trees=6, importance=False, rng=4)
        grown.fit(X[:50], y[:50])
        grown.predict(X[:3])  # build the flat arrays before growing
        grown.refit(X, y)
        replay = RandomForestRegressor(n_trees=6, importance=False, rng=4)
        replay.fit(X[:50], y[:50]).refit(X, y)
        Q = _queries(X, 7)
        assert grown.predict(Q).tobytes() == replay.predict(Q).tobytes()
        _assert_flat_matches(grown, Q)

    def test_refit_after_fit_replaces_trees(self):
        X, y = _data(17)
        forest = RandomForestRegressor(n_trees=5, importance=False, rng=5)
        forest.fit(X, y)
        forest.predict(X[:2])
        forest.fit(X, -y)
        _assert_flat_matches(forest, X[:9])

    def test_assigning_trees_drops_flat_arrays(self):
        a, X = _forest(18, n_trees=4)
        b, _ = _forest(19, n_trees=7)
        Q = _queries(X, 3)
        a.predict(Q)
        a.trees_ = b.trees_
        assert a.predict(Q).tobytes() == b.predict(Q).tobytes()

    def test_artifact_round_trip(self):
        forest, X = _forest(20)
        forest.predict(X[:1])
        restored = forest_from_dict(forest_to_dict(forest))
        for rows in (1, 2, 40):
            Q = _queries(X, rows)
            _assert_flat_matches(restored, Q)
            assert restored.predict(Q).tobytes() == forest.predict(Q).tobytes()

    def test_incremental_state_round_trip(self):
        X, y = _data(21, n=90)
        forest = RandomForestRegressor(n_trees=6, importance=False, rng=6)
        forest.fit(X[:70], y[:70])
        Q = _queries(X, 5)
        restored = restore_forest(forest_state(forest), X[:70], y[:70])
        _assert_flat_matches(restored, Q)
        assert restored.predict(Q).tobytes() == forest.predict(Q).tobytes()
        restored.refit(X, y)
        forest.refit(X, y)
        _assert_flat_matches(restored, Q)
        assert restored.predict(Q).tobytes() == forest.predict(Q).tobytes()
