"""Tests for the CART/random-forest classifier."""

import numpy as np
import pytest

from anomstream.errors import DegenerateTrainingSetError, EmptyNodeError
from anomstream.forest import (
    DecisionTree,
    ForestConfig,
    build_tree,
    feature_importances,
    fit_forest,
    gini,
    load_forest,
    predict,
    save_forest,
    vote_fraction,
)
from anomstream.labels import Label


def brute_force_best_weighted_gini(x, y):
    """Exhaustive minimum weighted child Gini over all features/boundaries."""
    n, d = x.shape
    best = None
    for f in range(d):
        for thr in np.unique(x[:, f]):
            left = x[:, f] < thr
            nl, nr = left.sum(), n - left.sum()
            if nl == 0 or nr == 0:
                continue
            w = (nl * gini(np.bincount(y[left], minlength=2))
                 + nr * gini(np.bincount(y[~left], minlength=2))) / n
            if best is None or w < best:
                best = w
    return best


def tree_node_subsets(tree: DecisionTree, x: np.ndarray):
    """Sample-index subsets reaching each node of a fitted tree."""
    subsets = {0: np.arange(x.shape[0])}
    for node in range(tree.n_nodes):
        if tree.feature[node] == -1:
            continue
        idx = subsets[node]
        mask = x[idx, tree.feature[node]] < tree.threshold[node]
        subsets[int(tree.left[node])] = idx[mask]
        subsets[int(tree.right[node])] = idx[~mask]
    return subsets


def tree_depth(tree: DecisionTree) -> int:
    """Longest root-to-leaf path, read from the node arrays (children follow parents)."""
    depth = np.zeros(tree.n_nodes, dtype=int)
    for node in range(tree.n_nodes):
        if tree.feature[node] != -1:
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("n_estimators", 0), ("max_depth", 0), ("min_samples_split", 1),
         ("max_features", 0), ("max_features", "log2"), ("max_features", 2.5)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            ForestConfig(**{field: value})

    @pytest.mark.parametrize("max_features", ["sqrt", "all", 1, 7])
    def test_in_range_accepted(self, max_features):
        ForestConfig(n_estimators=1, max_depth=1, min_samples_split=2, max_features=max_features)


class TestGini:
    def test_pure(self):
        assert gini((10, 0)) == 0.0

    def test_balanced(self):
        assert gini((5, 5)) == 0.5

    def test_three_one(self):
        assert gini((3, 1)) == pytest.approx(0.375)

    def test_empty_raises(self):
        with pytest.raises(EmptyNodeError):
            gini((0, 0))


class TestBuildTree:
    def test_single_class_is_leaf(self):
        x = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        tree = build_tree(x, y, np.random.default_rng(0), ForestConfig(max_features="all"))
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1

    def test_separable_pair_depth_one(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = build_tree(x, y, np.random.default_rng(0), ForestConfig(max_features="all"))
        assert tree.n_nodes == 3
        assert tree_depth(tree) == 1
        assert tree.predict(np.array([0.0])) is Label.NORMAL
        assert tree.predict(np.array([1.0])) is Label.ABNORMAL

    def test_splits_match_exhaustive_oracle(self):
        root = np.random.SeedSequence(2718)
        for ss in root.spawn(30):
            rng = np.random.default_rng(ss)
            n = int(rng.integers(4, 17))
            d = int(rng.integers(1, 5))
            x = rng.integers(0, 2, size=(n, d)).astype(float)
            y = rng.integers(0, 2, size=n).astype(int)
            if len(np.unique(y)) < 2:
                y[0] = 1 - y[0]
            tree = build_tree(x, y, np.random.default_rng(ss), ForestConfig(max_features="all"))
            subsets = tree_node_subsets(tree, x)
            for node, idx in subsets.items():
                if tree.feature[node] == -1:
                    continue
                mask = x[idx, tree.feature[node]] < tree.threshold[node]
                nl, nr = mask.sum(), (~mask).sum()
                achieved = (
                    nl * gini(np.bincount(y[idx][mask], minlength=2))
                    + nr * gini(np.bincount(y[idx][~mask], minlength=2))
                ) / idx.size
                optimal = brute_force_best_weighted_gini(x[idx], y[idx])
                assert achieved == pytest.approx(optimal, abs=1e-12)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, size=200).astype(int)
        for depth in (1, 2, 4):
            tree = build_tree(
                x, y, np.random.default_rng(0),
                ForestConfig(max_depth=depth, max_features="all"),
            )
            assert tree_depth(tree) <= depth


class TestFitForest:
    def _separable(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        half = n // 2
        x = np.vstack([
            rng.normal(0.0, 0.5, size=(half, 2)),
            rng.normal(3.0, 0.5, size=(n - half, 2)),
        ])
        y = np.array([0] * half + [1] * (n - half))
        return x, y

    def test_deterministic_per_seed(self):
        x, y = self._separable()
        cfg = ForestConfig(n_estimators=8, max_depth=6)
        a = fit_forest(x, y, cfg, seed=5)
        b = fit_forest(x, y, cfg, seed=5)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.counts, tb.counts)

    def test_training_accuracy_on_separable(self):
        x, y = self._separable()
        forest = fit_forest(x, y, ForestConfig(n_estimators=20, max_depth=8), seed=1)
        correct = sum(int(predict(forest, x[i])[0]) == y[i] for i in range(len(y)))
        assert correct >= 99

    def test_held_out_accuracy(self):
        x, y = self._separable(n=100, seed=2)
        xt, yt = self._separable(n=60, seed=3)
        forest = fit_forest(x, y, ForestConfig(n_estimators=20, max_depth=8), seed=1)
        correct = sum(int(predict(forest, xt[i])[0]) == yt[i] for i in range(len(yt)))
        assert correct / len(yt) >= 0.95

    def test_single_class_raises(self):
        x = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        with pytest.raises(DegenerateTrainingSetError):
            fit_forest(x, y, ForestConfig(n_estimators=2), seed=0)
        # an empty batch, as the engine passes it, is degenerate too
        with pytest.raises(DegenerateTrainingSetError, match="nothing"):
            fit_forest(np.asarray([]), np.asarray([]), ForestConfig(n_estimators=2), seed=0)


class TestPredict:
    def test_unanimous_normal(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        forest = fit_forest(x, y, ForestConfig(n_estimators=9, max_depth=3), seed=0)
        label, votes = predict(forest, np.array([0.0]))
        assert label is Label.NORMAL
        assert votes == (9, 0)

    def test_vote_counts_sum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50).astype(int)
        y[0], y[1] = 0, 1
        forest = fit_forest(x, y, ForestConfig(n_estimators=15, max_depth=4), seed=2)
        for _ in range(10):
            _, votes = predict(forest, rng.normal(size=3))
            assert votes[0] + votes[1] == 15

    def test_tie_breaks_abnormal(self):
        counts = [(1, 1)]
        stump = DecisionTree([-1], [0.0], [-1], [-1], counts)
        forest_like = fit_forest(
            np.array([[0.0], [1.0]]), np.array([0, 1]),
            ForestConfig(n_estimators=2, max_depth=1), seed=0,
        )
        forest_like.trees = [stump, stump]
        label, votes = predict(forest_like, np.array([0.5]))
        assert votes == (0, 2)  # tied leaves resolve abnormal
        assert label is Label.ABNORMAL

    def test_vote_fraction(self):
        assert vote_fraction((30, 10)) == pytest.approx(0.25)

    def test_monotone_transform_invariance_on_sample(self):
        # order-preserving transform of one feature leaves on-sample
        # predictions unchanged (splits depend only on value order)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        cfg = ForestConfig(n_estimators=10, max_depth=6)
        base = fit_forest(x, y, cfg, seed=7)
        x2 = x.copy()
        x2[:, 0] = np.exp(x2[:, 0])
        transformed = fit_forest(x2, y, cfg, seed=7)
        for i in range(len(y)):
            assert predict(base, x[i])[0] is predict(transformed, x2[i])[0]


class TestImportances:
    def test_single_informative_feature_one_hot(self):
        x = np.zeros((40, 3))
        x[:, 1] = np.arange(40)
        y = (x[:, 1] >= 20).astype(int)
        forest = fit_forest(x, y, ForestConfig(n_estimators=10, max_depth=4), seed=0)
        imps = feature_importances(forest)
        assert imps[1] == pytest.approx(1.0)
        assert imps[0] == imps[2] == 0.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(100, 4))
        y = (x[:, 0] + x[:, 2] > 0).astype(int)
        forest = fit_forest(x, y, ForestConfig(n_estimators=12, max_depth=6), seed=3)
        assert feature_importances(forest).sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_feature_unimportant(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 3))
        x[:, 2] = 1.5
        y = (x[:, 0] > 0).astype(int)
        forest = fit_forest(x, y, ForestConfig(n_estimators=20, max_depth=8), seed=4)
        assert feature_importances(forest)[2] < 0.01


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 3))
        y = (x[:, 1] > 0.2).astype(int)
        forest = fit_forest(x, y, ForestConfig(n_estimators=6, max_depth=5), seed=9)
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.config == forest.config
        assert loaded.n_features == forest.n_features
        for ta, tb in zip(forest.trees, loaded.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.left, tb.left)
            assert np.array_equal(ta.right, tb.right)
            assert np.array_equal(ta.counts, tb.counts)
        for i in range(len(y)):
            assert predict(loaded, x[i]) == predict(forest, x[i])
