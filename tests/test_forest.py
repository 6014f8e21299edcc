"""Tests for the CART/random-forest classifier."""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anomstream
from anomstream.errors import (
    CorruptCheckpointError,
    DegenerateTrainingSetError,
    EmptyNodeError,
    ShapeMismatchError,
)
from anomstream.forest import (
    ForestConfig,
    RandomForest,
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


TABLE = ("feature", "threshold", "left", "right", "counts", "roots")


def assert_same_table(a: RandomForest, b: RandomForest) -> None:
    for name in TABLE:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


def tree_node_subsets(tree: RandomForest, x: np.ndarray):
    """Sample-index subsets reaching each node of a one-tree forest."""
    subsets = {0: np.arange(x.shape[0])}
    for node in range(tree.feature.size):
        if tree.feature[node] == -1:
            continue
        idx = subsets[node]
        mask = x[idx, tree.feature[node]] < tree.threshold[node]
        subsets[int(tree.left[node])] = idx[mask]
        subsets[int(tree.right[node])] = idx[~mask]
    return subsets


def tree_depth(tree: RandomForest) -> int:
    """Longest root-to-leaf path of a one-tree forest (children follow parents)."""
    depth = np.zeros(tree.feature.size, dtype=int)
    for node in range(tree.feature.size):
        if tree.feature[node] != -1:
            depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    return int(depth.max())


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body once it has run ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def walk_votes(forest: RandomForest, row: np.ndarray):
    """Reference vote: one ``while`` walk per tree over its slice of the table."""
    abnormal = 0
    for root in forest.roots:
        node = 0
        while forest.feature[root + node] != -1:
            i = root + node
            if row[forest.feature[i]] < forest.threshold[i]:
                node = forest.left[i]
            else:
                node = forest.right[i]
        normal_n, abnormal_n = forest.counts[root + node]
        abnormal += int(abnormal_n >= normal_n)  # a tied leaf votes abnormal
    normal = forest.roots.size - abnormal
    return (Label.ABNORMAL if abnormal >= normal else Label.NORMAL), (normal, abnormal)


def loop_importances(forest: RandomForest) -> np.ndarray:
    """Reference importances: a Python loop over every split node of every tree."""
    total = np.zeros(forest.n_features)
    ends = [*forest.roots[1:], forest.feature.size]
    for start, end in zip(forest.roots, ends):
        feature, left, right, counts = (
            a[start:end] for a in (forest.feature, forest.left, forest.right, forest.counts)
        )
        node_n = counts.sum(axis=1).astype(float)
        for i in range(feature.size):
            if feature[i] == -1:
                continue
            li, ri = left[i], right[i]
            total[feature[i]] += (
                node_n[i] * gini(counts[i])
                - node_n[li] * gini(counts[li])
                - node_n[ri] * gini(counts[ri])
            ) / node_n[0]
    total /= forest.roots.size
    s = total.sum()
    return total / s if s > 0 else total


def column_loop_tree(x, y, rng, config: ForestConfig) -> dict:
    """Reference CART growth: each node gathers all its rows and sorts one candidate at a time."""
    n_features = x.shape[1]
    k = config.features_per_split(n_features)
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "counts": []}

    def best_split(xs, ys_node, feature_ids):
        n, best = ys_node.shape[0], None
        for f in feature_ids:
            order = np.argsort(xs[:, f], kind="stable")
            vs, ys = xs[order, f], ys_node[order]
            boundaries = np.nonzero(vs[:-1] < vs[1:])[0]
            if boundaries.size == 0:
                continue
            cum_abn = np.cumsum(ys)
            n_left = boundaries + 1.0
            n_right = n - n_left
            abn_left = cum_abn[boundaries].astype(float)
            abn_right = cum_abn[-1] - abn_left
            nor_left, nor_right = n_left - abn_left, n_right - abn_right
            gini_left = 1.0 - (nor_left**2 + abn_left**2) / n_left**2
            gini_right = 1.0 - (nor_right**2 + abn_right**2) / n_right**2
            weighted = (n_left * gini_left + n_right * gini_right) / n
            j = int(np.argmin(weighted))
            if best is None or weighted[j] < best[2]:
                best = (int(f), 0.5 * (vs[boundaries[j]] + vs[boundaries[j] + 1]), weighted[j])
        return best

    def add_node(idx):
        for name, value in zip(tree, (-1, 0.0, -1, -1)):
            tree[name].append(value)
        tree["counts"].append((int(np.sum(y[idx] == 0)), int(np.sum(y[idx] == 1))))
        return len(tree["feature"]) - 1

    def grow(idx, node, depth):
        if depth >= config.max_depth or idx.size < config.min_samples_split or np.all(
                y[idx] == y[idx][0]):
            return
        if k < n_features:
            candidates = rng.choice(n_features, size=k, replace=False)
        else:
            candidates = np.arange(n_features)
        found = best_split(x[idx], y[idx], candidates)
        if found is None:
            return
        f, thr, _ = found
        mask = x[idx, f] < thr
        tree["feature"][node], tree["threshold"][node] = f, thr
        tree["left"][node] = add_node(idx[mask])
        tree["right"][node] = add_node(idx[~mask])
        grow(idx[mask], tree["left"][node], depth + 1)
        grow(idx[~mask], tree["right"][node], depth + 1)

    grow(np.arange(x.shape[0]), add_node(np.arange(x.shape[0])), 0)
    return tree


FOREST_CASES = dict(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    d=st.integers(1, 5),
    grid=st.booleans(),  # values on {0, 1, 2}: duplicate rows and tied leaves
    max_features=st.sampled_from(["sqrt", "all", 1, 2, 3]),
    max_depth=st.integers(1, 6),
    min_samples_split=st.integers(2, 45),  # above n, every tree is a single leaf
    n_estimators=st.integers(1, 7),
)

# two of its 20 leaves are tied
TIED_LEAVES = example(seed=1, n=12, d=1, grid=True, max_features="all", max_depth=3,
                      min_samples_split=2, n_estimators=4)
# min_samples_split above n: every tree is a single leaf
SINGLE_LEAF_TREES = example(seed=2, n=5, d=2, grid=False, max_features="sqrt", max_depth=4,
                            min_samples_split=40, n_estimators=3)


def random_forest_case(seed, n, d, grid, max_features, max_depth, min_samples_split,
                       n_estimators):
    """A fitted forest and query rows: its training rows, its thresholds and fresh draws."""
    rng = np.random.default_rng(seed)

    def draw(size):
        return rng.integers(0, 3, size=size).astype(float) if grid else rng.normal(size=size)

    x = draw((n, d))
    y = rng.integers(0, 2, size=n)
    y[0], y[-1] = 0, 1
    cfg = ForestConfig(n_estimators=n_estimators, max_depth=max_depth,
                       min_samples_split=min_samples_split, max_features=max_features)
    forest = fit_forest(x, y, cfg, seed=seed)
    on_threshold = np.resize(forest.threshold, (max(1, forest.threshold.size // d), d))
    return forest, np.vstack([x, on_threshold, draw((20, d))])


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("n_estimators", 0), ("max_depth", 0), ("min_samples_split", 1),
         ("max_features", 0), ("max_features", "log2"), ("max_features", 2.5),
         ("n_estimators", True), ("max_depth", 2.5), ("min_samples_split", 2.0),
         ("max_features", True), ("max_features", 3.0)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            ForestConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = ForestConfig(n_estimators=np.int64(3), max_depth=np.int32(4),
                              min_samples_split=np.int64(2), max_features=np.int64(2))
        assert config.features_per_split(5) == 2

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
        with pytest.raises(EmptyNodeError):
            gini(np.array([[1, 2], [0, 0]]))

    def test_rows_of_counts(self):
        counts = np.array([[10, 0], [5, 5], [3, 1], [2, 7]])
        rows = gini(counts)
        assert rows.shape == (4,)
        assert np.array_equal(rows, [gini(c) for c in counts])


class TestBuildTree:
    def test_single_class_is_leaf(self):
        x = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        tree = build_tree(x, y, np.random.default_rng(0), ForestConfig(max_features="all"))
        assert tree.feature.size == 1
        assert tree.feature[0] == -1
        assert tree.roots.tolist() == [0] and tree.seed == -1

    def test_separable_pair_depth_one(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = build_tree(x, y, np.random.default_rng(0), ForestConfig(max_features="all"))
        assert tree.feature.size == 3
        assert tree_depth(tree) == 1
        assert predict(tree, np.array([0.0])) == (Label.NORMAL, (1, 0))
        assert predict(tree, np.array([1.0])) == (Label.ABNORMAL, (0, 1))

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

    def test_tie_keeps_earliest_candidate(self):
        # both features split the root purely; feature 1's boundary is the lower row
        x = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 0, 0, 1])
        tree = build_tree(x, y, np.random.default_rng(0), ForestConfig(max_features="all"))
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
        swapped = build_tree(x[:, ::-1], y, np.random.default_rng(0),
                             ForestConfig(max_features="all"))
        assert (swapped.feature[0], swapped.threshold[0]) == (0, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(**FOREST_CASES)
    @TIED_LEAVES
    def test_matches_per_column_search(self, **case):
        # one (n, k) sort per node picks the very split, threshold bits and
        # tie the per-candidate loop picks, from the same rng draws
        rng = np.random.default_rng(case["seed"])
        n, d = case["n"], case["d"]
        x = rng.integers(0, 3, size=(n, d)).astype(float) if case["grid"] else rng.normal(
            size=(n, d))
        y = rng.integers(0, 2, size=n)
        cfg = ForestConfig(max_depth=case["max_depth"], max_features=case["max_features"],
                           min_samples_split=case["min_samples_split"])
        tree = build_tree(x, y, np.random.default_rng(case["seed"]), cfg)
        expected = column_loop_tree(x, y, np.random.default_rng(case["seed"]), cfg)
        for name, column in expected.items():
            assert np.array_equal(getattr(tree, name), np.asarray(column)), name

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
        assert a.roots.size == 8
        assert_same_table(a, b)

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

    @pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0, 1, -1, 1], [2, 2, 2, 2]])
    def test_label_outside_binary_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be 0"):
            fit_forest(np.arange(8.0).reshape(4, 2), np.array(labels), seed=0)

    def test_two_dimensional_labels_rejected(self):
        # an (n, 1) column has n rows, but it would broadcast against the node's sorted labels
        x, y = self._separable(n=40)
        with pytest.raises(ValueError, match=r"bad training shapes \(40, 2\) / \(40, 1\)"):
            fit_forest(x, y[:, None], ForestConfig(n_estimators=2), seed=0)

    def test_fit_leaves_numpy_ma_unloaded(self):
        # NumPy 2.4's np.unique imports numpy.ma, +1.25 MB of RSS in every run that fits a forest
        script = ("import sys; import numpy as np; from anomstream.forest import fit_forest; "
                  "x = np.random.default_rng(0).normal(size=(40, 3)); "
                  "fit_forest(x, np.arange(40) % 2); print('numpy.ma' in sys.modules)")
        src = str(Path(anomstream.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


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
        stumps = RandomForest(
            feature=np.array([-1, -1]), threshold=np.zeros(2), left=np.array([-1, -1]),
            right=np.array([-1, -1]), counts=np.array([[1, 1], [1, 1]]), roots=np.array([0, 1]),
            config=ForestConfig(n_estimators=2, max_depth=1), n_features=1, seed=0,
        )
        label, votes = predict(stumps, np.array([0.5]))
        assert votes == (0, 2)  # tied leaves resolve abnormal
        assert label is Label.ABNORMAL

    @pytest.mark.parametrize("width", [0, 2, 5])
    def test_wrong_width_rejected(self, width):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 3))
        y = (x[:, 0] > 0).astype(int)
        forest = fit_forest(x, y, ForestConfig(n_estimators=3, max_depth=3), seed=0)
        with pytest.raises(ShapeMismatchError, match=r"expected \(3,\)"):
            predict(forest, np.zeros(width))
        with pytest.raises(ShapeMismatchError):
            predict(forest, np.zeros((1, 3)))

    def test_vote_fraction(self):
        assert vote_fraction((30, 10)) == pytest.approx(0.25)

    @settings(max_examples=60, deadline=None)
    @given(**FOREST_CASES)
    @TIED_LEAVES
    @SINGLE_LEAF_TREES
    def test_matches_per_tree_walk(self, **case):
        forest, rows = random_forest_case(**case)
        for row in rows:
            assert predict(forest, row) == walk_votes(forest, row)

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

    @settings(max_examples=60, deadline=None)
    @given(**FOREST_CASES)
    @TIED_LEAVES
    @SINGLE_LEAF_TREES
    def test_matches_per_node_loop(self, **case):
        forest, _ = random_forest_case(**case)
        np.testing.assert_allclose(
            feature_importances(forest), loop_importances(forest), rtol=1e-12, atol=0.0
        )


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
        assert loaded.seed == forest.seed
        assert_same_table(loaded, forest)
        for i in range(len(y)):
            assert predict(loaded, x[i]) == predict(forest, x[i])

    def test_numpy_integer_config_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 3))
        y = (x[:, 1] > 0.2).astype(int)
        cfg = ForestConfig(n_estimators=np.int64(4), max_depth=np.int32(5),
                           min_samples_split=np.int64(3), max_features=np.int64(2))
        forest = fit_forest(x, y, cfg, seed=9)
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.config == forest.config
        assert all(type(v) is int for v in vars(loaded.config).values())
        assert_same_table(loaded, forest)

    def test_format_v1_bytes_pinned(self, tmp_path):
        # The digest pins checkpoint format version 1 byte for byte: the key
        # order, one object per tree, tree-local child indices and float repr.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] + x[:, 1] + 0.5 * rng.normal(size=60) > 0).astype(int)
        cfg = ForestConfig(n_estimators=5, max_depth=4, min_samples_split=3)
        path = tmp_path / "forest.json"
        save_forest(fit_forest(x, y, cfg, seed=17), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "434938f3b850430f9094b188de5fca24ede03dd01a1df24fd6a5b0ff379f0214"
        save_forest(load_forest(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    DOC = {"format_version": 1, "n_features": 2, "seed": 0,
           "config": {"n_estimators": 1, "max_depth": 4, "min_samples_split": 2,
                      "max_features": "all"}}
    # root splits on feature 0 into node 1 (a split on feature 1) and leaf 2
    TREE = {
        "feature": [0, 1, -1, -1, -1],
        "threshold": [0.5, 0.5, 0.0, 0.0, 0.0],
        "left": [1, 3, -1, -1, -1],
        "right": [2, 4, -1, -1, -1],
        "counts": [[2, 3], [2, 1], [0, 2], [2, 0], [0, 1]],
    }

    @pytest.mark.parametrize(
        "column, node, value",
        [
            ("left", 0, 0),
            ("left", 1, 0),
            ("right", 1, 5),
            ("feature", 1, 2),
            ("feature", 1, -2),
            ("left", 2, 3),
            ("counts", 4, [0, -1]),
            ("counts", 4, [0, 1, 1]),
            ("threshold", None, [0.5, 0.5, 0.0, 0.0]),
            ("counts", None, [1, 2, 3, 4, 5]),
        ],
        ids=["self-loop", "backward-child", "child-past-end", "feature-past-end",
             "negative-feature", "leaf-with-child", "negative-count", "count-triple",
             "short-column", "flat-counts"],
    )
    def test_malformed_tree_rejected(self, tmp_path, column, node, value):
        path = tmp_path / "forest.json"
        path.write_text(json.dumps({**self.DOC, "trees": [self.TREE]}))
        assert predict(load_forest(path), np.zeros(2)) == (Label.NORMAL, (1, 0))
        tree = {name: list(cells) for name, cells in self.TREE.items()}
        if node is None:
            tree[column] = value
        else:
            tree[column][node] = value
        path.write_text(json.dumps({**self.DOC, "trees": [tree]}))
        # the deadline turns a walk that never reaches a leaf into a failure
        with deadline(5), pytest.raises(CorruptCheckpointError):
            predict(load_forest(path), np.zeros(2))

    def test_forest_without_trees_rejected(self, tmp_path):
        path = tmp_path / "forest.json"
        path.write_text(json.dumps({**self.DOC, "trees": []}))
        with pytest.raises(CorruptCheckpointError):
            load_forest(path)

    @pytest.mark.parametrize("n_features", [0, -1, "2", 1.5, None])
    def test_bad_n_features_rejected(self, tmp_path, n_features):
        path = tmp_path / "forest.json"
        leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                "counts": [[1, 0]]}
        path.write_text(json.dumps({**self.DOC, "n_features": n_features, "trees": [leaf]}))
        with pytest.raises(CorruptCheckpointError, match="n_features"):
            load_forest(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: [doc], "JSON object"),
            (lambda doc: "forest", "JSON object"),
            (lambda doc: {k: v for k, v in doc.items() if k != "trees"}, "trees"),
            (lambda doc: {k: v for k, v in doc.items() if k != "n_features"}, "n_features"),
            (lambda doc: {k: v for k, v in doc.items() if k != "seed"}, "seed"),
            (lambda doc: {k: v for k, v in doc.items() if k != "config"}, "config"),
            (lambda doc: {**doc, "trees": 3}, "trees"),
            (lambda doc: {**doc, "seed": "x"}, "seed"),
            (lambda doc: {**doc, "seed": 1.5}, "seed"),
            (lambda doc: {**doc, "config": [1]}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "bogus": 1}}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "max_depth": 0}}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "n_estimators": "x"}}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "max_features": True}}, "config"),
            (lambda doc: {**doc, "config": {**doc["config"], "max_depth": 2.5}}, "config"),
            (lambda doc: {**doc, "trees": [{**doc["trees"][0], "feature": [2**70, 1, -1, -1, -1]}]},
             "tree columns"),
            (lambda doc: {**doc, "trees": [{**doc["trees"][0], "left": [2**70, 3, -1, -1, -1]}]},
             "tree columns"),
        ],
        ids=["list", "string", "no-trees", "no-n_features", "no-seed", "no-config",
             "trees-not-list", "str-seed", "float-seed", "config-not-object",
             "config-unknown-key", "config-zero-depth", "config-str-count",
             "config-bool-max-features", "config-float-depth", "feature-past-int64",
             "left-past-int64"],
    )
    def test_malformed_document_rejected(self, tmp_path, edit, match):
        path = tmp_path / "forest.json"
        path.write_text(json.dumps(edit({**self.DOC, "trees": [self.TREE]})))
        with pytest.raises(CorruptCheckpointError, match=match):
            load_forest(path)

    @pytest.mark.parametrize(
        "data", [b"not json", b"{\"format_version\": 1,", b"\xff\xfe{}", None],
        ids=["text", "truncated", "not-utf8", "directory"],
    )
    def test_non_json_file_rejected(self, tmp_path, data):
        path = tmp_path / "forest.json"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
        with pytest.raises(CorruptCheckpointError, match="not JSON"):
            load_forest(path)

    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_unsupported_format_version_rejected(self, tmp_path, version):
        path = tmp_path / "forest.json"
        path.write_text(json.dumps({**self.DOC, "format_version": version, "trees": [self.TREE]}))
        with pytest.raises(CorruptCheckpointError, match="version"):
            load_forest(path)
