"""Random-forest classifier over CART trees with Gini splits.

The forest issues the final verdict for samples whose scorer loss falls in
the uncertain band, and exposes mean-decrease-in-Gini feature importances
as the interpretability surface. The forest is one node table: one walk
votes every tree, and checkpoints are plain JSON that round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (CorruptCheckpointError, DegenerateTrainingSetError, EmptyNodeError,
                     ShapeMismatchError, _is_int, _store_ints)
from .labels import Label

_CHECKPOINT_VERSION = 1
_NO_CHILD = -1
_LEAF_FEATURE = -1
_COLUMNS = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
            "counts": np.int64}


@dataclass
class ForestConfig:
    n_estimators: int = 40
    max_depth: int = 16
    min_samples_split: int = 2
    max_features: str | int = "sqrt"  # "sqrt", "all", or an explicit count

    def __post_init__(self) -> None:
        counts = _store_ints(self, ("n_estimators", "max_depth", "min_samples_split"))
        if min(counts) < 1 or self.min_samples_split < 2:
            raise ValueError(f"n_estimators and max_depth must be >= 1, "
                             f"min_samples_split >= 2, got {counts}")
        if _is_int(self.max_features) and 1 <= self.max_features < 2**63:
            self.max_features = int(self.max_features)
        elif self.max_features not in ("sqrt", "all"):
            raise ValueError(f"max_features must be 'sqrt', 'all' or an int64 >= 1, "
                             f"got {self.max_features!r}")

    def features_per_split(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return int(math.ceil(math.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return min(self.max_features, n_features)


def gini(counts) -> float | np.ndarray:
    """CART impurity 1 - sum((c_i / total)^2) of a count pair, or of each row of (n, 2) counts."""
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("class counts must be non-negative")
    total = c.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise EmptyNodeError("cannot compute impurity of an empty node")
    frac = c / total
    impurity = 1.0 - np.sum(frac * frac, axis=-1)
    return float(impurity) if impurity.ndim == 0 else impurity


def _abnormal(normal, abnormal):
    """The tie rule of a leaf's class counts and of the forest vote: ties are abnormal."""
    return abnormal >= normal


def _best_split(columns: np.ndarray, y: np.ndarray):
    """Exhaustive best split of a node's (n, k) candidate ``columns`` by weighted child Gini.

    Returns (column, threshold) or None when no column offers a valid
    boundary. Ties keep the earliest column, then the lowest threshold.
    """
    n = y.shape[0]
    order = np.argsort(columns, axis=0, kind="stable")
    vs = columns[order, np.arange(columns.shape[1])]
    cum_abn = np.cumsum(y[order], axis=0)
    n_left = np.arange(1.0, n)[:, None]  # a boundary after sorted row i leaves i + 1 rows left
    n_right = n - n_left
    abn_left = cum_abn[:-1].astype(float)
    abn_right = cum_abn[-1] - abn_left
    nor_left = n_left - abn_left
    nor_right = n_right - abn_right
    gini_left = 1.0 - (nor_left**2 + abn_left**2) / n_left**2
    gini_right = 1.0 - (nor_right**2 + abn_right**2) / n_right**2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    # a boundary lies only between distinct values
    weighted = np.where(vs[:-1] < vs[1:], weighted, np.inf)
    # column-major, so the first minimum is the earliest column's lowest threshold
    column, row = divmod(int(np.argmin(weighted.T)), n - 1)
    if weighted[row, column] == np.inf:
        return None
    return column, float(0.5 * (vs[row, column] + vs[row + 1, column]))


def build_tree(x: np.ndarray, y: np.ndarray, rng: np.random.Generator,
               config: ForestConfig) -> RandomForest:
    """Grow one CART tree on (x, y) as a one-tree forest; deterministic given the rng state."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("cannot build a tree on an empty sample")
    n_features = x.shape[1]
    k = config.features_per_split(n_features)

    tree: dict[str, list] = {name: [] for name in _COLUMNS}
    feature, threshold, left, right, counts = tree.values()

    def add_node(idx: np.ndarray) -> int:
        node = len(feature)
        feature.append(_LEAF_FEATURE)
        threshold.append(0.0)
        left.append(_NO_CHILD)
        right.append(_NO_CHILD)
        abnormal = int(np.count_nonzero(y[idx]))
        counts.append((idx.size - abnormal, abnormal))
        return node

    def grow(idx: np.ndarray, node: int, depth: int) -> None:
        if depth >= config.max_depth or idx.size < config.min_samples_split or 0 in counts[node]:
            return
        if k < n_features:
            candidates = rng.choice(n_features, size=k, replace=False)
        else:
            candidates = np.arange(n_features)
        columns = x.T[candidates[:, None], idx].T  # (n, k), each column contiguous for the sort
        found = _best_split(columns, y[idx])
        if found is None:
            return
        column, thr = found
        mask = columns[:, column] < thr
        left_idx = idx[mask]
        right_idx = idx[~mask]
        feature[node] = int(candidates[column])
        threshold[node] = thr
        left[node] = add_node(left_idx)
        right[node] = add_node(right_idx)
        grow(left_idx, left[node], depth + 1)
        grow(right_idx, right[node], depth + 1)

    root_idx = np.arange(x.shape[0])
    root = add_node(root_idx)
    grow(root_idx, root, 0)
    return _join([tree], config, n_features, seed=-1)


@dataclass(eq=False)
class RandomForest:
    """Every tree's nodes in one table; tree ``t`` starts at row ``roots[t]``.

    ``feature[i] == -1`` marks a leaf and ``counts[i]`` holds the training
    (normal, abnormal) counts at row ``i``. ``left``/``right`` are tree-local:
    row ``i`` of tree ``t`` has its left child at ``roots[t] + left[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    roots: np.ndarray
    config: ForestConfig
    n_features: int
    seed: int


def _join(trees, config: ForestConfig, n_features: int, seed: int) -> RandomForest:
    """One table from per-tree node columns, each tree a mapping of ``_COLUMNS``."""
    columns = {name: np.concatenate([np.asarray(t[name], dtype=dtype) for t in trees])
               for name, dtype in _COLUMNS.items()}
    roots = np.cumsum([0] + [len(t["feature"]) for t in trees[:-1]], dtype=np.int64)
    return RandomForest(**columns, roots=roots, config=config, n_features=n_features, seed=seed)


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig | None = None,
               seed: int | np.random.SeedSequence = 0) -> RandomForest:
    """Fit ``n_estimators`` trees on bootstrap resamples.

    Each tree draws its bootstrap and its split candidates from its own
    spawned rng, so the forest is deterministic given ``seed``.
    """
    config = config or ForestConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    # masks, not np.unique: NumPy 2.4's np.unique imports numpy.ma (+1.25 MB of RSS)
    masks = (y == Label.NORMAL, y == Label.ABNORMAL)
    if not np.logical_or(*masks).all():
        raise ValueError(f"labels must be 0 (normal) or 1 (abnormal), got {np.unique(y).tolist()}")
    present = [label.display for label, mask in zip(Label, masks) if mask.any()]
    # before the shape check, so an empty batch of any shape is degenerate
    if len(present) < 2:
        raise DegenerateTrainingSetError(
            "training set must contain both classes, got only "
            + (present[0] if present else "nothing")
        )
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError(f"bad training shapes {x.shape} / {y.shape}")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seed_value = seed if isinstance(seed, int) else -1
    n = x.shape[0]
    trees = []
    for child in base.spawn(config.n_estimators):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(vars(build_tree(x[boot], y[boot], rng, config)))
    return _join(trees, config, x.shape[1], seed_value)


def predict(forest: RandomForest, features) -> tuple[Label, tuple[int, int]]:
    """Majority vote of all trees, walked together a level per numpy step; ties are abnormal."""
    features = np.asarray(features, dtype=float)
    if features.shape != (forest.n_features,):
        raise ShapeMismatchError(f"row shape {features.shape}, expected ({forest.n_features},)")
    node = forest.roots.copy()
    inside = np.flatnonzero(forest.feature[node] != _LEAF_FEATURE)
    while inside.size:
        at = node[inside]
        go_left = features[forest.feature[at]] < forest.threshold[at]
        node[inside] = forest.roots[inside] + np.where(go_left, forest.left[at], forest.right[at])
        inside = inside[forest.feature[node[inside]] != _LEAF_FEATURE]
    leaf = forest.counts[node]
    abnormal = int(np.count_nonzero(_abnormal(leaf[:, 0], leaf[:, 1])))
    normal = forest.roots.size - abnormal
    label = Label.ABNORMAL if _abnormal(normal, abnormal) else Label.NORMAL
    return label, (normal, abnormal)


def vote_fraction(votes: tuple[int, int]) -> float:
    """Fraction of trees voting abnormal; the classifier's ranking score."""
    total = votes[0] + votes[1]
    return votes[1] / total if total else 0.0


def feature_importances(forest: RandomForest) -> np.ndarray:
    """Mean decrease in Gini per feature, normalized to sum to one."""
    node_n = forest.counts.sum(axis=1).astype(float)
    weighted = node_n * gini(forest.counts)
    split = np.flatnonzero(forest.feature != _LEAF_FEATURE)
    root = forest.roots[np.searchsorted(forest.roots, split, side="right") - 1]
    decrease = (
        weighted[split]
        - weighted[root + forest.left[split]]
        - weighted[root + forest.right[split]]
    ) / node_n[root]
    total = np.zeros(forest.n_features)
    np.add.at(total, forest.feature[split], decrease)
    total /= forest.roots.size
    s = total.sum()
    return total / s if s > 0 else total


def save_forest(forest: RandomForest, path) -> None:
    """Serialize to JSON, each tree a slice of the node table; floats round-trip exactly."""
    ends = np.append(forest.roots[1:], forest.feature.size)
    doc = {
        "format_version": _CHECKPOINT_VERSION,
        "n_features": forest.n_features,
        "seed": forest.seed,
        "config": asdict(forest.config),
        "trees": [
            {name: getattr(forest, name)[start:end].tolist() for name in _COLUMNS}
            for start, end in zip(forest.roots, ends)
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _checked_tree(tree, n_features: int) -> dict:
    """One stored tree's columns as arrays, rejected unless every walk steps forward to a leaf."""
    try:
        columns = {name: np.asarray(tree[name], dtype=dtype) for name, dtype in _COLUMNS.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"unreadable tree columns: {exc}") from None
    feature, threshold, left, right, counts = columns.values()
    n = feature.size
    flat = (feature, threshold, left, right)
    if n == 0 or counts.shape != (n, 2) or any(c.shape != (n,) for c in flat):
        raise CorruptCheckpointError("tree columns differ in length or counts are not pairs")
    leaf = feature == _LEAF_FEATURE
    at = np.flatnonzero(~leaf)
    if (np.any(counts < 0) or np.any(feature[at] < 0) or np.any(feature[at] >= n_features)
            or np.any(np.minimum(left[at], right[at]) <= at)
            or np.any(np.maximum(left[at], right[at]) >= n)
            or np.any(left[leaf] != _NO_CHILD) or np.any(right[leaf] != _NO_CHILD)):
        raise CorruptCheckpointError(
            "a tree has negative counts, a split feature outside [0, n_features), a child "
            "not after its node inside the tree, or a leaf with children"
        )
    return columns


def load_forest(path) -> RandomForest:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, IsADirectoryError) as exc:  # not UTF-8, not JSON, a directory
        raise CorruptCheckpointError(f"forest checkpoint is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptCheckpointError("forest checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version != _CHECKPOINT_VERSION:
        raise CorruptCheckpointError(f"unsupported forest checkpoint version {version!r}")
    missing = [key for key in ("trees", "n_features", "seed", "config") if key not in doc]
    if missing:
        raise CorruptCheckpointError(f"forest checkpoint lacks {missing}")
    n_features, seed = doc["n_features"], doc["seed"]
    if type(n_features) is not int or n_features < 1:
        raise CorruptCheckpointError(f"n_features {n_features!r} is not an int >= 1")
    if type(seed) is not int:
        raise CorruptCheckpointError(f"seed {seed!r} is not an int")
    if not isinstance(doc["trees"], list) or not doc["trees"]:
        raise CorruptCheckpointError("forest checkpoint holds no list of trees")
    try:
        config = ForestConfig(**doc["config"])
    except (TypeError, ValueError) as exc:  # not a mapping, an unknown key, a bad value
        raise CorruptCheckpointError(f"bad forest config: {exc}") from None
    trees = [_checked_tree(tree, n_features) for tree in doc["trees"]]
    return _join(trees, config, n_features, seed)
