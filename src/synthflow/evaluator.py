"""Real-versus-synthetic quality scoring.

A from-scratch gradient-boosted tree classifier tries to tell generated
rows from real ones; the closer its holdout ROC/AUC sits to 0.5, the better
the generator. Alongside the classifier the module reports two RMSE-style
divergence numbers, per-feature split-gain importances, and paired
histograms for plotting.

Trees are grown by exact greedy search: at every node each feature's sorted
distinct values define candidate thresholds (midpoints), and the split
maximizing the usual Newton gain (sum-of-squares reduction on the
residual/hessian ratio) wins, ties broken toward the smaller threshold and
then the smaller feature index. Leaf values are the one-step Newton
estimate sum(residual) / sum(p*(1-p)).

The search runs on presorted column blocks, as in XGBoost's exact greedy
algorithm (Chen & Guestrin 2016, section 4.1). A fit stable-sorts every
feature column once, since the features stay the same across boosting
rounds. Each node keeps its row ids in every feature's sorted order, and a
split gives each child a stable partition of its parent's block. One
``split_search`` call per node then scans all features with one cumulative
sum per feature. Those sums run in the order a fresh stable sort of the
node's rows would give, so the trees are bit for bit those of a per-node
sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DataError, DatasetMatrix, check_count, config_from_dict, denormalize

HISTOGRAM_BINS = 32

# Default histogram picks for flow data; used when present in the schema.
PREFERRED_HISTOGRAM_FEATURES = (
    "Packet Length Mean",
    "Flow Bytes/s",
    "Flow Duration",
    "Fwd IAT Mean",
)


@dataclass
class LabeledSet:
    """Feature matrix with binary rows: 0 = real, 1 = synthetic."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"features {self.features.shape} and labels {self.labels.shape} "
                f"do not line up"
            )
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 (real) or 1 (synthetic)")


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def split_search(values, rows, residuals, hessians, work):
    """Best (feature, threshold, gain) over every feature of one node, or
    None if no feature has a threshold.

    Row j of ``rows`` holds the node's row ids (at least two) in ascending
    order of feature j, ties in ascending row id, and row j of ``values``
    the matching feature values. Thresholds are midpoints between
    consecutive distinct values;
    gain = (sum r_L)^2/(sum h_L) + (sum r_R)^2/(sum h_R) - (sum r)^2/(sum h),
    with the sums taken in each feature's sorted order. Ties keep the
    smallest threshold, then the smallest feature index. A feature with no
    threshold, or whose best gain is NaN, is skipped. The gain is returned
    even when it is not positive. ``work`` is scratch space of shape (4, k)
    with k >= ``rows.size``.
    """
    d, m = rows.shape
    cum_r, cum_h = (w[: d * m].reshape(d, m) for w in work[:2])
    right_r, right_h = (w[: d * (m - 1)].reshape(d, m - 1) for w in work[2:])
    # row ids are in range; "clip" lets take write straight into out
    # instead of filling a checked temporary first
    np.take(residuals, rows, out=cum_r, mode="clip")
    np.take(hessians, rows, out=cum_h, mode="clip")
    np.cumsum(cum_r, axis=1, out=cum_r)
    np.cumsum(cum_h, axis=1, out=cum_h)
    total_r, total_h = cum_r[:, -1:], cum_h[:, -1:]
    left_r, left_h = cum_r[:, :-1], cum_h[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(total_r, left_r, out=right_r)
        np.subtract(total_h, left_h, out=right_h)
        np.square(right_r, out=right_r)
        right_r /= right_h
        gains = np.square(left_r, out=right_h)
        gains /= left_h
        gains += right_r
        gains -= total_r**2 / total_h
    gains[~(values[:, :-1] < values[:, 1:])] = -np.inf
    at = gains.argmax(axis=1)  # first max per feature; a NaN wins it
    best = gains[np.arange(d), at]
    best[np.isnan(best)] = -np.inf
    if not (best > -np.inf).any():
        return None
    feature = int(np.argmax(best))
    k = at[feature]
    threshold = (values[feature, k] + values[feature, k + 1]) / 2.0
    return feature, float(threshold), float(best[feature])


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (children None)."""

    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    root: TreeNode

    def predict(self, features: np.ndarray) -> np.ndarray:
        out = np.empty(features.shape[0])
        self._walk(self.root, features, np.arange(features.shape[0]), out)
        return out

    def _walk(self, node, features, idx, out) -> None:
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = features[idx, node.feature] <= node.threshold
        self._walk(node.left, features, idx[go_left], out)
        self._walk(node.right, features, idx[~go_left], out)

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.left)
                stack.append(node.right)


def _tree_builder(features, max_depth):
    """Tree grower for one fit: ``build(residuals, hessians, fitted) ->
    TreeNode``. ``build`` also writes each row's leaf value into ``fitted``,
    which is then the tree's prediction on the fit matrix.

    Every feature column is stable-sorted once, here. A node holds its row
    ids in ascending order (``idx``, for the leaf value) and a block with
    one row per feature: its row ids in that feature's sorted order
    (``rows``) and the matching ``values``. A split hands each child a
    stable partition of the block, so every node sums in the order a fresh
    stable sort of its rows would give.
    """
    n_rows, n_features = features.shape
    sorted_rows = np.argsort(features.T, axis=1, kind="stable")
    sorted_values = np.take_along_axis(features.T, sorted_rows, axis=1)
    work = np.empty((4, sorted_rows.size))  # split_search's scratch space
    goes_left = np.empty(n_rows, dtype=bool)

    def build(residuals, hessians, fitted) -> TreeNode:
        def grow(idx, rows, values, depth) -> TreeNode:
            value = float(residuals[idx].sum() / hessians[idx].sum())
            found = None
            if depth < max_depth and idx.size >= 2:
                found = split_search(values, rows, residuals, hessians, work)
            if found is None or found[2] <= 0.0:  # a split needs gain > 0
                fitted[idx] = value
                return TreeNode(value=value)
            feature, threshold, gain = found
            left = features[idx, feature] <= threshold
            blocks = [(None, None)] * 2
            if depth + 1 < max_depth:  # children at max_depth are leaves
                goes_left[idx] = left
                in_left = goes_left[rows].ravel()
                blocks = [
                    (rows.ravel()[keep].reshape(n_features, -1),
                     values.ravel()[keep].reshape(n_features, -1))
                    for keep in (np.flatnonzero(in_left), np.flatnonzero(~in_left))
                ]
            return TreeNode(
                feature=feature,
                threshold=threshold,
                gain=gain,
                value=value,
                left=grow(idx[left], *blocks[0], depth + 1),
                right=grow(idx[~left], *blocks[1], depth + 1),
            )

        return grow(np.arange(n_rows), sorted_rows, sorted_values, 0)

    return build


@dataclass
class GbmModel:
    """Boosted logistic ensemble: sigmoid(base + shrinkage * sum(trees))."""

    base_score: float
    trees: list[RegressionTree]
    shrinkage: float
    max_depth: int
    n_features: int


def gbm_fit(
    train: LabeledSet,
    n_trees: int = 100,
    max_depth: int = 3,
    shrinkage: float = 0.1,
) -> GbmModel:
    """Boost regression trees on the logistic loss.

    Each round fits a tree to the residual (label - predicted probability)
    with hessian weights p*(1-p). Fitting is fully deterministic.
    """
    if not 0.0 < shrinkage <= 1.0:
        raise ValueError(f"shrinkage must be in (0, 1], got {shrinkage}")
    if n_trees < 0 or max_depth < 1:
        raise ValueError(f"bad ensemble size: n_trees={n_trees}, max_depth={max_depth}")
    y = train.labels.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training set must contain both classes")
    prior = float(y.mean())
    base_score = float(np.log(prior / (1.0 - prior)))
    scores = np.full(y.shape, base_score)
    # the features never change between rounds: one presort serves all trees
    build = _tree_builder(train.features, max_depth)
    fitted = np.empty_like(scores)  # each round's tree prediction on train
    trees: list[RegressionTree] = []
    for _ in range(n_trees):
        p = sigmoid(scores)
        residuals = y - p
        hessians = p * (1.0 - p)
        trees.append(RegressionTree(build(residuals, hessians, fitted)))
        scores += shrinkage * fitted
    return GbmModel(base_score, trees, shrinkage, max_depth, train.features.shape[1])


def gbm_predict(model: GbmModel, features) -> np.ndarray:
    """Per-row probability of being synthetic."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise ValueError(
            f"features have {features.shape[-1] if features.ndim else '?'} "
            f"columns, model was fit on {model.n_features}"
        )
    scores = np.full(features.shape[0], model.base_score)
    for tree in model.trees:
        scores += model.shrinkage * tree.predict(features)
    return sigmoid(scores)


def feature_importance(model: GbmModel) -> np.ndarray:
    """Total split gain per feature, normalized to sum 1 (all-zero if the
    ensemble never split)."""
    totals = np.zeros(model.n_features)
    for tree in model.trees:
        for node in tree.iter_nodes():
            if not node.is_leaf:
                totals[node.feature] += node.gain
    s = totals.sum()
    return totals / s if s > 0 else totals


def roc_auc(scores_real, scores_synth) -> tuple[float, list[tuple[float, float]]]:
    """AUC (Mann-Whitney form, ties count 1/2) plus the ROC staircase.

    AUC is the probability that a synthetic sample outranks a real one. ROC
    points come from sweeping thresholds over the distinct scores, from
    (0, 0) to (1, 1).
    """
    real = np.asarray(scores_real, dtype=np.float64).ravel()
    synth = np.asarray(scores_synth, dtype=np.float64).ravel()
    if real.size == 0 or synth.size == 0:
        raise ValueError("both score sets must be nonempty")
    n_r, n_s = real.size, synth.size
    _, inverse, counts = np.unique(
        np.concatenate([real, synth]), return_inverse=True, return_counts=True
    )
    # tied scores share the mean of the 1-based ranks they span
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    u = midranks[inverse[n_r:]].sum() - n_s * (n_s + 1) / 2.0
    auc = u / (n_s * n_r)

    # thresholds sweep the distinct scores from the highest down
    synth_counts = np.bincount(inverse[n_r:], minlength=counts.size)
    tp = np.cumsum(synth_counts[::-1])
    fp = np.cumsum((counts - synth_counts)[::-1])
    points = [(0.0, 0.0)] + list(zip((fp / n_r).tolist(), (tp / n_s).tolist()))
    return float(auc), points


def rmse_quality(real, synth) -> tuple[float, float]:
    """Two divergence numbers for matrices in normalized [0, 1] space.

    rmse_means compares per-feature means; rmse_hist compares per-feature
    32-bin frequency vectors (bins span [0, 1], frequencies normalized by
    each matrix's row count).
    """
    real = np.asarray(real, dtype=np.float64)
    synth = np.asarray(synth, dtype=np.float64)
    if real.ndim != 2 or synth.ndim != 2 or real.shape[1] != synth.shape[1]:
        raise ValueError(
            f"width mismatch: real {real.shape} vs synth {synth.shape}"
        )
    mean_gap = real.mean(axis=0) - synth.mean(axis=0)
    rmse_means = float(np.sqrt(np.mean(mean_gap**2)))

    d = real.shape[1]
    gaps = np.empty((d, HISTOGRAM_BINS))
    for j in range(d):
        freq_real = np.histogram(real[:, j], bins=HISTOGRAM_BINS, range=(0.0, 1.0))[0]
        freq_synth = np.histogram(synth[:, j], bins=HISTOGRAM_BINS, range=(0.0, 1.0))[0]
        gaps[j] = freq_real / real.shape[0] - freq_synth / synth.shape[0]
    rmse_hist = float(np.sqrt(np.mean(gaps**2)))
    return rmse_means, rmse_hist


@dataclass
class FeatureHistogram:
    """Paired 32-bin counts for one feature over the union value range."""

    feature: str
    edges: list[float]
    count_real: list[int]
    count_synth: list[int]


def default_histogram_features(feature_names) -> list[str]:
    preferred = [f for f in PREFERRED_HISTOGRAM_FEATURES if f in feature_names]
    if preferred:
        return preferred
    return list(feature_names)[:4]


def histogram_compare(
    real, synth, feature_names, selected=None
) -> list[FeatureHistogram]:
    """Paired histograms on the union range of both inputs.

    ``selected`` must be a subset of ``feature_names``; by default the
    preferred flow features are used when present, otherwise the first few
    columns. Single-valued features put all mass in one bin.
    """
    real = np.asarray(real, dtype=np.float64)
    synth = np.asarray(synth, dtype=np.float64)
    names = list(feature_names)
    if real.shape[1] != len(names) or synth.shape[1] != len(names):
        raise ValueError(
            f"matrices with {real.shape[1]}/{synth.shape[1]} columns do not "
            f"match {len(names)} feature names"
        )
    if selected is None:
        selected = default_histogram_features(names)
    unknown = [f for f in selected if f not in names]
    if unknown:
        raise ValueError(f"unknown features {unknown}; candidates: {names}")

    out = []
    for name in selected:
        j = names.index(name)
        lo = float(min(real[:, j].min(), synth[:, j].min()))
        hi = float(max(real[:, j].max(), synth[:, j].max()))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        count_real, edges = np.histogram(real[:, j], HISTOGRAM_BINS, range=(lo, hi))
        count_synth, _ = np.histogram(synth[:, j], HISTOGRAM_BINS, range=(lo, hi))
        out.append(
            FeatureHistogram(
                name, edges.tolist(), count_real.tolist(), count_synth.tolist()
            )
        )
    return out


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol knobs (classifier size and holdout fraction)."""

    n_trees: int = 100
    max_depth: int = 3
    shrinkage: float = 0.1
    holdout_fraction: float = 0.3
    histogram_features: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_count("n_trees", self.n_trees, 0)
        check_count("max_depth", self.max_depth, 1)
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in (0, 1], got {self.shrinkage}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "EvalConfig":
        return config_from_dict(cls, data)


@dataclass
class QualityReport:
    """Everything the evaluation produces, serializable to JSON."""

    rmse_means: float
    rmse_hist: float
    auc: float
    roc_points: list[tuple[float, float]]
    importances: dict[str, float]
    histograms: list[FeatureHistogram]
    n_real: int
    n_synth: int

    @classmethod
    def from_dict(cls, data: dict) -> "QualityReport":
        """``read_json`` decoder; coerces or checks every field a report
        formats, so a wrongly typed one fails here rather than mid-report."""
        for key in ("rmse_means", "rmse_hist", "auc"):
            data[key] = float(data[key])
        data["importances"] = {k: float(v) for k, v in data["importances"].items()}
        data["roc_points"] = [tuple(p) for p in data["roc_points"]]
        data["histograms"] = [FeatureHistogram(**h) for h in data["histograms"]]
        if not all(isinstance(h.feature, str) for h in data["histograms"]):
            raise DataError("a histogram 'feature' is not a string")
        if not all(isinstance(data[k], int) for k in ("n_real", "n_synth")):
            raise DataError("'n_real' and 'n_synth' must be integers")
        return cls(**data)


def _stratified_split(labels: np.ndarray, holdout_fraction: float, rng):
    """Index split keeping both classes in both parts.

    When the classes have equal counts the same permutation is applied to
    both, so row i of each class lands on the same side. For generated data
    the pairing is an arbitrary coupling of independent rows; for a
    synthetic set that mirrors the real rows one-to-one it keeps each
    duplicate pair together, which stops the classifier from scoring
    holdout rows against their memorized twins.
    """
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    if idx0.size == idx1.size:
        perms = [rng.permutation(idx0.size)] * 2
    else:
        perms = [rng.permutation(idx0.size), rng.permutation(idx1.size)]
    train_idx: list[np.ndarray] = []
    hold_idx: list[np.ndarray] = []
    for idx, perm in zip((idx0, idx1), perms):
        shuffled = idx[perm]
        k = int(np.floor(holdout_fraction * idx.size + 0.5))
        k = min(max(k, 1), idx.size - 1) if idx.size > 1 else k
        hold_idx.append(shuffled[:k])
        train_idx.append(shuffled[k:])
    return np.concatenate(train_idx), np.concatenate(hold_idx)


def evaluate(
    real: DatasetMatrix,
    synth: np.ndarray,
    config: EvalConfig,
    rng: np.random.Generator,
) -> QualityReport:
    """Score a synthetic batch against real data.

    Fits the classifier on a stratified 70/30-style split (real = 0,
    synthetic = 1), reports ROC/AUC on the holdout, RMSE divergences on the
    full normalized matrices, and paired histograms in denormalized feature
    units.
    """
    synth = np.asarray(synth, dtype=np.float64)
    if synth.ndim != 2 or synth.shape[1] != real.features.shape[1]:
        raise ValueError(
            f"synthetic matrix {synth.shape} does not match real width "
            f"{real.features.shape[1]}"
        )
    if real.n_rows == 0 or synth.shape[0] == 0:
        raise ValueError("real and synthetic sets must be nonempty")

    rmse_means, rmse_hist = rmse_quality(real.features, synth)

    names = real.schema.feature_names()
    histograms = histogram_compare(
        denormalize(real.features, real.stats),
        denormalize(synth, real.stats),
        names,
        selected=config.histogram_features,
    )

    features = np.vstack([real.features, synth])
    labels = np.concatenate(
        [np.zeros(real.n_rows, np.int64), np.ones(synth.shape[0], np.int64)]
    )
    train_idx, hold_idx = _stratified_split(labels, config.holdout_fraction, rng)
    model = gbm_fit(
        LabeledSet(features[train_idx], labels[train_idx]),
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        shrinkage=config.shrinkage,
    )
    hold_scores = gbm_predict(model, features[hold_idx])
    hold_labels = labels[hold_idx]
    auc, roc_points = roc_auc(
        hold_scores[hold_labels == 0], hold_scores[hold_labels == 1]
    )
    importances = dict(zip(names, feature_importance(model).tolist()))
    return QualityReport(
        rmse_means=rmse_means,
        rmse_hist=rmse_hist,
        auc=auc,
        roc_points=roc_points,
        importances=importances,
        histograms=histograms,
        n_real=real.n_rows,
        n_synth=int(synth.shape[0]),
    )
