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
rounds. A node's block holds, for every feature, the node's rows in that
feature's sorted order as int32 (row id, dense rank) pairs: a threshold
sits wherever the rank rises, and its value is read back from the fit
matrix. A split gives each child a stable partition of its parent's block,
and the parent's block is freed before its children are searched. One
``split_search`` call per node then scans all features with one cumulative
sum per feature. Those sums run in the order a fresh stable sort of the
node's rows would give, so the trees are bit for bit those of a per-node
sort.

A fit of at least :data:`_FIT_WORKER_CELLS` cells runs on two cores, split
by feature as XGBoost's column blocks allow (:func:`_grow_trees`): a forked
worker runs the same boosting rounds, presorting and searching half of the
features, so only splits cross, and a tie across the halves still goes to
the smaller feature index: the trees are the same bit for bit. The
goldeneye benchmark's fit, 3,392 x 78 with 10 trees, took 160 ms instead
of 248 ms in one process (in-process, median of 9).

In each process a fit's numpy allocations peak at about 35 bytes per cell
of its own features beyond the fit matrix: 8 for the root block, 12 for
the search's scratch (three float64 rows of half the root block each), and
the rest for the blocks of nodes still to grow. With two processes each
holds about half of that. On goldeneye's fit that is 9.2 MB in one
process; float64 value blocks with int64 row ids took 22.2 MB (84 bytes
per cell).

``evaluate`` leaves each class in the matrix it arrived in: the fit matrix is
the only copy it makes before the fit, and each class's holdout is scored
on its own after it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dataio import DataError, DatasetMatrix, check_count, check_finite
from .worker import forked

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
    """Float64 feature matrix and one label per row: 0 = real, 1 = synthetic."""

    features: np.ndarray
    labels: np.ndarray


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# A block entry: a row id and that row's dense rank in the block's feature.
# Both fields are little-endian, so an entry read as one little-endian int64
# word holds the row id in its low 32 bits.
BLOCK_ENTRY = np.dtype([("row", "<i4"), ("rank", "<i4")])


def _row_id_passes(block, space):
    """Yield ``(lo, hi, ids)`` for consecutive feature ranges of ``block``:
    ``ids`` holds the row ids of features ``lo:hi`` as intp in ``space``, a
    float64 scratch row of at least ``block.shape[1]`` cells, with as many
    features per pass as it fits. ``np.take`` reads intp indices in place;
    int32 ones it would first copy to intp."""
    d, m = block.shape
    words = block.view("<i8")
    space = space.view(np.intp)
    per_pass = max(1, space.size // m)
    for lo in range(0, d, per_pass):
        hi = min(lo + per_pass, d)
        ids = space[: (hi - lo) * m].reshape(hi - lo, m)
        np.bitwise_and(words[lo:hi], 0xFFFFFFFF, out=ids)
        yield lo, hi, ids


def split_search(features, block, residuals, hessians, work):
    """Best (feature, threshold, gain) over every feature of one node, or
    None if no feature has a threshold.

    Row j of ``block`` holds the node's rows (at least two) as
    ``BLOCK_ENTRY`` pairs in ascending order of feature j, ties in
    ascending row id: each row's id and its dense rank in feature j (equal
    values share a rank; NaNs, sorted last, rank -1). A threshold sits
    wherever the rank rises, at the midpoint of the two values there, read
    from ``features``, the fit matrix;
    gain = (sum r_L)^2/(sum h_L) + (sum r_R)^2/(sum h_R) - (sum r)^2/(sum h),
    with the sums taken in each feature's sorted order. Ties keep the
    smallest threshold, then the smallest feature index. A feature with no
    threshold, or whose best gain is NaN, is skipped. The gain is returned
    even when it is not positive.

    ``work`` is float64 scratch space of shape (3, k) with k >= the node's
    row count. The features are searched in passes of as many as fit in k
    cells: per pass, row 2 holds first the row ids and then the gains, and
    rows 0 and 1 the cumulative residual and hessian sums.
    """
    d, m = block.shape
    ranks = block["rank"]
    best = np.empty(d)
    at = np.empty(d, dtype=np.intp)
    for lo, hi, ids in _row_id_passes(block, work[2]):
        cum_r, cum_h = (w[: ids.size].reshape(ids.shape) for w in work[:2])
        # row ids are in range; "clip" lets take write straight into out
        # instead of filling a checked temporary first
        np.take(residuals, ids, out=cum_r, mode="clip")
        np.take(hessians, ids, out=cum_h, mode="clip")
        np.cumsum(cum_r, axis=1, out=cum_r)
        np.cumsum(cum_h, axis=1, out=cum_h)
        total_r, total_h = cum_r[:, -1:], cum_h[:, -1:]
        left_r, left_h = cum_r[:, :-1], cum_h[:, :-1]
        # the ids are spent; their row takes the gains, contiguous for argmax
        gains = work[2, : left_r.size].reshape(left_r.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(total_r, left_r, out=gains)  # sum r_R
            np.square(gains, out=gains)
            np.square(left_r, out=left_r)
            left_r /= left_h
            np.subtract(total_h, left_h, out=left_h)  # now sum h_R
            gains /= left_h
            gains += left_r
            gains -= total_r**2 / total_h
        gains[ranks[lo:hi, :-1] >= ranks[lo:hi, 1:]] = -np.inf  # no rise, no threshold
        at[lo:hi] = gains.argmax(axis=1)  # first max per feature; a NaN wins it
        best[lo:hi] = gains[np.arange(hi - lo), at[lo:hi]]
    best[np.isnan(best)] = -np.inf
    if not (best > -np.inf).any():
        return None
    feature = int(np.argmax(best))
    below, above = block["row"][feature, at[feature] : at[feature] + 2]
    threshold = (features[below, feature] + features[above, feature]) / 2.0
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


# Fit cells (rows x features) from which gbm_fit splits its features
# between two processes. A fork and the reap of an idle worker take about
# 3 ms, and each searched node waits for the slower half and a pipe round
# trip. Timed in-process on tie-heavy random fits of depth 3, one process
# against two (median of 9, on a shared 2-core Xeon VM): 3392 x 78
# with 10 trees (goldeneye's size) 302 -> 184 ms, 2030 x 78 with 5 trees
# 110 -> 76 ms, 800 x 78 48 -> 41 ms, 640 x 78 41 -> 42 ms, 400 x 78
# 28 -> 32 ms, and 120 x 5 with 8 trees 11 -> 19 ms. Every tree matched.
_FIT_WORKER_CELLS = 64_000


def _half_builder(features, start, stop, max_depth, choose):
    """Tree grower for features ``start:stop`` of one fit, in one process of
    :func:`_grow_trees`: ``build(residuals, hessians, fitted) -> TreeNode``
    grows one round's tree. ``build`` also writes each row's leaf value into
    ``fitted``, which is then the tree's prediction on the fit matrix.

    Every feature column of ``start:stop`` is stable-sorted once, here,
    into the root block: one row per feature of (row id, dense rank)
    entries in sorted order. A node holds its row ids in ascending order
    (``idx``, for the leaf value) and its block. At each node that may
    split, ``choose`` gets the best split of these features, its feature
    indexed in the fit matrix, and returns the node's split, the best of
    every feature. A split hands each child a stable partition of the
    block, so every node sums in the order a fresh stable sort of its rows
    would give. A node's block is dropped once its children's are made, and
    nodes at ``max_depth - 1`` make none, since their children are leaves.
    """
    n_rows = features.shape[0]
    view = features[:, start:stop]
    n_features = stop - start
    root = np.empty((n_features, n_rows), dtype=BLOCK_ENTRY)
    for j, column in enumerate(view.T):
        order = np.argsort(column, kind="stable")
        root["row"][j] = order
        ranks = root["rank"][j]
        ranks[0] = 0
        ordered = column[order]
        np.cumsum(ordered[:-1] < ordered[1:], out=ranks[1:], dtype=np.int32)
        ranks[np.isnan(ordered)] = -1  # NaNs sort last; no rank rises into one
    # split_search's scratch: the root is searched in two passes
    work = np.empty((3, -(-n_features // 2) * n_rows))
    goes_left = np.empty(n_rows, dtype=bool)

    def partition(block, idx, left):
        """The children's blocks, [left, right]: the entries of ``block``
        whose rows go left, then the others, each in block order."""
        goes_left[idx] = left
        n_left = int(np.count_nonzero(left))
        words = block.view("<i8")  # an entry moves as one word
        children = [
            np.empty((n_features, k), "<i8") for k in (n_left, idx.size - n_left)
        ]
        # flatnonzero + take copies a side about 4x faster than boolean
        # indexing (words[keep]) on these masks; passes of an eighth of the
        # features bound its int64 index to an eighth of the block
        space = work[2, : -(-n_features // 8) * idx.size]
        for lo, hi, ids in _row_id_passes(block, space):
            keep = goes_left.take(ids, mode="clip")
            source = words[lo:hi].reshape(-1)
            for child, side in zip(children, (keep, ~keep)):
                out = child[lo:hi].reshape(-1)
                np.take(source, np.flatnonzero(side), out=out, mode="clip")
        return [child.view(BLOCK_ENTRY) for child in children]

    def build(residuals, hessians, fitted) -> TreeNode:
        tree = TreeNode()
        # depth first, left subtree first. Only a node's pending entry, and
        # then the loop variables, refer to its block, so the block is freed
        # when the next node is popped.
        pending = [(tree, np.arange(n_rows), root, 0)]
        while pending:
            node, idx, block, depth = pending.pop()
            node.value = float(residuals[idx].sum() / hessians[idx].sum())
            found = None
            if depth < max_depth and idx.size >= 2:
                found = split_search(view, block, residuals, hessians, work)
                if found is not None:
                    found = (found[0] + start, *found[1:])
                found = choose(found)
            if found is None or found[2] <= 0.0:  # a split needs gain > 0
                fitted[idx] = node.value
                continue
            node.feature, node.threshold, node.gain = found
            node.left, node.right = TreeNode(), TreeNode()
            left = features[idx, node.feature] <= node.threshold
            blocks = [None, None]
            if depth + 1 < max_depth:  # children at max_depth are leaves
                blocks = partition(block, idx, left)
            pending.append((node.right, idx[~left], blocks.pop(), depth + 1))
            pending.append((node.left, idx[left], blocks.pop(), depth + 1))
        return tree

    return build


def _grow_trees(features, max_depth, rounds) -> list[RegressionTree]:
    """One tree per boosting round of ``rounds(fitted)``, a generator of
    each round's ``(residuals, hessians)``; before it resumes, the round's
    tree has written its prediction on the fit matrix into ``fitted``.

    A fit of at least two features and :data:`_FIT_WORKER_CELLS` cells runs
    in two processes: a worker made with ``os.fork`` (:func:`.worker.forked`)
    owns features ``d//2:``, and this process the others. Each presorts its
    own features, keeps their blocks and its own search scratch, and runs
    the same rounds on its own ``fitted``. At each node both search their
    own features; the worker's best wins only if its gain is strictly
    greater, so a tie keeps the smaller feature index, as one
    ``split_search`` over every feature would. The chosen split goes down,
    the only message of a node, and each process partitions its own blocks
    by it. Every gain, threshold, leaf value and round is computed as in one
    process, so the trees are bit for bit the same. Smaller fits, and any
    fit without ``os.fork``, run here alone.
    """
    n_rows, d = features.shape

    def grow(start, stop, choose):
        build = _half_builder(features, start, stop, max_depth, choose)
        fitted = np.empty(n_rows)
        return [RegressionTree(build(*round_, fitted)) for round_ in rounds(fitted)]

    if d < 2 or features.size < _FIT_WORKER_CELLS or not hasattr(os, "fork"):
        return grow(0, d, lambda found: found)
    half = d // 2

    def serve(channel):
        def choose(found):
            channel.send(found)
            return channel.receive()

        grow(half, d, choose)

    with forked(serve, "searching split features") as worker:

        def choose(found):
            theirs = worker.receive()
            if theirs is not None and (found is None or theirs[2] > found[2]):
                found = theirs
            worker.send(found)
            return found

        return grow(0, half, choose)


@dataclass
class GbmModel:
    """Boosted logistic ensemble: sigmoid(base + shrinkage * sum(trees))."""

    base_score: float
    trees: list[RegressionTree]
    shrinkage: float
    n_features: int


def gbm_fit(train: LabeledSet, config: EvalConfig) -> GbmModel:
    """Boost ``config.n_trees`` regression trees of at most
    ``config.max_depth`` levels on the logistic loss.

    Each round fits a tree to the residual (label - predicted probability)
    with hessian weights p*(1-p), and adds it scaled by ``config.shrinkage``.
    The rounds are one generator, which :func:`_grow_trees` runs in each
    process of the fit, so both hold the same scores. Fitting is fully
    deterministic, in one process or two. A worker that fails raises
    ``OSError("the worker searching split features ...")``, and is reaped
    on every path.
    """
    y = train.labels.astype(np.float64)
    if y.min() == y.max():
        raise ValueError("training set must contain both classes")
    prior = float(y.mean())
    base_score = float(np.log(prior / (1.0 - prior)))

    def rounds(fitted):
        scores = np.full(y.shape, base_score)
        for _ in range(config.n_trees):
            p = sigmoid(scores)
            yield y - p, p * (1.0 - p)
            scores += config.shrinkage * fitted  # the round's tree on the fit matrix

    # the features never change between rounds: one presort serves all trees
    trees = _grow_trees(train.features, config.max_depth, rounds)
    return GbmModel(base_score, trees, config.shrinkage, train.features.shape[1])


def gbm_predict(model: GbmModel, features) -> np.ndarray:
    """Per-row probability of being synthetic for a float64 matrix as wide
    as the fit matrix."""
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
    each matrix's row count). Both are float64 matrices of one width, every
    value in [0, 1], as :func:`evaluate` checks.
    """
    mean_gap = real.mean(axis=0) - synth.mean(axis=0)
    rmse_means = float(np.sqrt(np.mean(mean_gap**2)))

    gaps = _unit_bin_counts(real) / real.shape[0] - _unit_bin_counts(synth) / synth.shape[0]
    rmse_hist = float(np.sqrt(np.mean(gaps**2)))
    return rmse_means, rmse_hist


def _unit_bin_counts(matrix: np.ndarray) -> np.ndarray:
    """Each column's counts in HISTOGRAM_BINS equal bins over [0, 1], one row
    per column; the last bin is closed, as in ``np.histogram``.

    The edges k/HISTOGRAM_BINS and x * HISTOGRAM_BINS are exact in binary
    floating point (HISTOGRAM_BINS is a power of two), so flooring puts
    every value in the same bin as ``np.histogram`` does.
    """
    bins = np.minimum(np.floor(matrix * HISTOGRAM_BINS), HISTOGRAM_BINS - 1).astype(np.intp)
    bins += HISTOGRAM_BINS * np.arange(matrix.shape[1])
    counts = np.bincount(bins.ravel(), minlength=bins.shape[1] * HISTOGRAM_BINS)
    return counts.reshape(-1, HISTOGRAM_BINS)


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


def _histogram_range(lo: float, hi: float) -> tuple[float, float]:
    """The range to bin ``[lo, hi]`` on: the range itself (widened by 0.5
    each way when empty) wherever ``np.histogram`` can cut it into
    HISTOGRAM_BINS finite-sized bins, as it tests that. A range too narrow
    for float64 bins (a constant of 2**48 or more, or [1e17, 1e17 + 64])
    is widened about its midpoint to 128 float spacings each way."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    if (edges[:-1] < edges[1:]).all():
        return lo, hi
    mid = lo / 2 + hi / 2
    half = 4 * HISTOGRAM_BINS * float(np.spacing(max(abs(lo), abs(hi))))
    return mid - half, mid + half


def histogram_compare(
    real, synth, stats, feature_names, selected=None
) -> list[FeatureHistogram]:
    """Paired histograms in feature units on the union range of both inputs.

    ``real`` and ``synth`` are normalized, one column per feature name; only
    the selected columns are mapped to feature units with ``stats``, as
    ``dataio.denormalize`` maps them. ``selected`` must be a subset of
    ``feature_names``; by default the preferred flow features are used when
    present, otherwise the first few columns. Single-valued features put all
    mass in one bin.
    """
    names = list(feature_names)
    if selected is None:
        selected = default_histogram_features(names)
    unknown = [f for f in selected if f not in names]
    if unknown:
        raise ValueError(f"unknown features {unknown}; candidates: {names}")

    out = []
    for name in selected:
        j = names.index(name)
        scale, shift = stats.col_max[j] - stats.col_min[j], stats.col_min[j]
        real_j, synth_j = (m[:, j] * scale + shift for m in (real, synth))
        lo = float(min(real_j.min(), synth_j.min()))
        hi = float(max(real_j.max(), synth_j.max()))
        span = _histogram_range(lo, hi)
        count_real, edges = np.histogram(real_j, HISTOGRAM_BINS, range=span)
        count_synth, _ = np.histogram(synth_j, HISTOGRAM_BINS, range=span)
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
        check_finite("shrinkage", self.shrinkage)
        check_finite("holdout_fraction", self.holdout_fraction)
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError(f"shrinkage must be in (0, 1], got {self.shrinkage}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        names = self.histogram_features
        if names is not None and not (
            isinstance(names, (list, tuple)) and all(isinstance(f, str) for f in names)
        ):
            raise ValueError(f"histogram_features must be null or a list of names: {names!r}")


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
        """``read_json`` decoder; checks every field a report formats against
        what :func:`evaluate` writes (finite numbers, counts of at least one),
        so a wrong one fails here rather than printing into the report."""
        for key in ("rmse_means", "rmse_hist", "auc"):
            check_finite(key, data[key])
        for name, weight in data["importances"].items():
            check_finite(f"importance of {name!r}", weight)
        data["roc_points"] = [tuple(p) for p in data["roc_points"]]
        data["histograms"] = [FeatureHistogram(**h) for h in data["histograms"]]
        if not all(isinstance(h.feature, str) for h in data["histograms"]):
            raise DataError("a histogram 'feature' is not a string")
        for key in ("n_real", "n_synth"):
            check_count(key, data[key], 1)
        return cls(**data)


def _stratified_split(sizes, holdout_fraction: float, rng):
    """Per class, the ``(fit, holdout)`` row indices of a split keeping both
    classes in both parts; ``sizes`` holds the real and synthetic row counts.

    When the classes have equal counts the same permutation is applied to
    both, so row i of each class lands on the same side. For generated data
    the pairing is an arbitrary coupling of independent rows; for a
    synthetic set that mirrors the real rows one-to-one it keeps each
    duplicate pair together, which stops the classifier from scoring
    holdout rows against their memorized twins.
    """
    if sizes[0] == sizes[1]:
        perms = [rng.permutation(sizes[0])] * 2
    else:
        perms = [rng.permutation(n) for n in sizes]
    splits = []
    for perm in perms:
        k = int(np.floor(holdout_fraction * perm.size + 0.5))
        k = min(max(k, 1), perm.size - 1) if perm.size > 1 else k
        splits.append((perm[k:], perm[:k]))
    return splits


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
    units. The fit matrix is the only copy it makes before the fit.

    A column of zero span in ``real.stats`` is scored as ``synthetic.csv``
    holds it, its one value, which normalized is 0: its synthetic cells are
    set to 0, in ``synth`` itself, before anything is scored.
    """
    synth = np.asarray(synth, dtype=np.float64)
    if synth.ndim != 2 or synth.shape[1] != real.features.shape[1]:
        raise ValueError(
            f"synthetic matrix {synth.shape} does not match real width "
            f"{real.features.shape[1]}"
        )
    # a NaN fails too; DatasetMatrix has checked the real rows the same way
    if not ((synth >= 0.0) & (synth <= 1.0)).all():
        raise ValueError("synthetic values must lie in [0, 1]")
    if real.n_rows == 0 or synth.shape[0] == 0:
        raise ValueError("real and synthetic sets must be nonempty")
    synth[:, real.stats.col_max == real.stats.col_min] = 0.0

    rmse_means, rmse_hist = rmse_quality(real.features, synth)

    names = real.schema.feature_names()
    histograms = histogram_compare(
        real.features, synth, real.stats, names, selected=config.histogram_features
    )

    (fit_real, hold_real), (fit_synth, hold_synth) = _stratified_split(
        (real.n_rows, synth.shape[0]), config.holdout_fraction, rng
    )
    train = LabeledSet(
        np.concatenate((real.features[fit_real], synth[fit_synth])),
        np.repeat([0, 1], (fit_real.size, fit_synth.size)),
    )
    model = gbm_fit(train, config)
    auc, roc_points = roc_auc(
        gbm_predict(model, real.features[hold_real]),
        gbm_predict(model, synth[hold_synth]),
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
