import json
import math
import os
import signal
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthflow import dataio, evaluator, worker
from synthflow.evaluator import (
    BLOCK_ENTRY,
    HISTOGRAM_BINS,
    EvalConfig,
    FeatureHistogram,
    GbmModel,
    LabeledSet,
    QualityReport,
    RegressionTree,
    TreeNode,
    default_histogram_features,
    evaluate,
    feature_importance,
    gbm_fit,
    gbm_predict,
    histogram_compare,
    rmse_quality,
    roc_auc,
    sigmoid,
    split_search,
    _unit_bin_counts,
)

from helpers import act_in_the_worker, count_forks, leaves_nothing_open, toy_attack_dataset


# ------------------------------------------------------------- split search

def brute_force_split(values, residuals, hessians):
    v = np.asarray(values, float)
    r = np.asarray(residuals, float)
    h = np.asarray(hessians, float)
    distinct = np.unique(v)
    if distinct.size < 2:
        return None
    total = r.sum() ** 2 / h.sum()
    best = None
    for lo, hi in zip(distinct, distinct[1:]):
        thr = (lo + hi) / 2.0
        left = v <= thr
        gain = (
            r[left].sum() ** 2 / h[left].sum()
            + r[~left].sum() ** 2 / h[~left].sum()
            - total
        )
        if best is None or gain > best[1]:
            best = (thr, gain)
    return best


def brute_force_node_split(columns, residuals, hessians):
    """(feature, threshold, gain) of the best single-feature split; the
    first feature wins a tie."""
    best = None
    for j, column in enumerate(np.asarray(columns, float).T):
        found = brute_force_split(column, residuals, hessians)
        if found is not None and (best is None or found[1] > best[2]):
            best = (j, *found)
    return best


def search_node(columns, residuals, hessians):
    """split_search on a node holding every row of ``columns`` (n x d), with
    scratch for one feature per pass."""
    x = np.asarray(columns, float)
    block = np.empty(x.T.shape, dtype=BLOCK_ENTRY)
    block["row"] = np.argsort(x.T, axis=1, kind="stable")
    ordered = np.take_along_axis(x.T, block["row"], axis=1)
    block["rank"][:, 0] = 0
    block["rank"][:, 1:] = np.cumsum(ordered[:, :-1] < ordered[:, 1:], axis=1)
    return split_search(
        x, block, np.asarray(residuals, float), np.asarray(hessians, float),
        np.empty((3, x.shape[0])),
    )


def search_one(values, residuals, hessians):
    """(threshold, gain) of split_search on one feature, or None."""
    found = search_node(np.asarray(values, float)[:, None], residuals, hessians)
    return None if found is None else found[1:]


def test_split_search_two_values():
    got = search_one([1.0, 2.0], [-1.0, 1.0], [0.25, 0.25])
    assert got is not None
    assert got[0] == 1.5


def test_split_search_identical_values_no_split():
    assert search_one([3.0, 3.0, 3.0], [1.0, -1.0, 0.0], [0.25] * 3) is None


def test_split_search_small_instance_matches_brute_force():
    values = [1.0, 2.0, 2.0, 4.0, 5.5, 7.0, 7.0, 9.0]
    residuals = [0.5, -0.25, 0.75, -0.5, 0.25, -0.75, 0.5, -0.25]
    hessians = [0.25, 0.125, 0.25, 0.1875, 0.25, 0.125, 0.25, 0.25]
    assert search_one(values, residuals, hessians) == brute_force_split(
        values, residuals, hessians
    )


@st.composite
def dyadic_split_instance(draw):
    n = draw(st.integers(2, 32))
    # dyadic rationals keep every partial sum exact, so both search paths
    # must agree bitwise
    values = draw(
        st.lists(st.integers(-16, 16).map(lambda k: k / 2.0), min_size=n, max_size=n)
    )
    residuals = draw(
        st.lists(st.integers(-16, 16).map(lambda k: k / 16.0), min_size=n, max_size=n)
    )
    hessians = draw(
        st.lists(
            st.sampled_from([0.0625, 0.125, 0.1875, 0.25]), min_size=n, max_size=n
        )
    )
    return values, residuals, hessians


@settings(deadline=None, max_examples=300)
@given(instance=dyadic_split_instance())
def test_split_search_matches_brute_force(instance):
    values, residuals, hessians = instance
    assert search_one(values, residuals, hessians) == brute_force_split(
        values, residuals, hessians
    )


def test_split_search_gain_is_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(2, 20)
        got = search_one(
            rng.normal(size=n), rng.normal(size=n), rng.uniform(0.01, 0.25, n)
        )
        if got is not None:
            assert got[1] >= 0.0


@st.composite
def dyadic_node_instance(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    grid = st.integers(-8, 8).map(lambda k: k / 2.0)
    columns = [draw(st.lists(grid, min_size=n, max_size=n)) for _ in range(d)]
    # a copy and an order-preserving image of a column give equal gains,
    # and a constant column has no threshold
    source = draw(st.integers(0, d - 1))
    columns.append(list(columns[source]))
    columns.append([2.0 * v + 1.0 for v in columns[source]])
    columns.append([0.5] * n)
    order = draw(st.permutations(range(len(columns))))
    residuals = draw(
        st.lists(st.integers(-16, 16).map(lambda k: k / 16.0), min_size=n, max_size=n)
    )
    hessians = draw(
        st.lists(
            st.sampled_from([0.0625, 0.125, 0.1875, 0.25]), min_size=n, max_size=n
        )
    )
    return np.array([columns[j] for j in order]).T, residuals, hessians


@settings(deadline=None, max_examples=300)
@given(instance=dyadic_node_instance())
def test_split_search_all_features_match_brute_force(instance):
    columns, residuals, hessians = instance
    assert search_node(columns, residuals, hessians) == brute_force_node_split(
        columns, residuals, hessians
    )


def test_split_search_tie_across_features_keeps_smaller_index():
    column = [1.0, 2.0, 3.0, 4.0]
    columns = np.array([[0.5] * 4, column, [10.0 * v for v in column], column]).T
    residuals = [-1.0, -1.0, 1.0, 1.0]
    got = search_node(columns, residuals, [0.25] * 4)
    assert got == (1, 2.5, 16.0)


def test_split_search_no_threshold_in_any_feature():
    residuals = [1.0, -1.0, 0.0, 0.5, 0.5]
    assert search_node(np.full((5, 3), 0.25), residuals, [0.25] * 5) is None


def test_split_search_skips_feature_with_nan_gain():
    # zero hessians on the first two rows: feature 0's first cut is 0/0
    columns = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 2.0]]).T
    residuals, hessians = [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.25, 0.25]
    assert math.isnan(reference_split_search(columns[:, 0], residuals, hessians)[1])
    assert search_node(columns, residuals, hessians) == (1, 1.5, 8.0)


# --------------------------------------------------- reference tree builder

def reference_split_search(values, residuals, hessians):
    """The per-node, per-feature search the presorted one replaced: best
    (threshold, gain) of one feature, sorting the node's values afresh."""
    v = np.asarray(values, dtype=np.float64)
    r = np.asarray(residuals, dtype=np.float64)
    h = np.asarray(hessians, dtype=np.float64)
    if v.size < 2:
        return None
    order = np.argsort(v, kind="stable")
    v, r, h = v[order], r[order], h[order]
    boundary = v[:-1] < v[1:]
    if not boundary.any():
        return None
    cum_r = np.cumsum(r)
    cum_h = np.cumsum(h)
    total_r, total_h = cum_r[-1], cum_h[-1]
    left_r, left_h = cum_r[:-1], cum_h[:-1]
    right_r, right_h = total_r - left_r, total_h - left_h
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = left_r**2 / left_h + right_r**2 / right_h - total_r**2 / total_h
    gains[~boundary] = -np.inf
    best = int(np.argmax(gains))
    threshold = (v[best] + v[best + 1]) / 2.0
    return float(threshold), float(gains[best])


def reference_build_tree(features, residuals, hessians, max_depth):
    def grow(idx, depth):
        node_r = residuals[idx]
        node_h = hessians[idx]
        value = float(node_r.sum() / node_h.sum())
        if depth >= max_depth or idx.size < 2:
            return TreeNode(value=value)
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for j in range(features.shape[1]):
            found = reference_split_search(features[idx, j], node_r, node_h)
            if found is None:
                continue
            threshold, gain = found
            if gain > best_gain:  # strict: earlier feature wins ties
                best_gain, best_feature, best_threshold = gain, j, threshold
        if best_feature < 0:
            return TreeNode(value=value)
        go_left = features[idx, best_feature] <= best_threshold
        return TreeNode(
            feature=best_feature, threshold=best_threshold, gain=best_gain,
            value=value,
            left=grow(idx[go_left], depth + 1),
            right=grow(idx[~go_left], depth + 1),
        )

    return grow(np.arange(features.shape[0]), 0)


def reference_trees(train, n_trees, max_depth, shrinkage=0.1):
    y = train.labels.astype(np.float64)
    prior = float(y.mean())
    scores = np.full(y.shape, float(np.log(prior / (1.0 - prior))))
    trees = []
    for _ in range(n_trees):
        p = sigmoid(scores)
        tree = RegressionTree(
            reference_build_tree(train.features, y - p, p * (1.0 - p), max_depth)
        )
        trees.append(tree)
        scores += shrinkage * tree.predict(train.features)
    return trees


def node_bits(tree):
    """Every node's structure and fields, floats by their exact bits."""
    return [
        (node.is_leaf, node.feature, node.threshold.hex(), node.gain.hex(),
         node.value.hex())
        for node in tree.iter_nodes()
    ]


BITWISE_CASES = [
    pytest.param(seed, max_depth, 5, id=f"{seed}-{max_depth}")
    for seed in (0, 1, 2)
    for max_depth in (1, 2, 3, 4)
] + [
    # deep, and wide enough that the root is searched in two passes
    pytest.param(3, 5, 64, id="3-5-wide"),
] + [
    # one process alone; a worker of one feature; uneven halves
    pytest.param(4, 3, n_columns, id=f"4-3-{n_columns}-columns")
    for n_columns in (1, 2, 3, 7)
]


@pytest.mark.parametrize("seed,max_depth,n_columns", BITWISE_CASES)
def test_gbm_trees_match_reference_builder_bitwise(monkeypatch, seed, max_depth, n_columns):
    rng = np.random.default_rng(seed)
    n = 120
    x = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 4, size=n) / 4.0,  # heavy ties
        np.full(n, 0.5),  # constant
        rng.uniform(size=n),
        rng.integers(0, 2, size=n).astype(float),
        # more columns of 2 to 9 tied levels
        *(rng.integers(0, k, size=n) / k for k in 2 + np.arange(n_columns - 5) % 8),
    ])
    if n_columns > 5:  # NaNs sort last and never start a threshold
        x[:, 5:][rng.uniform(size=(n, n_columns - 5)) < 0.03] = np.nan
    x[60:90] = x[:30]  # duplicate rows
    y = (x[:, 0] + x[:, 1] + 0.5 * rng.normal(size=n) > 0.5).astype(int)
    y[60:75] = 1 - y[:15]  # some duplicate rows carry both labels
    train = LabeledSet(x[:, :n_columns], y)
    want = [node_bits(t) for t in reference_trees(train, 8, max_depth)]
    counted = count_forks(monkeypatch)
    monkeypatch.setattr(evaluator, "_FIT_WORKER_CELLS", 0)  # a worker at any size
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        model = gbm_fit(train, EvalConfig(n_trees=8, max_depth=max_depth))
        assert [node_bits(t) for t in model.trees] == want
    assert len(counted) == (n_columns >= 2)


def test_gbm_fit_memory_is_bounded_per_fit_cell():
    # tracemalloc sees this process only, not the fit's worker
    train = tie_heavy_fit(2000, 78)
    x = train.features
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = gbm_fit(train, EvalConfig(n_trees=2, max_depth=3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(not t.root.is_leaf for t in model.trees)
    assert peak <= 40 * x.size + 128 * 1024, f"{peak / x.size:.1f} bytes per fit cell"


# ------------------------------------------------------- the fit's worker

def tie_heavy_fit(n, d, seed=0):
    """n rows of d tie-heavy features, column j of 2 + j % 6 levels; the
    label follows the first three columns."""
    rng = np.random.default_rng(seed)
    levels = 2 + np.arange(d) % 6
    x = rng.integers(0, levels, size=(n, d)) / levels
    y = (x[:, :3].sum(axis=1) + 0.3 * rng.normal(size=n) > 1.5).astype(int)
    return LabeledSet(x, y)


@pytest.mark.parametrize("n_rows, n_columns, forks", [
    (evaluator._FIT_WORKER_CELLS, 1, 0),  # no feature for a worker
    (evaluator._FIT_WORKER_CELLS // 2 - 1, 2, 0),  # just short
    (evaluator._FIT_WORKER_CELLS // 2, 2, 1),
])
def test_small_fits_run_in_one_process(monkeypatch, n_rows, n_columns, forks):
    counted = count_forks(monkeypatch)
    gbm_fit(tie_heavy_fit(n_rows, n_columns), EvalConfig(n_trees=1, max_depth=1))
    assert len(counted) == forks


def test_gbm_fit_without_fork_grows_the_same_trees(monkeypatch):
    train = tie_heavy_fit(1000, 78)  # above the size that forks
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        forked = gbm_fit(train, EvalConfig(n_trees=3))
    assert len(counted) == 1
    monkeypatch.delattr(os, "fork")
    alone = gbm_fit(train, EvalConfig(n_trees=3))
    assert [node_bits(t) for t in forked.trees] == [node_bits(t) for t in alone.trees]


def test_only_splits_go_down_to_the_fit_worker(monkeypatch):
    # the worker computes each round's residuals and hessians itself: no
    # message of this process holds a row-sized array
    parent, send, sent = os.getpid(), worker.Channel.send, []

    def recording(channel, obj):
        if os.getpid() == parent:
            sent.append(obj)
        send(channel, obj)

    monkeypatch.setattr(worker.Channel, "send", recording)
    train = tie_heavy_fit(1000, 78)  # above the size that forks
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        model = gbm_fit(train, EvalConfig(n_trees=3))
    assert len(counted) == 1
    splits = [node for t in model.trees for node in t.iter_nodes() if not node.is_leaf]
    assert sent and len(sent) >= len(splits)
    for obj in sent:
        assert obj is None or (
            isinstance(obj, tuple) and len(obj) == 3
            and type(obj[0]) is int and type(obj[1]) is float and type(obj[2]) is float
        ), f"not a split: {type(obj).__name__}"


def test_cross_half_tie_keeps_the_smaller_feature_index(monkeypatch):
    train = tie_heavy_fit(400, 6)
    train.features[:, 3] = train.features[:, 0]  # d // 2 copies 0: equal gains
    counted = count_forks(monkeypatch)
    monkeypatch.setattr(evaluator, "_FIT_WORKER_CELLS", 0)
    model = gbm_fit(train, EvalConfig(n_trees=4, max_depth=3))
    used = {node.feature for t in model.trees for node in t.iter_nodes() if not node.is_leaf}
    assert 0 in used and 3 not in used
    want = reference_trees(train, 4, 3)
    assert [node_bits(t) for t in model.trees] == [node_bits(t) for t in want]
    assert len(counted) == 1


def test_nan_gain_in_the_worker_half_only_is_skipped(monkeypatch):
    # zero hessians on rows 0 and 1. Features 2 and 3, the worker's, sort
    # them first, so their first cut is 0/0; features 0 and 1 sort them in
    # the middle, where every side holds a positive hessian
    features = np.array([
        [2.0, 2.0, 1.0, 1.0],
        [3.0, 3.0, 2.0, 1.0],
        [1.0, 4.0, 3.0, 2.0],
        [4.0, 1.0, 4.0, 3.0],
        [5.0, 5.0, 5.0, 4.0],
    ])
    residuals = np.array([0.0, 0.0, 1.0, -1.0, 0.5])
    hessians = np.array([0.0, 0.0, 0.25, 0.25, 0.25])
    for j in (2, 3):
        assert math.isnan(reference_split_search(features[:, j], residuals, hessians)[1])
    for j in (0, 1):
        _, gain = reference_split_search(features[:, j], residuals, hessians)
        assert not math.isnan(gain)
    want = node_bits(RegressionTree(reference_build_tree(features, residuals, hessians, 2)))
    counted = count_forks(monkeypatch)
    monkeypatch.setattr(evaluator, "_FIT_WORKER_CELLS", 0)
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        (tree,) = evaluator._grow_trees(features, 2, lambda fitted: [(residuals, hessians)])
        assert node_bits(tree) == want
    assert len(counted) == 1


def raise_runtime_error():
    raise RuntimeError("search failed")


@pytest.mark.parametrize("act, reason", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"exited with {-signal.SIGKILL}"),
    (raise_runtime_error, "failed: RuntimeError: search failed"),
], ids=["killed", "raises"])
def test_failed_fit_worker_raises_an_oserror_naming_it(monkeypatch, act, reason):
    act_in_the_worker(monkeypatch, evaluator, "split_search", act)
    with leaves_nothing_open():
        with pytest.raises(OSError, match=f"the worker searching split features {reason}"):
            gbm_fit(tie_heavy_fit(1000, 78), EvalConfig(n_trees=2))


def test_interrupted_fit_reaps_the_worker(monkeypatch):
    parent, search, calls = os.getpid(), evaluator.split_search, []

    def interrupted_on_the_third_node(*args):
        if os.getpid() == parent:
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
        return search(*args)

    monkeypatch.setattr(evaluator, "split_search", interrupted_on_the_third_node)
    counted = count_forks(monkeypatch)
    with leaves_nothing_open():
        # the traceback is held while the check runs
        with pytest.raises(KeyboardInterrupt) as caught:
            gbm_fit(tie_heavy_fit(1000, 78), EvalConfig(n_trees=2))
    assert caught.traceback and len(counted) == 1


# ---------------------------------------------------------------------- gbm

def test_gbm_rejects_single_class():
    with pytest.raises(ValueError, match="both classes"):
        gbm_fit(LabeledSet(np.zeros((4, 1)), np.zeros(4)), EvalConfig())


def test_gbm_separable_1d_holdout_accuracy():
    train_x = np.array([[-3.0], [-2.5], [-2.0], [-1.0], [1.0], [2.0], [2.5], [3.0]])
    train_y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = gbm_fit(LabeledSet(train_x, train_y), EvalConfig(n_trees=1, max_depth=2))
    hold_x = np.array([[-1.7], [-0.4], [0.6], [1.8]])
    hold_y = np.array([0, 0, 1, 1])
    pred = (gbm_predict(model, hold_x) > 0.5).astype(int)
    assert (pred == hold_y).all()


def test_gbm_constant_features_predict_prior():
    y = np.array([0, 0, 0, 1])
    model = gbm_fit(LabeledSet(np.full((4, 2), 0.5), y), EvalConfig(n_trees=20))
    probs = gbm_predict(model, np.array([[0.5, 0.5], [9.0, -9.0]]))
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_gbm_xor_training_accuracy():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, size=(200, 2))
    y = ((x[:, 0] > 0.5) ^ (x[:, 1] > 0.5)).astype(int)
    model = gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=50, max_depth=2))
    acc = ((gbm_predict(model, x) > 0.5).astype(int) == y).mean()
    assert acc >= 0.95


def test_gbm_training_logloss_non_increasing():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(int)
    model = gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=40))
    scores = np.full(60, model.base_score)

    def logloss(s):
        p = 1.0 / (1.0 + np.exp(-s))
        return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())

    prev = logloss(scores)
    for tree in model.trees:
        scores += model.shrinkage * tree.predict(x)
        cur = logloss(scores)
        assert cur <= prev + 1e-12
        prev = cur


def test_gbm_predict_zero_trees_gives_prior():
    model = GbmModel(base_score=math.log(0.25 / 0.75), trees=[], shrinkage=0.1,
                     n_features=2)
    probs = gbm_predict(model, np.zeros((3, 2)))
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_gbm_zero_leaf_tree_is_additive_identity():
    x = np.random.default_rng(0).normal(size=(10, 2))
    y = (x[:, 0] > 0).astype(int)
    model = gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=3))
    before = gbm_predict(model, x)
    model.trees.append(RegressionTree(TreeNode(value=0.0)))
    assert np.array_equal(gbm_predict(model, x), before)


def test_gbm_predict_hand_traced_two_trees():
    tree1 = RegressionTree(
        TreeNode(
            feature=0, threshold=0.5, gain=1.0,
            left=TreeNode(value=-1.0), right=TreeNode(value=2.0),
        )
    )
    tree2 = RegressionTree(TreeNode(value=0.5))
    model = GbmModel(base_score=0.2, trees=[tree1, tree2], shrinkage=0.1,
                     n_features=2)
    rows = np.array([[0.3, 9.0], [0.7, 9.0], [0.5, 0.0]])
    got = gbm_predict(model, rows)
    expected = [
        1.0 / (1.0 + math.exp(-(0.2 + 0.1 * (-1.0 + 0.5)))),
        1.0 / (1.0 + math.exp(-(0.2 + 0.1 * (2.0 + 0.5)))),
        1.0 / (1.0 + math.exp(-(0.2 + 0.1 * (-1.0 + 0.5)))),  # 0.5 goes left
    ]
    assert np.allclose(got, expected, atol=1e-15)


# ------------------------------------------------------------- importances

def test_importance_single_decisive_feature():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=40)
    x = np.column_stack([y.astype(float), np.full(40, 0.5), np.full(40, 0.5)])
    model = gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=5, max_depth=2))
    imp = feature_importance(model)
    assert imp.tolist() == [1.0, 0.0, 0.0]


def test_importance_no_split_model_is_all_zero():
    model = gbm_fit(
        LabeledSet(np.full((4, 2), 1.0), np.array([0, 0, 1, 1])), EvalConfig(n_trees=3)
    )
    assert feature_importance(model).tolist() == [0.0, 0.0]


def test_importance_normalized_and_nonnegative():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(80, 4))
    y = (x[:, 1] - x[:, 3] > 0).astype(int)
    imp = feature_importance(gbm_fit(LabeledSet(x, y), EvalConfig(n_trees=10)))
    assert (imp >= 0.0).all()
    assert abs(imp.sum() - 1.0) < 1e-12


# --------------------------------------------------------------------- auc

def pairwise_auc(scores_real, scores_synth):
    wins = 0.0
    for s in scores_synth:
        for r in scores_real:
            if s > r:
                wins += 1.0
            elif s == r:
                wins += 0.5
    return wins / (len(scores_real) * len(scores_synth))


def test_auc_perfect_separation():
    auc, _ = roc_auc([0.1], [0.9, 0.8])
    assert auc == 1.0


def test_auc_pure_ties():
    auc, points = roc_auc([0.5, 0.5], [0.5, 0.5])
    assert auc == 0.5
    assert points == [(0.0, 0.0), (1.0, 1.0)]


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 1_000_000),
    n_real=st.integers(1, 12),
    n_synth=st.integers(1, 12),
)
def test_auc_matches_pairwise_oracle(seed, n_real, n_synth):
    rng = np.random.default_rng(seed)
    real = rng.integers(0, 8, size=n_real) / 4.0  # coarse grid forces ties
    synth = rng.integers(0, 8, size=n_synth) / 4.0
    auc, _ = roc_auc(real, synth)
    assert auc == pairwise_auc(real.tolist(), synth.tolist())


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 1_000_000))
def test_auc_complement_and_monotone_invariance(seed):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=rng.integers(1, 10))
    synth = rng.normal(size=rng.integers(1, 10))
    auc, _ = roc_auc(real, synth)
    swapped, _ = roc_auc(synth, real)
    assert abs(auc + swapped - 1.0) < 1e-12
    transformed, _ = roc_auc(3.0 * real + 2.0, 3.0 * synth + 2.0)
    assert transformed == auc


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 1_000_000))
def test_roc_points_monotone_with_exact_endpoints(seed):
    rng = np.random.default_rng(seed)
    real = rng.integers(0, 5, size=rng.integers(1, 10)) / 2.0
    synth = rng.integers(0, 5, size=rng.integers(1, 10)) / 2.0
    _, points = roc_auc(real, synth)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        assert f1 >= f0 and t1 >= t0


def test_auc_requires_nonempty():
    with pytest.raises(ValueError):
        roc_auc([], [0.5])


# -------------------------------------------------------------------- rmse

def test_rmse_identity_is_zero():
    m = np.random.default_rng(0).uniform(size=(20, 3))
    assert rmse_quality(m, m.copy()) == (0.0, 0.0)


def test_rmse_means_hand_case():
    real = np.tile([0.2, 0.4], (10, 1))
    synth = np.tile([0.3, 0.5], (10, 1))
    rmse_means, _ = rmse_quality(real, synth)
    assert abs(rmse_means - 0.1) < 1e-15


def test_rmse_row_permutation_invariant():
    rng = np.random.default_rng(4)
    real = rng.uniform(size=(30, 2))
    synth = rng.uniform(size=(25, 2))
    base = rmse_quality(real, synth)
    permuted = rmse_quality(real, synth[rng.permutation(25)])
    assert abs(base[0] - permuted[0]) < 1e-12
    assert abs(base[1] - permuted[1]) < 1e-12


def test_rmse_histogram_matches_numpy_at_every_bin_edge():
    edges = np.arange(HISTOGRAM_BINS + 1) / HISTOGRAM_BINS
    values = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    values = values[(values >= 0.0) & (values <= 1.0)]
    real = np.stack([values, values[::-1], np.zeros_like(values)], axis=1)
    counts = _unit_bin_counts(real)
    for j in range(real.shape[1]):
        oracle = np.histogram(real[:, j], HISTOGRAM_BINS, (0.0, 1.0))[0]
        assert counts[j].tolist() == oracle.tolist()
    synth = np.random.default_rng(5).uniform(size=(40, 3))
    gaps = counts / len(real) - [
        np.histogram(synth[:, j], HISTOGRAM_BINS, (0.0, 1.0))[0] / len(synth)
        for j in range(3)
    ]
    assert rmse_quality(real, synth)[1] == float(np.sqrt(np.mean(gaps**2)))


# -------------------------------------------------------------- histograms

def unit_stats(width):
    """Stats under which feature units are the normalized values."""
    return dataio.NormalizationStats(np.zeros(width), np.ones(width))


def test_histogram_identical_inputs():
    m = np.random.default_rng(1).uniform(size=(50, 2))
    hists = histogram_compare(m, m.copy(), unit_stats(2), ["a", "b"], selected=["a"])
    assert len(hists) == 1
    assert hists[0].count_real == hists[0].count_synth


def test_histogram_counts_conserved():
    rng = np.random.default_rng(2)
    real = rng.normal(size=(40, 1))
    synth = rng.normal(size=(25, 1))
    hist = histogram_compare(real, synth, unit_stats(1), ["a"], selected=["a"])[0]
    assert sum(hist.count_real) == 40
    assert sum(hist.count_synth) == 25
    assert len(hist.edges) == len(hist.count_real) + 1


def test_histogram_single_value_feature_single_bin():
    m = np.full((10, 1), 3.0)
    hist = histogram_compare(m, m, unit_stats(1), ["a"], selected=["a"])[0]
    assert max(hist.count_real) == 10
    assert sum(1 for c in hist.count_real if c > 0) == 1


@pytest.mark.parametrize("real, synth", [
    (np.full((10, 1), 2.0**48), np.full((7, 1), 2.0**48)),
    (np.full((10, 1), 1e17), np.full((7, 1), 1e17 + 64)),
])
def test_histogram_range_too_narrow_for_float_bins_is_widened(real, synth):
    hist = histogram_compare(real, synth, unit_stats(1), ["a"], selected=["a"])[0]
    edges = np.array(hist.edges)
    assert len(edges) == HISTOGRAM_BINS + 1 and np.isfinite(edges).all()
    assert (edges[:-1] < edges[1:]).all()
    assert (sum(hist.count_real), sum(hist.count_synth)) == (10, 7)


@pytest.mark.parametrize("value", [3.0, 2.0**47, -(2.0**47)])
def test_histogram_keeps_every_range_numpy_accepts(value):
    m = np.full((4, 1), value)
    hist = histogram_compare(m, m, unit_stats(1), ["a"], selected=["a"])[0]
    edges = np.histogram(m, HISTOGRAM_BINS, range=(value - 0.5, value + 0.5))[1]
    assert hist.edges == edges.tolist()
    real = np.random.default_rng(3).normal(size=(30, 1))
    hist = histogram_compare(real, m, unit_stats(1), ["a"], selected=["a"])[0]
    union = np.concatenate([real, m])
    assert hist.edges == np.histogram(union, HISTOGRAM_BINS)[1].tolist()


def test_histogram_unknown_feature_lists_candidates():
    m = np.zeros((2, 2))
    with pytest.raises(ValueError, match="candidates"):
        histogram_compare(m, m, unit_stats(2), ["a", "b"], selected=["nope"])


def test_histogram_default_prefers_flow_features():
    names = ["x", "Flow Duration", "y", "Packet Length Mean"]
    m = np.random.default_rng(0).uniform(size=(10, 4))
    hists = histogram_compare(m, m, unit_stats(4), names)
    assert [h.feature for h in hists] == ["Packet Length Mean", "Flow Duration"]


# ---------------------------------------------------------------- evaluate

def test_evaluate_copy_control_is_indistinguishable():
    data = toy_attack_dataset()
    report = evaluate(
        data, data.features.copy(), EvalConfig(n_trees=30), np.random.default_rng(11)
    )
    assert 0.4 <= report.auc <= 0.6
    assert report.rmse_means == 0.0


def test_evaluate_shifted_control_is_separable():
    data = toy_attack_dataset()
    shifted = np.clip(data.features + np.array([0.9, 0.0]), 0.0, 1.0)
    report = evaluate(data, shifted, EvalConfig(n_trees=30), np.random.default_rng(11))
    assert report.auc >= 0.99


def test_evaluate_report_contract():
    data = toy_attack_dataset()
    rng = np.random.default_rng(3)
    synth = np.clip(data.features + rng.normal(0, 0.05, data.features.shape), 0, 1)
    report = evaluate(data, synth, EvalConfig(n_trees=20), np.random.default_rng(5))
    assert np.isfinite([report.rmse_means, report.rmse_hist, report.auc]).all()
    assert report.roc_points[0] == (0.0, 0.0)
    assert report.roc_points[-1] == (1.0, 1.0)
    assert set(report.importances) == {"f1", "f2"}
    assert len(report.histograms) >= 1
    assert report.n_real == data.n_rows and report.n_synth == data.n_rows
    # round trip through JSON
    again = QualityReport.from_dict(json.loads(json.dumps(asdict(report))))
    assert again == report


def test_evaluate_is_deterministic():
    data = toy_attack_dataset()
    synth = np.clip(data.features + 0.01, 0.0, 1.0)
    a = evaluate(data, synth, EvalConfig(n_trees=10), np.random.default_rng(7))
    b = evaluate(data, synth, EvalConfig(n_trees=10), np.random.default_rng(7))
    assert json.dumps(asdict(a)) == json.dumps(asdict(b))


def test_evaluate_width_mismatch():
    data = toy_attack_dataset()
    with pytest.raises(ValueError, match="width|match"):
        evaluate(data, np.zeros((5, 3)), EvalConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [-1e-300, 1.0 + 2**-52, np.nan])
def test_evaluate_rejects_synthetic_values_outside_the_unit_interval(bad):
    data = toy_attack_dataset()
    synth = data.features.copy()
    synth[7, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        evaluate(data, synth, EvalConfig(n_trees=1), np.random.default_rng(0))


def stacked_evaluate(real, synth, config, rng):
    """``evaluate`` on one stacked matrix of both classes with a 0/1 label
    vector, whole denormalized matrices and label masks: the reference the
    in-place protocol must match byte for byte."""
    names = real.schema.feature_names()
    real_units = dataio.denormalize(real.features, real.stats)
    synth_units = dataio.denormalize(synth, real.stats)
    histograms = []
    selected = config.histogram_features
    for name in default_histogram_features(names) if selected is None else selected:
        j = names.index(name)
        lo = float(min(real_units[:, j].min(), synth_units[:, j].min()))
        hi = float(max(real_units[:, j].max(), synth_units[:, j].max()))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        count_real, edges = np.histogram(real_units[:, j], HISTOGRAM_BINS, range=(lo, hi))
        count_synth, _ = np.histogram(synth_units[:, j], HISTOGRAM_BINS, range=(lo, hi))
        histograms.append(
            FeatureHistogram(name, edges.tolist(), count_real.tolist(), count_synth.tolist())
        )

    features = np.vstack([real.features, synth])
    labels = np.concatenate([np.zeros(real.n_rows, np.int64), np.ones(len(synth), np.int64)])
    classes = [np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)]
    if classes[0].size == classes[1].size:
        perms = [rng.permutation(classes[0].size)] * 2
    else:
        perms = [rng.permutation(idx.size) for idx in classes]
    fit, hold = [], []
    for idx, perm in zip(classes, perms):
        shuffled = idx[perm]
        k = int(np.floor(config.holdout_fraction * idx.size + 0.5))
        k = min(max(k, 1), idx.size - 1) if idx.size > 1 else k
        hold.append(shuffled[:k])
        fit.append(shuffled[k:])
    fit, hold = np.concatenate(fit), np.concatenate(hold)
    model = gbm_fit(LabeledSet(features[fit], labels[fit]), config)
    scores = gbm_predict(model, features[hold])
    auc, roc_points = roc_auc(scores[labels[hold] == 0], scores[labels[hold] == 1])
    return QualityReport(
        *rmse_quality(real.features, synth), auc, roc_points,
        dict(zip(names, feature_importance(model).tolist())), histograms,
        real.n_rows, len(synth),
    )


def flow_dataset(n_rows, stats, seed):
    """Tie-heavy rows of four features, the third constant, under ``stats``."""
    names = ["Flow Duration", "a", "b", "Packet Length Mean"]
    schema = dataio.FeatureSchema(
        tuple(dataio.Column(n, dataio.NUMERIC) for n in names)
        + (dataio.Column("label", dataio.LABEL),)
    )
    x = np.random.default_rng(seed).integers(0, 7, size=(n_rows, 4)) / 6.0
    x[:, 2] = 0.5
    return dataio.DatasetMatrix(x, ["attack"] * n_rows, stats, schema)


SCALED_STATS = dataio.NormalizationStats(
    np.array([-3.0, 0.0, 12.5, 1e-3]), np.array([2.0, 1e6, 12.5, 1479.25])
)


@pytest.mark.parametrize("n_real,n_synth,stats,selected", [
    (300, 300, unit_stats(4), None),
    (301, 300, SCALED_STATS, None),
    (120, 410, SCALED_STATS, ("b", "a")),
    (2, 2, SCALED_STATS, ("Flow Duration",)),
    (3, 7, unit_stats(4), ("a", "b", "Packet Length Mean")),
])
def test_evaluate_matches_the_stacked_protocol_byte_for_byte(n_real, n_synth, stats, selected):
    real = flow_dataset(n_real, stats, seed=n_real)
    synth = flow_dataset(n_synth, stats, seed=n_synth + 1).features
    synth[:, 0] = np.clip(synth[:, 0] + 0.1, 0.0, 1.0)  # separable by one feature
    config = EvalConfig(n_trees=6, histogram_features=selected)
    report = evaluate(real, synth, config, np.random.default_rng(5))
    want = stacked_evaluate(real, synth, config, np.random.default_rng(5))
    assert json.dumps(asdict(report)) == json.dumps(asdict(want))


def test_evaluate_adds_little_beyond_the_fit_matrix(monkeypatch):
    # goldeneye-sized: 2423 + 2423 rows of 78 tie-heavy features, 3392 fit rows
    rng = np.random.default_rng(0)
    n, d = 2423, 78
    levels = 2 + np.arange(d) % 6
    stats = dataio.NormalizationStats(np.zeros(d), np.full(d, 100.0))
    schema = dataio.FeatureSchema(
        tuple(dataio.Column(f"f{j}", dataio.NUMERIC) for j in range(d))
        + (dataio.Column("label", dataio.LABEL),)
    )
    real = dataio.DatasetMatrix(
        rng.integers(0, levels, size=(n, d)) / levels, ["attack"] * n, stats, schema
    )
    synth = np.clip(real.features + rng.normal(0, 0.05, size=(n, d)), 0.0, 1.0)
    config = EvalConfig(n_trees=3)

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    fits = []

    def recording_fit(train, config):
        fits.append(train)
        return gbm_fit(train, config)

    with monkeypatch.context() as m:  # the fit evaluate makes, to replay alone
        m.setattr(evaluator, "gbm_fit", recording_fit)
        evaluate(real, synth, config, np.random.default_rng(1))
    (train,) = fits
    fit_peak = traced_peak(gbm_fit, train, config)
    cells = train.features.size
    del fits, train
    extra = traced_peak(evaluate, real, synth, config, np.random.default_rng(1)) - fit_peak
    # the fit matrix takes 8 bytes per fit cell; nothing else may come close
    assert extra <= 10 * cells, f"{extra / cells:.1f} bytes per fit cell"
