import json
import math
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _AllocatingAdam, standardized, strict_json
from tripletune import evaluation, parallel
from tripletune.evaluation import (CLASSIFIERS, EvalReport, LogisticOvR, MlpClassifier,
                                   _kmeans_pp_init, _nearest_centers, calinski_harabasz,
                                   evaluate, kfold_split, kmeans, micro_f1, pearson, spearman,
                                   train_classify)
from tripletune.graph import KnowledgeGraph, multi_predicate_triple_ids
from tripletune.parallel import fork_map
from tripletune.pipeline import DEFAULTS, compare_report, eval_stage


def blobs(rng, k=3, per=40, dim=4, spread=0.3, sep=8.0):
    centers = rng.normal(size=(k, dim)) * sep
    x = np.vstack([centers[c] + spread * rng.normal(size=(per, dim)) for c in range(k)])
    y = np.repeat(np.arange(k), per)
    return x, y


# -- micro F1 ----------------------------------------------------------------

def test_micro_f1_hand_example():
    y_true = np.array([0, 0, 1])
    y_pred = np.array([0, 1, 1])
    # tp=2, fp=1, fn=1 -> 2*2 / (4+1+1)
    assert micro_f1(y_true, y_pred) == pytest.approx(2 / 3)


def test_micro_f1_perfect_and_mismatch():
    y = np.array([2, 0, 1, 1])
    assert micro_f1(y, y) == 1.0
    with pytest.raises(ValueError):
        micro_f1(np.array([0, 1]), np.array([0]))


def test_micro_f1_equals_accuracy_single_label(rng):
    # independent oracle: plain accuracy
    for _ in range(20):
        y_true = rng.integers(0, 4, size=50)
        y_pred = rng.integers(0, 4, size=50)
        assert micro_f1(y_true, y_pred) == pytest.approx(np.mean(y_true == y_pred))


def _confusion_micro_f1(y_true, y_pred):
    """2tp / (2tp + fp + fn) from per-class confusion counts."""
    classes = np.unique(np.concatenate([y_true, y_pred]))
    tp = fp = fn = 0
    for c in classes:
        tp += int(np.sum((y_pred == c) & (y_true == c)))
        fp += int(np.sum((y_pred == c) & (y_true != c)))
        fn += int(np.sum((y_pred != c) & (y_true == c)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def test_micro_f1_equals_confusion_count_formula(rng):
    for n in [0, 1, 2, 3, 7, 50, 999]:
        for _ in range(10):
            y_true = rng.integers(0, 5, size=n)
            # classes 5..7 never occur in y_true
            y_pred = rng.integers(0, 8, size=n)
            assert micro_f1(y_true, y_pred) == _confusion_micro_f1(y_true, y_pred)
            assert micro_f1(y_true, y_true) == _confusion_micro_f1(y_true, y_true)
    assert micro_f1(np.array([], dtype=int), np.array([], dtype=int)) == 0.0


# -- correlations ------------------------------------------------------------

def test_pearson_examples():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_matches_numpy(rng):
    for _ in range(10):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_zero_variance_raises():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x, y", [([1, 2, float("nan")], [1, 2, 3]),
                                  ([1, 2, 3], [float("inf"), 2, 3])])
def test_pearson_non_finite_input_raises(x, y):
    # a NaN once passed through the clamp max(-1, min(1, nan)) as 1.0
    with pytest.raises(ValueError, match="non-finite"):
        pearson(x, y)


def test_spearman_is_rank_based():
    # monotone but nonlinear relation still gives rho = 1
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -x ** 3) == pytest.approx(-1.0)


# -- Calinski-Harabasz -------------------------------------------------------

def ch_oracle(x, labels, k):
    """Independent construction from explicit dispersion matrices."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    mu = x.mean(axis=0)
    b = np.zeros((x.shape[1], x.shape[1]))
    w = np.zeros_like(b)
    for c in np.unique(labels):
        pts = x[labels == c]
        mc = pts.mean(axis=0)
        d = (mc - mu)[:, None]
        b += len(pts) * (d @ d.T)
        centered = pts - mc
        w += centered.T @ centered
    return (np.trace(b) / np.trace(w)) * ((n - k) / (k - 1))


def test_ch_matches_dispersion_matrix_oracle(rng):
    for _ in range(10):
        x, y = blobs(rng, k=3, per=20, spread=1.0, sep=2.0)
        assert calinski_harabasz(x, y, 3) == pytest.approx(ch_oracle(x, y, 3), rel=1e-10)


def test_ch_invariances(rng):
    x, y = blobs(rng, k=3, per=15)
    base = calinski_harabasz(x, y, 3)
    assert calinski_harabasz(x + 5.0, y, 3) == pytest.approx(base, rel=1e-9)
    assert calinski_harabasz(3.0 * x, y, 3) == pytest.approx(base, rel=1e-9)
    # random rotation preserves pairwise distances
    q, _ = np.linalg.qr(rng.normal(size=(x.shape[1], x.shape[1])))
    assert calinski_harabasz(x @ q, y, 3) == pytest.approx(base, rel=1e-9)


def test_ch_degenerate_sentinel():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    assert calinski_harabasz(x, y, 2) == math.inf


def test_ch_validation():
    x = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValueError):
        calinski_harabasz(x, np.zeros(5, dtype=int), 1)
    with pytest.raises(ValueError):
        calinski_harabasz(x, np.array([0, 0, 0, 0, 1]), 3)


def test_ch_separated_beats_shuffled(rng):
    x, y = blobs(rng, k=4, per=25)
    good = calinski_harabasz(x, y, 4)
    bad = calinski_harabasz(x, rng.permutation(y), 4)
    assert good > 10 * bad


# -- folds -------------------------------------------------------------------

def test_kfold_partition():
    folds = kfold_split(53, folds=5, rng_seed=0)
    assert len(folds) == 5
    all_test = np.concatenate([t for _, t in folds])
    assert sorted(all_test) == list(range(53))
    for train_idx, test_idx in folds:
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        assert len(train_idx) + len(test_idx) == 53
        # 80/20-ish split
        assert 10 <= len(test_idx) <= 11


def test_kfold_deterministic_and_seeded():
    a = kfold_split(40, rng_seed=1)
    b = kfold_split(40, rng_seed=1)
    c = kfold_split(40, rng_seed=2)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))


def test_kfold_too_few_items():
    with pytest.raises(ValueError):
        kfold_split(3, folds=5)


@pytest.mark.parametrize("folds", [1, 0, -3])
def test_kfold_rejects_fewer_than_two_folds(folds):
    with pytest.raises(ValueError, match=f"folds must be >= 2, got {folds}"):
        kfold_split(10, folds=folds)


# -- classifiers -------------------------------------------------------------

@pytest.mark.parametrize("kind", ["logreg-ovr", "mlp"])
def test_separable_blobs_classified_perfectly(kind, rng):
    x, y = blobs(rng, k=3, per=30)
    spec = {"logreg-ovr": LogisticOvR,
            "mlp": partial(MlpClassifier, hidden=32, epochs=50, learning_rate=1e-2)}[kind]
    scores = train_classify(standardized(x), y, spec, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) == pytest.approx(1.0)


def test_shuffled_labels_near_chance(rng):
    x, _ = blobs(rng, k=4, per=50)
    y = rng.integers(0, 4, size=len(x))
    scores = train_classify(x, y, LogisticOvR, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) <= 0.25 + 0.1


def test_unknown_classifier_rejected(rng):
    g, x, _ = labeled_graph_and_features(rng)
    with pytest.raises(ValueError, match="unknown classifier choice 'svm'"):
        evaluate(x, g, classifier="svm")


def test_classifier_table_names_report_keys():
    assert set(CLASSIFIERS) == {"logreg", "mlp", "both"}
    assert [cls.kind for cls in CLASSIFIERS["both"]] == ["logreg-ovr", "mlp"]
    assert CLASSIFIERS["logreg"] + CLASSIFIERS["mlp"] == CLASSIFIERS["both"]


def test_absent_class_warns(monkeypatch):
    x = np.vstack([np.zeros((10, 2)), np.ones((10, 2)), 5 * np.ones((1, 2))])
    y = np.array([0] * 10 + [1] * 10 + [2])
    folds = kfold_split(21, folds=5, rng_seed=0)
    with pytest.warns(UserWarning, match="absent"):
        train_classify(x, y, partial(LogisticOvR, iters=5), folds)

    # evaluate checks its folds before it forks: a warning raised in a child
    # would reach only the child's stderr, so W = 2 must record what W = 1 does
    g = KnowledgeGraph.from_named_triples(
        [(f"e{i}", f"p{c}", f"e{i + 1}") for i, c in enumerate(y)])

    def absent_warnings(w):
        monkeypatch.setattr(parallel, "workers", lambda: w)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(x, g, classifier="both")
        return [str(c.message) for c in caught
                if issubclass(c.category, UserWarning) and "absent" in str(c.message)]

    want = absent_warnings(1)
    assert len(want) == 2 * sum(2 not in y[train] for train, _ in folds)
    assert absent_warnings(2) == want


def test_evaluate_is_one_map(monkeypatch):
    x, y = blobs(np.random.default_rng(2), per=12)
    g = KnowledgeGraph.from_named_triples(
        [(f"e{i}", f"p{c}", f"e{i + 1}") for i, c in enumerate(y)])
    calls = []

    def counting_fork_map(fn, n_jobs):
        calls.append(n_jobs)
        return fork_map(fn, n_jobs)
    monkeypatch.setattr(evaluation, "fork_map", counting_fork_map)
    for tasks, n_jobs in [(("classify",), 10), (("cluster",), 10), (("classify", "cluster"), 20)]:
        calls.clear()
        evaluate(x, g, classifier="both", tasks=tasks)
        assert calls == [n_jobs], tasks


class _AllocatingLogisticOvR(LogisticOvR):
    """LogisticOvR with the step written out as whole-array expressions."""

    def fit(self, x, y, classes=None):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y) if classes is None else np.asarray(classes)
        n, d = x.shape
        c = len(self.classes_)
        onehot = (y[:, None] == self.classes_[None, :]).astype(np.float64)
        w = np.zeros((c, d))
        b = np.zeros(c)
        opt = _AllocatingAdam({"w": w, "b": b}, lr=self.learning_rate)
        for _ in range(self.iters):
            scores = x @ w.T + b
            prob = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
            err = (prob - onehot) / n
            gw = err.T @ x + (self.l2 / n) * w
            gb = err.sum(axis=0)
            opt.begin_step()
            opt.step("w", gw)
            opt.step("b", gb)
        self.weights, self.bias = w, b
        return self


def test_logreg_in_place_step_equals_allocating_step(rng):
    # at learning rate 2 some scores pass the +-500 clip
    x, y = blobs(rng, k=4, per=30, spread=3.0, sep=40.0)
    for lr in (0.1, 2.0):
        new = LogisticOvR(iters=60, learning_rate=lr).fit(x, y)
        old = _AllocatingLogisticOvR(iters=60, learning_rate=lr).fit(x, y)
        assert np.array_equal(new.weights, old.weights)
        assert np.array_equal(new.bias, old.bias)
    assert np.abs(x @ new.weights.T + new.bias).max() > 500
    # half the labels shuffled, so fold scores sit strictly between 0 and 1
    y_noisy = y.copy()
    y_noisy[::2] = rng.permutation(y_noisy[::2])
    folds = kfold_split(len(y), rng_seed=0)
    scores = train_classify(x, y_noisy, partial(LogisticOvR, iters=40), folds)
    assert all(0.0 < s < 1.0 for s in scores)
    assert scores == train_classify(x, y_noisy, partial(_AllocatingLogisticOvR, iters=40), folds)


@pytest.mark.parametrize("k, l2", [(2, 1.0), (12, 5.0)])
def test_logreg_buffers_equal_allocating_fit_on_overlapping_classes(rng, k, l2):
    # overlapping classes keep the residual small, so the L2 term shows in
    # the last bits of every gradient
    x, y = blobs(rng, k=k, per=15, spread=2.0, sep=1.0)
    new = LogisticOvR(l2=l2, iters=40).fit(x, y)
    old = _AllocatingLogisticOvR(l2=l2, iters=40).fit(x, y)
    assert np.array_equal(new.weights, old.weights)
    assert np.array_equal(new.bias, old.bias)


class _AllocatingMlp(MlpClassifier):
    """MlpClassifier with each batch written out as whole-array expressions."""

    def fit(self, x, y, classes=None):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y) if classes is None else np.asarray(classes)
        n, d = x.shape
        c = len(self.classes_)
        class_pos = {cls: i for i, cls in enumerate(self.classes_)}
        yi = np.array([class_pos[v] for v in y])
        rng = np.random.default_rng(self.rng_seed)
        p = {
            "w1": rng.normal(0.0, np.sqrt(2.0 / d), size=(self.hidden, d)),
            "b1": np.zeros(self.hidden),
            "w2": rng.normal(0.0, np.sqrt(2.0 / self.hidden), size=(c, self.hidden)),
            "b2": np.zeros(c),
        }
        opt = _AllocatingAdam(p, lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                xb, yb = x[idx], yi[idx]
                z1 = xb @ p["w1"].T + p["b1"]
                a1 = np.maximum(z1, 0.0)
                logits = a1 @ p["w2"].T + p["b2"]
                logits -= logits.max(axis=1, keepdims=True)
                e = np.exp(logits)
                prob = e / e.sum(axis=1, keepdims=True)
                prob[np.arange(len(idx)), yb] -= 1.0
                prob /= len(idx)
                gw2 = prob.T @ a1
                gb2 = prob.sum(axis=0)
                da1 = prob @ p["w2"]
                dz1 = da1 * (z1 > 0)
                gw1 = dz1.T @ xb
                gb1 = dz1.sum(axis=0)
                opt.begin_step()
                for name, grad in (("w1", gw1), ("b1", gb1), ("w2", gw2), ("b2", gb2)):
                    opt.step(name, grad)
        self.params = p
        return self


def _assert_same_mlp(new, old):
    assert new.params.keys() == old.params.keys()
    for name in new.params:
        assert np.array_equal(new.params[name], old.params[name]), name


@pytest.mark.parametrize("k, per, batch, hidden", [
    (3, 30, 16, 12),    # 90 rows: 5 full batches and a final batch of 10
    (40, 3, 16, 8),     # c > batch
    (2, 25, 64, 20),    # c = 2, one batch smaller than the batch size
    (5, 20, 100, 7),    # n a multiple of the batch size
])
def test_mlp_buffered_fit_equals_allocating_fit(rng, k, per, batch, hidden):
    x, y = blobs(rng, k=k, per=per, spread=2.0, sep=3.0)
    kwargs = dict(hidden=hidden, batch_size=batch, epochs=4, learning_rate=0.05, rng_seed=7)
    _assert_same_mlp(MlpClassifier(**kwargs).fit(x, y), _AllocatingMlp(**kwargs).fit(x, y))


def test_bounded_memory_mlp_fit_holds_one_hidden_buffer(rng):
    # the pre-activation, the activation and the hidden gradient share one
    # (batch, hidden) buffer; beside it a fit holds its packed weights, their
    # gradient and two Adam moments, and small per-batch arrays
    x, y = blobs(rng, k=5, per=120, dim=16)
    clf = MlpClassifier(hidden=512, batch_size=256, epochs=1)
    tracemalloc.start()
    try:
        clf.fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    weights = sum(v.size for v in clf.params.values()) * 8
    hidden = 256 * 512 * 8
    assert peak < 4 * weights + 2 * hidden, (peak, weights, hidden)


def test_mlp_refit_equals_fresh_fit(rng):
    # the same object fitted again on other data (other n, d and classes)
    x1, y1 = blobs(rng, k=3, per=30)
    x2, y2 = blobs(rng, k=5, per=13, dim=6)
    kwargs = dict(hidden=9, batch_size=16, epochs=3, learning_rate=0.05, rng_seed=1)
    clf = MlpClassifier(**kwargs)
    clf.fit(x1, y1)
    clf.fit(x2, y2)
    _assert_same_mlp(clf, MlpClassifier(**kwargs).fit(x2, y2))
    _assert_same_mlp(clf, _AllocatingMlp(**kwargs).fit(x2, y2))


def test_mlp_fold_scores_equal_allocating_fit(rng):
    x, y = blobs(rng, k=4, per=30, spread=3.0, sep=4.0)
    y[::2] = rng.permutation(y[::2])
    kwargs = dict(hidden=16, batch_size=32, epochs=3)
    folds = kfold_split(len(y), rng_seed=0)
    for rng_seed in (0, 3):   # fold f's MLP is seeded rng_seed * 1000 + f
        scores = train_classify(x, y, partial(MlpClassifier, **kwargs), folds, rng_seed)
        assert all(0.0 < s < 1.0 for s in scores)
        assert scores == train_classify(x, y, partial(_AllocatingMlp, **kwargs), folds,
                                        rng_seed)


def test_train_classify_seeds_each_fold(rng):
    x, y = blobs(rng, k=3, per=10)
    seeds = []

    class Recording(LogisticOvR):
        def __init__(self, rng_seed):
            super().__init__(iters=2)
            seeds.append(rng_seed)

    train_classify(x, y, Recording, kfold_split(len(y), folds=3), rng_seed=4)
    assert seeds == [4000, 4001, 4002]


def test_standardize_option(rng):
    # the caller scales its features; train_classify uses them as given
    x, y = blobs(rng, k=2, per=20)
    x[:, 0] *= 1e6   # wildly different feature scales
    scores = train_classify(standardized(x), y, LogisticOvR, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) > 0.9


# -- k-means -----------------------------------------------------------------

def test_kmeans_recovers_blobs(rng):
    x, y = blobs(rng, k=3, per=30)
    res = kmeans(x, 3, rng_seed=0)
    # cluster ids are arbitrary; check pairwise co-membership agreement
    same_true = y[:, None] == y[None, :]
    same_pred = res.assignment[:, None] == res.assignment[None, :]
    assert np.array_equal(same_true, same_pred)


def test_kmeans_deterministic(rng):
    x, _ = blobs(rng, k=3, per=20)
    r1 = kmeans(x, 3, rng_seed=7)
    r2 = kmeans(x, 3, rng_seed=7)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert r1.inertia == r2.inertia


def test_kmeans_inertia_monotone(rng):
    x, _ = blobs(rng, k=4, per=25, spread=2.0, sep=3.0)
    res = kmeans(x, 4, rng_seed=0, restarts=1)
    h = res.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(h, h[1:]))


def test_kmeans_degenerate_flag_and_validation():
    x = np.zeros((5, 2))
    # fewer distinct points than clusters: k-means still runs, at zero inertia
    res = kmeans(x, 2, rng_seed=0, restarts=2)
    assert res.inertia == 0.0
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3)


def _reference_kmeans(x, k, rng_seed, restarts, empties, max_iter=300, tol=1e-6):
    """kmeans with the full n x k x d difference tensor and one mean per cluster,
    its members summed one row at a time."""
    n = x.shape[0]
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([rng_seed, r])
        centers = _kmeans_pp_init(x, k, rng)
        history = []
        for _ in range(max_iter):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(d2, axis=1)
            history.append(float(d2[np.arange(n), labels].sum()))
            new_centers = centers.copy()
            for c in range(k):
                members = x[labels == c]
                if len(members):
                    total = np.zeros(x.shape[1])
                    for row in members:   # row order, as kmeans sums
                        total += row
                    new_centers[c] = total / len(members)
                else:
                    empties.append(r)
                    new_centers[c] = x[int(np.argmax(d2[np.arange(n), labels]))]
            shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            centers = new_centers
            if shift < tol:
                break
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        history.append(inertia)
        if best is None or inertia < best[2]:
            best = (labels, centers, inertia, history)
    return best


@pytest.mark.parametrize("case", ["blobs-0", "blobs-1", "blobs-2", "duplicates", "wide"])
def test_kmeans_equals_dense_reference(case, monkeypatch):
    kind, _, seed = case.partition("-")
    if kind == "blobs":
        x, _ = blobs(np.random.default_rng(int(seed)), k=5, per=20, spread=2.0, sep=3.0)
        k, seed = 5, int(seed)
    elif kind == "wide":
        # the evaluation's own shape on FB-like graphs: k = 100 predicates
        x, _ = blobs(np.random.default_rng(4), k=100, per=8, dim=32, spread=2.0, sep=1.0)
        k, seed = 100, 4
    else:
        # 3 distinct points for 4 clusters: every restart empties a cluster
        x = np.repeat(np.random.default_rng(3).normal(size=(3, 4)), [20, 15, 10], axis=0)
        k, seed = 4, 3
    # blocks of 32 rows: the 100, 800 or 45 rows fill blocks and part of one
    monkeypatch.setattr(evaluation, "KMEANS_BLOCK", 32 * k)
    empties = []
    labels, centers, inertia, history = _reference_kmeans(x, k, seed, 3, empties)
    res = kmeans(x, k, rng_seed=seed, restarts=3)
    assert np.array_equal(res.assignment, labels)
    assert np.array_equal(res.centers, centers)
    assert res.inertia == inertia
    assert res.inertia_history == history
    if kind == "duplicates":
        assert sorted(set(empties)) == [0, 1, 2]


@pytest.mark.parametrize("w", [1, 2])
def test_kmeans_stops_at_the_pass_cap(w, monkeypatch):
    # wide, overlapping blobs are still moving after 2 passes, so every restart
    # stops at the cap: the forked restarts must read the patched cap too
    x, _ = blobs(np.random.default_rng(6), k=4, per=30, spread=3.0, sep=2.0)
    monkeypatch.setattr(evaluation, "KMEANS_MAX_ITER", 2)
    monkeypatch.setattr(parallel, "workers", lambda: w)
    labels, centers, inertia, history = _reference_kmeans(x, 4, 1, 3, [], max_iter=2)
    res = kmeans(x, 4, rng_seed=1, restarts=3)
    assert np.array_equal(res.assignment, labels)
    assert np.array_equal(res.centers, centers)
    assert res.inertia == inertia
    assert res.inertia_history == history
    assert len(history) == 3   # two passes and the final inertia
    # a third pass would still move a centre: the cap, not convergence, stopped it
    means = np.array([x[labels == c].mean(axis=0) for c in range(4)])
    assert np.sqrt(((means - centers) ** 2).sum(axis=1)).max() > evaluation.KMEANS_TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_features(rng, bad):
    x, _ = blobs(rng, k=3, per=10)
    x[4, 1] = bad
    x[20, 0] = bad
    with pytest.raises(ValueError, match="row 4 "):
        kmeans(x, 3)


def _dense_nearest(x, centers):
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(x)), labels]


def test_nearest_centers_exact_tie_goes_to_first_index():
    # x is 1 from both centres, but ||x||^2 - 2 x.c + ||c||^2 rounds to 4 and -4:
    # the recheck must restore the tie and pick the first centre
    t = 2.0 ** 27 + 2
    x = np.array([[t], [t - 1.0], [t + 1.0]])
    centers = np.array([[t - 1.0], [t + 1.0]])
    approx = (x ** 2).sum(axis=1)[:, None] - 2 * x @ centers.T + (centers ** 2).sum(axis=1)
    assert approx[0, 1] < approx[0, 0]
    xx = (x ** 2).sum(axis=1)
    labels, nearest = _nearest_centers(x, xx, centers, np.sqrt(xx))
    assert labels.tolist() == [0, 0, 1]
    assert nearest.tolist() == [1.0, 0.0, 0.0]
    # the same centre twice: the first copy wins
    labels, _ = _nearest_centers(x, xx, centers[[1, 1, 0, 0]], np.sqrt(xx))
    assert labels.tolist() == [0, 2, 0]


def test_nearest_centers_subnormal_distances():
    # at 1e-160 squared distances are subnormal and the relative margin
    # underflows to zero; the absolute term must still cover the rounding
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = rng.integers(-3, 4, size=(12, 3)) * 1e-160
        centers = x[rng.integers(12, size=4)] + rng.normal(size=(4, 3)) * 1e-162
        xx = (x ** 2).sum(axis=1)
        labels, nearest = _nearest_centers(x, xx, centers, np.sqrt(xx))
        want_labels, want_nearest = _dense_nearest(x, centers)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(nearest, want_nearest)


@st.composite
def point_sets(draw, max_n=30):
    """Points with duplicates, on a small integer grid (exact ties) or Gaussian,
    scaled by 10^-100 .. 10^100, or by 10^-165 .. 10^-150 where squared
    distances underflow to subnormals."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_distinct = draw(st.integers(1, n))
    if draw(st.booleans()):
        base = rng.integers(-3, 4, size=(n_distinct, d)).astype(np.float64)
    else:
        base = rng.normal(size=(n_distinct, d))
    scale = draw(st.one_of(st.integers(-100, 100), st.integers(-165, -150)))
    x = base[rng.integers(n_distinct, size=n)] * 10.0 ** scale
    return x, rng


@settings(deadline=None)
@given(point_sets(), st.integers(1, 6), st.sampled_from([1, 5, 1 << 17]))
def test_nearest_centers_equals_dense_argmin(points, k, block):
    x, rng = points
    # centres drawn from the points, repeats included, so ties are common
    centers = x[rng.integers(len(x), size=k)]
    xx = (x ** 2).sum(axis=1)
    with mock.patch.object(evaluation, "KMEANS_BLOCK", block):
        labels, nearest = _nearest_centers(x, xx, centers, np.sqrt(xx))
    want_labels, want_nearest = _dense_nearest(x, centers)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(nearest, want_nearest)


@settings(deadline=None, max_examples=60)
@given(point_sets(), st.integers(1, 5), st.integers(0, 1000), st.sampled_from([3, 1 << 17]))
# one column of 8 equal values: a pairwise sum and a row-order sum differ in the last bit
@example((np.full((8, 1), 12.57302211), None), 1, 0, 1 << 17)
def test_kmeans_equals_dense_reference_property(points, k, seed, block):
    x, _ = points
    k = min(k, len(x))
    with mock.patch.object(evaluation, "KMEANS_BLOCK", block):
        res = kmeans(x, k, rng_seed=seed, restarts=2)
    labels, centers, inertia, history = _reference_kmeans(x, k, seed, 2, [])
    assert np.array_equal(res.assignment, labels)
    assert np.array_equal(res.centers, centers)
    assert res.inertia == inertia
    assert res.inertia_history == history


# -- report and top-level evaluate -------------------------------------------

def test_report_json_round_trip(tmp_path):
    rep = EvalReport(micro_f1_per_fold={"mlp": [0.5, 0.6]}, micro_f1_mean={"mlp": 0.55},
                     ch_index=12.5, ch_degenerate=False,
                     restricted_to_multi_predicate=False,
                     metadata={"dim": 8})
    f = tmp_path / "report.json"
    rep.save(f)
    back = EvalReport.load(f)
    assert back == rep


def test_report_degenerate_ch_serializes_as_null(tmp_path):
    rep = EvalReport({}, {}, math.inf, True, False)
    assert rep.ch_index is None
    f = tmp_path / "report.json"
    rep.save(f)
    assert '"ch_index": null' in f.read_text()
    assert EvalReport.load(f).ch_index is None


def labeled_graph_and_features(rng, k=3, per=30, dim=4):
    # one triple per feature row, predicate index == blob label
    x, y = blobs(rng, k=k, per=per, dim=dim)
    rows = [(f"h{i}", f"p{y[i]}", f"t{i}") for i in range(len(y))]
    g = KnowledgeGraph.from_named_triples(rows)
    labels = g.ids[:, 1].copy()
    # from_named_triples may renumber; regroup features by predicate id
    order = np.argsort(np.argsort(labels, kind="stable"), kind="stable")
    return g, x, labels


def test_evaluate_predicate_aligned_features(rng):
    g, x, labels = labeled_graph_and_features(rng)
    # features grouped exactly by predicate: both tasks should look strong
    feat = np.vstack([x[labels == c] for c in range(g.num_predicates)])
    ordered = np.concatenate([np.flatnonzero(labels == c) for c in range(g.num_predicates)])
    inv = np.empty_like(ordered)
    inv[ordered] = np.arange(len(ordered))
    feat = feat[inv]
    rep = evaluate(feat, g, classifier="logreg", rng_seed=0)
    assert rep.micro_f1_mean["logreg-ovr"] > 0.95
    assert rep.ch_index > 100 or rep.ch_degenerate is False
    assert rep.metadata["dim"] == feat.shape[1]


def test_evaluate_row_mismatch(rng):
    g, x, _ = labeled_graph_and_features(rng)
    with pytest.raises(ValueError):
        evaluate(x[:-1], g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tasks", [("classify",), ("cluster",)])
def test_evaluate_rejects_non_finite_features(rng, bad, tasks):
    g, x, _ = labeled_graph_and_features(rng)
    x = x.copy()
    x[7, 2] = bad
    x[40, 0] = bad
    with pytest.raises(ValueError, match="row 7 "):
        evaluate(x, g, tasks=tasks)


def test_evaluate_restriction_too_small(tiny_graph):
    # tiny graph has one multi-predicate (h, t) pair -> only 2 rows survive
    feat = np.random.default_rng(0).normal(size=(tiny_graph.num_triples, 3))
    with pytest.raises(ValueError, match="fewer than 10"):
        evaluate(feat, tiny_graph, restrict_multi_predicate=True)


def test_evaluate_restriction_clusters_by_kept_labels():
    # p0 and p1 share every (head, tail) pair, p2 never does: the restricted
    # rows carry 2 of the graph's 3 predicates, so k-means uses k = 2
    rows = [(f"e{i}", p, f"e{i + 1}") for i in range(10) for p in ("p0", "p1")]
    rows += [(f"e{i}", "p2", f"e{i + 3}") for i in range(10)]
    g = KnowledgeGraph.from_named_triples(rows)
    feat = np.random.default_rng(0).normal(size=(g.num_triples, 3))
    rep = evaluate(feat, g, restrict_multi_predicate=True, tasks=("cluster",), rng_seed=0)
    keep = multi_predicate_triple_ids(g)
    assert g.num_predicates == 3 and len(np.unique(g.ids[keep, 1])) == 2
    km = kmeans(feat[keep], 2, rng_seed=0)
    assert rep.ch_index == calinski_harabasz(feat[keep], km.assignment, 2)


def test_evaluate_cluster_only(rng):
    g, x, labels = labeled_graph_and_features(rng)
    rep = evaluate(x, g, tasks=("cluster",), rng_seed=0)
    assert rep.micro_f1_mean == {}
    assert (rep.ch_index is None) == rep.ch_degenerate


def reports_without_ch(rng):
    """Reports of `evaluate` whose CH index is missing or whose F1 is: classify
    only, cluster only, and degenerate (each label's rows identical, so the
    within-cluster dispersion is 0)."""
    g, x, labels = labeled_graph_and_features(rng)
    return {"classify-only": evaluate(x, g, classifier="logreg", tasks=("classify",)),
            "cluster-only": evaluate(x, g, tasks=("cluster",)),
            "degenerate": evaluate(np.eye(3)[labels], g, classifier="logreg")}


def test_reports_without_ch_are_strict_json(rng, tmp_path):
    reports = reports_without_ch(rng)
    assert [r.ch_degenerate for r in reports.values()] == [False, False, True]
    for name, rep in reports.items():
        rep.save(tmp_path / "report.json")
        payload = strict_json((tmp_path / "report.json").read_text())
        assert (payload["ch_index"] is None) == (name != "cluster-only"), name
        assert EvalReport.load(tmp_path / "report.json") == rep


@pytest.mark.parametrize("distinct_rows", [1, 2])
def test_kmeans_that_leaves_a_cluster_empty_gives_a_degenerate_report(rng, tmp_path,
                                                                       distinct_rows):
    # fewer distinct rows than predicates: every restart leaves a cluster empty
    g, *_ = labeled_graph_and_features(rng, k=4)
    feat = np.zeros((g.num_triples, 8))
    feat[::2, 0] = distinct_rows - 1
    assert len(np.unique(kmeans(feat, 4, rng_seed=0).assignment)) < 4
    rep = evaluate(feat, g, rng_seed=0)
    assert rep.ch_index is None and rep.ch_degenerate is True
    assert set(rep.micro_f1_mean) == {"logreg-ovr", "mlp"}
    assert all(math.isfinite(v) for v in rep.micro_f1_mean.values())
    rep.save(tmp_path / "report.json")
    assert strict_json((tmp_path / "report.json").read_text())["ch_index"] is None


def test_report_with_the_old_correlations_field_loads_and_compares(rng, tmp_path):
    # reports written before the unused `correlations` field was dropped carry
    # it as {} between `restricted_to_multi_predicate` and `metadata`
    g, x, _ = labeled_graph_and_features(rng)
    noisy = x + rng.normal(scale=10.0, size=x.shape)
    reports = [evaluate(f, g, classifier="logreg", rng_seed=0,
                        metadata={"method": name}) for name, f in (("clean", x), ("noisy", noisy))]
    loaded = []
    for i, rep in enumerate(reports):
        fields = json.loads(rep.to_json())
        old = {k: v for k, v in fields.items() if k != "metadata"}
        old["correlations"] = {}
        old["metadata"] = fields["metadata"]
        path = tmp_path / f"report_{i}.json"
        path.write_text(json.dumps(old, indent=2))
        loaded.append(EvalReport.load(path))
    assert loaded == reports
    assert "correlations" not in json.loads(loaded[0].to_json())
    assert compare_report(loaded) == compare_report(reports)


def test_evaluate_seeds_classifiers_as_eval_stage(rng):
    # features unrelated to the labels, so every MLP fold score depends on its seed
    g, _, _ = labeled_graph_and_features(rng)
    x = rng.normal(size=(g.num_triples, 4))
    rep = evaluate(x, g, rng_seed=3)
    stage = eval_stage(g, x, DEFAULTS["eval"], 3, metadata={})
    assert rep.micro_f1_per_fold == stage.micro_f1_per_fold
    assert rep == stage


def test_compare_report_of_reports_without_ch(rng):
    # classify-only, cluster-only and degenerate reports beside two full ones
    reports = list(reports_without_ch(rng).values())
    g, x, labels = labeled_graph_and_features(rng)
    noisy = x + rng.normal(scale=10.0, size=x.shape)
    reports += [evaluate(f, g, classifier="logreg", rng_seed=0) for f in (x, noisy)]
    table = compare_report(reports)
    rows = table["rows"]
    assert [row["ch_index"] is None for row in rows] == [True, False, True, False, False]
    assert not any("ch_index" in row["best"] for row in rows if row["ch_index"] is None)
    full = [(row["micro_f1_logreg"], row["ch_index"]) for row in rows[3:]]
    assert table["correlations"] == {"pearson_f1_ch": pearson(*zip(*full)),
                                     "spearman_f1_ch": spearman(*zip(*full))}
