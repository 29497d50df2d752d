import numpy as np
import pytest

from tripletune import evaluation
from tripletune.evaluation import (CH_DEGENERATE, ClassifierSpec, EvalReport,
                                   _kmeans_pp_init, calinski_harabasz, evaluate,
                                   kfold_split, kmeans, micro_f1, pearson, spearman,
                                   train_classify)
from tripletune.graph import KnowledgeGraph, multi_predicate_triple_ids


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
    assert calinski_harabasz(x, y, 2) == CH_DEGENERATE


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


# -- classifiers -------------------------------------------------------------

@pytest.mark.parametrize("kind", ["logreg-ovr", "mlp"])
def test_separable_blobs_classified_perfectly(kind, rng):
    x, y = blobs(rng, k=3, per=30)
    spec = ClassifierSpec(kind=kind, hidden=32, mlp_epochs=50,
                          mlp_learning_rate=1e-2, standardize=True)
    scores = train_classify(x, y, spec, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) == pytest.approx(1.0)


def test_shuffled_labels_near_chance(rng):
    x, _ = blobs(rng, k=4, per=50)
    y = rng.integers(0, 4, size=len(x))
    spec = ClassifierSpec(kind="logreg-ovr")
    scores = train_classify(x, y, spec, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) <= 0.25 + 0.1


def test_unknown_classifier_rejected(rng):
    x, y = blobs(rng, k=2, per=10)
    with pytest.raises(ValueError):
        train_classify(x, y, ClassifierSpec(kind="svm"), kfold_split(len(y)))


def test_absent_class_warns():
    x = np.vstack([np.zeros((10, 2)), np.ones((10, 2)), 5 * np.ones((1, 2))])
    y = np.array([0] * 10 + [1] * 10 + [2])
    folds = kfold_split(21, folds=5, rng_seed=0)
    with pytest.warns(UserWarning, match="absent"):
        train_classify(x, y, ClassifierSpec(kind="logreg-ovr", logreg_iters=5), folds)


def test_standardize_option(rng):
    x, y = blobs(rng, k=2, per=20)
    x[:, 0] *= 1e6   # wildly different feature scales
    spec = ClassifierSpec(kind="logreg-ovr", standardize=True)
    scores = train_classify(x, y, spec, kfold_split(len(y), rng_seed=0))
    assert np.mean(scores) > 0.9


# -- k-means -----------------------------------------------------------------

def test_kmeans_recovers_blobs(rng):
    x, y = blobs(rng, k=3, per=30)
    res = kmeans(x, 3, rng_seed=0)
    # cluster ids are arbitrary; check pairwise co-membership agreement
    same_true = y[:, None] == y[None, :]
    same_pred = res.assignment[:, None] == res.assignment[None, :]
    assert np.array_equal(same_true, same_pred)
    assert not res.degenerate


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
    res = kmeans(x, 2, rng_seed=0, restarts=2)
    assert res.degenerate
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 2)), 3)


def _reference_kmeans(x, k, rng_seed, restarts, empties, max_iter=300, tol=1e-6):
    """kmeans with the full n x k x d difference tensor and one mean per cluster."""
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
                    new_centers[c] = members.mean(axis=0)
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


@pytest.mark.parametrize("case", ["blobs-0", "blobs-1", "blobs-2", "duplicates"])
def test_kmeans_equals_dense_reference(case, monkeypatch):
    kind, _, seed = case.partition("-")
    if kind == "blobs":
        x, _ = blobs(np.random.default_rng(int(seed)), k=5, per=20, spread=2.0, sep=3.0)
        k, seed = 5, int(seed)
    else:
        # 3 distinct points for 4 clusters: every restart empties a cluster
        x = np.repeat(np.random.default_rng(3).normal(size=(3, 4)), [20, 15, 10], axis=0)
        k, seed = 4, 3
    # blocks of 32 rows: the 100 or 45 rows fill a few blocks and part of one
    monkeypatch.setattr(evaluation, "KMEANS_BLOCK", 32 * k * x.shape[1])
    empties = []
    labels, centers, inertia, history = _reference_kmeans(x, k, seed, 3, empties)
    res = kmeans(x, k, rng_seed=seed, restarts=3)
    assert np.array_equal(res.assignment, labels)
    assert np.array_equal(res.centers, centers)
    assert res.inertia == inertia
    assert res.inertia_history == history
    if kind == "duplicates":
        assert sorted(set(empties)) == [0, 1, 2]


# -- report and top-level evaluate -------------------------------------------

def test_report_json_round_trip(tmp_path):
    rep = EvalReport(micro_f1_per_fold={"mlp": [0.5, 0.6]}, micro_f1_mean={"mlp": 0.55},
                     ch_index=12.5, ch_degenerate=False,
                     restricted_to_multi_predicate=False,
                     correlations={"pearson": 0.9}, metadata={"dim": 8})
    f = tmp_path / "report.json"
    rep.save(f)
    back = EvalReport.load(f)
    assert back == rep


def test_report_degenerate_ch_serializes_as_null(tmp_path):
    rep = EvalReport({}, {}, CH_DEGENERATE, True, False)
    f = tmp_path / "report.json"
    rep.save(f)
    assert '"ch_index": null' in f.read_text()
    assert EvalReport.load(f).ch_index == CH_DEGENERATE


def labeled_graph_and_features(rng, k=3, per=30, dim=4):
    # one triple per feature row, predicate index == blob label
    x, y = blobs(rng, k=k, per=per, dim=dim)
    rows = [(f"h{i}", f"p{y[i]}", f"t{i}") for i in range(len(y))]
    g = KnowledgeGraph.from_named_triples(rows)
    labels = np.array([t.predicate for t in g.triples])
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
    rep = evaluate(feat, g, specs=[ClassifierSpec(kind="logreg-ovr")], rng_seed=0)
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
    assert np.isfinite(rep.ch_index) or rep.ch_degenerate
