"""Evaluation tasks: predicate-label classification, clusterability, correlations."""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph, multi_predicate_triple_ids
from .optim import Adam, check_count, dense_row_sums, packed
from .parallel import fork_map

@dataclass
class EvalReport:
    micro_f1_per_fold: dict[str, list[float]]
    micro_f1_mean: dict[str, float]
    ch_index: float | None   # None: not computed, or not finite (`ch_degenerate`)
    ch_degenerate: bool
    restricted_to_multi_predicate: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ch_index is not None and not math.isfinite(self.ch_index):
            self.ch_index = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, allow_nan=False)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "EvalReport":
        """Read a saved report; a file that is not JSON, not a JSON object of the
        report's fields, or holds a field of another JSON type raises ValueError
        naming it."""
        try:
            fields = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
        if not isinstance(fields, dict):
            raise ValueError(f"{path}: a report must be a JSON object")
        fields.pop("correlations", None)   # older reports carry this unused field, always {}
        for name, (what, valid) in _REPORT_FIELD_TYPES.items():
            if name in fields and not valid(fields[name]):
                raise ValueError(f"{path}: {name} must be {what}, "
                                 f"got {json.dumps(fields[name])[:40]}")
        try:
            return cls(**fields)
        except TypeError as exc:   # a missing or an unknown field
            raise ValueError(f"{path}: {exc}") from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what `EvalReport.load` accepts for each field, as JSON types; the metadata
# entries `compare_report` tabulates must be strings
_REPORT_FIELD_TYPES = {
    "micro_f1_per_fold": ("an object of number lists", lambda v: isinstance(v, dict) and all(
        isinstance(f, list) and all(map(_is_number, f)) for f in v.values())),
    "micro_f1_mean": ("an object of numbers",
                      lambda v: isinstance(v, dict) and all(map(_is_number, v.values()))),
    "ch_index": ("a number or null", lambda v: v is None or _is_number(v)),
    "ch_degenerate": ("true or false", lambda v: isinstance(v, bool)),
    "restricted_to_multi_predicate": ("true or false", lambda v: isinstance(v, bool)),
    "metadata": ("an object with string dataset, method, seed_model and aggregation",
                 lambda v: isinstance(v, dict) and all(isinstance(v.get(k, ""), str) for k in (
                     "dataset", "method", "seed_model", "aggregation"))),
}


def _reject_non_finite(x: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite {what} values in row {bad[0]} "
                         f"({bad.size} row(s) affected)")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro-averaged F1 from global confusion counts.

    For single-label multi-class predictions every false positive is also a
    false negative, so this equals plain accuracy.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if len(y_true) == 0:
        return 0.0
    # fp = fn = n - tp, so 2tp / (2tp + fp + fn) is exactly tp / n
    return int(np.count_nonzero(y_true == y_pred)) / len(y_true)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two equal-length sequences of length >= 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    if denom == 0.0:
        raise ValueError("zero variance input")
    return max(-1.0, min(1.0, float(np.sum(xc * yc) / denom)))


def spearman(x, y) -> float:
    """Spearman's rank correlation (`scipy.stats.spearmanr`).

    `scipy.stats` is imported here, not with the module: it costs ~35 MiB of
    resident memory, and only `compare_report` calls this, never a run.
    """
    from scipy.stats import spearmanr
    return float(spearmanr(x, y).statistic)


def calinski_harabasz(features: np.ndarray, assignment: np.ndarray, k: int) -> float:
    """Between/within dispersion ratio scaled by (n - k)/(k - 1).

    Returns the +inf sentinel when within-cluster dispersion is exactly zero.
    """
    features = np.asarray(features, dtype=np.float64)
    assignment = np.asarray(assignment)
    n = features.shape[0]
    if k < 2:
        raise ValueError("k must be >= 2")
    if n <= k:
        raise ValueError("need more points than clusters")
    labels = np.unique(assignment)
    if len(labels) != k:
        raise ValueError("every cluster must be nonempty")
    global_mean = features.mean(axis=0)
    tr_b = 0.0
    tr_w = 0.0
    for c in labels:
        pts = features[assignment == c]
        mean_c = pts.mean(axis=0)
        tr_b += len(pts) * float(np.sum((mean_c - global_mean) ** 2))
        tr_w += float(np.sum((pts - mean_c) ** 2))
    if tr_w == 0.0:
        return math.inf
    return (tr_b / tr_w) * ((n - k) / (k - 1))


# ---------------------------------------------------------------------------
# folds and classifiers
# ---------------------------------------------------------------------------

def kfold_split(n: int, folds: int = 5, rng_seed: int = 0):
    """Disjoint test folds partitioning range(n); train = complement."""
    check_count("folds", folds, 2)
    if n < folds:
        raise ValueError(f"need at least {folds} items, got {n}")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(n)
    out = []
    bounds = np.linspace(0, n, folds + 1).astype(int)
    for i in range(folds):
        test = np.sort(perm[bounds[i]:bounds[i + 1]])
        train = np.sort(np.concatenate([perm[:bounds[i]], perm[bounds[i + 1]:]]))
        out.append((train, test))
    return out


class LogisticOvR:
    """One-vs-rest binary logistic regression trained by Adam with L2 penalty,
    one step per iteration over its weights and bias packed in one array."""

    kind = "logreg-ovr"

    def __init__(self, l2: float = 1.0, iters: int = 200, learning_rate: float = 0.1,
                 rng_seed: int = 0):   # unused: the fit is deterministic
        self.l2 = l2
        self.iters = iters
        self.learning_rate = learning_rate
        self.classes_: np.ndarray | None = None
        self.weights: np.ndarray | None = None   # (C, d)
        self.bias: np.ndarray | None = None      # (C,)

    def fit(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        self.classes_, yi = np.unique(np.asarray(y), return_inverse=True)
        n, d = x.shape
        c = len(self.classes_)
        params, (w, b) = packed((c, d), (c,))
        grads, (gw, gb) = packed((c, d), (c,))
        opt = Adam(params, lr=self.learning_rate)
        label_at = np.arange(n) * c + yi   # each row's label cell in err, flat
        err, l2w = np.empty((n, c)), np.empty((c, d))
        for _ in range(self.iters):
            # err = (sigmoid(clip(x w^T + b)) - onehot(y)) / n, in place
            np.matmul(x, w.T, out=err)
            err += b
            np.clip(err, -500, 500, out=err)
            np.negative(err, out=err)
            np.exp(err, out=err)
            err += 1.0
            np.divide(1.0, err, out=err)
            err.reshape(-1)[label_at] -= 1.0
            err /= n
            np.matmul(err.T, x, out=gw)
            np.multiply(w, self.l2 / n, out=l2w)
            gw += l2w
            np.sum(err, axis=0, out=gb)
            opt.step(grads)
        self.weights, self.bias = w, b
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(np.asarray(x) @ self.weights.T + self.bias, axis=1)]


class MlpClassifier:
    """Single hidden layer (relu) with softmax output, trained by mini-batch Adam.

    Its weights are packed in one array, so a batch is one Adam step. A fit
    allocates its activations and gradients once and runs every batch in them
    (the last, partial batch in their leading rows).
    """

    kind = "mlp"

    def __init__(self, hidden: int = 512, batch_size: int = 256, epochs: int = 10,
                 learning_rate: float = 1e-3, rng_seed: int = 0):
        self.hidden = hidden
        self.batch_size = batch_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.rng_seed = rng_seed
        self.classes_: np.ndarray | None = None
        self.params: dict[str, np.ndarray] | None = None

    def fit(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        self.classes_, yi = np.unique(np.asarray(y), return_inverse=True)
        n, d = x.shape
        c = len(self.classes_)
        rng = np.random.default_rng(self.rng_seed)
        shapes = ((self.hidden, d), (self.hidden,), (c, self.hidden), (c,))
        params, views = packed(*shapes)
        p = dict(zip(("w1", "b1", "w2", "b2"), views))
        p["w1"][...] = rng.normal(0.0, np.sqrt(2.0 / d), size=(self.hidden, d))
        p["w2"][...] = rng.normal(0.0, np.sqrt(2.0 / self.hidden), size=(c, self.hidden))
        opt = Adam(params, lr=self.learning_rate)
        grads, (gw1, gb1, gw2, gb2) = packed(*shapes)
        bs = min(self.batch_size, n)
        # one hidden buffer: the pre-activation, then the relu in place, then
        # the hidden gradient once gw2 has read the activations
        h = np.empty((bs, self.hidden))
        mask = np.empty((bs, self.hidden), dtype=bool)
        logits = np.empty((bs, c))
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                m = len(idx)
                xb, yb = x[idx], yi[idx]
                hb, mb, prob = h[:m], mask[:m], logits[:m]
                np.matmul(xb, p["w1"].T, out=hb)
                hb += p["b1"]
                np.greater(hb, 0, out=mb)
                np.maximum(hb, 0.0, out=hb)
                np.matmul(hb, p["w2"].T, out=prob)
                prob += p["b2"]
                # softmax in place, then its gradient w.r.t. the logits
                prob -= prob.max(axis=1, keepdims=True)
                np.exp(prob, out=prob)
                prob /= prob.sum(axis=1, keepdims=True)
                prob[np.arange(m), yb] -= 1.0
                prob /= m
                np.matmul(prob.T, hb, out=gw2)
                np.sum(prob, axis=0, out=gb2)
                np.matmul(prob, p["w2"], out=hb)
                hb *= mb
                np.matmul(hb.T, xb, out=gw1)
                np.sum(hb, axis=0, out=gb1)
                opt.step(grads)
        self.params = p
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        a1 = np.maximum(np.asarray(x) @ p["w1"].T + p["b1"], 0.0)
        logits = a1 @ p["w2"].T + p["b2"]
        return self.classes_[np.argmax(logits, axis=1)]


# the config and CLI classifier choices; each class's `kind` is its report key
CLASSIFIERS = {"logreg": (LogisticOvR,), "mlp": (MlpClassifier,),
               "both": (LogisticOvR, MlpClassifier)}


def _fold_jobs(features: np.ndarray, labels: np.ndarray, spec, folds,
               rng_seed: int) -> list[Callable[[], float]]:
    """`train_classify`'s jobs, one per fold, each returning its micro-F1.
    The folds are checked, and warned about, here, in the calling process."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] != len(labels):
        raise ValueError("features/labels length mismatch")
    all_classes = np.unique(labels)
    for fold_idx, (train_idx, _) in enumerate(folds):
        train_classes = np.unique(labels[train_idx])
        if len(train_classes) < 2:
            raise ValueError("need at least 2 classes in every training fold")
        # stacklevel 3 names the caller of train_classify or evaluate
        if len(train_classes) < len(all_classes):
            warnings.warn(
                f"fold {fold_idx}: {len(all_classes) - len(train_classes)} classes absent "
                "from the training split and cannot be predicted", stacklevel=3)
    classifiers = [spec(rng_seed=rng_seed * 1000 + fold_idx) for fold_idx in range(len(folds))]

    def fold_score(fold_idx: int) -> float:
        train_idx, test_idx = folds[fold_idx]
        clf, classifiers[fold_idx] = classifiers[fold_idx], None   # one fitted model at a time
        clf.fit(features[train_idx], labels[train_idx])
        return micro_f1(labels[test_idx], clf.predict(features[test_idx]))

    return [partial(fold_score, fold_idx) for fold_idx in range(len(folds))]


def _run(jobs: list[Callable]) -> list:
    """The results of `jobs`, in order, from one `fork_map`."""
    return fork_map(lambda j: jobs[j](), len(jobs))


def train_classify(features: np.ndarray, labels: np.ndarray, spec, folds,
                   rng_seed: int = 0) -> list[float]:
    """Micro-F1 on each (train, test) fold of a classifier that `spec(rng_seed=s)`
    builds, with s = rng_seed * 1000 + the fold's index.

    The folds are checked and their classifiers built here; the fits run in
    one `fork_map`, one job per fold (`evaluate` runs the same jobs in its
    own map).
    """
    return _run(_fold_jobs(features, labels, spec, folds, rng_seed))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

@dataclass
class KMeansResult:
    assignment: np.ndarray
    centers: np.ndarray
    inertia: float
    inertia_history: list[float] = field(default_factory=list)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[i] = x[rng.integers(n)]
            continue
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


# values in one block of row-to-centre scores or of gathered rows (1 MiB):
# k-means memory is 2n plus a few such blocks, not n*k*d
KMEANS_BLOCK = 1 << 17


def _nearest_centers(x: np.ndarray, xx: np.ndarray, centers: np.ndarray,
                     xn: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First argmin over c of ||x[i] - centers[c]||^2, and that distance.

    Distances are summed as ((x[i] - centers[c]) ** 2).sum(), so they equal
    the dense difference form bit for bit. Only a shortlist is summed that
    way: every centre whose ||x||^2 - 2 x.c + ||c||^2 (one BLAS product per
    block; `xx` holds ||x||^2 and `xn`, if given, its root) lies within 2E
    of the row's least, where E = 4 (d + 4) eps (||x|| + max ||c||)^2. Both
    forms are within (d + 2) eps/2 (||x|| + ||c||)^2 of the true distance in
    any summation order, and E is over 8x that, so a centre left out is
    farther than the argmin in the difference form too. The `tiny` term
    covers underflow.
    """
    k, d = centers.shape
    neg2c = -2.0 * centers
    cc = (centers ** 2).sum(axis=1)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    cmax = np.sqrt(cc.max())
    xn = np.sqrt(xx) if xn is None else xn
    labels = np.empty(len(x), dtype=np.intp)
    nearest = np.empty(len(x))
    step = max(1, KMEANS_BLOCK // k)
    pstep = max(1, KMEANS_BLOCK // d)
    for s in range(0, len(x), step):
        xb = x[s:s + step]
        rows = np.arange(len(xb))
        approx = xb @ neg2c.T
        approx += xx[s:s + step, None]
        approx += cc
        best = np.argmin(approx, axis=1)
        margin = 8 * (d + 4) * eps * (xn[s:s + step] + cmax) ** 2 + (d + 4) * tiny
        # NaN from an overflowed form fails `>`, so it keeps its centre
        near = ~(approx > (approx[rows, best] + margin)[:, None])
        single = np.count_nonzero(near) == len(xb)   # the common case
        ii, jj = (rows, best) if single else np.nonzero(near)
        dist = np.empty(len(ii))
        for p in range(0, len(ii), pstep):
            # when single, row i pairs with best[i]: slice the rows, do not gather them
            xp = xb[p:p + pstep] if single else xb[ii[p:p + pstep]]
            dist[p:p + pstep] = ((xp - centers[jj[p:p + pstep]]) ** 2).sum(axis=1)
        if not single:
            approx.fill(np.inf)
            approx[ii, jj] = dist
            best = np.argmin(approx, axis=1)
            dist = approx[rows, best]
        labels[s:s + step], nearest[s:s + step] = best, dist
    return labels, nearest


def _restart_jobs(features: np.ndarray, k: int, rng_seed: int = 0, restarts: int = 10,
                  max_iter: int = 300, tol: float = 1e-6):
    """`kmeans`'s jobs, one per restart, each returning its centres, inertia
    and history, and the function that picks the best of their results. The
    input is checked here, in the calling process."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise ValueError("fewer points than clusters")
    check_count("restarts", restarts)
    _reject_non_finite(x, "feature")
    xx = (x ** 2).sum(axis=1)
    xn = np.sqrt(xx)

    def restart(r: int) -> tuple[np.ndarray, float, list[float]]:
        rng = np.random.default_rng([rng_seed, r])
        centers = _kmeans_pp_init(x, k, rng)
        history: list[float] = []
        for _ in range(max_iter):
            labels, nearest = _nearest_centers(x, xx, centers, xn)
            history.append(float(nearest.sum()))
            new_centers = centers.copy()
            sums, members = dense_row_sums(labels, x, k)
            used = members > 0
            new_centers[used] = sums[used] / members[used, None]
            if not used.all():
                # re-seed empty clusters at the farthest point
                new_centers[~used] = x[int(np.argmax(nearest))]
            shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
            centers = new_centers
            if shift < tol:
                break
        inertia = float(_nearest_centers(x, xx, centers, xn)[1].sum())
        history.append(inertia)
        return centers, inertia, history

    def best(runs: list[tuple[np.ndarray, float, list[float]]]) -> KMeansResult:
        # min keeps the first of equal inertias: restart order, strict <
        centers, inertia, history = min(runs, key=lambda run: run[1])
        # the kept restart's labels, from the pass that gave its inertia
        labels = _nearest_centers(x, xx, centers, xn)[0]
        return KMeansResult(labels, centers, inertia, history)

    return [partial(restart, r) for r in range(restarts)], best


def kmeans(features: np.ndarray, k: int, rng_seed: int = 0, restarts: int = 10,
           max_iter: int = 300, tol: float = 1e-6) -> KMeansResult:
    """Lloyd iterations with k-means++ seeding, best of `restarts` by inertia.

    Each centre moves to the mean of its members, summed in row order; an
    empty cluster is re-seeded at the point farthest from its centre. The
    restarts run in one `fork_map`, one job each (`evaluate` runs the same
    jobs in its own map); each returns its centres, inertia and history, and
    the first restart of least inertia is kept.
    """
    jobs, best = _restart_jobs(features, k, rng_seed, restarts, max_iter, tol)
    return best(_run(jobs))


# ---------------------------------------------------------------------------
# top-level evaluation
# ---------------------------------------------------------------------------

def evaluate(triple_emb: np.ndarray, g: KnowledgeGraph,
             classifier: str = "both",
             restrict_multi_predicate: bool = False,
             folds: int = 5, rng_seed: int = 0,
             tasks: tuple[str, ...] = ("classify", "cluster"),
             metadata: dict | None = None) -> EvalReport:
    """Predicate classification (micro-F1 per classifier) and clusterability (CH index).

    `classifier` names a `CLASSIFIERS` entry; the folds, the classifiers and
    k-means take their seeds from `rng_seed`. k-means uses one cluster per
    predicate label among the triples evaluated: all predicates of the graph,
    or with `restrict_multi_predicate` only those that label a kept triple.

    Every fit and restart is a job of one `fork_map`, in the order [folds of
    each classifier in turn, k-means restarts]; the folds are checked, and
    warned about, before it forks. At W = 2 with `both`, the caller fits 3
    logreg and 2 MLP folds and the child 2 and 3, which cost about the same,
    and each runs 5 restarts; one map per classifier gave the caller 3 of
    each while the child idled.
    """
    triple_emb = np.asarray(triple_emb, dtype=np.float64)
    if triple_emb.shape[0] != g.num_triples:
        raise ValueError("embedding rows must align with graph triples")
    _reject_non_finite(triple_emb, "embedding")
    if classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier choice {classifier!r}")

    labels = g.ids[:, 1]
    if restrict_multi_predicate:
        keep = multi_predicate_triple_ids(g)
        if len(keep) < 10:
            raise ValueError("fewer than 10 triples after multi-predicate restriction")
        triple_emb = triple_emb[keep]
        labels = labels[keep]

    jobs: list[Callable] = []
    kinds: list[str] = []
    if "classify" in tasks:
        split = kfold_split(len(labels), folds=folds, rng_seed=rng_seed)
        for cls in CLASSIFIERS[classifier]:
            jobs += _fold_jobs(triple_emb, labels, cls, split, rng_seed)
            kinds.append(cls.kind)
    fits, best = len(jobs), None
    if "cluster" in tasks:
        k = len(np.unique(labels))
        if k >= 2 and len(labels) > k:
            restarts, best = _restart_jobs(triple_emb, k, rng_seed)
            jobs += restarts
    results = _run(jobs)

    per_fold = {kind: results[i * folds:(i + 1) * folds] for i, kind in enumerate(kinds)}
    means = {kind: float(np.mean(scores)) for kind, scores in per_fold.items()}
    ch = None
    if best is not None:
        assignment = best(results[fits:]).assignment
        if len(np.unique(assignment)) == k:   # else k-means left a cluster empty
            ch = calinski_harabasz(triple_emb, assignment, k)
    ch_degenerate = "cluster" in tasks and (ch is None or not math.isfinite(ch))

    meta = dict(metadata or {})
    meta.setdefault("dim", int(triple_emb.shape[1]))
    meta.setdefault("rng_seed", rng_seed)
    meta.setdefault("folds", folds)
    return EvalReport(
        micro_f1_per_fold=per_fold,
        micro_f1_mean=means,
        ch_index=ch,
        ch_degenerate=ch_degenerate,
        restricted_to_multi_predicate=restrict_multi_predicate,
        metadata=meta,
    )
