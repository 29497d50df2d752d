"""Line-graph random-walk baseline (Triple2vec-style).

Triples become nodes of a line graph whose edges connect triples sharing an
entity endpoint. Edge weights come from predicate co-occurrence statistics
(TF/ITF), walks over the weighted line graph form a corpus, and skip-gram
with negative sampling turns the corpus into triple embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.special import expit

from .graph import KnowledgeGraph
from .optim import TrainingDiverged, scatter_rows


# ---------------------------------------------------------------------------
# predicate co-occurrence weighting
# ---------------------------------------------------------------------------

def cooccurrence_counts(g: KnowledgeGraph) -> np.ndarray:
    """C[i][j] = number of (h, t) pairs linked by both predicate i and j (i != j).

    The diagonal holds each predicate's own (h, t)-pair count so that the
    inverse-frequency denominator is never zero for a used predicate.
    """
    # rows are distinct, so a (h, t) pair's triples carry distinct predicates
    _, pair = np.unique(g.ids[:, 0] * g.num_entities + g.ids[:, 2], return_inverse=True)
    p_x, p_y = _pairs_within_groups(pair, g.ids[:, 1])
    n = g.num_predicates
    return np.bincount(p_x * n + p_y, minlength=n * n).reshape(n, n)


def _pairs_within_groups(group: np.ndarray, member: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (x, y) of members with equal group ids, x == y included."""
    order = np.argsort(group, kind="stable")
    group, member = group[order], member[order]
    size = np.bincount(group)[group]
    first = np.repeat(np.searchsorted(group, group), size)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(size) - size, size)
    return np.repeat(member, size), member[first + offset]


def tf_weight(i: int, j: int, c: np.ndarray) -> float:
    return math.log1p(float(c[i, j]))


def itf_weight(j: int, n_edges: int, c: np.ndarray) -> float:
    if n_edges < 1:
        raise ValueError("need at least one edge")
    cooc = int(np.count_nonzero(c[:, j]))
    if cooc == 0:
        raise ValueError(f"predicate {j} has no co-occurrences")
    return math.log(n_edges / cooc)


def build_cm(c: np.ndarray, n_edges: int, symmetrize: bool = True) -> np.ndarray:
    """Frequency-weighted co-occurrence matrix TF(i,j) * ITF(j).

    The raw product is asymmetric because ITF depends only on the column;
    by default the two ITF values are averaged, keeping the matrix symmetric
    (the raw form is available with symmetrize=False).
    """
    p = c.shape[0]
    itf = np.array([itf_weight(j, n_edges, c) for j in range(p)])
    tf = np.log1p(c.astype(np.float64))
    if symmetrize:
        return tf * (itf[None, :] + itf[:, None]) / 2.0
    return tf * itf[None, :]


def predicate_similarity(cm: np.ndarray) -> np.ndarray:
    """Cosine similarity between rows of the weighted matrix; unit diagonal."""
    norms = np.linalg.norm(cm, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    unit = cm / safe[:, None]
    m = unit @ unit.T
    np.clip(m, -1.0, 1.0, out=m)
    np.fill_diagonal(m, 1.0)
    return m


# ---------------------------------------------------------------------------
# line graph
# ---------------------------------------------------------------------------

@dataclass
class LineGraph:
    n_nodes: int
    neighbors: list[np.ndarray]   # per node, adjacent triple ids
    weights: list[np.ndarray]     # matching non-negative edge weights

    def edges(self):
        """Each undirected edge once, as (i, j, weight) with i < j."""
        for i in range(self.n_nodes):
            for j, w in zip(self.neighbors[i], self.weights[i]):
                if i < j:
                    yield i, int(j), float(w)

    @property
    def n_edges(self) -> int:
        return sum(1 for _ in self.edges())


def build_line_graph(g: KnowledgeGraph, cm: np.ndarray | None = None) -> LineGraph:
    """Connect triples sharing an entity endpoint, weighted by predicate similarity.

    Edge {i, j} with i < j weighs max(0, M_r[p_i, p_j]) in both directions,
    once however many endpoints the two triples share.
    """
    if cm is None:
        cm = build_cm(cooccurrence_counts(g), g.num_triples)
    m_r = predicate_similarity(cm)
    n = g.num_triples
    h, p, t = g.ids.T
    triple = np.arange(n)
    # (entity, triple) incidences, a self-loop's entity once
    src, dst = _pairs_within_groups(np.concatenate([h, t[h != t]]),
                                    np.concatenate([triple, triple[h != t]]))
    key = np.sort((src * n + dst)[src != dst])
    key = key[np.diff(key, prepend=-1) != 0]   # a pair sharing both endpoints once
    src, dst = key // n, key % n
    w = m_r[p[np.minimum(src, dst)], p[np.maximum(src, dst)]]
    w = np.where(w > 0.0, w, 0.0)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    starts = [0] + ends[:-1]
    return LineGraph(n, [dst[a:b] for a, b in zip(starts, ends)],
                     [w[a:b] for a, b in zip(starts, ends)])


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def random_walks(lg: LineGraph, walks_per_node: int = 10, walk_length: int = 20,
                 rng_seed: int = 0) -> list[list[int]]:
    """Weight-proportional walks from every node; dead ends truncate the walk."""
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    if walks_per_node < 1:
        raise ValueError("walks_per_node must be >= 1")
    if len(lg.neighbors) != lg.n_nodes or len(lg.weights) != lg.n_nodes:
        raise ValueError("line graph needs one neighbour and weight array per node")
    ids = np.concatenate([np.empty(0, dtype=np.int64), *lg.neighbors])
    if ids.size and (ids.min() < 0 or ids.max() >= lg.n_nodes):
        raise ValueError(f"line graph neighbour ids must lie in [0, {lg.n_nodes})")
    cumw = []
    for w in lg.weights:
        tot = w.sum()
        cumw.append(np.cumsum(w) / tot if tot > 0 else None)
    corpus: list[list[int]] = []
    for start in range(lg.n_nodes):
        rng = np.random.default_rng([rng_seed, start])
        for _ in range(walks_per_node):
            walk = [start]
            node = start
            while len(walk) < walk_length:
                cw = cumw[node]
                if cw is None:
                    break
                node = int(lg.neighbors[node][np.searchsorted(cw, rng.random(), side="right")])
                walk.append(node)
            corpus.append(walk)
    return corpus


def save_corpus(corpus: list[list[int]], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for walk in corpus:
            fh.write(" ".join(str(n) for n in walk) + "\n")


def load_corpus(path: str | Path) -> list[list[int]]:
    corpus = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                corpus.append([int(x) for x in line.split()])
    return corpus


# ---------------------------------------------------------------------------
# skip-gram with negative sampling
# ---------------------------------------------------------------------------

@dataclass
class SkipgramResult:
    vectors: np.ndarray          # |T| x dim input vectors
    seen: np.ndarray             # bool mask; False rows kept their init values
    loss_per_epoch: list[float] = field(default_factory=list)


def window_pairs(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) positions of a walk of `length`, center-major.

    Contexts of a center come in ascending position order, the order in which
    a plain loop over positions and their windows visits them.
    """
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    center = np.broadcast_to(np.arange(length)[:, None], (length, len(offsets)))
    context = center + offsets
    inside = (context >= 0) & (context < length)
    return center[inside], context[inside]


def _scatter_sub(w: np.ndarray, rows: np.ndarray, data: np.ndarray, dense: np.ndarray,
                 max_hits: int | None = None) -> None:
    """w[rows[i, j]] -= data[i, j] * dense[i], summed over i and j, as one sparse product.

    With `max_hits`, the sum of a row hit m > max_hits times is scaled by max_hits / m.
    """
    uniq, step, hits = scatter_rows(rows, dense, data)
    if max_hits is not None:
        step *= np.minimum(1.0, max_hits / hits)[:, None]
    w[uniq] -= step


def sgns_walk_update(w_in: np.ndarray, w_out: np.ndarray, centers: np.ndarray,
                     targets: np.ndarray, lr: float, window: int) -> float:
    """One SGNS step over all (center, context) pairs of a walk; returns the summed loss.

    `targets` is (pairs, 1 + negatives): the context token, then the drawn
    negatives. Every pair's gradient is taken at the parameters as they were
    before the step, and gradients hitting the same row are summed.

    A w_out row hit more than 2 * window * (1 + negatives) times in the walk
    (every slot of one center's window) has its sum scaled down to that many
    hits' worth. Without the cap, a token that fills the walks of a tiny
    vocabulary collects hundreds of hits per walk, and the feedback between
    w_in and w_out diverges.
    """
    n_pairs, k = targets.shape
    v = w_in[centers]                                              # (p, d)
    u = w_out[targets]                                             # (p, k, d)
    s = np.einsum("pkd,pd->pk", u, v)
    s[:, 0] *= -1.0               # flipped context score: every term is log(1 + e^s)
    loss = float(np.logaddexp(0.0, s).sum())
    coeff = expit(s) * lr         # lr * d loss / d score, up to the flip
    coeff[:, 0] *= -1.0
    _scatter_sub(w_in, np.repeat(centers, k)[:, None], coeff, u.reshape(n_pairs * k, -1))
    _scatter_sub(w_out, targets, coeff, v, max_hits=2 * window * k)
    return loss


def train_skipgram(corpus: list[list[int]], n_tokens: int, dim: int,
                   epochs: int = 30, rng_seed: int = 0, window: int = 5,
                   negatives: int = 5, learning_rate: float = 0.025) -> SkipgramResult:
    """Skip-gram with negative sampling over triple-id sequences.

    Noise distribution is unigram^0.75; the learning rate decays linearly,
    one step per walk. Each walk is one vectorized update: all of its
    (center, context) pairs and their negatives are scored against the same
    parameters and the summed gradients applied at once (`sgns_walk_update`).
    Walks are processed in corpus order, so the result is deterministic under
    rng_seed. Raises ValueError for token ids outside [0, n_tokens) or a
    dim, epochs, window or negatives below 1, and TrainingDiverged if the
    vectors stop being finite.
    """
    for name, value in (("dim", dim), ("epochs", epochs), ("window", window),
                        ("negatives", negatives)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    if not lengths.any():
        raise ValueError("empty corpus")
    tokens = np.fromiter(chain.from_iterable(corpus), dtype=np.int64, count=int(lengths.sum()))
    if tokens.min() < 0 or tokens.max() >= n_tokens:
        bad = tokens[(tokens < 0) | (tokens >= n_tokens)][0]
        raise ValueError(f"token id {bad} outside [0, {n_tokens})")
    ends = np.cumsum(lengths).tolist()
    rng = np.random.default_rng(rng_seed)
    counts = np.bincount(tokens, minlength=n_tokens).astype(np.float64)
    seen = counts > 0
    noise_cdf = np.cumsum(counts ** 0.75)
    noise_cdf /= noise_cdf[-1]

    w_in = (rng.random((n_tokens, dim)) - 0.5) / dim
    w_out = np.zeros((n_tokens, dim))

    total_sentences = epochs * len(corpus)
    processed = 0
    min_lr = learning_rate * 1e-4
    pairs_by_length: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    history = []
    for epoch in range(epochs):
        epoch_loss = 0.0
        n_pairs = 0
        for lo, hi in zip([0] + ends[:-1], ends):
            lr = learning_rate - (learning_rate - min_lr) * (processed / total_sentences)
            processed += 1
            if hi - lo not in pairs_by_length:
                pairs_by_length[hi - lo] = window_pairs(hi - lo, window)
            center_pos, context_pos = pairs_by_length[hi - lo]
            if not len(center_pos):
                continue
            walk = tokens[lo:hi]
            negs = np.searchsorted(noise_cdf, rng.random((len(center_pos), negatives)),
                                   side="right")
            targets = np.concatenate([walk[context_pos][:, None], negs], axis=1)
            epoch_loss += sgns_walk_update(w_in, w_out, walk[center_pos], targets, lr,
                                            window)
            n_pairs += len(center_pos)
        if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
            raise TrainingDiverged(f"non-finite skip-gram vectors at epoch {epoch}")
        history.append(epoch_loss / max(1, n_pairs))
    return SkipgramResult(w_in, seen, history)


def train_baseline(g: KnowledgeGraph, dim: int, walks_per_node: int = 10,
                   walk_length: int = 20, epochs: int = 30,
                   rng_seed: int = 0, window: int = 5, negatives: int = 5) -> SkipgramResult:
    """End-to-end baseline: line graph -> walks -> skip-gram triple vectors."""
    lg = build_line_graph(g)
    corpus = random_walks(lg, walks_per_node=walks_per_node, walk_length=walk_length,
                          rng_seed=rng_seed)
    return train_skipgram(corpus, g.num_triples, dim, epochs=epochs, rng_seed=rng_seed,
                          window=window, negatives=negatives)
