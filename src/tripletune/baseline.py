"""Line-graph random-walk baseline (Triple2vec-style).

Triples become nodes of a line graph whose edges connect triples sharing an
entity endpoint. Edge weights come from predicate co-occurrence statistics
(TF/ITF). Every node starts the same number of weight-proportional walks,
and all walkers advance in lockstep over the CSR line graph into one walk
matrix, padded with -1 after a dead end.

Skip-gram with k negative samples and the unigram^0.75 noise distribution
factorises the walks' pointwise mutual information shifted by log k (Levy &
Goldberg, "Neural Word Embedding as Implicit Matrix Factorization", NeurIPS
2014; Qiu et al., WSDM 2018, for DeepWalk-style walks). `train_sppmi` solves
that objective in closed form: window co-occurrence counts, the positive
shifted PMI, and a rank-dim truncated SVD. It has no epochs, no learning rate
and nothing that can diverge. `train_skipgram` fits the same objective by
stochastic gradient steps and stays as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh

from .graph import KnowledgeGraph
from .optim import TrainingDiverged, check_count, scatter_rows


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


def itf_weight(j: int, n_edges: int, c: np.ndarray) -> float:
    if n_edges < 1:
        raise ValueError("need at least one edge")
    cooc = int(np.count_nonzero(c[:, j]))
    if cooc == 0:
        raise ValueError(f"predicate {j} has no co-occurrences")
    return math.log(n_edges / cooc)


def build_cm(c: np.ndarray, n_edges: int) -> np.ndarray:
    """Frequency-weighted co-occurrence matrix TF(i,j) * ITF(j), symmetrised.

    The raw product is asymmetric because ITF depends only on the column, so
    the two ITF values are averaged, which keeps the matrix symmetric.
    """
    p = c.shape[0]
    itf = np.array([itf_weight(j, n_edges, c) for j in range(p)])
    return np.log1p(c.astype(np.float64)) * (itf[None, :] + itf[:, None]) / 2.0


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
    """Weighted line graph in CSR form.

    Node i's neighbours are indices[indptr[i]:indptr[i + 1]], with the matching
    non-negative weights. Each undirected edge is stored once per direction.
    """
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-node views of `indices`."""
        return np.split(self.indices, self.indptr[1:-1])


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
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return LineGraph(indptr, dst, np.where(w > 0.0, w, 0.0))


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def random_walks(lg: LineGraph, walks_per_node: int = 10, walk_length: int = 20,
                 rng_seed: int = 0) -> np.ndarray:
    """Weight-proportional walks, `walks_per_node` from every node, advanced in lockstep.

    Returns a (n_nodes * walks_per_node, walk_length) int32 matrix; row r starts
    at node r // walks_per_node. Each step draws one uniform number per live
    walker and finds its edge with one search over the per-node normalised
    cumulative weights, offset by the node index so that node v's values lie
    in [v, v + 1]: each node keeps a unit interval however large the graph. A
    walker that reaches a node without a positive edge weight stops there, and
    the rest of its row is -1.
    """
    check_count("walk_length", walk_length)
    check_count("walks_per_node", walks_per_node)
    indptr, indices, weights = (np.asarray(a) for a in (lg.indptr, lg.indices, lg.weights))
    n = lg.n_nodes
    if (n < 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
            or indptr[-1] != len(indices) or len(weights) != len(indices)):
        raise ValueError("line graph needs CSR arrays: indptr rising from 0 to "
                         "len(indices), and one weight per neighbour id")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"line graph neighbour ids must lie in [0, {n})")
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError("line graph weights must be finite and non-negative")

    node = np.repeat(np.arange(n), np.diff(indptr))
    cum = np.cumsum(weights, dtype=np.float64)
    cum -= np.concatenate([[0.0], cum])[indptr[:-1]][node]   # restart at each node
    total = np.zeros(n)
    has_edges = indptr[1:] > indptr[:-1]
    total[has_edges] = cum[indptr[1:][has_edges] - 1]
    live = total > 0.0
    # a node's last positive-weight edge ends at exactly v + 1, and a zero-weight
    # edge ends where the edge before it does, so no draw can select it
    key = node + np.divide(cum, total[node], out=np.zeros_like(cum), where=live[node])
    top = np.nextafter(np.arange(1, n + 1, dtype=np.float64), 0.0)   # largest draw below v + 1

    rng = np.random.default_rng(rng_seed)
    walks = np.full((n * walks_per_node, walk_length), -1, dtype=np.int32)
    walks[:, 0] = np.repeat(np.arange(n), walks_per_node)
    row = np.flatnonzero(live[walks[:, 0]])
    for step in range(1, walk_length):
        cur = walks[row, step - 1]
        x = np.minimum(cur + rng.random(len(row)), top[cur])
        # searching the draws in ascending order walks `key` once, cache-friendly
        by_x = np.argsort(x)
        edge = np.empty(len(x), dtype=np.intp)
        edge[by_x] = np.searchsorted(key, x[by_x], side="right")
        nxt = indices[edge]
        walks[row, step] = nxt
        row = row[live[nxt]]
    return walks


# ---------------------------------------------------------------------------
# skip-gram with negative sampling
# ---------------------------------------------------------------------------

@dataclass
class SkipgramResult:
    vectors: np.ndarray          # |T| x dim input vectors
    seen: np.ndarray             # bool mask; False rows were never walked and keep
                                 # their initial values (skip-gram) or zeros (SPPMI)
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

    `scipy.special` is imported here, not with the module: only the
    `train_skipgram` reference calls this, and `train_baseline` does not.
    """
    from scipy.special import expit
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
        check_count(name, value)
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


# ---------------------------------------------------------------------------
# skip-gram in closed form: shifted positive PMI and a truncated SVD
# ---------------------------------------------------------------------------

COUNT_BLOCK = 1 << 20   # (center, context) slots counted at once by `window_counts`


def window_counts(walks: np.ndarray, n_tokens: int, window: int) -> sparse.csr_matrix:
    """Symmetric counts of token pairs at most `window` positions apart in a walk.

    Entry (a, b) is the number of (center, context) slots with center a and
    context b, the slots `window_pairs` gives each walk; -1 padding is no token.
    Walks are counted a block at a time, so the scratch memory beyond the
    matrix is one block's slots, not tokens x window.
    """
    length = walks.shape[1]
    offsets = range(1, min(window, length - 1) + 1)
    per_walk = sum(length - d for d in offsets)
    per_block = max(1, COUNT_BLOCK // max(1, per_walk))
    counts = sparse.csr_matrix((n_tokens, n_tokens))
    if not per_walk:
        return counts
    for lo in range(0, len(walks), per_block):
        block = walks[lo:lo + per_block]
        a = np.concatenate([block[:, :-d].ravel() for d in offsets])
        b = np.concatenate([block[:, d:].ravel() for d in offsets])
        slot = b >= 0      # padding trails, so a is a token wherever b is
        counts += sparse.csr_matrix((np.ones(int(slot.sum())), (a[slot], b[slot])),
                                    shape=(n_tokens, n_tokens))
    return (counts + counts.T).tocsr()


def sppmi_matrix(walks: np.ndarray, n_tokens: int, window: int,
                 negatives: int) -> sparse.csr_matrix:
    """Positive pointwise mutual information of the walks, shifted by log(negatives).

    Entry (w, c) is max(0, log(#(w, c) / (#(w) P(c))) - log(negatives)), with
    #(w, c) from `window_counts`, #(w) its row sum and P the unigram^0.75
    distribution of walk tokens, the noise distribution of `train_skipgram`.
    It is the score w . c at which the expected skip-gram loss of the pair is
    stationary (Levy & Goldberg, NeurIPS 2014).
    """
    counts = window_counts(walks, n_tokens, window)
    noise = np.bincount(walks[walks >= 0], minlength=n_tokens) ** 0.75
    noise /= max(noise.sum(), 1.0)
    row_sum = np.asarray(counts.sum(axis=1)).ravel()
    pmi = np.log(counts.data)   # in place, one array of non-zeros at a time
    pmi -= np.repeat(np.log(np.maximum(row_sum, 1.0)), np.diff(counts.indptr))
    pmi -= np.log(noise[counts.indices])
    pmi -= math.log(negatives)
    counts.data = np.maximum(pmi, 0.0, out=pmi)
    counts.eliminate_zeros()
    return counts


def factorise(m: sparse.csr_matrix, dim: int, rng_seed: int = 0) -> np.ndarray:
    """U sqrt(S) of the best rank-`dim` approximation U S V^T of `m`, as (rows, dim).

    V comes from ARPACK (`scipy.sparse.linalg.eigsh`) on the operator m^T m,
    started from a vector drawn under `rng_seed`; a matrix at most twice
    `dim` wide gets a dense SVD instead. U sqrt(S) is m V / sqrt(S), so a zero
    row of `m` gives an exactly zero row. Components come in descending
    singular-value order, each signed so that the largest |entry| of its
    column is positive. Singular values at or below sqrt(rows * eps) of the
    largest, where the eigen-solver's rounding leaves a null direction, and
    components past min(m.shape) give zero columns.

    `svds` runs the same ARPACK iteration, then re-orthonormalises V and
    takes a small dense SVD; on 1,200-triple hub-baseline graphs those two
    LAPACK calls raised the peak RSS of a `run-all` by 0.7-2.0 MiB, mostly
    library code pages.
    """
    n = min(m.shape)
    k = min(dim, n)
    out = np.zeros((m.shape[0], dim))
    if m.nnz == 0:
        return out
    if 2 * k >= n:
        v = np.linalg.svd(m.toarray(), full_matrices=False)[2][:k].T
    else:
        cols = m.shape[1]
        gram = LinearOperator((cols, cols), matvec=lambda x: m.T @ (m @ x),
                              dtype=np.float64)
        v = eigsh(gram, k=k, v0=np.random.default_rng(rng_seed).standard_normal(cols))[1]
    u = m @ v
    s = np.linalg.norm(u, axis=0)
    order = np.argsort(-s, kind="stable")
    order = order[s[order] > s.max() * math.sqrt(m.shape[0] * np.finfo(np.float64).eps)]
    u = u[:, order] / np.sqrt(s[order])
    out[:, :len(order)] = u * np.where(u[np.abs(u).argmax(axis=0), np.arange(len(order))] < 0,
                                       -1.0, 1.0)
    return out


def train_sppmi(walks: np.ndarray, n_tokens: int, dim: int, window: int = 5,
                negatives: int = 5, rng_seed: int = 0) -> SkipgramResult:
    """Skip-gram with negative sampling solved in closed form over a walk matrix.

    The vectors are U sqrt(S) of the rank-`dim` truncated SVD of
    `sppmi_matrix`: the factorisation that skip-gram with `negatives` noise
    samples approximates (Levy & Goldberg, "Neural Word Embedding as Implicit
    Matrix Factorization", NeurIPS 2014). There are no epochs and no learning
    rate, so `loss_per_epoch` is empty. Rows of `walks` are token ids followed
    by -1 padding. Raises ValueError for other ids outside [0, n_tokens) and
    for a dim, window or negatives below 1. A token with no positive entry
    gets a zero row.
    """
    for name, value in (("dim", dim), ("window", window), ("negatives", negatives)):
        check_count(name, value)
    walks = np.asarray(walks)
    if walks.ndim != 2 or not np.issubdtype(walks.dtype, np.integer):
        raise ValueError("walks must be a 2-D integer matrix")
    bad = walks[(walks < -1) | (walks >= n_tokens)]
    if bad.size:
        raise ValueError(f"token id {bad[0]} outside [0, {n_tokens})")
    if np.any((walks[:, :-1] < 0) & (walks[:, 1:] >= 0)):
        raise ValueError("-1 padding must only follow a walk's tokens")
    seen = np.bincount(walks[walks >= 0], minlength=n_tokens) > 0
    vectors = factorise(sppmi_matrix(walks, n_tokens, window, negatives), dim, rng_seed)
    return SkipgramResult(vectors, seen)


def train_baseline(g: KnowledgeGraph, dim: int, walks_per_node: int = 10,
                   walk_length: int = 20, rng_seed: int = 0, window: int = 5,
                   negatives: int = 5) -> SkipgramResult:
    """End-to-end baseline: line graph -> lockstep walks -> SPPMI triple vectors.

    A walk of one triple has no context, so `walk_length` must be >= 2."""
    check_count("walk_length", walk_length, 2)
    lg = build_line_graph(g)
    walks = random_walks(lg, walks_per_node=walks_per_node, walk_length=walk_length,
                         rng_seed=rng_seed)
    del lg   # the counts need the memory more than the line graph
    return train_sppmi(walks, g.num_triples, dim, window=window, negatives=negatives,
                       rng_seed=rng_seed)
