import math

import numpy as np
import pytest

from scipy import sparse
from scipy.stats import chi2

from tripletune import baseline
from tripletune.baseline import (LineGraph, build_cm, build_line_graph,
                                 cooccurrence_counts, factorise, itf_weight,
                                 predicate_similarity, random_walks, sgns_walk_update,
                                 sppmi_matrix, train_baseline, train_skipgram,
                                 train_sppmi, window_counts, window_pairs)
from tripletune.graph import KnowledgeGraph
from tripletune.optim import TrainingDiverged
from conftest import random_named_triples
from oracles import tf_weight


def two_predicate_graph():
    # p0 and p1 co-occur on (a, b); p0 also appears alone on (c, d)
    return KnowledgeGraph.from_named_triples([
        ("a", "p0", "b"), ("a", "p1", "b"), ("c", "p0", "d")])


# -- co-occurrence and weighting ---------------------------------------------

def test_cooccurrence_hand_example():
    g = two_predicate_graph()
    c = cooccurrence_counts(g)
    # vocab assigns ids in first-seen order: p0 = 0, p1 = 1
    assert c[0, 0] == 2   # p0 used on two (h, t) pairs
    assert c[1, 1] == 1
    assert c[0, 1] == 1
    assert c[1, 0] == 1


def test_cooccurrence_symmetric(rng):
    rows = random_named_triples(rng, 10, 4, 35)
    g = KnowledgeGraph.from_named_triples(rows)
    c = cooccurrence_counts(g)
    assert np.array_equal(c, c.T)
    assert np.all(c >= 0)


def test_tf_itf_examples():
    g = two_predicate_graph()
    c = cooccurrence_counts(g)
    assert tf_weight(0, 1, c) == pytest.approx(math.log(2.0))
    assert tf_weight(0, 0, c) == pytest.approx(math.log(3.0))
    # both columns have 2 nonzero entries; with 3 edges ITF = log(3/2)
    assert itf_weight(0, g.num_triples, c) == pytest.approx(math.log(1.5))
    assert itf_weight(1, g.num_triples, c) == pytest.approx(math.log(1.5))


def test_itf_log_ten():
    c = np.zeros((2, 2), dtype=np.int64)
    c[0, 0] = 1
    c[1, 1] = 1
    assert itf_weight(0, 10, c) == pytest.approx(2.302585092994046)


def test_itf_validation():
    c = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        itf_weight(0, 0, c)
    with pytest.raises(ValueError):
        itf_weight(0, 5, c)


def cm_oracle(c, n_edges):
    """Scalar-by-scalar reconstruction from tf_weight / itf_weight."""
    p = c.shape[0]
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            out[i, j] = tf_weight(i, j, c) * (
                itf_weight(i, n_edges, c) + itf_weight(j, n_edges, c)) / 2.0
    return out


def test_cm_matches_scalar_oracle(rng):
    rows = random_named_triples(rng, 8, 5, 40)
    g = KnowledgeGraph.from_named_triples(rows)
    c = cooccurrence_counts(g)
    cm = build_cm(c, g.num_triples)
    assert np.allclose(cm, cm_oracle(c, g.num_triples), atol=1e-12)
    assert np.allclose(cm, cm.T, atol=1e-12)


def test_predicate_similarity_properties(rng):
    rows = random_named_triples(rng, 8, 4, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    m = predicate_similarity(build_cm(cooccurrence_counts(g), g.num_triples))
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert np.all(m <= 1.0) and np.all(m >= -1.0)


# -- line graph ---------------------------------------------------------------

def test_line_graph_disjoint_triples_have_no_edges():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("c", "p0", "d")])
    lg = build_line_graph(g)
    assert lg.n_edges == 0
    assert all(len(n) == 0 for n in lg.neighbors)


def csr_line_graph(neighbors, weights):
    """A LineGraph from per-node neighbour and weight lists."""
    indptr = np.concatenate([[0], np.cumsum([len(nb) for nb in neighbors])])
    return LineGraph(indptr.astype(np.int64),
                     np.array([j for nb in neighbors for j in nb], dtype=np.int64),
                     np.array([w for ws in weights for w in ws], dtype=np.float64))


def edge_list(lg):
    """Each undirected edge once, as (i, j, weight) with i < j."""
    return [(i, int(j), float(w))
            for i, (nb, ws) in enumerate(zip(lg.neighbors, np.split(lg.weights,
                                                                     lg.indptr[1:-1])))
            for j, w in zip(nb, ws) if i < j]


def test_line_graph_shared_entity_connects():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("b", "p0", "c")])
    lg = build_line_graph(g)
    edges = edge_list(lg)
    assert len(edges) == 1 and lg.n_edges == 1
    i, j, w = edges[0]
    assert (i, j) == (0, 1)
    # same predicate on both endpoints: unit-diagonal similarity weight
    assert w == pytest.approx(1.0)


def test_line_graph_star_has_all_pairs():
    g = KnowledgeGraph.from_named_triples([
        ("hub", "p0", "a"), ("hub", "p0", "b"), ("hub", "p0", "c"), ("hub", "p0", "d")])
    lg = build_line_graph(g)
    assert lg.n_edges == 6   # C(4, 2)


def test_line_graph_weights_non_negative(rng):
    rows = random_named_triples(rng, 8, 4, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    lg = build_line_graph(g)
    assert np.all(lg.weights >= 0.0)
    assert lg.indptr[0] == 0 and lg.indptr[-1] == len(lg.indices) == len(lg.weights)
    # undirected consistency, each edge stored once per direction
    for i, j, w in edge_list(lg):
        back = lg.weights[lg.indptr[j] + list(lg.neighbors[j]).index(i)]
        assert back == w
    assert 2 * len(edge_list(lg)) == len(lg.indices)


def test_line_graph_neighbors_are_csr_views():
    g = KnowledgeGraph.from_named_triples([
        ("a", "p0", "b"), ("b", "p0", "c"), ("x", "p0", "y")])
    lg = build_line_graph(g)
    assert [nb.tolist() for nb in lg.neighbors] == [[1], [0], []]
    assert all(nb.base is not None for nb in lg.neighbors)


# -- walks --------------------------------------------------------------------

def test_walks_isolated_node_length_one():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("c", "p0", "d")])
    lg = build_line_graph(g)
    walks = random_walks(lg, walks_per_node=2, walk_length=10, rng_seed=0)
    assert walks.shape == (4, 10)
    assert walks[:, 0].tolist() == [0, 0, 1, 1]
    assert np.all(walks[:, 1:] == -1)


def test_walks_two_node_alternate():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("b", "p0", "c")])
    lg = build_line_graph(g)
    walks = random_walks(lg, walks_per_node=1, walk_length=6, rng_seed=0)
    assert walks[0].tolist() == [0, 1, 0, 1, 0, 1]
    assert walks[1].tolist() == [1, 0, 1, 0, 1, 0]


def test_walks_follow_edges(rng):
    rows = random_named_triples(rng, 10, 3, 35)
    g = KnowledgeGraph.from_named_triples(rows)
    lg = build_line_graph(g)
    for walk in random_walks(lg, walks_per_node=3, walk_length=8, rng_seed=1):
        walk = walk[walk >= 0]
        for a, b in zip(walk, walk[1:]):
            assert b in lg.neighbors[a]


def test_walks_weight_proportional():
    # node 0 has two neighbors with 9:1 weights
    lg = csr_line_graph([[1, 2], [0], [0]], [[9.0, 1.0], [9.0], [1.0]])
    walks = random_walks(lg, walks_per_node=10_000, walk_length=2, rng_seed=0)
    firsts = walks[walks[:, 0] == 0, 1]
    frac = np.mean(firsts == 1)
    assert frac == pytest.approx(0.9, abs=0.03)


def test_walks_deterministic(rng):
    rows = random_named_triples(rng, 10, 3, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    lg = build_line_graph(g)
    w1 = random_walks(lg, walks_per_node=2, walk_length=5, rng_seed=3)
    w2 = random_walks(lg, walks_per_node=2, walk_length=5, rng_seed=3)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, random_walks(lg, walks_per_node=2, walk_length=5,
                                               rng_seed=4))


def test_walks_validation():
    lg = csr_line_graph([[]], [[]])
    with pytest.raises(ValueError):
        random_walks(lg, walk_length=0)


def gate_graphs():
    """Small line graphs with every case the walk step has to handle.

    - `build_line_graph` of a graph whose triples (a, p0, b) and (a, p1, b)
      share both endpoints, whose predicate p2 never co-occurs with p0 or p1
      (zero-weight edges, and a triple whose every edge weighs zero), and with
      an isolated triple;
    - `build_line_graph` of a random graph on few entities;
    - a hand-made CSR graph with asymmetric weights: zero weights first, in
      the middle and last in a row, a node that is reached but has only
      zero-weight edges, and a node with no edges at all.
    """
    named = KnowledgeGraph.from_named_triples([
        ("a", "p0", "b"), ("a", "p1", "b"), ("b", "p0", "c"), ("c", "p1", "d"),
        ("d", "p0", "a"), ("c", "p1", "a"), ("b", "p2", "e"), ("e", "p2", "f"),
        ("f", "p2", "g"), ("x", "p0", "y")])
    rng = np.random.default_rng(11)
    random_kg = KnowledgeGraph.from_named_triples(random_named_triples(rng, 6, 3, 25))
    hand = csr_line_graph(
        [[1, 2, 3, 4], [0, 2, 4], [0, 1], [0, 1], [], [0, 1, 2]],
        [[0.0, 2.0, 0.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [],
         [1.0, 1.0, 0.0]])
    return {"named": build_line_graph(named), "random": build_line_graph(random_kg),
            "hand": hand}


@pytest.mark.parametrize("name", ["named", "random", "hand"])
def test_walk_transitions_match_line_graph_weights(name):
    """Gate for the lockstep walk: one-step transition frequencies against the
    edge weights, one pooled chi-square test per graph at seed 0, failing below
    p = 1e-4 (both fixed before the first run). A zero-weight edge or a
    non-edge is never taken, and a walk stops exactly at a node without a
    positive edge weight."""
    lg = gate_graphs()[name]
    if name == "named":
        assert np.any(lg.weights == 0.0) and np.any(lg.weights > 0.0)
        assert any(len(nb) == 0 for nb in lg.neighbors)
    weights = np.split(lg.weights, lg.indptr[1:-1])
    total = np.array([w.sum() for w in weights])
    walks = random_walks(lg, walks_per_node=4_000, walk_length=4, rng_seed=0)

    cur, nxt = walks[:, :-1].ravel(), walks[:, 1:].ravel()
    live = cur >= 0
    # -1 exactly after a node without a positive weight, and then only -1
    assert np.array_equal(nxt[live] >= 0, total[cur[live]] > 0)
    assert np.all(nxt[~live] == -1)

    steps, counts = np.unique(np.stack([cur[nxt >= 0], nxt[nxt >= 0]], axis=1), axis=0,
                              return_counts=True)
    stat, dof = 0.0, 0
    for u, (nb, w) in enumerate(zip(lg.neighbors, weights)):
        out = {int(v): int(c) for (a, v), c in zip(steps, counts) if a == u}
        for v in out:   # every step follows a positive-weight edge of its node
            assert v in nb.tolist() and w[nb.tolist().index(v)] > 0
        n_u = sum(out.values())
        if n_u == 0:
            continue
        expected = n_u * w[w > 0] / total[u]
        got = np.array([out.get(int(v), 0) for v in nb[w > 0]])
        stat += float(((got - expected) ** 2 / expected).sum())
        dof += int((w > 0).sum()) - 1
    assert dof > 0
    assert chi2.sf(stat, dof) > 1e-4, (stat, dof)


# -- skip-gram ----------------------------------------------------------------

def test_skipgram_cooccurring_tokens_closer():
    # tokens 0/1 always together, token 2/3 always together, groups never mix
    corpus = [[0, 1, 0, 1, 0, 1]] * 40 + [[2, 3, 2, 3, 2, 3]] * 40
    res = train_skipgram(corpus, n_tokens=4, dim=8, epochs=15, rng_seed=0)
    v = res.vectors / np.linalg.norm(res.vectors, axis=1, keepdims=True)
    within = v[0] @ v[1]
    across = max(v[0] @ v[2], v[0] @ v[3])
    assert within > across


def test_skipgram_deterministic():
    corpus = [[0, 1, 2], [2, 1, 0], [1, 2, 0]] * 5
    r1 = train_skipgram(corpus, 3, dim=4, epochs=3, rng_seed=9)
    r2 = train_skipgram(corpus, 3, dim=4, epochs=3, rng_seed=9)
    assert np.array_equal(r1.vectors, r2.vectors)
    assert r1.loss_per_epoch == r2.loss_per_epoch


def test_skipgram_loss_decreases():
    corpus = [[0, 1, 0, 1], [2, 3, 2, 3]] * 20
    res = train_skipgram(corpus, 4, dim=8, epochs=20, rng_seed=0)
    assert res.loss_per_epoch[-1] < res.loss_per_epoch[0]


def test_skipgram_unseen_tokens_flagged():
    corpus = [[0, 1], [1, 0]]
    res = train_skipgram(corpus, 5, dim=4, epochs=2, rng_seed=0)
    assert res.seen.tolist() == [True, True, False, False, False]


def test_skipgram_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_skipgram([], 3, dim=4)
    with pytest.raises(ValueError):
        train_skipgram([[], []], 3, dim=4)


# -- end-to-end ---------------------------------------------------------------

def test_train_baseline_shapes(rng):
    rows = random_named_triples(rng, 12, 3, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    res = train_baseline(g, dim=6, walks_per_node=2, walk_length=5, rng_seed=0)
    assert res.vectors.shape == (g.num_triples, 6)
    assert np.all(np.isfinite(res.vectors))
    assert res.seen.all()                  # every triple starts its own walks
    assert res.loss_per_epoch == []
    walks = random_walks(build_line_graph(g), walks_per_node=2, walk_length=5, rng_seed=0)
    assert np.array_equal(res.vectors, train_sppmi(walks, g.num_triples, 6).vectors)


@pytest.mark.parametrize("walk_length", [0, 1])
def test_train_baseline_rejects_walks_without_context(rng, walk_length):
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 12, 3, 30))
    with pytest.raises(ValueError, match=f"^walk_length must be >= 2, got {walk_length}$"):
        train_baseline(g, dim=6, walk_length=walk_length)


# -- skip-gram in closed form ---------------------------------------------------

def sppmi_oracle(walks, n_tokens, window, negatives):
    """Dense shifted positive PMI, one (center, context) slot at a time."""
    counts = np.zeros((n_tokens, n_tokens))
    unigram = np.zeros(n_tokens)
    for row in walks:
        walk = [t for t in row if t >= 0]
        for i, center in enumerate(walk):
            unigram[center] += 1
            for j in range(max(0, i - window), min(len(walk), i + window + 1)):
                if j != i:
                    counts[center, walk[j]] += 1
    noise = unigram ** 0.75 / (unigram ** 0.75).sum()
    out = np.zeros((n_tokens, n_tokens))
    for w in range(n_tokens):
        for c in range(n_tokens):
            if counts[w, c]:
                pmi = math.log(counts[w, c] / (counts[w].sum() * noise[c]))
                out[w, c] = max(0.0, pmi - math.log(negatives))
    return out


def padded_walks(rng, n_walks, length, n_tokens):
    """Random token walks, each cut after a random number of tokens."""
    walks = rng.integers(n_tokens, size=(n_walks, length))
    cut = rng.integers(1, length + 1, size=n_walks)
    walks[np.arange(length)[None, :] >= cut[:, None]] = -1
    return walks


@pytest.mark.parametrize("seed, n_walks, length, n_tokens, window, negatives", [
    (0, 12, 6, 5, 2, 1),
    (1, 30, 9, 11, 3, 3),
    (2, 8, 4, 7, 5, 5),      # window longer than the walks
    (3, 5, 1, 4, 2, 2),      # single-token walks: nothing co-occurs
])
def test_sppmi_matches_dense_loop(seed, n_walks, length, n_tokens, window, negatives):
    walks = padded_walks(np.random.default_rng(seed), n_walks, length, n_tokens)
    got = sppmi_matrix(walks, n_tokens, window, negatives)
    assert sparse.issparse(got)
    want = sppmi_oracle(walks, n_tokens, window, negatives)
    assert np.allclose(got.toarray(), want, rtol=1e-12, atol=0.0)


def test_window_counts_independent_of_block_size(monkeypatch):
    walks = padded_walks(np.random.default_rng(5), 40, 7, 9)
    whole = window_counts(walks, 9, 3).toarray()
    monkeypatch.setattr(baseline, "COUNT_BLOCK", 1)   # one walk per block
    assert np.array_equal(window_counts(walks, 9, 3).toarray(), whole)
    assert np.array_equal(whole, whole.T)


@pytest.mark.parametrize("n_walks, n_tokens, dim, twin", [
    (200, 30, 4, False),     # truncated: ARPACK
    (150, 20, 6, True),      # two copies of one corpus: every singular value twice
    (60, 10, 6, False),      # wider than half the matrix: dense SVD
])
def test_factorise_is_best_rank_dim_approximation(n_walks, n_tokens, dim, twin):
    walks = padded_walks(np.random.default_rng(7), n_walks, 8, n_tokens)
    if twin:
        walks = np.concatenate([walks, np.where(walks >= 0, walks + n_tokens, -1)])
        n_tokens *= 2
    m = sppmi_matrix(walks, n_tokens, 2, 1)
    assert np.linalg.matrix_rank(m.toarray()) > dim
    left = factorise(m, dim, rng_seed=0)                 # U sqrt(S)
    u, s, vt = np.linalg.svd(m.toarray())
    # descending, each component signed by its largest entry
    assert np.allclose(np.linalg.norm(left, axis=0) ** 2, s[:dim], rtol=1e-10)
    assert np.all(left[np.abs(left).argmax(axis=0), np.arange(dim)] > 0)
    right = m.T @ left / s[:dim]                         # V sqrt(S) = m^T U / sqrt(S)
    best = (u[:, :dim] * s[:dim]) @ vt[:dim]
    assert np.allclose(left @ right.T, best, rtol=0, atol=1e-10 * s[0])


def test_train_sppmi_deterministic():
    walks = padded_walks(np.random.default_rng(8), 200, 8, 40)
    r1 = train_sppmi(walks, 40, dim=5, rng_seed=3)
    r2 = train_sppmi(walks, 40, dim=5, rng_seed=3)
    assert np.array_equal(r1.vectors, r2.vectors)


def test_sppmi_all_non_positive_gives_zero_vectors():
    # with 10^6 negatives every shifted PMI is negative; no ArpackError
    walks = padded_walks(np.random.default_rng(9), 50, 6, 20)
    assert sppmi_matrix(walks, 20, 5, 10 ** 6).nnz == 0
    res = train_sppmi(walks, 20, dim=4, negatives=10 ** 6)
    assert res.vectors.shape == (20, 4)
    assert not res.vectors.any()


@pytest.mark.parametrize("n_tokens", [2, 3, 5])
def test_sppmi_vocabulary_up_to_dim(n_tokens):
    walks = padded_walks(np.random.default_rng(10), 30, 6, n_tokens)
    res = train_sppmi(walks, n_tokens, dim=5, window=2, negatives=1)
    assert res.vectors.shape == (n_tokens, 5)
    m = sppmi_matrix(walks, n_tokens, 2, 1).toarray()
    rank = np.linalg.matrix_rank(m)
    assert not res.vectors[:, rank:].any()
    assert np.all(np.linalg.norm(res.vectors[:, :rank], axis=0) > 0)


def test_sppmi_token_without_cooccurrence_gets_zero_row():
    # token 4 only walks alone; token 5 is never walked
    walks = np.array([[0, 1, 2, 3, 0, 1], [2, 3, 1, 0, -1, -1], [4, -1, -1, -1, -1, -1],
                      [1, 2, 0, 3, 2, -1]])
    res = train_sppmi(walks, 6, dim=2, window=2, negatives=1)
    assert res.vectors[:4].any(axis=1).all()
    assert not res.vectors[4:].any()
    assert res.seen.tolist() == [True] * 5 + [False]


@pytest.mark.parametrize("walks, n_tokens, kwargs", [
    ([[0, 3]], 3, {}),
    ([[0, -2]], 3, {}),
    ([[0, -1, 1]], 3, {}),           # padding before a token
    ([0, 1], 3, {}),                 # not a matrix
    ([[0.0, 1.0]], 3, {}),           # not integer ids
    ([[0, 1]], 2, {"dim": 0}),
    ([[0, 1]], 2, {"window": 0}),
    ([[0, 1]], 2, {"negatives": 0}),
])
def test_sppmi_rejects_bad_input(walks, n_tokens, kwargs):
    args = {"dim": 4, **kwargs}
    with pytest.raises(ValueError):
        train_sppmi(np.array(walks), n_tokens, **args)


# -- input validation -----------------------------------------------------------

@pytest.mark.parametrize("corpus, n_tokens, kwargs", [
    ([[0, -1]], 3, {}),                 # a negative id would wrap to the last row
    ([[0, 3]], 3, {}),
    ([[0, 1]], 2, {"epochs": 0}),
    ([[0, 1]], 2, {"window": 0}),
    ([[0, 1]], 2, {"negatives": 0}),
    ([[0, 1]], 2, {"dim": 0}),
])
def test_skipgram_rejects_bad_input(corpus, n_tokens, kwargs):
    args = {"dim": 4, **kwargs}
    with pytest.raises(ValueError):
        train_skipgram(corpus, n_tokens, **args)


def csr(indptr, indices, weights):
    return LineGraph(np.array(indptr), np.array(indices), np.array(weights, dtype=float))


@pytest.mark.parametrize("lg, kwargs", [
    (csr([0, 1, 2], [1, 0], [1.0, 1.0]), {"walks_per_node": 0}),
    (csr([0, 1, 2], [-1, 0], [1.0, 1.0]), {}),
    (csr([0, 1, 2], [2, 0], [1.0, 1.0]), {}),
    (csr([0, 1, 2], [1], [1.0]), {}),                # indptr runs past the ids
    (csr([0, 1, 2], [1, 0], [1.0]), {}),             # a weight missing
    (csr([0, 2, 1], [1, 0], [1.0, 1.0]), {}),        # indptr falls
    (csr([1, 1, 2], [1, 0], [1.0, 1.0]), {}),        # indptr starts past 0
    (csr([0, 1, 2], [1, 0], [-1.0, 1.0]), {}),
    (csr([0, 1, 2], [1, 0], [np.nan, 1.0]), {}),
    (csr([0, 1, 2], [1, 0], [np.inf, 1.0]), {}),
])
def test_walks_reject_bad_input(lg, kwargs):
    with pytest.raises(ValueError):
        random_walks(lg, **kwargs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_skipgram_divergence_detected():
    corpus = [[0, 1, 2, 1, 0]] * 4
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train_skipgram(corpus, 3, dim=4, epochs=2, learning_rate=math.inf)


# -- vectorized walk update ----------------------------------------------------

def test_window_pairs_match_plain_loop():
    for length in range(0, 9):
        for window in (1, 2, 5):
            expected = [(pos, i) for pos in range(length)
                        for i in range(max(0, pos - window), min(length, pos + window + 1))
                        if i != pos]
            center, context = window_pairs(length, window)
            assert list(zip(center.tolist(), context.tolist())) == expected


@pytest.mark.parametrize("walk, n_tokens, capped", [
    ([3, 0, 3, 5, 3, 3, 1], 7, True),        # token 3 repeats, also as its own context
    ([0, 1, 2, 3, 4, 5, 6], 50, False),
])
def test_walk_update_matches_per_pair_loop(walk, n_tokens, capped):
    rng = np.random.default_rng(4)
    dim, window, negatives, lr = 5, 2, 3, 0.05
    w_in = rng.normal(size=(n_tokens, dim))
    w_out = rng.normal(size=(n_tokens, dim))
    walk = np.array(walk)
    center_pos, context_pos = window_pairs(len(walk), window)
    negs = rng.integers(n_tokens, size=(len(center_pos), negatives))
    negs[0, 0] = walk[context_pos[0]]              # a negative equal to the context
    targets = np.concatenate([walk[context_pos][:, None], negs], axis=1)

    # oracle: every pair's gradient at the pre-step parameters, one scalar loop;
    # a w_out row's sum is scaled down past 2 * window * (1 + negatives) hits
    g_in = np.zeros_like(w_in)
    g_out = np.zeros_like(w_out)
    hits = np.zeros(n_tokens)
    loss = 0.0
    for p, c in enumerate(walk[center_pos]):
        for j, t in enumerate(targets[p]):
            label = 1.0 if j == 0 else 0.0
            sig = 1.0 / (1.0 + math.exp(-float(w_in[c] @ w_out[t])))
            loss -= math.log(sig if label else 1.0 - sig)
            g_in[c] += (sig - label) * w_out[t]
            g_out[t] += (sig - label) * w_in[c]
            hits[t] += 1
    max_hits = 2 * window * (1 + negatives)
    assert (hits.max() > max_hits) == capped
    scale = np.minimum(1.0, max_hits / np.maximum(hits, 1))
    expected_in = w_in - lr * g_in
    expected_out = w_out - lr * g_out * scale[:, None]

    got = sgns_walk_update(w_in, w_out, walk[center_pos], targets, lr, window)
    assert got == pytest.approx(loss, rel=1e-12)
    assert np.allclose(w_in, expected_in, rtol=0, atol=1e-12)
    assert np.allclose(w_out, expected_out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("corpus, n_tokens", [
    # token 0 sits at every other position of every walk of a four-token vocabulary
    ([[0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0, 1]] * 30, 4),
    ([[0, 1] * 10] * 30, 2),
])
def test_skipgram_hub_token_collisions_stay_finite(corpus, n_tokens):
    res = train_skipgram(corpus, n_tokens, dim=8, epochs=10, rng_seed=0)
    assert np.all(np.isfinite(res.vectors))
    assert np.all(np.isfinite(res.loss_per_epoch))
    assert res.loss_per_epoch[-1] < res.loss_per_epoch[0]
