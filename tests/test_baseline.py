import math

import numpy as np
import pytest

from tripletune.baseline import (LineGraph, build_cm, build_line_graph,
                                 cooccurrence_counts, itf_weight, load_corpus,
                                 predicate_similarity, random_walks, save_corpus,
                                 sgns_walk_update, tf_weight, train_baseline,
                                 train_skipgram, window_pairs)
from tripletune.graph import KnowledgeGraph
from tripletune.optim import TrainingDiverged
from conftest import random_named_triples


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


def test_cm_raw_form_is_columnwise():
    g = two_predicate_graph()
    c = cooccurrence_counts(g)
    raw = build_cm(c, g.num_triples, symmetrize=False)
    for i in range(2):
        for j in range(2):
            assert raw[i, j] == pytest.approx(
                tf_weight(i, j, c) * itf_weight(j, g.num_triples, c))


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


def test_line_graph_shared_entity_connects():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("b", "p0", "c")])
    lg = build_line_graph(g)
    edges = list(lg.edges())
    assert len(edges) == 1
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
    for w in lg.weights:
        assert np.all(w >= 0.0)
    # undirected consistency
    for i, j, w in lg.edges():
        back = lg.weights[j][list(lg.neighbors[j]).index(i)]
        assert back == w


# -- walks --------------------------------------------------------------------

def test_walks_isolated_node_length_one():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("c", "p0", "d")])
    lg = build_line_graph(g)
    corpus = random_walks(lg, walks_per_node=2, walk_length=10, rng_seed=0)
    assert len(corpus) == 4
    assert all(w == [w[0]] for w in corpus)


def test_walks_two_node_alternate():
    g = KnowledgeGraph.from_named_triples([("a", "p0", "b"), ("b", "p0", "c")])
    lg = build_line_graph(g)
    corpus = random_walks(lg, walks_per_node=1, walk_length=6, rng_seed=0)
    assert corpus[0] == [0, 1, 0, 1, 0, 1]
    assert corpus[1] == [1, 0, 1, 0, 1, 0]


def test_walks_follow_edges(rng):
    rows = random_named_triples(rng, 10, 3, 35)
    g = KnowledgeGraph.from_named_triples(rows)
    lg = build_line_graph(g)
    for walk in random_walks(lg, walks_per_node=3, walk_length=8, rng_seed=1):
        for a, b in zip(walk, walk[1:]):
            assert b in lg.neighbors[a]


def test_walks_weight_proportional():
    # node 0 has two neighbors with 9:1 weights
    lg = LineGraph(
        n_nodes=3,
        neighbors=[np.array([1, 2]), np.array([0]), np.array([0])],
        weights=[np.array([9.0, 1.0]), np.array([9.0]), np.array([1.0])],
    )
    corpus = random_walks(lg, walks_per_node=10_000, walk_length=2, rng_seed=0)
    firsts = [w[1] for w in corpus if w[0] == 0]
    frac = sum(1 for f in firsts if f == 1) / len(firsts)
    assert frac == pytest.approx(0.9, abs=0.03)


def test_walks_deterministic_and_corpus_round_trip(tmp_path, rng):
    rows = random_named_triples(rng, 10, 3, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    lg = build_line_graph(g)
    c1 = random_walks(lg, walks_per_node=2, walk_length=5, rng_seed=3)
    c2 = random_walks(lg, walks_per_node=2, walk_length=5, rng_seed=3)
    assert c1 == c2
    f = tmp_path / "walks.txt"
    save_corpus(c1, f)
    assert load_corpus(f) == c1


def test_walks_validation():
    lg = LineGraph(1, [np.array([], dtype=np.int64)], [np.array([])])
    with pytest.raises(ValueError):
        random_walks(lg, walk_length=0)


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
    res = train_baseline(g, dim=6, walks_per_node=2, walk_length=5, epochs=2, rng_seed=0)
    assert res.vectors.shape == (g.num_triples, 6)
    assert np.all(np.isfinite(res.vectors))
    assert len(res.loss_per_epoch) == 2


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


@pytest.mark.parametrize("lg, kwargs", [
    (LineGraph(2, [np.array([1]), np.array([0])], [np.ones(1), np.ones(1)]),
     {"walks_per_node": 0}),
    (LineGraph(2, [np.array([-1]), np.array([0])], [np.ones(1), np.ones(1)]), {}),
    (LineGraph(2, [np.array([2]), np.array([0])], [np.ones(1), np.ones(1)]), {}),
    (LineGraph(2, [np.array([1])], [np.ones(1)]), {}),
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
