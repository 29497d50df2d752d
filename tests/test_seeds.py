import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tripletune import seeds as seedmod
from tripletune import siamese
from tripletune.graph import KnowledgeGraph
from tripletune.seeds import (EmbeddingError, EmbeddingSet, SeedTrainConfig, check_width,
                              export_embeddings, import_embeddings, train_seed)
from conftest import FLOAT_TEXT, batch_terms_case, tsv_text
from oracles import (_reference_train_seed, score_complex, score_complex_grad, score_distmult,
                     score_distmult_grad, score_rotate, score_rotate_grad, score_transe,
                     score_transe_grad)

A = np.array


# -- the scalar scoring oracles: examples --------------------------------------

def test_transe_examples():
    assert score_transe(A([1., 0]), A([0., 1]), A([1., 1])) == 0.0
    assert score_transe(A([0., 0]), A([0., 0]), A([3., 4])) == -5.0
    assert score_transe(A([1., 2]), A([0.5, -1]), A([0., 0]), norm=1) == pytest.approx(-2.5)


def test_transe_dimension_mismatch():
    with pytest.raises(EmbeddingError):
        score_transe(A([1., 0]), A([0., 1, 2]), A([1., 1]))


def test_distmult_examples():
    assert score_distmult(A([1., 1]), A([1., 1]), A([1., 1])) == 2.0
    assert score_distmult(A([3., -2]), A([0., 0]), A([5., 7])) == 0.0
    assert score_distmult(A([1., 2]), A([3., -1]), A([0.5, 2])) == pytest.approx(-2.5)


def test_complex_examples():
    # all-real inputs reduce to distmult on the real parts
    h, p, t = A([1., 0, 2, 0]), A([3., 0, -1, 0]), A([0.5, 0, 2, 0])
    assert score_complex(h, p, t) == pytest.approx(-2.5)
    assert score_complex(A([0., 1]), A([0., 1]), A([1., 0])) == pytest.approx(-1.0)
    assert score_complex(A([1., 1]), A([1., 0]), A([1., 1])) == pytest.approx(2.0)


def test_complex_odd_dimension_rejected():
    with pytest.raises(EmbeddingError):
        score_complex(A([1., 0, 1]), A([1., 0, 1]), A([1., 0, 1]))


def test_rotate_examples():
    assert score_rotate(A([2., 3]), A([1., 0]), A([2., 3])) == 0.0
    assert score_rotate(A([1., 0]), A([0., 1]), A([0., 1])) == pytest.approx(0.0)
    assert score_rotate(A([1., 0]), A([0., 1]), A([1., 0])) == pytest.approx(-math.sqrt(2))


def test_rotate_requires_unit_modulus():
    with pytest.raises(EmbeddingError):
        score_rotate(A([1., 0]), A([2., 0]), A([1., 0]))


# -- the scalar scoring oracles: properties ------------------------------------

def test_transe_nonpositive_and_zero_iff_translation(rng):
    for _ in range(50):
        h, p, t = rng.normal(size=(3, 6))
        assert score_transe(h, p, t) <= 0
    h, p = rng.normal(size=(2, 6))
    assert score_transe(h, p, h + p) == 0.0


def test_complex_asymmetry_distmult_symmetry(rng):
    found_asym = False
    for _ in range(20):
        h, p, t = rng.normal(size=(3, 8))
        assert score_distmult(h, p, t) == pytest.approx(score_distmult(t, p, h), abs=1e-12)
        if abs(score_complex(h, p, t) - score_complex(t, p, h)) > 1e-9:
            found_asym = True
    assert found_asym


def central_diff(fn, x, eps=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fn(xp) - fn(xm)) / (2 * eps)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


@pytest.mark.parametrize("seed", range(10))
def test_scoring_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = 6
    h, p, t = rng.normal(size=(3, d))
    cases = [
        ("transe-l2", score_transe_grad, lambda h_, p_, t_: score_transe(h_, p_, t_, 2), {}),
        ("distmult", score_distmult_grad, score_distmult, {}),
        ("complex", score_complex_grad, score_complex, {}),
    ]
    for name, grad_fn, score_fn, kw in cases:
        s, dh, dp, dt = grad_fn(h, p, t, **kw)
        assert rel_err(dh, central_diff(lambda x: score_fn(x, p, t), h)) < 1e-4, name
        assert rel_err(dp, central_diff(lambda x: score_fn(h, x, t), p)) < 1e-4, name
        assert rel_err(dt, central_diff(lambda x: score_fn(h, p, x), t)) < 1e-4, name
    # transe L1 away from kinks
    h1 = np.where(np.abs(h + p - t) < 1e-3, h + 0.1, h)
    s, dh, dp, dt = score_transe_grad(h1, p, t, norm=1)
    assert rel_err(dh, central_diff(lambda x: score_transe(x, p, t, 1), h1)) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_rotate_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    d = 6
    h, t = rng.normal(size=(2, d))
    theta = rng.uniform(0, 2 * math.pi, size=d // 2)
    p = np.empty(d)
    p[0::2], p[1::2] = np.cos(theta), np.sin(theta)
    s, dh, dp, dt = score_rotate_grad(h, p, t)
    assert rel_err(dh, central_diff(lambda x: score_rotate(x, p, t), h)) < 1e-4
    assert rel_err(dt, central_diff(lambda x: score_rotate(h, p, x), t)) < 1e-4
    # predicate gradient checked against FD of the unconstrained scoring formula
    def free_score(pv):
        hc = h[0::2] + 1j * h[1::2]
        pc = pv[0::2] + 1j * pv[1::2]
        tc = t[0::2] + 1j * t[1::2]
        return -float(np.linalg.norm(hc * pc - tc))
    assert rel_err(dp, central_diff(free_score, p)) < 1e-4


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("model", seedmod.TRAINABLE_MODELS)
def test_batch_terms_match_finite_differences(model, seed):
    params, tri, is_pos, margin = batch_terms_case(model, seed)
    terms, keep, d_head, d_tail, d_pred = seedmod._batch_terms(model, params, tri, is_pos,
                                                               margin)
    assert (terms >= 0).all()
    if model in ("transe", "rotate"):
        assert keep[is_pos].all() and keep[~is_pos].any() and not keep[~is_pos].all()
        assert (keep == is_pos | (terms > 0)).all()
    else:
        assert keep.all()
    pred_key = "phases" if model == "rotate" else "pred"
    for i, (h, p, t) in enumerate(tri):
        for key, row, grad in (("ent", h, d_head), ("ent", t, d_tail), (pred_key, p, d_pred)):
            def term_i(x):
                saved = params[key][row].copy()
                params[key][row] = x
                try:
                    return seedmod._batch_terms(model, params, tri, is_pos, margin)[0][i]
                finally:
                    params[key][row] = saved

            fd = central_diff(term_i, params[key][row].copy())
            if keep[i]:
                assert rel_err(grad[i], fd) < 1e-6, (i, key)
            else:   # an inactive hinge: no loss and no slope
                assert terms[i] == 0.0 and not fd.any(), (i, key)


# -- training ----------------------------------------------------------------

def one_triple_graph():
    return KnowledgeGraph.from_named_triples([("a", "r", "b")])


def test_train_transe_on_one_triple_graph():
    g = one_triple_graph()
    cfg = SeedTrainConfig(dim=8, epochs=200, learning_rate=0.05, rng_seed=3)
    history = []
    es = train_seed(g, "transe", cfg, loss_history=history)
    h = es.entity_vectors[g.entities.index("a")]
    t = es.entity_vectors[g.entities.index("b")]
    p = es.predicate_vectors[0]
    assert np.linalg.norm(h + p - t) < 0.1
    # corrupted triples score worse than the trained fact
    assert score_transe(h, p, t) > score_transe(t, p, h)
    # loss non-increasing at this degenerate scale
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_train_seed_deterministic():
    g = one_triple_graph()
    cfg = SeedTrainConfig(dim=8, epochs=20, rng_seed=11)
    e1 = train_seed(g, "distmult", cfg)
    e2 = train_seed(g, "distmult", cfg)
    assert np.array_equal(e1.entity_vectors, e2.entity_vectors)
    assert np.array_equal(e1.predicate_vectors, e2.predicate_vectors)


@pytest.mark.parametrize("model", ["transe", "distmult", "complex", "rotate"])
def test_train_seed_valid_output(model):
    g = KnowledgeGraph.from_named_triples([
        ("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a"), ("a", "s", "c")])
    es = train_seed(g, model, SeedTrainConfig(dim=8, epochs=10, rng_seed=1))
    es.validate(g)
    if model == "rotate":
        pc = es.predicate_vectors[:, 0::2] + 1j * es.predicate_vectors[:, 1::2]
        assert np.allclose(np.abs(pc), 1.0)


def test_train_seed_rejects_odd_dim_complex():
    with pytest.raises(ValueError):
        train_seed(one_triple_graph(), "complex", SeedTrainConfig(dim=7, epochs=1))


def test_train_seed_rejects_unknown_model():
    with pytest.raises(ValueError):
        train_seed(one_triple_graph(), "rescal", SeedTrainConfig(dim=4, epochs=1))


def clustered_kg():
    rows = []
    for c in range(3):
        for i in range(6):
            for j in range(6):
                if i != j and (i + j) % 2 == 0:
                    rows.append((f"c{c}e{i}", f"p{c}", f"c{c}e{j}"))
    return KnowledgeGraph.from_named_triples(rows)


def test_train_seed_separates_clusters():
    g = clustered_kg()
    es = train_seed(g, "transe", SeedTrainConfig(dim=8, epochs=60, rng_seed=5))
    ent = es.entity_vectors
    norms = np.linalg.norm(ent, axis=1, keepdims=True)
    unit = ent / norms
    cluster = np.array([int(name[1]) for name in g.entities])
    sims = unit @ unit.T
    mask_same = cluster[:, None] == cluster[None, :]
    np.fill_diagonal(mask_same, False)
    intra = sims[mask_same].mean()
    inter = sims[~mask_same & ~np.eye(len(cluster), dtype=bool)].mean()
    assert intra > inter


# -- exact oracle: the example-at-a-time training loop (`oracles`) ------------

@pytest.mark.parametrize("negatives", [1, 3])
@pytest.mark.parametrize("model", ["transe", "distmult", "complex", "rotate"])
def test_train_seed_equals_example_loop(model, negatives):
    # 9 entities over 45 facts (self-loops included): every batch of 7 (which
    # does not divide 45) repeats entities, the wide margin leaves some
    # negatives inside it and some outside, and the large step carries a
    # last-ulp difference in any gradient row into the parameters
    rng = np.random.default_rng(3)
    rows = {(f"e{rng.integers(9)}", f"r{rng.integers(3)}", f"e{rng.integers(9)}")
            for _ in range(60)}
    g = KnowledgeGraph.from_named_triples(sorted(rows)[:45])
    assert g.num_triples == 45
    cfg = SeedTrainConfig(dim=6, epochs=4, batch_size=7, negatives=negatives,
                          margin=12.0, learning_rate=0.5, rng_seed=7)
    history = []
    es = train_seed(g, model, cfg, loss_history=history)
    hinges = np.zeros(2, dtype=np.int64)   # [inactive, active] negatives
    params, ref_history = _reference_train_seed(g, model, cfg, hinges)
    assert np.array_equal(es.entity_vectors, params["ent"])
    if model == "rotate":
        assert np.array_equal(es.predicate_vectors[:, 0::2], np.cos(params["phases"]))
        assert np.array_equal(es.predicate_vectors[:, 1::2], np.sin(params["phases"]))
    else:
        assert np.array_equal(es.predicate_vectors, params["pred"])
    assert history == ref_history
    if model in ("transe", "rotate"):
        assert hinges.min() > 0, hinges


@pytest.mark.parametrize("model", seedmod.TRAINABLE_MODELS)
def test_train_seed_without_history_equals_with_one(model):
    # the loss terms are computed only for a history and shape no parameter
    rng = np.random.default_rng(4)
    rows = {(f"e{rng.integers(8)}", f"r{rng.integers(3)}", f"e{rng.integers(8)}")
            for _ in range(50)}
    g = KnowledgeGraph.from_named_triples(sorted(rows)[:35])
    cfg = SeedTrainConfig(dim=6, epochs=3, batch_size=6, negatives=2, margin=12.0,
                          learning_rate=0.5, rng_seed=5)
    history = []
    with_history = train_seed(g, model, cfg, loss_history=history)
    without = train_seed(g, model, cfg)
    assert np.array_equal(without.entity_vectors, with_history.entity_vectors)
    assert np.array_equal(without.predicate_vectors, with_history.predicate_vectors)
    _, ref_history = _reference_train_seed(g, model, cfg, np.zeros(2, dtype=np.int64))
    assert len(history) == 3 and history == ref_history


@pytest.mark.parametrize("model", ["transe", "rotate"])
def test_train_seed_negatives_outside_the_margin_equal_example_loop(monkeypatch, model):
    # with a zero margin no negative carries a gradient, so the corrupted
    # entities of a batch of one are touched only by zero rows: they must
    # change nothing, as in the example loop. Plans of 4 batches make each
    # epoch draw its corruptions in 8 rounds
    monkeypatch.setattr(seedmod, "PLAN_BATCHES", 4)
    rng = np.random.default_rng(11)
    rows = {(f"e{rng.integers(12)}", f"r{rng.integers(2)}", f"e{rng.integers(12)}")
            for _ in range(40)}
    g = KnowledgeGraph.from_named_triples(sorted(rows)[:30])
    cfg = SeedTrainConfig(dim=6, epochs=3, batch_size=1, negatives=2, margin=0.0,
                          learning_rate=0.5, rng_seed=9)
    history = []
    es = train_seed(g, model, cfg, loss_history=history)
    hinges = np.zeros(2, dtype=np.int64)   # [inactive, active] negatives
    params, ref_history = _reference_train_seed(g, model, cfg, hinges)
    assert hinges[0] > 0 and hinges[1] == 0, hinges
    assert np.array_equal(es.entity_vectors, params["ent"])
    if model == "rotate":
        assert np.array_equal(es.predicate_vectors[:, 0::2], np.cos(params["phases"]))
    else:
        assert np.array_equal(es.predicate_vectors, params["pred"])
    assert history == ref_history


def dense_graph():
    """6 entities, 2 predicates and 40 of the 72 possible facts: about half of
    all corruptions hit a known fact, some slots more than once."""
    rows = [(f"e{h}", f"r{p}", f"e{t}") for h in range(6) for p in range(2) for t in range(6)]
    return KnowledgeGraph.from_named_triples(
        [rows[i] for i in np.random.default_rng(5).permutation(72)[:40]])


CORRUPTION_GRAPHS = {
    # every corruption is a known fact, so every slot takes 10 attempts
    "all-known": lambda: KnowledgeGraph.from_named_triples(
        [(h, "r", t) for h in "ab" for t in "ab"]),
    # integers(1) draws no bits
    "one-entity": lambda: KnowledgeGraph.from_named_triples(
        [("a", "r", "a"), ("a", "s", "a")]),
    "dense": dense_graph,
}


@pytest.mark.parametrize("dense", [0, seedmod._DENSE])
@pytest.mark.parametrize("plan_batches", [1, 64])
@pytest.mark.parametrize("negatives", [1, 3])
@pytest.mark.parametrize("graph", sorted(CORRUPTION_GRAPHS))
def test_train_seed_corruption_edge_cases_equal_example_loop(monkeypatch, graph, negatives,
                                                             plan_batches, dense):
    # with one batch of 3 per plan, a chunk of slots that hit known facts
    # refills several times, and a slot's retries span refills. `_DENSE` 0
    # sends every window of attempts through the rare-hit path
    monkeypatch.setattr(seedmod, "PLAN_BATCHES", plan_batches)
    monkeypatch.setattr(seedmod, "_DENSE", dense)
    g = CORRUPTION_GRAPHS[graph]()
    cfg = SeedTrainConfig(dim=4, epochs=3, batch_size=3, negatives=negatives, margin=12.0,
                          learning_rate=0.5, rng_seed=2)
    history = []
    es = train_seed(g, "transe", cfg, loss_history=history)
    params, ref_history = _reference_train_seed(g, "transe", cfg, np.zeros(2, dtype=np.int64))
    assert np.array_equal(es.entity_vectors, params["ent"])
    assert np.array_equal(es.predicate_vectors, params["pred"])
    assert history == ref_history


def reference_corrupt(positives, k, n_ent, known, rng):
    """The example loop's corruptions: each positive followed by its k negatives."""
    tri = []
    for h_i, p_i, t_i in positives.tolist():
        tri.append((h_i, p_i, t_i))
        for _ in range(k):
            for _retry in range(10):
                e_new = int(rng.integers(n_ent))
                if rng.random() < 0.5:
                    neg = (e_new, p_i, t_i)
                else:
                    neg = (h_i, p_i, e_new)
                if neg not in known:
                    break
            tri.append(neg)
    return tri


@pytest.mark.parametrize("dense", [0, seedmod._DENSE])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 3])
def test_corrupt_equals_example_loop_on_rare_and_frequent_hits(monkeypatch, k, seed, dense):
    # 300 entities with sparse random facts under predicates 1-3, and predicate
    # 0 joining entity 0 to every entity both ways: a corruption of (e, 0, 0)
    # hits half the time and one of (0, 0, 0) always, so runs without hits,
    # long retries and dense stretches alternate
    monkeypatch.setattr(seedmod, "_DENSE", dense)
    rng = np.random.default_rng(8)
    n_ent = 300
    sparse = np.stack([rng.integers(n_ent, size=1500), rng.integers(1, 4, size=1500),
                       rng.integers(n_ent, size=1500)], axis=1)
    star = np.arange(n_ent)
    hub = np.concatenate([np.stack([star, 0 * star, 0 * star], axis=1),
                          np.stack([0 * star, 0 * star, star], axis=1)])
    ids = np.unique(np.concatenate([sparse, hub]), axis=0)
    dims = (n_ent, 4, n_ent)
    known = np.sort(np.ravel_multi_index(tuple(ids.T), dims))
    positives = ids[np.random.default_rng(seed).permutation(len(ids))]
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    tri = seedmod._corrupt(positives, k, known, dims, bulk)
    assert [tuple(row) for row in tri.tolist()] == reference_corrupt(
        positives, k, n_ent, set(map(tuple, ids.tolist())), scalar)
    assert bulk.bit_generator.state == scalar.bit_generator.state


def scalar_attempts(rng, n_ent, count):
    """The example loop's draws of `count` corruption attempts."""
    ents, coins = [], []
    for _ in range(count):
        ents.append(int(rng.integers(n_ent)))
        coins.append(rng.random())
    return ents, coins


@pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 101])
@pytest.mark.parametrize("warmup", [0, 1, 2])
@pytest.mark.parametrize("n_ent", [1, 2, 440, 14505, 2 ** 31 + 1])
def test_draw_attempts_equal_scalar_calls(n_ent, warmup, count):
    # warmup 1 leaves a 32-bit half kept in the generator (`has_uint32` 1);
    # warmup 2 uses it, leaving `has_uint32` 0 beside a non-zero `uinteger`.
    # At 2**31 + 1 entities Lemire rejects about half of all 32-bit draws
    bulk, scalar = np.random.default_rng(17), np.random.default_rng(17)
    for rng in (bulk, scalar):
        rng.integers(440, size=warmup)
    assert bulk.bit_generator.state["has_uint32"] == warmup % 2
    ents, coins = seedmod._draw_attempts(bulk, n_ent, count)
    assert (ents.tolist(), coins.tolist()) == scalar_attempts(scalar, n_ent, count)
    assert bulk.bit_generator.state == scalar.bit_generator.state
    assert bulk.integers(440, size=3).tolist() == scalar.integers(440, size=3).tolist()


def test_draw_attempts_rejects_other_bit_generators():
    with pytest.raises(AssertionError, match="PCG64"):
        seedmod._draw_attempts(np.random.Generator(np.random.MT19937(0)), 5, 3)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_seed_config_rejects_counts_below_one(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        SeedTrainConfig(**{field: 0})


@pytest.mark.parametrize("field", ["dim", "negatives", "epochs", "batch_size"])
@pytest.mark.parametrize("value", [4.5, 4.0, True, "4"])
def test_seed_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        SeedTrainConfig(**{field: value})


def test_seed_config_takes_numpy_integers_and_an_int_learning_rate():
    cfg = SeedTrainConfig(dim=np.int64(4), epochs=np.int32(2), learning_rate=1)
    assert (cfg.dim, cfg.epochs, cfg.learning_rate) == (4, 2, 1)


@pytest.mark.parametrize("lr", [0.0, -0.05, float("nan"), float("inf")])
def test_seed_config_rejects_learning_rate_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        SeedTrainConfig(learning_rate=lr)


@pytest.mark.parametrize("margin", [-0.5, float("nan"), float("inf"), True, "1"])
def test_seed_config_rejects_margin_not_finite_and_non_negative(margin):
    with pytest.raises(ValueError, match=f"margin must be a finite number >= 0, got {margin!r}"):
        SeedTrainConfig(margin=margin)


# -- import / export ---------------------------------------------------------

def test_export_import_round_trip(tmp_path):
    g = one_triple_graph()
    es = train_seed(g, "transe", SeedTrainConfig(dim=6, epochs=5, rng_seed=2))
    ep, pp = tmp_path / "e.tsv", tmp_path / "p.tsv"
    export_embeddings(es, g, ep, pp)
    es2 = import_embeddings(ep, pp, g)
    assert np.allclose(es.entity_vectors, es2.entity_vectors, atol=1e-12, rtol=0)
    assert np.allclose(es.predicate_vectors, es2.predicate_vectors, atol=1e-12, rtol=0)


def test_write_rows_bytes_equal_per_value_format(tmp_path):
    # the bytes of the earlier per-value f-string writer, on signed zeros,
    # subnormals, infinities, NaNs and values that need all 17 digits
    values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, math.inf, -math.inf,
              math.nan, -math.nan, 1 / 3, -2 / 3, 1e300, 0.1, 123456789012345678.0]
    mat = np.array([values, values[::-1]])
    names = ["a", "b c"]
    seedmod.write_rows(tmp_path / "m.tsv", names, mat)
    expected = "".join(name + "\t" + "\t".join(f"{x:.17g}" for x in row) + "\n"
                       for name, row in zip(names, mat))
    assert (tmp_path / "m.tsv").read_bytes() == expected.encode("utf-8")


def test_import_missing_entity_named(tmp_path):
    g = KnowledgeGraph.from_named_triples([("a", "r", "b")])
    (tmp_path / "e.tsv").write_text("a\t1\t2\n", encoding="utf-8")
    (tmp_path / "p.tsv").write_text("r\t0\t1\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="'b'"):
        import_embeddings(tmp_path / "e.tsv", tmp_path / "p.tsv", g)


def test_import_ragged_and_non_numeric(tmp_path):
    g = KnowledgeGraph.from_named_triples([("a", "r", "b")])
    (tmp_path / "p.tsv").write_text("r\t0\t1\n", encoding="utf-8")
    (tmp_path / "e.tsv").write_text("a\t1\t2\nb\t3\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="ragged"):
        import_embeddings(tmp_path / "e.tsv", tmp_path / "p.tsv", g)
    (tmp_path / "e.tsv").write_text("a\t1\t2\nb\tx\t4\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="non-numeric"):
        import_embeddings(tmp_path / "e.tsv", tmp_path / "p.tsv", g)
    (tmp_path / "e.tsv").write_text("a\t1\t2\nb\t3\t4\na\t5\t6\n", encoding="utf-8")
    with pytest.raises(EmbeddingError, match="e.tsv:3: duplicate entity a"):
        import_embeddings(tmp_path / "e.tsv", tmp_path / "p.tsv", g)


def test_bounded_memory_read_rows(tmp_path):
    # rows are read into one float64 buffer, then put in vocabulary or triple-id
    # order: a dict of per-value Python float lists took ~5.7x the result array
    n, dim = 20_000, 32
    rng = np.random.default_rng(0)
    g = KnowledgeGraph.from_named_triples([(f"h{i}", "r", f"t{i}") for i in range(n // 2)])
    ent = rng.normal(size=(g.num_entities, dim))
    ep, pp, tp = tmp_path / "e.tsv", tmp_path / "p.tsv", tmp_path / "t.tsv"
    seedmod.write_rows(ep, g.entities[::-1], ent[::-1])
    seedmod.write_rows(pp, g.predicates, rng.normal(size=(1, dim)))
    siamese.write_triple_embedding_tsv(ent, tp)
    peaks = []
    for read in (lambda: import_embeddings(ep, pp, g).entity_vectors,
                 lambda: siamese.read_triple_embedding_tsv(tp)):
        tracemalloc.start()
        try:
            back = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert back.tobytes() == ent.tobytes()
    assert ent.shape[0] >= 20_000
    assert max(peaks) < 3 * ent.nbytes + 4 * 2 ** 20, (peaks, ent.nbytes)


def test_bounded_memory_in_order_read_is_not_copied(tmp_path):
    # a file already in vocabulary or triple-id order, as every file the package
    # writes is, is returned as parsed: the copy into order took the peak from
    # ~1.5x to ~2.5x the result array
    n, dim = 20_000, 32
    rng = np.random.default_rng(1)
    g = KnowledgeGraph.from_named_triples([(f"h{i}", "r", f"t{i}") for i in range(n // 2)])
    ent = rng.normal(size=(g.num_entities, dim))
    ep, pp, tp = tmp_path / "e.tsv", tmp_path / "p.tsv", tmp_path / "t.tsv"
    seedmod.write_rows(ep, g.entities, ent)
    seedmod.write_rows(pp, g.predicates, rng.normal(size=(1, dim)))
    siamese.write_triple_embedding_tsv(ent, tp)
    for read in (lambda: import_embeddings(ep, pp, g).entity_vectors,
                 lambda: siamese.read_triple_embedding_tsv(tp)):
        tracemalloc.start()
        try:
            back = read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == ent.tobytes()
        assert peak < 2 * ent.nbytes, (peak, ent.nbytes)


@pytest.mark.parametrize("rows", [[0, 1, 2], [2, 1, 0], [0, 1], [1, 2, 0], [0, 0, 1]])
def test_take_rows_is_fancy_indexing(rows):
    mat = np.arange(9.0).reshape(3, 3)
    got = seedmod.take_rows(mat, rows)
    assert got.tobytes() == mat[rows].tobytes() and got.shape == mat[rows].shape
    assert (got is mat) == (rows == [0, 1, 2])


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=tsv_text(st.sampled_from(["a", "b"]), FLOAT_TEXT, FLOAT_TEXT))
def test_import_parses_or_raises_embedding_error(tmp_path, text):
    g = KnowledgeGraph.from_named_triples([("a", "r", "b")])
    (tmp_path / "p.tsv").write_text("r\t0\t1\n", encoding="utf-8")
    (tmp_path / "e.tsv").write_text(text, encoding="utf-8")
    try:
        es = import_embeddings(tmp_path / "e.tsv", tmp_path / "p.tsv", g)
    except EmbeddingError:
        return
    assert es.entity_vectors.shape == (2, 2) and np.all(np.isfinite(es.entity_vectors))


def test_embedding_set_invariants():
    bad = EmbeddingSet(np.array([[np.nan, 1.0]]), np.array([[0.0, 1.0]]))
    with pytest.raises(EmbeddingError):
        bad.validate()
    for model in ("complex", "rotate"):
        with pytest.raises(EmbeddingError, match=f"{model} requires an even dimension"):
            check_width(model, 3)
    for model in ("transe", "distmult", "imported"):
        check_width(model, 3)
