import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tripletune.graph import KnowledgeGraph
from tripletune.pairs import PtssDataset, build_dataset
from tripletune.seeds import EmbeddingSet
from tripletune.siamese import (AGG_OPS, FineTuneConfig, SiameseModel, TrainingDiverged,
                                aggregate, aggregated_dim, batch_loss_and_grads,
                                init_embedding_layer, load_checkpoint,
                                read_triple_embedding_tsv, save_checkpoint, train,
                                write_triple_embedding_tsv)
from tripletune import optim, siamese
from tripletune.optim import Adam
from conftest import (FLOAT_TEXT, _reference_batch_loss_and_grads, _reference_train,
                      random_named_triples, tsv_text)
from oracles import forward_pair, pair_loss


def make_embeddings(g, dim, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(rng.normal(size=(g.num_entities, dim)),
                        rng.normal(size=(g.num_predicates, dim)))


# -- aggregation -------------------------------------------------------------

def test_aggregate_examples():
    h = np.array([1.0, 2.0])
    t = np.array([3.0, -2.0])
    assert np.allclose(aggregate(h, t, "avg"), [2.0, 0.0])
    assert np.allclose(aggregate(h, t, "had"), [3.0, -4.0])
    assert np.allclose(aggregate(h, t, "l1"), [2.0, 4.0])
    assert np.allclose(aggregate(h, t, "l2"), [4.0, 16.0])
    assert np.allclose(aggregate(h, t, "ht"), [1.0, 2.0, 3.0, -2.0])
    p = np.array([0.5, 0.5])
    assert np.allclose(aggregate(h, t, "sum", p_vec=p), [4.5, 0.5])


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate(np.ones(2), np.ones(3), "avg")
    with pytest.raises(ValueError):
        aggregate(np.ones(2), np.ones(2), "nope")
    with pytest.raises(ValueError):
        aggregate(np.ones(2), np.ones(2), "sum")


def test_aggregated_dim():
    for op in AGG_OPS:
        assert aggregated_dim(8, op) == (16 if op == "ht" else 8)


def test_sum_init_collapses_for_exact_translation():
    # when h + p = t exactly, the sum aggregation is 2t for every triple
    g = KnowledgeGraph.from_named_triples([("a", "r", "b"), ("c", "r", "d")])
    rng = np.random.default_rng(0)
    ent = rng.normal(size=(4, 6))
    pred = np.zeros((1, 6))
    # force t = h + p per triple
    pred[0] = rng.normal(size=6)
    for h, p, t in g.ids:
        ent[t] = ent[h] + pred[p]
    emb = EmbeddingSet(ent, pred)
    layer = init_embedding_layer(g, emb, "sum")
    for i, t in enumerate(g.ids[:, 2]):
        assert np.allclose(layer[i], 2.0 * ent[t], atol=1e-12)


def test_init_layer_rows_align(tiny_graph):
    g = tiny_graph
    emb = make_embeddings(g, 4)
    layer = init_embedding_layer(g, emb, "avg")
    assert layer.shape == (g.num_triples, 4)
    h, _, t = g.ids[2]
    expect = (emb.entity_vectors[h] + emb.entity_vectors[t]) / 2.0
    assert np.allclose(layer[2], expect)


# -- model forward: the scalar oracle `forward_pair` ---------------------------

def small_model(n=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return SiameseModel(rng.normal(size=(n, d)), rng.normal(size=(d, d)) * 0.3,
                        np.zeros(d))


def test_forward_identical_ids_score_exactly_one():
    m = small_model()
    _, _, s = forward_pair(m, 3, 3)
    assert s == 1.0


def test_forward_zero_rows_score_zero():
    m = small_model()
    m.triple_embeddings[1] = 0.0
    m.b1[:] = 0.0
    _, _, s = forward_pair(m, 1, 2)
    assert s == 0.0


def test_forward_score_in_range():
    m = small_model(seed=3)
    for a in range(6):
        for b in range(6):
            _, _, s = forward_pair(m, a, b)
            assert -1.0 <= s <= 1.0


def test_forward_symmetric():
    m = small_model(seed=5)
    for a, b in [(0, 1), (2, 5), (4, 3)]:
        _, _, s_ab = forward_pair(m, a, b)
        _, _, s_ba = forward_pair(m, b, a)
        assert s_ab == pytest.approx(s_ba, abs=1e-12)


def test_encode_outputs_bounded_by_tanh():
    m = small_model(seed=7)
    out = np.array([forward_pair(m, i, i)[0] for i in range(6)])
    assert np.all(np.abs(out) < 1.0)


def test_initialize_deterministic(tiny_graph):
    g = tiny_graph
    emb = make_embeddings(g, 4)
    m1 = SiameseModel.initialize(g, emb, "avg", rng_seed=9)
    m2 = SiameseModel.initialize(g, emb, "avg", rng_seed=9)
    assert np.array_equal(m1.w1, m2.w1)
    assert np.all(m1.b1 == 0.0)
    d = m1.dim
    bound = np.sqrt(6.0 / (2 * d))
    assert np.all(np.abs(m1.w1) <= bound)


def test_config_validation():
    with pytest.raises(ValueError):
        FineTuneConfig(warmup_fraction=1.0)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_config_rejects_counts_below_one(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        FineTuneConfig(**{field: 0})


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_config_rejects_non_integer_counts(field):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 64.5"):
        FineTuneConfig(**{field: 64.5})


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_config_rejects_learning_rate_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        FineTuneConfig(learning_rate=lr)


# -- loss and gradients ------------------------------------------------------

def test_pair_loss_examples():
    assert pair_loss(0.5, 0.5) == 0.0
    assert pair_loss(1.0, 0.0) == 1.0
    assert pair_loss(-0.5, 0.5) == 1.0


def test_batch_loss_matches_pairwise():
    m = small_model(seed=11)
    a_ids = np.array([0, 1, 2])
    b_ids = np.array([3, 4, 5])
    targets = np.array([0.2, -0.3, 0.8])
    loss, *_ = batch_loss_and_grads(m, a_ids, b_ids, targets)
    expect = np.mean([pair_loss(forward_pair(m, a, b)[2], t)
                      for a, b, t in zip(a_ids, b_ids, targets)])
    assert loss == pytest.approx(expect, abs=1e-12)


def central_diff(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_batch_gradients_match_finite_differences():
    m = small_model(n=5, d=3, seed=13)
    a_ids = np.array([0, 1, 2, 0])
    b_ids = np.array([3, 4, 1, 2])
    targets = np.array([0.1, -0.4, 0.7, 0.0])

    def loss_only():
        return batch_loss_and_grads(m, a_ids, b_ids, targets)[0]

    _, gw, gb, rows, grows = batch_loss_and_grads(m, a_ids, b_ids, targets)
    fd_w = central_diff(loss_only, m.w1)
    fd_b = central_diff(loss_only, m.b1)
    fd_e = central_diff(loss_only, m.triple_embeddings)
    assert np.allclose(gw, fd_w, atol=1e-7)
    assert np.allclose(gb, fd_b, atol=1e-7)
    dense = np.zeros_like(m.triple_embeddings)
    dense[rows] = grows
    assert np.allclose(dense, fd_e, atol=1e-7)


def per_row_loop_loss_and_grads(model, a_ids, b_ids, targets):
    """batch_loss_and_grads as it was with a Python loop scattering row gradients."""
    batch = len(a_ids)
    e_a = model.triple_embeddings[a_ids]
    e_b = model.triple_embeddings[b_ids]
    o_a = np.tanh(e_a @ model.w1.T + model.b1)
    o_b = np.tanh(e_b @ model.w1.T + model.b1)
    na = np.linalg.norm(o_a, axis=1)
    nb = np.linalg.norm(o_b, axis=1)
    ok = (na > 0) & (nb > 0)
    dots = np.einsum("ij,ij->i", o_a, o_b)
    denom = np.where(ok, na * nb, 1.0)
    s = np.where(ok, dots / denom, 0.0)
    residual = s - targets
    loss = float(np.mean(residual ** 2))
    ds = np.where(ok, 2.0 * residual / batch, 0.0)
    na_safe = np.where(ok, na, 1.0)
    nb_safe = np.where(ok, nb, 1.0)
    do_a = (o_b / denom[:, None] - (s / na_safe**2)[:, None] * o_a) * ds[:, None]
    do_b = (o_a / denom[:, None] - (s / nb_safe**2)[:, None] * o_b) * ds[:, None]
    dz_a = do_a * (1.0 - o_a ** 2)
    dz_b = do_b * (1.0 - o_b ** 2)
    grad_w1 = dz_a.T @ e_a + dz_b.T @ e_b
    grad_b1 = dz_a.sum(axis=0) + dz_b.sum(axis=0)
    de_a = dz_a @ model.w1
    de_b = dz_b @ model.w1
    touched = np.unique(np.concatenate([a_ids, b_ids]))
    pos = {row: k for k, row in enumerate(touched)}
    grad_rows = np.zeros((len(touched), model.dim))
    for i in range(batch):
        grad_rows[pos[a_ids[i]]] += de_a[i]
        grad_rows[pos[b_ids[i]]] += de_b[i]
    return loss, grad_w1, grad_b1, touched, grad_rows


@pytest.mark.parametrize("seed", range(5))
def test_batch_row_gradients_equal_per_row_loop(seed):
    # ids repeat inside each side, across the two sides and within one pair
    rng = np.random.default_rng([23, seed])
    m = small_model(n=6, d=5, seed=seed)
    a_ids = rng.integers(0, 6, size=40)
    b_ids = rng.integers(0, 6, size=40)
    b_ids[:3] = a_ids[:3]
    targets = rng.uniform(-1, 1, size=40)
    got = batch_loss_and_grads(m, a_ids, b_ids, targets)
    want = per_row_loop_loss_and_grads(m, a_ids, b_ids, targets)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and np.all(g == w)


@pytest.mark.parametrize("m, d", [(1, 1), (1, 4), (2, 5), (19, 32), (40, 64), (128, 33)])
def test_batch_loss_and_grads_equal_frozen_reference(m, d):
    # the one-array branches and the planned row sum give the bits of one
    # product and one scatter per branch, with ids repeated within a batch
    rng = np.random.default_rng([29, m, d])
    model = SiameseModel(rng.normal(size=(7, d)), rng.normal(size=(d, d)) * 0.4,
                         rng.normal(size=d) * 0.1)
    a_ids, b_ids = rng.integers(0, 7, size=m), rng.integers(0, 7, size=m)
    targets = rng.uniform(-1, 1, size=m)
    got = batch_loss_and_grads(model, a_ids, b_ids, targets)
    want = _reference_batch_loss_and_grads(model, a_ids, b_ids, targets)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape and np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_batch_loss_and_grads_equal_frozen_reference_with_a_degenerate_row(bad):
    # with b1 = 0 a zero triple row encodes to exactly zero, and a NaN row to
    # NaN: either fails the norm check, so the batch takes the selections that
    # give its pairs score 0 and no gradient, which batches whose norms are all
    # positive skip. The row is on both sides, and once paired with itself
    rng = np.random.default_rng([31, int(np.isnan(bad))])
    d, m = 5, 12
    model = SiameseModel(rng.normal(size=(7, d)), rng.normal(size=(d, d)) * 0.4, np.zeros(d))
    model.triple_embeddings[3] = bad
    a_ids, b_ids = rng.integers(0, 7, size=m), rng.integers(0, 7, size=m)
    a_ids[[0, 2]], b_ids[[1, 2]] = 3, 3
    targets = rng.uniform(-1, 1, size=m)
    got = batch_loss_and_grads(model, a_ids, b_ids, targets)
    want = _reference_batch_loss_and_grads(model, a_ids, b_ids, targets)
    assert np.isfinite(got[0])
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.isnan(g), np.isnan(w))
        real = ~np.isnan(w)
        assert np.array_equal(np.signbit(g[real]), np.signbit(w[real]))
    if np.isnan(bad):
        assert np.isnan(got[1]).any()
    else:
        assert np.isfinite(got[4]).all()


def test_batch_gradient_zero_at_perfect_fit():
    m = small_model(seed=17)
    a_ids = np.array([0, 1])
    b_ids = np.array([2, 3])
    targets = np.array([forward_pair(m, 0, 2)[2], forward_pair(m, 1, 3)[2]])
    loss, gw, gb, rows, grows = batch_loss_and_grads(m, a_ids, b_ids, targets)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(gw, 0.0, atol=1e-12)
    assert np.allclose(gb, 0.0, atol=1e-12)
    assert np.allclose(grows, 0.0, atol=1e-12)


# -- training ----------------------------------------------------------------

def toy_training_setup(seed=0, n_triples=40):
    rng = np.random.default_rng(seed)
    rows = random_named_triples(rng, 15, 3, n_triples)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 8, seed=seed)
    ds = build_dataset(g, emb, n=3, rng_seed=seed)
    model = SiameseModel.initialize(g, emb, "avg", rng_seed=seed)
    return g, emb, ds, model


def test_training_reduces_loss():
    _, _, ds, model = toy_training_setup()
    history = []
    cfg = FineTuneConfig(batch_size=32, epochs=100, rng_seed=0)
    train(model, ds, cfg, loss_history=history)
    assert len(history) == 100
    assert history[-1] < 0.1 * history[0]


def test_training_deterministic():
    _, _, ds, m1 = toy_training_setup(seed=2)
    _, _, ds2, m2 = toy_training_setup(seed=2)
    cfg = FineTuneConfig(batch_size=32, epochs=5, rng_seed=4)
    train(m1, ds, cfg)
    train(m2, ds2, cfg)
    assert np.array_equal(m1.triple_embeddings, m2.triple_embeddings)
    assert np.array_equal(m1.w1, m2.w1)
    assert np.array_equal(m1.b1, m2.b1)


def frozen_case(op, n_pairs, seed=8):
    """A model and pairs whose ids repeat within batches, on `op` aggregation."""
    rng = np.random.default_rng(seed)
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 12, 3, 30))
    model = SiameseModel.initialize(g, make_embeddings(g, 6, seed=seed), op, rng_seed=seed)
    a = rng.integers(0, g.num_triples, size=n_pairs)
    b = rng.integers(0, g.num_triples, size=n_pairs)
    b[::5] = a[::5]   # a pair of one triple with itself
    ds = PtssDataset(a, b, rng.uniform(-1, 1, size=n_pairs), np.zeros(n_pairs, dtype=np.int8))
    return model, ds


def copy_model(model):
    return SiameseModel(model.triple_embeddings.copy(), model.w1.copy(), model.b1.copy())


@pytest.mark.parametrize("op, n_pairs, cfg", [
    ("avg", 70, FineTuneConfig(batch_size=16, epochs=4, rng_seed=3)),      # last batch of 6
    ("ht", 70, FineTuneConfig(batch_size=16, epochs=4, rng_seed=3)),
    ("avg", 23, FineTuneConfig(batch_size=1, epochs=2, rng_seed=1)),
    ("ht", 23, FineTuneConfig(batch_size=64, epochs=5, rng_seed=2)),       # one batch >= n
    ("avg", 40, FineTuneConfig(batch_size=40, epochs=3, warmup_fraction=0.0, rng_seed=4)),
    ("avg", 200, FineTuneConfig(batch_size=128, epochs=3, rng_seed=0)),    # many repeats
])
def test_train_equals_frozen_train(monkeypatch, op, n_pairs, cfg):
    # one Adam row step over the slab and the planned row sums give the bits
    # of the three Adam steps and the per-step scatter they replace; plans of
    # 3 batches make most epochs span several plans
    made = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(siamese, "Adam", RecordingAdam)
    monkeypatch.setattr(optim, "PLAN_BATCHES", 3)
    model, ds = frozen_case(op, n_pairs)
    ref = copy_model(model)
    history, ref_history = [], []
    train(model, ds, cfg, loss_history=history)
    ref_opt = _reference_train(ref, ds, cfg, loss_history=ref_history)
    assert history == ref_history
    n = len(model.triple_embeddings)
    (opt,) = made
    for got, want in ((model.triple_embeddings, ref.triple_embeddings), (model.w1, ref.w1),
                      (model.b1, ref.b1)):
        assert np.array_equal(got, want)
    for moments, ref_moments in ((opt.m, ref_opt.m), (opt.v, ref_opt.v)):
        assert np.array_equal(moments[:n], ref_moments["emb"])
        assert np.array_equal(moments[n:-1], ref_moments["w1"])
        assert np.array_equal(moments[-1], ref_moments["b1"])
    assert opt.t == ref_opt.t


@pytest.mark.parametrize("op, n_pairs, cfg", [
    ("avg", 70, FineTuneConfig(batch_size=16, epochs=4, rng_seed=3)),
    ("ht", 23, FineTuneConfig(batch_size=64, epochs=5, rng_seed=2)),
    ("avg", 200, FineTuneConfig(batch_size=128, epochs=3, rng_seed=0)),
])
def test_train_without_history_equals_train_with_one(monkeypatch, op, n_pairs, cfg):
    # the batch loss is computed only for a history and shapes no parameter,
    # no moment and no step count
    made = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(siamese, "Adam", RecordingAdam)
    model, ds = frozen_case(op, n_pairs)
    without, ref = copy_model(model), copy_model(model)
    history, ref_history = [], []
    train(model, ds, cfg, loss_history=history)
    train(without, ds, cfg)
    _reference_train(ref, ds, cfg, loss_history=ref_history)
    assert len(history) == cfg.epochs and history == ref_history
    assert np.array_equal(without.slab, model.slab)
    opt_with, opt_without = made
    assert np.array_equal(opt_without.m, opt_with.m)
    assert np.array_equal(opt_without.v, opt_with.v)
    assert opt_without.t == opt_with.t


def test_training_divergence_at_the_frozen_step():
    # a NaN row diverges at the step that first touches it, as before
    model, ds = frozen_case("avg", 60)
    late = int(ds.a[-1])
    model.triple_embeddings[late] = np.nan
    ref = copy_model(model)
    cfg = FineTuneConfig(batch_size=4, epochs=2, rng_seed=5)
    with pytest.raises(TrainingDiverged) as got:
        train(model, ds, cfg)
    with pytest.raises(TrainingDiverged) as want:
        _reference_train(ref, ds, cfg)
    assert str(got.value) == str(want.value) != "NaN/Inf parameter at epoch 0, step 1"
    assert np.array_equal(model.triple_embeddings, ref.triple_embeddings, equal_nan=True)


def test_training_leaves_untouched_rows_alone():
    _, _, ds, model = toy_training_setup(seed=3)
    # append pristine rows beyond any pair id
    extra = np.full((2, model.dim), 7.5)
    model = SiameseModel(np.vstack([model.triple_embeddings, extra]), model.w1, model.b1)
    cfg = FineTuneConfig(batch_size=32, epochs=3, rng_seed=0)
    train(model, ds, cfg)
    assert np.all(model.triple_embeddings[-2:] == 7.5)


def test_model_arrays_are_views_of_its_slab_before_and_after_training():
    _, _, ds, model = toy_training_setup(seed=6)
    arrays = model.triple_embeddings, model.w1, model.b1
    n, d = model.triple_embeddings.shape
    assert model.slab.shape == (n + d + 1, d)
    assert all(np.shares_memory(a, model.slab) for a in arrays)
    before = model.slab.copy()
    train(model, ds, FineTuneConfig(batch_size=32, epochs=2, rng_seed=0))
    assert not np.array_equal(model.slab, before)
    for got, kept in zip((model.triple_embeddings, model.w1, model.b1), arrays):
        assert got is kept and np.shares_memory(got, model.slab)
    assert np.array_equal(model.slab[:n], model.triple_embeddings)
    assert np.array_equal(model.slab[n:-1], model.w1) and np.array_equal(model.slab[-1], model.b1)


def test_training_empty_dataset_rejected():
    model = small_model()
    ds = PtssDataset(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
                     np.zeros(0, dtype=np.int8))
    with pytest.raises(ValueError):
        train(model, ds, FineTuneConfig(epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_detected():
    model = small_model()
    model.w1[0, 0] = np.inf
    ds = PtssDataset(np.array([0]), np.array([1]), np.array([0.5]), np.array([0]))
    with pytest.raises(TrainingDiverged, match="epoch"):
        train(model, ds, FineTuneConfig(epochs=1, warmup_fraction=0.0))


@pytest.mark.parametrize("bad_id", [-1, 40])
def test_training_rejects_pair_ids_outside_the_layer(bad_id):
    model = small_model(n=40)
    ds = PtssDataset(np.array([0, bad_id]), np.array([1, 2]), np.array([0.5, 0.5]),
                     np.array([0, 0]))
    with pytest.raises(ValueError, match=f"id {bad_id} outside \\[0, 40\\)"):
        train(model, ds, FineTuneConfig(epochs=1))


@pytest.mark.parametrize("bad_score", [np.nan, np.inf, 7.5, -1.0000001])
def test_training_rejects_scores_outside_ptss_range(bad_score):
    model = small_model(n=40)
    before = model.slab.copy()
    ds = PtssDataset(np.array([0, 1, 2]), np.array([1, 2, 3]),
                     np.array([1.0, bad_score, -1.0]), np.array([0, 0, 0]))
    with pytest.raises(ValueError, match=f"pair 1 has score {bad_score}, not a finite"):
        train(model, ds, FineTuneConfig(epochs=1))
    assert np.array_equal(model.slab, before)


def test_warmup_shrinks_early_updates():
    # one epoch with a near-total warm-up moves the dense layer less than
    # the same epoch at full learning rate
    _, _, ds, m_warm = toy_training_setup(seed=6)
    _, _, _, m_cold = toy_training_setup(seed=6)
    before = m_warm.w1.copy()
    train(m_warm, ds, FineTuneConfig(batch_size=8, epochs=1, warmup_fraction=0.9,
                                     rng_seed=1))
    delta_warm = np.abs(m_warm.w1 - before).max()
    train(m_cold, ds, FineTuneConfig(batch_size=8, epochs=1, warmup_fraction=0.0,
                                     rng_seed=1))
    delta_cold = np.abs(m_cold.w1 - before).max()
    assert delta_warm < delta_cold


# -- persistence -------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    m = small_model(seed=21)
    f = tmp_path / "model.npz"
    save_checkpoint(m, f, config=FineTuneConfig())
    back = load_checkpoint(f)
    assert np.array_equal(back.triple_embeddings, m.triple_embeddings)
    assert np.array_equal(back.w1, m.w1)
    assert np.array_equal(back.b1, m.b1)


def test_tsv_round_trip(tmp_path):
    mat = np.random.default_rng(1).normal(size=(7, 3))
    f = tmp_path / "emb.tsv"
    write_triple_embedding_tsv(mat, f)
    back = read_triple_embedding_tsv(f)
    assert np.array_equal(back, mat)


def test_tsv_rows_in_any_order(tmp_path):
    f = tmp_path / "emb.tsv"
    f.write_text("1\t2.0\n0\t1.0\n", encoding="utf-8")
    assert read_triple_embedding_tsv(f).tolist() == [[1.0], [2.0]]


@pytest.mark.parametrize("text, message", [
    ("0\t1.0\n2\t1.0\n3\t1.0\n", "no row for triple id 1"),
    ("0\t1.0\n1\t1.0\n0\t2.0\n", ":3: duplicate triple id 0"),
    ("-1\t1.0\n0\t1.0\n", "no row for triple id 1"),
])
def test_tsv_rejects_missing_or_duplicate_ids(tmp_path, text, message):
    f = tmp_path / "emb.tsv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read_triple_embedding_tsv(f)


@pytest.mark.parametrize("row", ["0\tx\n", "\t1.0\n", "0\t2.0\n", "1\t1.0\t2.0\n", "1\n"])
def test_tsv_error_names_file_and_line(tmp_path, row):
    # non-numeric value, empty id, duplicate id, ragged row, row without values
    f = tmp_path / "emb.tsv"
    f.write_text("0\t1.0\n" + row, encoding="utf-8")
    with pytest.raises(ValueError, match="emb.tsv:2: "):
        read_triple_embedding_tsv(f)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=tsv_text(st.integers(-1, 3).map(str), FLOAT_TEXT))
def test_tsv_parses_or_raises_value_error(tmp_path, text):
    f = tmp_path / "emb.tsv"
    f.write_text(text, encoding="utf-8")
    try:
        m = read_triple_embedding_tsv(f)
    except ValueError:
        return
    assert m.ndim == 2 and m.shape[0] >= 1 and m.shape[1] >= 1
