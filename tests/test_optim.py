from types import SimpleNamespace

import numpy as np
import pytest

from conftest import _AllocatingAdam
from tripletune import optim
from tripletune.baseline import (build_line_graph, random_walks, train_baseline, train_skipgram,
                                 train_sppmi)
from tripletune.evaluation import kfold_split, kmeans
from tripletune.graph import KnowledgeGraph
from tripletune.optim import (Adam, TrainingDiverged, dense_row_sums, packed, plan_row_sums,
                              scatter_rows, train_rows)
from tripletune.pairs import build_dataset, sample_candidates
from tripletune.seeds import EmbeddingSet


def test_scatter_rows_equals_add_at():
    rng = np.random.default_rng(0)
    ids = np.array([4, 1, 4, 4, 0, 1, 9, 4])
    rows = rng.normal(size=(len(ids), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(ids), 1))
    rows[[0, 3, 5], 2] = -0.0
    rows[6] = -0.0
    ref = np.zeros((10, 5))
    np.add.at(ref, ids, rows)
    uniq, sums, hits = scatter_rows(ids, rows)
    assert uniq.tolist() == [0, 1, 4, 9]
    assert hits.tolist() == [1, 2, 4, 1]
    assert np.array_equal(sums, ref[uniq])
    assert np.array_equal(np.signbit(sums), np.signbit(ref[uniq]))   # -0.0 sums as in add.at


def test_scatter_rows_weighted_entries_in_index_order():
    rng = np.random.default_rng(1)
    ids = rng.integers(0, 4, size=(30, 3))
    weights = rng.normal(size=(30, 3))
    rows = rng.normal(size=(30, 4))
    ref = np.zeros((4, 4))
    for i in range(30):
        for j in range(3):
            ref[ids[i, j]] += weights[i, j] * rows[i]
    uniq, sums, hits = scatter_rows(ids, rows, weights)
    assert np.array_equal(sums, ref[uniq])
    assert hits.tolist() == np.bincount(ids.ravel(), minlength=4)[uniq].tolist()


def test_dense_row_sums_equals_scatter_rows():
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 6, size=40)
    ids[ids == 3] = 0   # id 3 gets no entry
    rows = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 8, size=(40, 1))
    uniq, sums, hits = scatter_rows(ids, rows)
    dense, dense_hits = dense_row_sums(ids, rows, 7)
    assert np.array_equal(dense[uniq], sums)
    assert np.array_equal(dense_hits[uniq], hits)
    assert not dense[[3, 6]].any() and not dense_hits[[3, 6]].any()


@pytest.mark.parametrize("n, size, n_rows", [(1, 1, 1), (37, 8, 5), (40, 8, 40), (300, 64, 3),
                                            (300, 500, 90)])
def test_plan_row_sums_equals_scatter_rows_per_batch(n, size, n_rows):
    # batches of `size` entries, the last one shorter where size does not divide
    # n; few rows repeat many times in a batch, many rows repeat rarely
    rng = np.random.default_rng([5, n, size])
    ids = rng.integers(0, n_rows, size=n)
    values = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
    values[rng.random(n) < 0.3] = -0.0
    plan = plan_row_sums(ids, size)
    assert len(plan) == -(-n // size)
    for b, rows in enumerate(plan):
        batch = slice(b * size, (b + 1) * size)
        uniq, sums, _ = scatter_rows(ids[batch], values[batch])
        got = rows(values[batch])
        assert np.array_equal(rows.rows, uniq)
        assert np.array_equal(got, sums) and np.array_equal(np.signbit(got), np.signbit(sums))


def test_plan_row_sums_reads_ids_flat_in_entry_order():
    ids = np.array([[3, 1], [3, 3], [0, 1]])
    (rows,) = plan_row_sums(ids, 6)
    assert rows.rows.tolist() == [0, 1, 3]
    assert rows.index.tolist() == [2, 1, 2, 2, 0, 1]
    assert plan_row_sums(np.zeros((0, 2), dtype=np.int64), 4) == []


def test_packed_views_lie_in_turn_in_one_zeroed_array():
    flat, (a, b) = packed((2, 3), (4,))
    assert flat.shape == (10,) and not flat.any()
    assert a.shape == (2, 3) and b.shape == (4,)
    a[...] = 1.0
    b[...] = 2.0
    assert flat.tolist() == [1.0] * 6 + [2.0] * 4


def test_step_rows_returns_the_updated_rows():
    rng = np.random.default_rng(4)
    init = rng.normal(size=(9, 3))
    opt = Adam(init.copy(), lr=0.1)
    old = _AllocatingAdam({"p": init.copy()}, lr=0.1)
    rows = np.array([1, 4, 8])
    grad = rng.normal(size=(3, 3))
    updated = opt.step_rows(rows, grad)
    old.begin_step()
    old.step_rows("p", rows, grad)
    assert np.array_equal(updated, opt.params[rows])
    assert np.array_equal(opt.params, old.params["p"]) and opt.t == old.t == 1


@pytest.mark.parametrize("lr", [None, 0.3])
def test_adam_equals_allocating_adam(lr):
    # a matrix and a vector packed in one flat array and stepped densely, as
    # the classifiers do, and a slab stepped by rows, as fine-tuning does,
    # with gradients spanning 16 orders of magnitude
    rng = np.random.default_rng(3)
    init = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=7),
            "emb": rng.normal(size=(30, 6))}
    flat, (w, b) = packed((5, 4), (7,))
    w[...], b[...] = init["w"], init["b"]
    grads, (gw, gb) = packed((5, 4), (7,))
    dense, by_rows = Adam(flat, lr=0.05), Adam(init["emb"].copy(), lr=0.05)
    old = _AllocatingAdam({k: v.copy() for k, v in init.items()}, lr=0.05)

    def unpacked(a):
        return {"w": a[:20].reshape(5, 4), "b": a[20:]}

    for t in range(60):
        g = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-8, 8, size=v.shape)
             for k, v in init.items()}
        g["b"][t % 7] = -0.0
        rows = np.sort(rng.choice(30, size=int(rng.integers(1, 12)), replace=False))
        gw[...], gb[...] = g["w"], g["b"]
        dense.step(grads, lr=lr)
        by_rows.step_rows(rows, g["emb"][rows], lr=lr)
        old.begin_step()
        old.step("w", g["w"], lr=lr)
        old.step("b", g["b"], lr=lr)
        old.step_rows("emb", rows, g["emb"][rows], lr=lr)
        got = {k: (unpacked(dense.params)[k], unpacked(dense.m)[k], unpacked(dense.v)[k])
               for k in ("w", "b")}
        got["emb"] = by_rows.params, by_rows.m, by_rows.v
        for k, (params, m, v) in got.items():
            assert np.array_equal(params, old.params[k]), (t, k)
            assert np.array_equal(m, old.m[k]) and np.array_equal(v, old.v[k]), (t, k)
        assert dense.t == by_rows.t == old.t == t + 1
    assert not np.array_equal(by_rows.params, init["emb"])


class ToyTraining:
    """`train_rows` over 10 examples that each add their two value rows to rows
    i % 4 and (i + 1) % 4 of a 4-row slab, by SGD: a record of every call."""

    n, d = 10, 3

    def __init__(self, bad_step=None):
        self.cfg = SimpleNamespace(epochs=3, batch_size=3)
        self.slab = np.zeros((4, self.d))
        self.values = np.random.default_rng(1).normal(size=(self.n, 2, self.d))
        self.bad_step = bad_step
        self.chunks, self.grads, self.steps = [], [], []

    def source(self, chunk):
        self.chunks.append(chunk)
        return np.stack([chunk % 4, (chunk + 1) % 4], axis=1), [self.values[chunk], chunk]

    def grad(self, rows, batch, want_loss):
        values, examples = batch
        self.grads.append((examples, want_loss))
        loss = float(values.sum()) if want_loss else None
        return rows.rows, rows(values.reshape(-1, self.d)), loss

    def step(self, touched, grads, epoch, t, m):
        self.steps.append((epoch, t, m))
        updated = self.slab.take(touched, axis=0)
        updated -= (np.inf if t == self.bad_step else 0.1) * grads
        self.slab[touched] = updated
        return updated

    def train(self, rng, loss_history=None):
        train_rows(self.cfg, self.n, rng, self.source, self.grad, self.step, loss_history)


def test_train_rows_raises_at_the_first_non_finite_update():
    # 4 batches an epoch (the last of 1), so step 6 is the second of epoch 1;
    # no later gradient is computed
    toy = ToyTraining(bad_step=6)
    with pytest.raises(TrainingDiverged, match="^NaN/Inf parameter at epoch 1, step 6$"):
        toy.train(np.random.default_rng(0))
    assert len(toy.grads) == 6
    assert toy.steps == [(0, 1, 3), (0, 2, 3), (0, 3, 3), (0, 4, 1), (1, 5, 3), (1, 6, 3)]


def test_train_rows_draws_one_permutation_per_epoch(monkeypatch):
    # chunks of 2 batches: each epoch's chunks and batches are its permutation
    # in order, and the Generator is left where that many permutations leave it
    monkeypatch.setattr(optim, "PLAN_BATCHES", 2)
    toy = ToyTraining()
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    toy.train(rng)
    orders = [twin.permutation(toy.n) for _ in range(toy.cfg.epochs)]
    assert [len(c) for c in toy.chunks] == [6, 4] * toy.cfg.epochs
    assert np.array_equal(np.concatenate(toy.chunks), np.concatenate(orders))
    assert np.array_equal(np.concatenate([ex for ex, _ in toy.grads]), np.concatenate(orders))
    assert rng.bit_generator.state == twin.bit_generator.state
    want = np.zeros_like(toy.slab)   # each step's rows get the batch's summed values
    for order in orders:
        for start in range(0, toy.n, 3):
            batch = order[start:start + 3]
            for ids, v in zip(np.stack([batch % 4, (batch + 1) % 4], axis=1), toy.values[batch]):
                for i, row in zip(ids, v):
                    want[i] -= 0.1 * row
    assert np.allclose(toy.slab, want)


def test_train_rows_loss_history_has_one_entry_per_epoch():
    with_history, without = ToyTraining(), ToyTraining()
    history = []
    with_history.train(np.random.default_rng(3), history)
    without.train(np.random.default_rng(3))
    epoch_total = sum(float(v.sum()) for v in with_history.values) / ToyTraining.n
    assert len(history) == with_history.cfg.epochs
    assert np.allclose(history, epoch_total)
    assert all(want for _, want in with_history.grads)
    assert not any(want for _, want in without.grads)   # no loss without a history
    assert np.array_equal(with_history.slab, without.slab)


def count_calls():
    """One call per library entry point that takes a count, with that count as
    `bad`: (name of the count, function of `bad`)."""
    g = KnowledgeGraph.from_named_triples([("a", "r", "b"), ("b", "r", "c"), ("c", "s", "a"),
                                           ("a", "s", "c")])
    emb = EmbeddingSet(np.ones((3, 2)), np.ones((2, 2)))
    walks = np.array([[0, 1, 2], [2, 1, -1]])
    x = np.random.default_rng(0).normal(size=(10, 2))
    return {
        "random_walks": ("walks_per_node",
                         lambda bad: random_walks(build_line_graph(g), walks_per_node=bad)),
        "train_skipgram": ("window", lambda bad: train_skipgram([[0, 1, 2]], 3, 2, window=bad)),
        "train_sppmi": ("dim", lambda bad: train_sppmi(walks, 3, bad)),
        "train_baseline": ("walk_length", lambda bad: train_baseline(g, 4, walk_length=bad)),
        "kfold_split": ("folds", lambda bad: kfold_split(10, folds=bad)),
        "kfold_split/n": ("n", lambda bad: kfold_split(bad, 2)),
        "kmeans": ("restarts", lambda bad: kmeans(x, 2, restarts=bad)),
        "kmeans/k": ("k", lambda bad: kmeans(x, bad)),
        "sample_candidates": ("n", lambda bad: sample_candidates(g, 0, bad,
                                                                 np.random.default_rng(0))),
        "build_dataset": ("n", lambda bad: build_dataset(g, emb, n=bad)),
    }


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize("entry", list(count_calls()))
def test_entry_points_reject_counts_that_are_not_integers(entry, bad):
    # a float or a bool passed a `count < least` test and then failed inside NumPy
    name, call = count_calls()[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)
