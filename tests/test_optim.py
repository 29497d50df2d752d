import numpy as np

from tripletune.optim import scatter_rows


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
