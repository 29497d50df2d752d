"""Minimal Adam optimizer shared by seed training, fine-tuning and the classifiers,
the ordered row sums of their sparse gradients, the check of the two training
configs' counts and step size, and the error that fine-tuning and skip-gram
raise on non-finite parameters."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import sparse


class TrainingDiverged(RuntimeError):
    """A training loop produced non-finite parameters."""


def check_training_config(cfg) -> None:
    """Reject a training config whose `epochs` or `batch_size` is below 1, or
    whose `learning_rate` is not finite and > 0, naming the key."""
    for name in ("epochs", "batch_size"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {cfg.learning_rate}")


def scatter_rows(ids: np.ndarray, rows: np.ndarray, weights: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum weights[i, j] * rows[i] into the row named by ids[i, j], as one sparse product.

    `ids` holds k ids per row of `rows` (n, d), in row order: (n,), (n, k), or
    any shape with n * k ids. `weights` has one value per id, default ones.
    Returns (uniq, sums, hits): the sorted distinct ids, the (len(uniq), d)
    sums and how many entries hit each id. Every sum is taken in flat index
    order, starting from zero, so with unit weights it equals `np.add.at` into
    zeros bit for bit.
    """
    uniq, local = np.unique(ids, return_inverse=True)
    sums, hits = dense_row_sums(local, rows, len(uniq), weights)
    return uniq, sums, hits


def dense_row_sums(ids: np.ndarray, rows: np.ndarray, size: int,
                   weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`scatter_rows` for ids that already lie in [0, size): the (size, d) sums,
    zero for ids that no entry hits, and the hits per id."""
    n = len(rows)
    ids = np.ravel(ids)
    data = np.ones(ids.size) if weights is None else np.ravel(weights)
    per_col = ids.size // n if n else 1   # column i holds the entries of ids[i]
    a = sparse.csc_matrix((data, ids.astype(np.int32),
                           np.arange(0, ids.size + 1, per_col, dtype=np.int32)),
                          shape=(size, n))
    return a @ rows, np.bincount(ids, minlength=size)


# batches whose row sums are planned at once: enough to spread the plan's fixed
# cost, few enough that its memory does not grow with the epoch
PLAN_BATCHES = 64


class RowSums(NamedTuple):
    """One batch of a `plan_row_sums` plan. Called with the batch's (N, d) value
    rows in entry order, it returns the (len(rows), d) sums, in the order of `rows`."""

    rows: np.ndarray    # the sorted distinct ids of the batch
    index: np.ndarray   # each entry's place in `rows`, in entry order

    def __call__(self, values: np.ndarray) -> np.ndarray:
        d = values.shape[1]
        cells = (self.index * d)[:, None] + np.arange(d)
        return np.bincount(cells.ravel(), weights=values.ravel(),
                           minlength=len(self.rows) * d).reshape(-1, d)


def plan_row_sums(ids: np.ndarray, size: int) -> list[RowSums]:
    """Plan the ordered row sums of consecutive batches of entries at once.

    `ids` names the row of each entry, `size` entries per batch (the last batch
    may be shorter), each batch in summation order; any shape is read flat.
    One `np.unique` over (batch, id) keys gives every batch its sorted distinct
    ids and each entry's place among them. A batch's sums are then one
    weighted `np.bincount` over (place, column) cells, which adds the weights
    into zeros one by one in entry order: the bits of `scatter_rows` over the
    same batch, at a cost that does not grow with how often an id repeats.
    """
    ids = np.ravel(ids)
    if ids.size == 0:
        return []
    width = int(ids.max()) + 1
    batch = np.arange(ids.size) // size
    keys, index = np.unique(batch * width + ids, return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(batch[-1] + 2) * width)
    index -= bounds[batch]
    rows = keys % width
    bounds = bounds.tolist()
    return [RowSums(rows[g0:g1], index[b * size:(b + 1) * size])
            for b, (g0, g1) in enumerate(zip(bounds, bounds[1:]))]


class Adam:
    """Adam over a dict of named parameter arrays.

    `step` applies a dense update; `step_rows` applies a lazy (row-sparse)
    update touching only the given rows of a matrix parameter, leaving the
    moment estimates of untouched rows as they are. Bias correction uses the
    global step count in both cases.

    Both work in place. `step` keeps two scratch arrays per parameter, shaped
    like it and made on its first dense step: the first holds the moment
    increments and then the update, the second the denominator. `step_rows`
    works in its gathered copies of the touched moment rows. Every value goes
    through the same floating-point operations in the same order as the
    whole-array expressions m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps), so the results are the same bits.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def begin_step(self) -> None:
        self.t += 1

    def _corrections(self) -> tuple[float, float]:
        return 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t

    def step(self, name: str, grad: np.ndarray, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        if name not in self._scratch:
            self._scratch[name] = (np.empty_like(m), np.empty_like(m))
        upd, den = self._scratch[name]
        np.multiply(grad, 1 - self.beta1, out=upd)
        m *= self.beta1
        m += upd
        np.multiply(grad, 1 - self.beta2, out=upd)
        upd *= grad
        v *= self.beta2
        v += upd
        c1, c2 = self._corrections()
        np.divide(m, c1, out=upd)
        upd *= lr
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        self.params[name] -= upd

    def step_rows(self, name: str, rows: np.ndarray, grad_rows: np.ndarray,
                  lr: float | None = None) -> np.ndarray:
        """Step the given distinct rows; returns their updated values."""
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        inc = np.multiply(grad_rows, 1 - self.beta1)
        m_r = m[rows]
        m_r *= self.beta1
        m_r += inc
        m[rows] = m_r
        np.multiply(grad_rows, 1 - self.beta2, out=inc)
        inc *= grad_rows
        v_r = v[rows]
        v_r *= self.beta2
        v_r += inc
        v[rows] = v_r
        c1, c2 = self._corrections()
        m_r /= c1
        m_r *= lr
        v_r /= c2
        np.sqrt(v_r, out=v_r)
        v_r += self.eps
        m_r /= v_r
        p_r = self.params[name][rows]
        p_r -= m_r
        self.params[name][rows] = p_r
        return p_r
