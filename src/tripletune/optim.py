"""Minimal Adam optimizer shared by seed training, fine-tuning and the classifiers,
the ordered row scatter that sums their sparse gradients, and the error that
fine-tuning and skip-gram raise on non-finite parameters."""

from __future__ import annotations

import numpy as np
from scipy import sparse


class TrainingDiverged(RuntimeError):
    """A training loop produced non-finite parameters."""


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
                  lr: float | None = None) -> None:
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
        self.params[name][rows] -= m_r
