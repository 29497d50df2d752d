"""Adam over one parameter array, which fine-tuning and the classifiers step;
`packed`, which lays several arrays out as views of one; the ordered row sums
of the sparse gradients of seed training and fine-tuning, each of which steps
one array of parameter rows; the checks of a count, of a real number and of the
two training configs; and the error that fine-tuning and skip-gram raise on
non-finite parameters."""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy import sparse


class TrainingDiverged(RuntimeError):
    """A training loop produced non-finite parameters."""


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a count that is not an integer (a bool is not one) or is below `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_number(name: str, value, rule: str, ok: Callable[[float], bool]) -> None:
    """Reject a value that is not a finite real number (a bool is not one), or that
    `ok` rejects, as `{name} must be {rule}, got {value!r}`."""
    try:
        good = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and ok(value))
    except OverflowError:   # an integer beyond the float range
        good = False
    if not good:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_training_config(cfg) -> None:
    """Reject a training config whose `epochs` or `batch_size` is not an integer
    >= 1, or whose `learning_rate` is not finite and > 0, naming the key."""
    for name in ("epochs", "batch_size"):
        check_count(name, getattr(cfg, name))
    check_number("learning_rate", cfg.learning_rate, "finite and > 0", lambda x: x > 0)


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


def packed(*shapes: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zeroed flat array holding arrays of the given shapes in turn, and a
    view of it per shape: parameters or gradients for one `Adam` to step."""
    ends = np.cumsum([0, *map(math.prod, shapes)]).tolist()
    flat = np.zeros(ends[-1])
    return flat, [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]


class Adam:
    """Adam over one parameter array, in place.

    `step` updates every element, in views; `step_rows` updates only the given
    rows, in gathered copies that it writes back once, and leaves the moments
    of the other rows as they are. Either call advances `t`, the step count of
    the bias correction, and runs the one update, m = b1 m + (1 - b1) g,
    v = b2 v + ((1 - b2) g) g, p -= lr (m / c1) / (sqrt(v / c2) + eps), in
    that order of operations, so a row gets the same bits from either call.
    b1, b2 and eps are the class attributes `beta1`, `beta2` and `eps`, set to
    the values that Kingma & Ba recommend (ICLR 2015).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad: np.ndarray, lr: float | None = None) -> None:
        self._update(self.m, self.v, self.params, grad, lr)

    def step_rows(self, rows: np.ndarray, grad_rows: np.ndarray,
                  lr: float | None = None) -> np.ndarray:
        """Step the given distinct rows; returns their updated values."""
        m, v, p = (a.take(rows, axis=0) for a in (self.m, self.v, self.params))
        self._update(m, v, p, grad_rows, lr)
        self.m[rows], self.v[rows], self.params[rows] = m, v, p
        return p

    def _update(self, m: np.ndarray, v: np.ndarray, p: np.ndarray, grad: np.ndarray,
                lr: float | None) -> None:
        """Update m, v and p in place: the whole arrays, or gathered copies of rows."""
        self.t += 1
        lr = self.lr if lr is None else lr
        upd = np.multiply(grad, 1 - self.beta1)
        m *= self.beta1
        m += upd
        np.multiply(grad, 1 - self.beta2, out=upd)
        upd *= grad
        v *= self.beta2
        v += upd
        np.divide(m, 1.0 - self.beta1 ** self.t, out=upd)
        upd *= lr
        den = np.divide(v, 1.0 - self.beta2 ** self.t)
        np.sqrt(den, out=den)
        den += self.eps
        upd /= den
        p -= upd
