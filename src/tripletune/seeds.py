"""Seed entity/predicate embeddings: scoring functions, in-repo training, import/export.

Complex-valued models (ComplEx, RotatE) store their vectors interleaved in
real arrays as [re0, im0, re1, im1, ...]; the layout is the model's, so a seed
is just its two matrices and downstream cosines treat every row as real.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph
from .optim import scatter_rows

TRAINABLE_MODELS = ("transe", "distmult", "complex", "rotate")
COMPLEX_MODELS = ("complex", "rotate")


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingSet:
    entity_vectors: np.ndarray      # |E| x d, float64
    predicate_vectors: np.ndarray   # |P| x d

    @property
    def dim(self) -> int:
        return self.entity_vectors.shape[1]

    def validate(self, g: KnowledgeGraph | None = None) -> None:
        for name, mat in (("entity", self.entity_vectors), ("predicate", self.predicate_vectors)):
            if not np.all(np.isfinite(mat)):
                raise EmbeddingError(f"{name} matrix contains NaN/Inf")
        if self.entity_vectors.shape[1] != self.predicate_vectors.shape[1]:
            raise EmbeddingError("entity and predicate dimensions differ")
        if g is not None:
            if self.entity_vectors.shape[0] != g.num_entities:
                raise EmbeddingError("entity row count does not match graph vocabulary")
            if self.predicate_vectors.shape[0] != g.num_predicates:
                raise EmbeddingError("predicate row count does not match graph vocabulary")


@dataclass
class SeedTrainConfig:
    dim: int = 32
    epochs: int = 100
    learning_rate: float = 0.05
    batch_size: int = 64
    negatives: int = 1           # corruptions per positive
    margin: float = 1.0          # TransE / RotatE only
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


def check_width(model: str, dim: int) -> None:
    """ComplEx and RotatE vectors are complex-interleaved, so their width must be even."""
    if model in COMPLEX_MODELS and dim % 2 != 0:
        raise EmbeddingError(f"{model} requires an even dimension, got {dim}")


# ---------------------------------------------------------------------------
# scoring functions and their analytic gradients
# ---------------------------------------------------------------------------

def _check_dims(*vecs: np.ndarray) -> None:
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise EmbeddingError("dimension mismatch between h, p, t")


def score_transe(h: np.ndarray, p: np.ndarray, t: np.ndarray, norm: int = 2) -> float:
    _check_dims(h, p, t)
    r = h + p - t
    if norm == 1:
        return -float(np.sum(np.abs(r)))
    return -float(np.linalg.norm(r))


def score_transe_grad(h, p, t, norm: int = 2):
    """Returns (score, dh, dp, dt)."""
    _check_dims(h, p, t)
    r = h + p - t
    if norm == 1:
        s = -float(np.sum(np.abs(r)))
        g = -np.sign(r)
    else:
        n = float(np.linalg.norm(r))
        s = -n
        g = -r / n if n > 0 else np.zeros_like(r)
    return s, g, g.copy(), -g


def score_distmult(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    _check_dims(h, p, t)
    return float(np.sum(h * p * t))


def score_distmult_grad(h, p, t):
    _check_dims(h, p, t)
    return float(np.sum(h * p * t)), p * t, h * t, h * p


def _as_complex(v: np.ndarray) -> np.ndarray:
    """Complex slots of an interleaved vector, or of each row of a matrix."""
    if v.shape[-1] % 2 != 0:
        raise EmbeddingError("complex-interleaved vector must have even dimension")
    return v[..., 0::2] + 1j * v[..., 1::2]


def _interleave(c: np.ndarray) -> np.ndarray:
    out = np.empty(c.shape[:-1] + (2 * c.shape[-1],))
    out[..., 0::2] = c.real
    out[..., 1::2] = c.imag
    return out


def score_complex(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    """Re(sum_i h_i * p_i * conj(t_i)) over the d/2 complex slots."""
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    return float(np.real(np.sum(hc * pc * np.conj(tc))))


def score_complex_grad(h, p, t):
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    s = float(np.real(np.sum(hc * pc * np.conj(tc))))
    # d Re(h p conj(t)) / d(h) as a complex Wirtinger-free pair of real partials
    dh = _interleave(np.conj(pc * np.conj(tc)))
    dp = _interleave(np.conj(hc * np.conj(tc)))
    dt = _interleave(hc * pc)          # d/d(tr) = Re(hp), d/d(ti) = Im(hp)
    return s, dh, dp, dt


def score_rotate(h: np.ndarray, p: np.ndarray, t: np.ndarray) -> float:
    """-||h o p - t||_2 with o the slotwise complex product; p must be unit-modulus."""
    _check_dims(h, p, t)
    pc = _as_complex(p)
    if not np.allclose(np.abs(pc), 1.0, atol=1e-6):
        raise EmbeddingError("rotation predicate slots must have unit modulus")
    hc, tc = _as_complex(h), _as_complex(t)
    return -float(np.linalg.norm(hc * pc - tc))


def score_rotate_grad(h, p, t):
    _check_dims(h, p, t)
    hc, pc, tc = _as_complex(h), _as_complex(p), _as_complex(t)
    if not np.allclose(np.abs(pc), 1.0, atol=1e-6):
        raise EmbeddingError("rotation predicate slots must have unit modulus")
    r = hc * pc - tc
    n = float(np.linalg.norm(r))
    s = -n
    if n == 0:
        z = np.zeros_like(h)
        return s, z, z.copy(), z.copy()
    # d||r||/d(x_re, x_im) = [Re(w), -Im(w)]/||r|| with w = conj(r) * dr/dx_re
    dh = -_interleave(np.conj(np.conj(r) * pc)) / n
    dp = -_interleave(np.conj(np.conj(r) * hc)) / n
    dt = _interleave(r) / n
    return s, dh, dp, dt


def score_rescal(h: np.ndarray, p_matrix: np.ndarray, t: np.ndarray) -> float:
    if p_matrix.shape != (len(h), len(t)):
        raise EmbeddingError("predicate matrix shape incompatible with h, t")
    return float(h @ p_matrix @ t)


def score_rescal_grad(h, p_matrix, t):
    s = score_rescal(h, p_matrix, t)
    return s, p_matrix @ t, np.outer(h, t), p_matrix.T @ h


# ---------------------------------------------------------------------------
# in-repo seed training (desk-scale; full-scale seeds come from imports)
# ---------------------------------------------------------------------------

def _phases_to_interleaved(phases: np.ndarray) -> np.ndarray:
    out = np.empty((phases.shape[0], 2 * phases.shape[1]))
    out[:, 0::2] = np.cos(phases)
    out[:, 1::2] = np.sin(phases)
    return out


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for every row, one BLAS dot per row: the kernel `float(u[i] @ v[i])`
    and `np.linalg.norm` use on vectors, so each value matches them bit for bit."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _batch_terms(model_tag, params, tri, is_pos, margin):
    """Loss terms and gradient rows of every scored triple in a batch.

    `tri` is (N, 3) ids, `is_pos` marks the positives. Returns (terms, keep,
    d_head, d_tail, d_pred): the loss term of each row, the rows that carry a
    gradient, and the signed gradient rows for the head, tail and predicate.
    Each row is computed with the same element-wise operations as one triple
    at a time would be, so the values match that bit for bit.
    """
    ent = params["ent"]
    h_i, p_i, t_i = tri[:, 0], tri[:, 1], tri[:, 2]
    if model_tag in ("transe", "rotate"):
        # margin loss on squared distances: d(pos)^2 + max(0, margin - d(neg)^2)
        if model_tag == "transe":
            r = ent[h_i] + params["pred"][p_i] - ent[t_i]
            d2 = row_dot(r, r)
            grad = 2.0 * r
            d_head, d_tail, d_pred = grad, -grad, grad
        else:
            # cos/sin of the whole phase table, once per batch
            phases = params["phases"]
            hc, tc = _as_complex(ent[h_i]), _as_complex(ent[t_i])
            pc = np.cos(phases)[p_i] + 1j * np.sin(phases)[p_i]
            r = hc * pc - tc
            d2 = np.sum(r.real ** 2 + r.imag ** 2, axis=1)
            cr = np.conj(r)
            d_head = 2.0 * _interleave(np.conj(cr * pc))
            d_tail = 2.0 * _interleave(-r)
            d_pred = 2.0 * (cr * hc * 1j * pc).real   # d||r||^2 / d theta
        keep = is_pos | (margin - d2 > 0)
        terms = np.where(is_pos, d2, np.where(keep, margin - d2, 0.0))
        sign = np.where(is_pos, 1.0, -1.0)[:, None]
        return terms, keep, sign * d_head, sign * d_tail, sign * d_pred

    # distmult / complex: binary cross-entropy on sigmoid scores, one scalar
    # exp/log per score as in the reference (np.exp differs in the last ulp)
    hv, pv, tv = ent[h_i], params["pred"][p_i], ent[t_i]
    if model_tag == "distmult":
        score = np.sum(hv * pv * tv, axis=1)
        d_head, d_pred, d_tail = pv * tv, hv * tv, hv * pv
    else:
        hc, pc, tc = _as_complex(hv), _as_complex(pv), _as_complex(tv)
        score = np.real(np.sum(hc * pc * np.conj(tc), axis=1))
        d_head = _interleave(np.conj(pc * np.conj(tc)))
        d_pred = _interleave(np.conj(hc * np.conj(tc)))
        d_tail = _interleave(hc * pc)
    sig = np.array([1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, s)))) for s in score.tolist()])
    terms = np.array([-math.log(max(q if y else 1 - q, 1e-300))
                      for q, y in zip(sig.tolist(), is_pos.tolist())])
    coeff = (sig - is_pos)[:, None]
    return terms, np.ones(len(tri), dtype=bool), coeff * d_head, coeff * d_tail, coeff * d_pred


def train_seed(g: KnowledgeGraph, model_tag: str, cfg: SeedTrainConfig,
               loss_history: list[float] | None = None) -> EmbeddingSet:
    """Train seed embeddings by mini-batch SGD with uniform negative sampling.

    TransE/RotatE use a margin loss on squared distances,
    d(pos)^2 + max(0, margin - d(neg)^2), which drives positive distances to
    zero and is smooth enough for plain gradient descent with a linearly
    decaying step to reduce the loss monotonically at desk scale.
    DistMult/ComplEx use binary cross-entropy on sigmoid scores.

    Each mini-batch is one vectorised step. Corruptions are drawn per example,
    in order, replacing the head or the tail with a uniform entity; one that
    reproduces a known fact is re-drawn up to 10 times. The batch's positives
    and negatives are then scored together against the same parameters, and
    each parameter row gets the sum of its gradient rows in example order
    (h, t, then nh, nt of each negative; negatives outside the margin carry
    none), so the result equals an example-at-a-time accumulation bit for
    bit. Deterministic under cfg.rng_seed.
    """
    if model_tag not in TRAINABLE_MODELS:
        raise ValueError(f"cannot train model {model_tag!r}; import it instead")
    if g.num_triples == 0:
        raise ValueError("empty graph")
    d = cfg.dim
    check_width(model_tag, d)
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / math.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(g.num_entities, d))
    if model_tag == "rotate":
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(g.num_predicates, d // 2))
        params = {"ent": ent, "phases": phases}
    else:
        pred = rng.uniform(-bound, bound, size=(g.num_predicates, d))
        params = {"ent": ent, "pred": pred}
    pred_key = "phases" if model_tag == "rotate" else "pred"

    known = set(map(tuple, g.ids.tolist()))
    n, k, n_ent = g.num_triples, cfg.negatives, g.num_entities
    for epoch in range(cfg.epochs):
        # linear decay keeps late epochs from oscillating around the optimum
        lr = cfg.learning_rate * max(0.01, 1.0 - epoch / cfg.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = g.ids[order[start:start + cfg.batch_size]]
            tri = []   # per example: the positive, then its k corruptions
            for h_i, p_i, t_i in batch.tolist():
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
            tri = np.array(tri, dtype=np.int64)
            is_pos = np.zeros(len(tri), dtype=bool)
            is_pos[::1 + k] = True
            terms, keep, d_head, d_tail, d_pred = _batch_terms(
                model_tag, params, tri, is_pos, cfg.margin)

            # each example's loss summed from 0.0 in order, then the batch in
            # order, as a running float sum would (0.0 + -0.0 is 0.0)
            terms = terms.reshape(len(batch), 1 + k)
            example_loss = 0.0 + terms[:, 0]
            for j in range(1, 1 + k):
                example_loss = example_loss + terms[:, j]
            epoch_loss += float(np.add.accumulate(example_loss)[-1])

            # one scatter for all rows: predicate ids follow the entity ids, and
            # RotatE's d/2 phase gradients are zero-padded to d and cut back after
            ids = tri[keep][:, [0, 2, 1]] + [0, 0, n_ent]
            grad_rows = np.zeros((len(ids), 3, d))
            grad_rows[:, 0], grad_rows[:, 1] = d_head[keep], d_tail[keep]
            grad_rows[:, 2, :d_pred.shape[1]] = d_pred[keep]
            rows, sums, _ = scatter_rows(ids, grad_rows.reshape(-1, d))
            n_ent_rows = np.searchsorted(rows, n_ent)
            params["ent"][rows[:n_ent_rows]] -= lr * sums[:n_ent_rows] / len(batch)
            params[pred_key][rows[n_ent_rows:] - n_ent] -= (
                lr * sums[n_ent_rows:, :d_pred.shape[1]] / len(batch))
        if loss_history is not None:
            loss_history.append(epoch_loss / n)

    if model_tag == "rotate":
        pred_out = _phases_to_interleaved(params["phases"])
    else:
        pred_out = params["pred"]
    es = EmbeddingSet(params["ent"], pred_out)
    es.validate(g)
    return es


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def write_rows(path: str | Path, names: Iterable[str], mat: np.ndarray) -> None:
    """One `name<TAB>value...` line per row, every value as %.17g so it reads back exactly."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for name, row in zip(names, mat):
            fh.write(name + "\t" + "\t".join(f"{x:.17g}" for x in row) + "\n")


def export_embeddings(es: EmbeddingSet, g: KnowledgeGraph,
                      entity_path: str | Path, predicate_path: str | Path) -> None:
    write_rows(entity_path, g.entities.names, es.entity_vectors)
    write_rows(predicate_path, g.predicates.names, es.predicate_vectors)


def read_rows(path: str | Path, key: Callable[[str], object] = str,
              what: str = "name") -> dict:
    """The rows of a `key<TAB>value...` file by `key(first field)`. A row with a key
    that `key` rejects, a non-numeric value, no values, another length than the
    first row or a repeated key raises EmbeddingError naming its file and line."""
    rows: dict = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                k, vec = key(fields[0]), [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            dim = len(next(iter(rows.values()), vec))
            if not vec or len(vec) != dim:
                raise EmbeddingError(f"{path}:{lineno}: ragged row ({len(vec)} values, "
                                     f"expected {dim or 'at least 1'})")
            if k in rows:
                raise EmbeddingError(f"{path}:{lineno}: duplicate {what} {k}")
            rows[k] = vec
    return rows


def _read_matrix(path: str | Path, names: list[str], what: str) -> np.ndarray:
    rows = read_rows(path, what=what)
    missing = [n for n in names if n not in rows]
    if missing:
        raise EmbeddingError(f"{what} file {path} missing vocabulary items: "
                             + ", ".join(repr(m) for m in missing[:5]))
    return np.array([rows[n] for n in names])


def import_embeddings(entity_path: str | Path, predicate_path: str | Path,
                      g: KnowledgeGraph) -> EmbeddingSet:
    ent = _read_matrix(entity_path, g.entities.names, "entity")
    pred = _read_matrix(predicate_path, g.predicates.names, "predicate")
    es = EmbeddingSet(ent, pred)
    es.validate(g)
    return es


def save_checkpoint(es: EmbeddingSet, path: str | Path) -> None:
    np.savez(path, entity_vectors=es.entity_vectors, predicate_vectors=es.predicate_vectors)


def load_checkpoint(path: str | Path) -> EmbeddingSet:
    data = np.load(path, allow_pickle=False)
    return EmbeddingSet(data["entity_vectors"], data["predicate_vectors"])
