"""Seed entity/predicate embeddings: scoring functions, in-repo training, import/export.

Complex-valued models (ComplEx, RotatE) store their vectors interleaved in
real arrays as [re0, im0, re1, im1, ...] so downstream cosine computations
treat every embedding as a plain real vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph

REAL_KIND = "real"
COMPLEX_KIND = "complex-interleaved"
TRAINABLE_MODELS = ("transe", "distmult", "complex", "rotate")
COMPLEX_MODELS = ("complex", "rotate")


class EmbeddingError(ValueError):
    pass


@dataclass
class EmbeddingSet:
    entity_vectors: np.ndarray      # |E| x d, float64
    predicate_vectors: np.ndarray   # |P| x d
    value_kind: str = REAL_KIND
    model_tag: str = "imported"

    @property
    def dim(self) -> int:
        return self.entity_vectors.shape[1]

    def validate(self, g: KnowledgeGraph | None = None) -> None:
        for name, mat in (("entity", self.entity_vectors), ("predicate", self.predicate_vectors)):
            if not np.all(np.isfinite(mat)):
                raise EmbeddingError(f"{name} matrix contains NaN/Inf")
        if self.entity_vectors.shape[1] != self.predicate_vectors.shape[1]:
            raise EmbeddingError("entity and predicate dimensions differ")
        if self.value_kind == COMPLEX_KIND and self.dim % 2 != 0:
            raise EmbeddingError("complex-interleaved embeddings require even dimension")
        if self.value_kind not in (REAL_KIND, COMPLEX_KIND):
            raise EmbeddingError(f"unknown value_kind {self.value_kind!r}")
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
    negatives_per_positive: int = 1
    margin: float = 1.0          # TransE / RotatE only
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


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
    if len(v) % 2 != 0:
        raise EmbeddingError("complex-interleaved vector must have even dimension")
    return v[0::2] + 1j * v[1::2]


def _interleave(c: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(c))
    out[0::2] = c.real
    out[1::2] = c.imag
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


def train_seed(g: KnowledgeGraph, model_tag: str, cfg: SeedTrainConfig,
               loss_history: list[float] | None = None) -> EmbeddingSet:
    """Train seed embeddings by mini-batch SGD with uniform negative sampling.

    TransE/RotatE use a margin loss on squared distances,
    d(pos)^2 + max(0, margin - d(neg)^2), which drives positive distances to
    zero and is smooth enough for plain gradient descent with a linearly
    decaying step to reduce the loss monotonically at desk scale.
    DistMult/ComplEx use binary cross-entropy on sigmoid scores. Sampled
    corruptions that reproduce a known fact are re-drawn a bounded number of
    times. Deterministic under cfg.rng_seed.
    """
    if model_tag not in TRAINABLE_MODELS:
        raise ValueError(f"cannot train model {model_tag!r}; import it instead")
    if g.num_triples == 0:
        raise ValueError("empty graph")
    d = cfg.dim
    if model_tag in COMPLEX_MODELS and d % 2 != 0:
        raise ValueError(f"{model_tag} requires an even dimension, got {d}")
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / math.sqrt(d)
    ent = rng.uniform(-bound, bound, size=(g.num_entities, d))
    if model_tag == "rotate":
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(g.num_predicates, d // 2))
        params = {"ent": ent, "phases": phases}
    else:
        pred = rng.uniform(-bound, bound, size=(g.num_predicates, d))
        params = {"ent": ent, "pred": pred}

    known = set(map(tuple, g.ids.tolist()))
    n = g.num_triples
    for epoch in range(cfg.epochs):
        # linear decay keeps late epochs from oscillating around the optimum
        lr = cfg.learning_rate * max(0.01, 1.0 - epoch / cfg.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = g.ids[order[start:start + cfg.batch_size]]
            g_ent = np.zeros_like(params["ent"])
            if model_tag == "rotate":
                g_pred = np.zeros_like(params["phases"])
            else:
                g_pred = np.zeros_like(params["pred"])
            batch_loss = 0.0
            for h_i, p_i, t_i in batch:
                negs = []
                for _ in range(cfg.negatives_per_positive):
                    for _retry in range(10):
                        e_new = int(rng.integers(g.num_entities))
                        if rng.random() < 0.5:
                            neg = (e_new, p_i, t_i)
                        else:
                            neg = (h_i, p_i, e_new)
                        if neg not in known:
                            break
                    negs.append(neg)
                batch_loss += _accumulate_example(
                    model_tag, params, cfg.margin, (h_i, p_i, t_i), negs, g_ent, g_pred)
            params["ent"] -= lr * g_ent / len(batch)
            pred_key = "phases" if model_tag == "rotate" else "pred"
            params[pred_key] -= lr * g_pred / len(batch)
            epoch_loss += batch_loss
        if loss_history is not None:
            loss_history.append(epoch_loss / n)

    if model_tag == "rotate":
        pred_out = _phases_to_interleaved(params["phases"])
    else:
        pred_out = params["pred"]
    kind = COMPLEX_KIND if model_tag in COMPLEX_MODELS else REAL_KIND
    es = EmbeddingSet(params["ent"], pred_out, value_kind=kind, model_tag=model_tag)
    es.validate(g)
    return es


def _accumulate_example(model_tag, params, margin, pos, negs, g_ent, g_pred) -> float:
    ent = params["ent"]
    if model_tag == "rotate":
        phases = params["phases"]
        cos_p, sin_p = np.cos(phases), np.sin(phases)

        def dist_grad(h_i, p_i, t_i):
            hc = ent[h_i, 0::2] + 1j * ent[h_i, 1::2]
            tc = ent[t_i, 0::2] + 1j * ent[t_i, 1::2]
            pc = cos_p[p_i] + 1j * sin_p[p_i]
            r = hc * pc - tc
            d2 = float(np.sum(r.real ** 2 + r.imag ** 2))
            cr = np.conj(r)
            grads = (
                2.0 * _interleave(np.conj(cr * pc)),   # d||r||^2 / d h components
                2.0 * _interleave(-r),                 # d||r||^2 / d t components
                2.0 * (cr * hc * 1j * pc).real,        # d||r||^2 / d theta
            )
            return d2, grads

        loss = 0.0
        d_pos, gp = dist_grad(*pos)
        loss += d_pos
        g_ent[pos[0]] += gp[0]
        g_ent[pos[2]] += gp[1]
        g_pred[pos[1]] += gp[2]
        for neg in negs:
            d_neg, gn = dist_grad(*neg)
            if margin - d_neg > 0:
                loss += margin - d_neg
                g_ent[neg[0]] -= gn[0]
                g_ent[neg[2]] -= gn[1]
                g_pred[neg[1]] -= gn[2]
        return loss

    pred = params["pred"]
    if model_tag == "transe":
        def dist_grad(h_i, p_i, t_i):
            r = ent[h_i] + pred[p_i] - ent[t_i]
            return float(r @ r), 2.0 * r

        loss = 0.0
        d_pos, gr = dist_grad(*pos)
        loss += d_pos
        g_ent[pos[0]] += gr
        g_pred[pos[1]] += gr
        g_ent[pos[2]] -= gr
        for neg in negs:
            d_neg, gr = dist_grad(*neg)
            if margin - d_neg > 0:
                loss += margin - d_neg
                g_ent[neg[0]] -= gr
                g_pred[neg[1]] -= gr
                g_ent[neg[2]] += gr
        return loss

    # distmult / complex: BCE with sigmoid scores
    if model_tag == "distmult":
        grad_fn = score_distmult_grad
    else:
        grad_fn = score_complex_grad

    loss = 0.0
    for (h_i, p_i, t_i), y in [(pos, 1.0)] + [(n_, 0.0) for n_ in negs]:
        s, dh, dp, dt = grad_fn(ent[h_i], pred[p_i], ent[t_i])
        sig = 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, s))))
        loss += -math.log(max(sig if y else 1 - sig, 1e-300))
        coeff = sig - y
        g_ent[h_i] += coeff * dh
        g_pred[p_i] += coeff * dp
        g_ent[t_i] += coeff * dt
    return loss


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def _write_matrix(path: str | Path, names: list[str], mat: np.ndarray) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for name, row in zip(names, mat):
            fh.write(name + "\t" + "\t".join(f"{x:.17g}" for x in row) + "\n")


def export_embeddings(es: EmbeddingSet, g: KnowledgeGraph,
                      entity_path: str | Path, predicate_path: str | Path) -> None:
    _write_matrix(entity_path, g.entities.names, es.entity_vectors)
    _write_matrix(predicate_path, g.predicates.names, es.predicate_vectors)


def _read_matrix(path: str | Path, names: list[str], what: str) -> np.ndarray:
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise EmbeddingError(f"{path}:{lineno}: row has no values")
            elif len(vec) != dim:
                raise EmbeddingError(f"{path}:{lineno}: ragged row (expected {dim} values)")
            vectors[fields[0]] = vec
    missing = [n for n in names if n not in vectors]
    if missing:
        raise EmbeddingError(f"{what} file {path} missing vocabulary items: "
                             + ", ".join(repr(m) for m in missing[:5]))
    return np.stack([vectors[n] for n in names])


def import_embeddings(entity_path: str | Path, predicate_path: str | Path,
                      g: KnowledgeGraph, value_kind: str = REAL_KIND,
                      model_tag: str = "imported") -> EmbeddingSet:
    ent = _read_matrix(entity_path, g.entities.names, "entity")
    pred = _read_matrix(predicate_path, g.predicates.names, "predicate")
    es = EmbeddingSet(ent, pred, value_kind=value_kind, model_tag=model_tag)
    es.validate(g)
    return es


def save_checkpoint(es: EmbeddingSet, path: str | Path) -> None:
    np.savez(path, entity_vectors=es.entity_vectors, predicate_vectors=es.predicate_vectors,
             value_kind=np.array(es.value_kind), model_tag=np.array(es.model_tag))


def load_checkpoint(path: str | Path) -> EmbeddingSet:
    data = np.load(path, allow_pickle=False)
    return EmbeddingSet(data["entity_vectors"], data["predicate_vectors"],
                        value_kind=str(data["value_kind"]), model_tag=str(data["model_tag"]))
