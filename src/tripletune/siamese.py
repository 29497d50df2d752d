"""Siamese fine-tuning of triple embeddings against pair similarity targets.

A tunable per-triple embedding layer (initialized by aggregating seed head and
tail vectors) feeds a single shared dense layer with tanh. Branch outputs are
compared by cosine and regressed onto the sampled pair scores with MSE; both
the embedding rows and the dense layer are updated by Adam with a linear
learning-rate warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph
from .optim import Adam, TrainingDiverged, scatter_rows
from .pairs import PtssDataset
from .seeds import EmbeddingSet, read_rows, write_rows

AGG_OPS = ("avg", "had", "l1", "l2", "ht")


def aggregate(h_vec: np.ndarray, t_vec: np.ndarray, op: str,
              p_vec: np.ndarray | None = None) -> np.ndarray:
    """Combine head and tail vectors, or rows of head and tail matrices.

    "sum" (h + p + t) is a diagnostic operator, outside AGG_OPS, that shows how
    translation-trained seeds collapse to 2t; it needs the predicate vector.
    """
    if h_vec.shape[-1] != t_vec.shape[-1]:
        raise ValueError("head/tail dimension mismatch")
    if op == "avg":
        return (h_vec + t_vec) / 2.0
    if op == "had":
        return h_vec * t_vec
    if op == "l1":
        return np.abs(h_vec - t_vec)
    if op == "l2":
        return np.abs(h_vec - t_vec) ** 2
    if op == "ht":
        return np.concatenate([h_vec, t_vec], axis=-1)
    if op == "sum":
        if p_vec is None:
            raise ValueError("sum aggregation needs the predicate vector")
        return h_vec + p_vec + t_vec
    raise ValueError(f"unknown aggregation operator {op!r}")


def aggregated_dim(dim: int, op: str) -> int:
    return 2 * dim if op == "ht" else dim


def init_embedding_layer(g: KnowledgeGraph, emb: EmbeddingSet, op: str) -> np.ndarray:
    emb.validate(g)
    ent = emb.entity_vectors
    return aggregate(ent[g.ids[:, 0]], ent[g.ids[:, 2]], op,
                     p_vec=emb.predicate_vectors[g.ids[:, 1]])


@dataclass
class FineTuneConfig:
    batch_size: int = 128
    learning_rate: float = 2e-3
    warmup_fraction: float = 0.10
    epochs: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class SiameseModel:
    def __init__(self, triple_embeddings: np.ndarray, w1: np.ndarray, b1: np.ndarray):
        self.triple_embeddings = triple_embeddings
        self.w1 = w1
        self.b1 = b1

    @property
    def dim(self) -> int:
        return self.triple_embeddings.shape[1]

    @classmethod
    def initialize(cls, g: KnowledgeGraph, emb: EmbeddingSet, op: str,
                   rng_seed: int = 0) -> "SiameseModel":
        layer = init_embedding_layer(g, emb, op)
        d = layer.shape[1]
        rng = np.random.default_rng([rng_seed, 17])
        bound = math.sqrt(6.0 / (d + d))
        w1 = rng.uniform(-bound, bound, size=(d, d))
        b1 = np.zeros(d)
        return cls(layer, w1, b1)

    def encode(self, ids: np.ndarray) -> np.ndarray:
        e = self.triple_embeddings[ids]
        return np.tanh(e @ self.w1.T + self.b1)

    def forward_pair(self, a_id: int, b_id: int) -> tuple[np.ndarray, np.ndarray, float]:
        o = self.encode(np.array([a_id, b_id]))
        o_a, o_b = o[0], o[1]
        na, nb = float(np.linalg.norm(o_a)), float(np.linalg.norm(o_b))
        if na == 0.0 or nb == 0.0:
            return o_a, o_b, 0.0
        if a_id == b_id:
            return o_a, o_b, 1.0   # identical branches share all parameters
        s = float(np.dot(o_a, o_b) / (na * nb))
        return o_a, o_b, max(-1.0, min(1.0, s))


def pair_loss(s_hat: float, s_target: float) -> float:
    return (s_hat - s_target) ** 2


def batch_loss_and_grads(model: SiameseModel, a_ids: np.ndarray, b_ids: np.ndarray,
                         targets: np.ndarray):
    """Mean squared error over the batch and its analytic gradients.

    Returns (loss, grad_w1, grad_b1, touched_rows, grad_rows) where grad_rows
    aligns with the deduplicated, sorted touched_rows.
    """
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

    # d cos / d o_a = o_b/(na*nb) - s * o_a / na^2 (and symmetrically for o_b)
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

    # rows interleaved as a0, b0, a1, b1, ... so each row sums in batch order
    touched, grad_rows, _ = scatter_rows(np.stack([a_ids, b_ids], axis=1),
                                         np.stack([de_a, de_b], axis=1).reshape(2 * batch, -1))
    return loss, grad_w1, grad_b1, touched, grad_rows


def train(model: SiameseModel, dataset: PtssDataset, cfg: FineTuneConfig,
          loss_history: list[float] | None = None) -> SiameseModel:
    """Adam fine-tuning of the embedding layer plus the shared dense layer.

    Raises ValueError for an empty dataset or a pair id outside the layer's rows.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty pair dataset")
    n_rows = len(model.triple_embeddings)
    ids = np.concatenate([dataset.a, dataset.b])
    bad = ids[(ids < 0) | (ids >= n_rows)]
    if bad.size:
        raise ValueError(f"pair triple id {bad[0]} outside [0, {n_rows})")
    rng = np.random.default_rng(cfg.rng_seed)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = int(cfg.warmup_fraction * total_steps)

    opt = Adam({"emb": model.triple_embeddings, "w1": model.w1, "b1": model.b1},
               lr=cfg.learning_rate)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb, rows, grows = batch_loss_and_grads(
                model, dataset.a[idx], dataset.b[idx], dataset.score[idx])
            step += 1
            lr = cfg.learning_rate * min(1.0, step / warmup_steps) if warmup_steps else cfg.learning_rate
            opt.begin_step()
            opt.step("w1", gw, lr=lr)
            opt.step("b1", gb, lr=lr)
            opt.step_rows("emb", rows, grows, lr=lr)
            epoch_loss += loss * len(idx)
            if not (np.all(np.isfinite(model.w1)) and np.all(np.isfinite(model.b1))
                    and np.all(np.isfinite(model.triple_embeddings[rows]))):
                raise TrainingDiverged(
                    f"NaN/Inf parameter at epoch {epoch}, step {step}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return model


def export_triple_embeddings(model: SiameseModel) -> np.ndarray:
    """The fine-tuned embedding layer itself (not the encoder outputs)."""
    return model.triple_embeddings.copy()


def save_checkpoint(model: SiameseModel, path: str | Path,
                    config: FineTuneConfig | None = None) -> None:
    extras = {}
    if config is not None:
        extras = {f"cfg_{k}": np.array(v) for k, v in vars(config).items()}
    np.savez(path, triple_embeddings=model.triple_embeddings, w1=model.w1, b1=model.b1,
             **extras)


def load_checkpoint(path: str | Path) -> SiameseModel:
    data = np.load(path, allow_pickle=False)
    return SiameseModel(data["triple_embeddings"], data["w1"], data["b1"])


def write_triple_embedding_tsv(matrix: np.ndarray, path: str | Path) -> None:
    write_rows(path, map(str, range(len(matrix))), matrix)


def read_triple_embedding_tsv(path: str | Path) -> np.ndarray:
    """Rows keyed by triple id; ids must be 0..n-1, each once, in any order. A
    malformed row raises ValueError naming its file and line (`seeds.read_rows`)."""
    rows = read_rows(path, key=int, what="triple id")
    if not rows:
        raise ValueError(f"{path}: no rows")
    missing = next((i for i in range(len(rows)) if i not in rows), None)
    if missing is not None:
        raise ValueError(f"{path}: no row for triple id {missing} "
                         f"(ids must be 0..{len(rows) - 1})")
    return np.array([rows[i] for i in range(len(rows))])
