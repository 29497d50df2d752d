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
from .optim import (PLAN_BATCHES, Adam, RowSums, TrainingDiverged, check_number,
                    check_training_config, plan_row_sums)
from .pairs import PtssDataset
from .seeds import EmbeddingSet, read_rows, take_rows, write_rows

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
    p_vec = emb.predicate_vectors[g.ids[:, 1]] if op == "sum" else None   # only "sum" reads it
    return aggregate(ent[g.ids[:, 0]], ent[g.ids[:, 2]], op, p_vec=p_vec)


@dataclass
class FineTuneConfig:
    batch_size: int = 128
    learning_rate: float = 2e-3
    warmup_fraction: float = 0.10
    epochs: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        check_number("warmup_fraction", self.warmup_fraction, "in [0, 1)",
                     lambda x: 0.0 <= x < 1.0)
        check_training_config(self)


class SiameseModel:
    """The triple layer (n, d), w1 (d, d) and b1 (d,), copied once into one
    (n + d + 1, d) slab, in that order, and kept as views of it."""

    def __init__(self, triple_embeddings: np.ndarray, w1: np.ndarray, b1: np.ndarray):
        n = len(triple_embeddings)
        self.slab = np.vstack([triple_embeddings, w1, b1], dtype=np.float64)
        self.triple_embeddings, self.w1, self.b1 = self.slab[:n], self.slab[n:-1], self.slab[-1]

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


def batch_loss_and_grads(model: SiameseModel, a_ids: np.ndarray, b_ids: np.ndarray,
                         targets: np.ndarray, rows: RowSums | None = None):
    """Mean squared error over the batch and its analytic gradients.

    Returns (loss, grad_w1, grad_b1, touched_rows, grad_rows) where grad_rows
    aligns with the deduplicated, sorted touched_rows. Each touched row sums
    its gradient rows in the order a0, b0, a1, b1, ...; `rows` is that sum,
    planned ahead (`train` plans many batches at once), else it is planned here.
    """
    if rows is None:
        rows = plan_row_sums(np.stack([a_ids, b_ids], axis=1), 2 * len(a_ids))[0]
    residual, *grads = _residual_and_grads(model, a_ids, b_ids, targets, rows)
    return (float(np.mean(residual ** 2)), *grads)


def _kept(ok: np.ndarray | None, values: np.ndarray, fill: float) -> np.ndarray:
    """`values` where `ok`, else `fill`; `values` itself when `ok` is None (every pair)."""
    return values if ok is None else np.where(ok, values, fill)


def _residual_and_grads(model: SiameseModel, a_ids: np.ndarray, b_ids: np.ndarray,
                        targets: np.ndarray, rows: RowSums):
    """`batch_loss_and_grads` with the residuals s - targets in place of the loss.

    Both branches run as one (2, m, d) array, a rows first. Each product with
    w1 is one stacked `np.matmul` over it, which NumPy computes as one (m, d)
    BLAS product per branch: BLAS may sum a row of a (2m, d) product in another
    order than the same row of an (m, d) one, so the branches are not merged
    into one taller product. A pair with a zero-norm (or NaN) branch scores 0
    and adds no gradient; the selections that say so run only for a batch
    that has one.
    """
    m = len(a_ids)
    e = model.triple_embeddings.take(np.concatenate([a_ids, b_ids]), axis=0).reshape(2, m, -1)
    w1 = model.w1
    o = np.matmul(e, w1.T)
    o += model.b1
    np.tanh(o, out=o)
    dtanh = o * o   # o ** 2, the terms of np.linalg.norm; 1 - o ** 2 below
    norms = np.sqrt(dtanh.sum(axis=2))
    np.subtract(1.0, dtanh, out=dtanh)
    dots = np.einsum("ij,ij->i", o[0], o[1])
    ok = None if (norms > 0).all() else (norms[0] > 0) & (norms[1] > 0)   # NaN fails > 0
    denom = _kept(ok, norms[0] * norms[1], 1.0)
    s = _kept(ok, dots / denom, 0.0)

    residual = s - targets
    ds = _kept(ok, 2.0 * residual / m, 0.0)

    # d cos / d o_a = o_b/(na*nb) - s * o_a / na^2, and symmetrically for o_b:
    # o[::-1] is each row's partner in the other branch
    dz = np.divide(o[::-1], denom[:, None])
    o *= (s / _kept(ok, norms, 1.0) ** 2)[..., None]
    dz -= o
    dz *= ds[:, None]
    dz *= dtanh

    grad_w1 = np.matmul(dz.transpose(0, 2, 1), e)
    grad_w1[0] += grad_w1[1]
    branch_sums = dz.sum(axis=1)
    grad_b1 = branch_sums[0] + branch_sums[1]
    de = np.empty((m, 2, w1.shape[1]))   # rows a0, b0, a1, b1, ...: the summation order
    np.matmul(dz, w1, out=de.transpose(1, 0, 2))
    return residual, grad_w1[0], grad_b1, rows.rows, rows(de.reshape(2 * m, -1))


def train(model: SiameseModel, dataset: PtssDataset, cfg: FineTuneConfig,
          loss_history: list[float] | None = None) -> SiameseModel:
    """Adam fine-tuning of the embedding layer plus the shared dense layer.

    Each step is one Adam row step of the model's slab over the touched triple
    rows and the d + 1 dense rows; Adam treats every element alike, so this is
    the dense step of w1 and b1 plus the row step of the triple layer, bit for
    bit. The row sums of every PLAN_BATCHES batches of an epoch's permutation
    are planned at once (`optim.plan_row_sums`). The batch loss shapes no
    parameter, so it is computed only for a `loss_history`.

    Raises ValueError for an empty dataset, a pair id outside the layer's rows,
    or a score that is not a PTSS value: one outside [-1, 1], NaN included.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty pair dataset")
    n_rows = len(model.triple_embeddings)
    for ids in (dataset.a, dataset.b):   # not concatenated: that copy would outlive the check
        bad = ids[(ids < 0) | (ids >= n_rows)]
        if bad.size:
            raise ValueError(f"pair triple id {bad[0]} outside [0, {n_rows})")
    bad = np.flatnonzero(~(np.abs(dataset.score) <= 1.0))   # NaN fails <=
    if bad.size:
        raise ValueError(f"pair {bad[0]} has score {dataset.score[bad[0]]}, "
                         "not a finite value in [-1, 1]")
    rng = np.random.default_rng(cfg.rng_seed)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = int(cfg.warmup_fraction * total_steps)

    dense_rows = np.arange(n_rows, len(model.slab))
    opt = Adam(model.slab, lr=cfg.learning_rate)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for first in range(0, n, PLAN_BATCHES * cfg.batch_size):
            ahead = order[first:first + PLAN_BATCHES * cfg.batch_size]
            a, b, score = dataset.a[ahead], dataset.b[ahead], dataset.score[ahead]
            plan = plan_row_sums(np.stack([a, b], axis=1), 2 * cfg.batch_size)
            for start, rows in zip(range(0, len(ahead), cfg.batch_size), plan):
                batch = slice(start, start + cfg.batch_size)
                residual, gw, gb, touched, grows = _residual_and_grads(
                    model, a[batch], b[batch], score[batch], rows)
                step += 1
                lr = (cfg.learning_rate * min(1.0, step / warmup_steps) if warmup_steps
                      else cfg.learning_rate)
                updated = opt.step_rows(np.concatenate([touched, dense_rows]),
                                        np.concatenate([grows, gw, gb[None]]), lr=lr)
                if loss_history is not None:
                    epoch_loss += float(np.mean(residual ** 2)) * len(residual)
                if not np.all(np.isfinite(updated)):
                    raise TrainingDiverged(
                        f"NaN/Inf parameter at epoch {epoch}, step {step}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return model


def save_checkpoint(model: SiameseModel, path: str | Path, config: FineTuneConfig) -> None:
    np.savez(path, triple_embeddings=model.triple_embeddings, w1=model.w1, b1=model.b1,
             **{f"cfg_{k}": np.array(v) for k, v in vars(config).items()})


def load_checkpoint(path: str | Path) -> SiameseModel:
    data = np.load(path, allow_pickle=False)
    return SiameseModel(data["triple_embeddings"], data["w1"], data["b1"])


def write_triple_embedding_tsv(matrix: np.ndarray, path: str | Path) -> None:
    write_rows(path, map(str, range(len(matrix))), matrix)


def read_triple_embedding_tsv(path: str | Path) -> np.ndarray:
    """Rows keyed by triple id; ids must be 0..n-1, each once, in any order. A
    malformed row raises ValueError naming its file and line (`seeds.read_rows`)."""
    index, mat = read_rows(path, key=int, what="triple id")
    if not index:
        raise ValueError(f"{path}: no rows")
    missing = next((i for i in range(len(index)) if i not in index), None)
    if missing is not None:
        raise ValueError(f"{path}: no row for triple id {missing} "
                         f"(ids must be 0..{len(index) - 1})")
    return take_rows(mat, [index[i] for i in range(len(index))])
