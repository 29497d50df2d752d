"""Seed entity/predicate embeddings: the batch scorer, in-repo training, import/export.

Complex-valued models (ComplEx, RotatE) store their vectors interleaved in
real arrays as [re0, im0, re1, im1, ...]; the layout is the model's, so a seed
is just its two matrices and downstream cosines treat every row as real.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph
from .optim import (PLAN_BATCHES, check_count, check_number, check_training_config,
                    plan_row_sums)

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
        check_count("dim", self.dim, 2)
        check_count("negatives", self.negatives)
        check_training_config(self)
        check_number("margin", self.margin, "a finite number >= 0", lambda x: x >= 0)


def check_width(model: str, dim: int) -> None:
    """ComplEx and RotatE vectors are complex-interleaved, so their width must be even."""
    if model in COMPLEX_MODELS and dim % 2 != 0:
        raise EmbeddingError(f"{model} requires an even dimension, got {dim}")


# ---------------------------------------------------------------------------
# the batch scorer: loss terms and analytic gradients of every scored triple
# ---------------------------------------------------------------------------

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


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for every row, one BLAS dot per row: the kernel `float(u[i] @ v[i])`
    and `np.linalg.norm` use on vectors, so each value matches them bit for bit."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _batch_terms(model_tag, params, tri, is_pos, margin, with_terms=True):
    """Loss terms and gradient rows of every scored triple in a batch.

    `tri` is (N, 3) ids, `is_pos` marks the positives. Returns (terms, keep,
    d_head, d_tail, d_pred): the loss term of each row (None unless
    `with_terms`), the rows that carry a gradient, and the signed gradient rows
    for the head, tail and predicate.
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
        terms = np.where(is_pos, d2, np.where(keep, margin - d2, 0.0)) if with_terms else None
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
                      for q, y in zip(sig.tolist(), is_pos.tolist())]) if with_terms else None
    coeff = (sig - is_pos)[:, None]
    return terms, np.ones(len(tri), dtype=bool), coeff * d_head, coeff * d_tail, coeff * d_pred


# ---------------------------------------------------------------------------
# in-repo seed training (desk-scale; full-scale seeds come from imports)
# ---------------------------------------------------------------------------

_LOW32 = np.uint64(0xFFFFFFFF)
_DENSE = 16   # the largest window of corruption attempts checked against every slot


def _draw_attempts(rng: np.random.Generator, n_ent: int,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """What `count` pairs of calls `rng.integers(n_ent)`, `rng.random()` return, as
    (entities, coins) drawn in bulk, with `rng` left in the state those calls leave.

    NumPy's PCG64 draws `integers(n)` (1 < n <= 2**32) by Lemire's method from a
    32-bit half: the low half of a fresh 64-bit word, whose high half it keeps for
    the next 32-bit draw (`has_uint32`, `uinteger`), or that kept half. `random()`
    is a fresh word's top 53 bits times 2**-53 and leaves the kept half alone. So
    from an empty buffer, attempts 2i and 2i + 1 take the two halves of word 3i and
    the doubles of words 3i + 1 and 3i + 2; `integers(1)` draws nothing. A draw
    that Lemire rejects makes NumPy draw again, so that attempt goes through the
    scalar calls and the bulk draws resume after it.
    """
    bitgen = rng.bit_generator
    assert isinstance(bitgen, np.random.PCG64), "bulk draws reproduce PCG64 only"
    assert 1 <= n_ent <= 1 << 32, n_ent
    if n_ent == 1:
        return np.zeros(count, dtype=np.int64), (bitgen.random_raw(count) >> 11) * 2.0 ** -53
    ents, coins = np.empty(count, dtype=np.int64), np.empty(count)
    done = 0
    while done < count:
        done += _draw_run(bitgen, n_ent, ents[done:], coins[done:])
        if done < count:
            ents[done], coins[done] = rng.integers(n_ent), rng.random()
            done += 1
    return ents, coins


def _draw_run(bitgen: np.random.PCG64, n_ent: int, ents: np.ndarray,
              coins: np.ndarray) -> int:
    """Fill `ents` and `coins` as `_draw_attempts` does, up to the first attempt whose
    32-bit draw Lemire rejects; returns the number of attempts filled."""
    count = len(ents)
    saved = bitgen.state
    kept = saved["has_uint32"]
    # attempt j is the q-th to open a word for its integer (q = -1: the kept half)
    q = np.arange(count) - kept
    int_word = kept + 3 * (q // 2)
    dbl_word = int_word + 1 + q % 2
    raw = bitgen.random_raw(int(dbl_word[-1]) + 1)
    word = raw[np.maximum(int_word, 0)]
    halves = np.where(q % 2 == 0, word & _LOW32, word >> 32)
    if kept:
        halves[0] = saved["uinteger"]
    scaled = halves * np.uint64(n_ent)
    rejected = np.flatnonzero((scaled & _LOW32) < (1 << 32) % n_ent)
    stop = int(rejected[0]) if len(rejected) else count
    if stop < count:   # give back the words from the rejected attempt on
        bitgen.state = saved
        if stop:
            bitgen.random_raw(int(dbl_word[stop - 1]) + 1, output=False)
    if stop:
        ents[:stop] = scaled[:stop] >> 32
        coins[:stop] = (raw[dbl_word[:stop]] >> 11) * 2.0 ** -53
        state = bitgen.state
        if stop > kept:   # NumPy leaves the last used high half in `uinteger`
            state["has_uint32"] = (stop - kept) % 2
            state["uinteger"] = int(word[stop - 1] >> 32)
        else:
            state["has_uint32"] = 0
        bitgen.state = state
    return stop


def _is_known(known: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key is in `known`, a sorted key array."""
    return known.take(np.searchsorted(known, keys), mode="clip") == keys


def _corrupt(positives: np.ndarray, k: int, known: np.ndarray, dims: tuple[int, int, int],
             rng: np.random.Generator) -> np.ndarray:
    """Each positive followed by its k corruptions, as an (n * (1 + k), 3) array.

    A corruption replaces the head or the tail with a uniform entity; one that
    reproduces a known fact (`known`: sorted `np.ravel_multi_index` keys over
    `dims` = (|E|, |P|, |E|)) is re-drawn, up to 10 attempts in all, and the
    10th is kept as it is. The attempts are those of a loop over the examples
    in order, each `rng.integers(|E|)` then `rng.random()` (< 0.5: replace the
    head), drawn in bulk (`_draw_attempts`). Each refill draws one attempt per
    slot left, since every slot takes at least one, so `rng` ends where the
    loop would leave it. Attempts go to the slots in order, a window at a time:
    where hits on known facts are rare, attempt a + i goes to slot s + i up to
    the first hit, whose slot takes the next attempt; where they are frequent,
    each attempt of a small window is checked against every slot it may go to,
    and a walk over those hits assigns them.
    """
    base = np.repeat(positives, k, axis=0)   # the positive of each corruption slot
    n_ent, n_pred, _ = dims
    # a corruption's key is its new entity's term plus the rest of its slot's key
    rest_head = base[:, 1] * n_ent + base[:, 2]
    rest_tail = (base[:, 0] * n_pred + base[:, 1]) * n_ent
    new_ent, new_col = np.empty(len(base), dtype=np.int64), np.empty(len(base), dtype=np.int64)
    slot = tries = 0   # the first slot without its corruption, and its failed attempts
    while slot < len(base):
        ents, coins = _draw_attempts(rng, n_ent, len(base) - slot)
        col = np.where(coins < 0.5, 0, 2)
        term = np.where(col, ents, ents * (n_pred * n_ent))
        a, width = 0, len(ents)
        while a < len(ents):
            w = min(width, len(ents) - a)
            if w > _DENSE:
                keys = term[a:a + w] + np.where(col[a:a + w], rest_tail[slot:slot + w],
                                                rest_head[slot:slot + w])
                hit = _is_known(known, keys)
                hit[0] &= tries < 9
                taken = int(hit.argmax()) if hit.any() else w
                take = np.arange(a, a + taken)
                if taken < w:   # the hit's slot has failed once more
                    tries = (0 if taken else tries) + 1
                else:
                    tries = 0
                used = min(taken + 1, w)
            else:
                keys = term[a:a + w, None] + np.where(col[a:a + w, None],
                                                      rest_tail[None, slot:slot + w],
                                                      rest_head[None, slot:slot + w])
                hit = _is_known(known, keys).tolist()
                take = []
                for i in range(w):
                    if hit[i][len(take)] and tries < 9:
                        tries += 1
                    else:
                        take.append(a + i)
                        tries = 0
                used = w
            new_ent[slot:slot + len(take)], new_col[slot:slot + len(take)] = ents[take], col[take]
            slot, a = slot + len(take), a + used
            # the next window: about two hits' worth of attempts
            width = max(_DENSE, 2 * used // max(used - len(take), 1))
    negs = base.copy()
    negs[np.arange(len(base)), new_col] = new_ent
    return np.concatenate([positives[:, None], negs.reshape(-1, k, 3)], axis=1).reshape(-1, 3)


def train_seed(g: KnowledgeGraph, model_tag: str, cfg: SeedTrainConfig,
               loss_history: list[float] | None = None) -> EmbeddingSet:
    """Train seed embeddings by mini-batch SGD with uniform negative sampling.

    TransE/RotatE use a margin loss on squared distances,
    d(pos)^2 + max(0, margin - d(neg)^2), which drives positive distances to
    zero and is smooth enough for plain gradient descent with a linearly
    decaying step to reduce the loss monotonically at desk scale.
    DistMult/ComplEx use binary cross-entropy on sigmoid scores.

    Each mini-batch is one vectorised step. The corruptions of every
    PLAN_BATCHES batches are drawn at once, in bulk (`_corrupt`): the same
    draws in the same order as a loop over the examples, batch by batch, since
    nothing else in an epoch draws. Their row sums are planned at once
    (`optim.plan_row_sums`). The entity and predicate rows are one array,
    and a batch is one update of the rows it touches, as fine-tuning steps
    one array. A batch's positives and negatives are scored together against
    the same parameters, and each parameter row gets the sum of its gradient
    rows in example order (h, t, then nh, nt of each negative; negatives
    outside the margin add zero rows), so the result equals an
    example-at-a-time accumulation bit for bit. Deterministic under
    cfg.rng_seed. The loss terms shape no parameter, so they are computed only
    for a `loss_history`.
    """
    if model_tag not in TRAINABLE_MODELS:
        raise ValueError(f"cannot train model {model_tag!r}; import it instead")
    if g.num_triples == 0:
        raise ValueError("empty graph")
    d = cfg.dim
    check_width(model_tag, d)
    n, k, n_ent = g.num_triples, cfg.negatives, g.num_entities
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / math.sqrt(d)
    # one array of parameter rows, entities then predicates, drawn in that order;
    # RotatE's d/2 phases per predicate are zero-padded to d
    slab = np.zeros((n_ent + g.num_predicates, d))
    slab[:n_ent] = rng.uniform(-bound, bound, size=(n_ent, d))
    if model_tag == "rotate":
        slab[n_ent:, :d // 2] = rng.uniform(0.0, 2.0 * math.pi, size=(g.num_predicates, d // 2))
        params = {"ent": slab[:n_ent], "phases": slab[n_ent:, :d // 2]}
    else:
        slab[n_ent:] = rng.uniform(-bound, bound, size=(g.num_predicates, d))
        params = {"ent": slab[:n_ent], "pred": slab[n_ent:]}

    dims = (n_ent, g.num_predicates, n_ent)
    known = np.sort(np.ravel_multi_index(tuple(g.ids.T), dims))
    per_batch = (1 + k) * cfg.batch_size   # scored triples in a full batch
    is_pos = np.zeros(per_batch, dtype=bool)
    is_pos[::1 + k] = True
    for epoch in range(cfg.epochs):
        # linear decay keeps late epochs from oscillating around the optimum
        lr = cfg.learning_rate * max(0.01, 1.0 - epoch / cfg.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for first in range(0, n, PLAN_BATCHES * cfg.batch_size):
            ahead = _corrupt(g.ids[order[first:first + PLAN_BATCHES * cfg.batch_size]],
                             k, known, dims, rng)
            # one planned sum per batch for all rows: predicate ids follow the entity ids
            plan = plan_row_sums(ahead[:, [0, 2, 1]] + [0, 0, n_ent], 3 * per_batch)
            for start, rows in zip(range(0, len(ahead), per_batch), plan):
                tri = ahead[start:start + per_batch]
                m = len(tri) // (1 + k)
                terms, keep, d_head, d_tail, d_pred = _batch_terms(
                    model_tag, params, tri, is_pos[:len(tri)], cfg.margin,
                    with_terms=loss_history is not None)

                if terms is not None:
                    # each example's loss summed from 0.0 in order, then the batch
                    # in order, as a running float sum would (0.0 + -0.0 is 0.0)
                    terms = terms.reshape(m, 1 + k)
                    example_loss = 0.0 + terms[:, 0]
                    for j in range(1, 1 + k):
                        example_loss = example_loss + terms[:, j]
                    epoch_loss += float(np.add.accumulate(example_loss)[-1])

                # gradient rows (head, tail, predicate) of every scored triple; a
                # negative outside the margin has zero rows, which change no sum
                # (s + 0.0 is s for a sum that starts at +0.0) and no parameter.
                # RotatE's d/2 phase gradients are zero-padded to d, as its phase rows are
                grad_rows = np.zeros((len(tri), 3, d))
                grad_rows[keep, 0], grad_rows[keep, 1] = d_head[keep], d_tail[keep]
                grad_rows[keep, 2, :d_pred.shape[1]] = d_pred[keep]
                slab[rows.rows] -= lr * rows(grad_rows.reshape(-1, d)) / m
        if loss_history is not None:
            loss_history.append(epoch_loss / n)

    if model_tag == "rotate":   # e^(i phase), the complex numbers `_batch_terms` builds
        params["pred"] = _interleave(np.cos(params["phases"]) + 1j * np.sin(params["phases"]))
    es = EmbeddingSet(params["ent"], params["pred"])
    es.validate(g)
    return es


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def write_rows(path: str | Path, names: Iterable[str], mat: np.ndarray) -> None:
    """One `name<TAB>value...` line per row, every value as %.17g so it reads back exactly."""
    line = "%s" + "\t%.17g" * mat.shape[1] + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(line % (name, *row.tolist()) for name, row in zip(names, mat))


def export_embeddings(es: EmbeddingSet, g: KnowledgeGraph,
                      entity_path: str | Path, predicate_path: str | Path) -> None:
    write_rows(entity_path, g.entities, es.entity_vectors)
    write_rows(predicate_path, g.predicates, es.predicate_vectors)


def read_rows(path: str | Path, key: Callable[[str], object] = str,
              what: str = "name") -> tuple[dict, np.ndarray]:
    """The rows of a `key<TAB>value...` file: a dict from `key(first field)` to its
    row, and the values as a float64 matrix in file order. A row with a key that
    `key` rejects, a non-numeric value, no values, another length than the first
    row or a repeated key raises EmbeddingError naming its file and line.

    Each row's values go into one flat buffer of C doubles as they are read, so
    the file costs 8 bytes per value, not a Python float and a list slot each.
    """
    index: dict = {}
    values = array("d")
    dim = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                k, vec = key(fields[0]), [float(x) for x in fields[1:]]
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if not vec or (dim and len(vec) != dim):
                raise EmbeddingError(f"{path}:{lineno}: ragged row ({len(vec)} values, "
                                     f"expected {dim or 'at least 1'})")
            if k in index:
                raise EmbeddingError(f"{path}:{lineno}: duplicate {what} {k}")
            index[k] = len(index)
            values.extend(vec)
            dim = len(vec)
    return index, np.frombuffer(values, dtype=np.float64).reshape(len(index), dim)


def take_rows(mat: np.ndarray, rows: list[int]) -> np.ndarray:
    """`mat[rows]`, without the copy when `rows` is 0, 1, ..., len(mat) - 1: a
    file already in the order asked for, as every file the package writes is,
    is returned as read."""
    if len(rows) == len(mat) and all(i == r for i, r in enumerate(rows)):
        return mat
    return mat[rows]


def _read_matrix(path: str | Path, names: list[str], what: str) -> np.ndarray:
    index, mat = read_rows(path, what=what)
    missing = [n for n in names if n not in index]
    if missing:
        raise EmbeddingError(f"{what} file {path} missing vocabulary items: "
                             + ", ".join(repr(m) for m in missing[:5]))
    return take_rows(mat, [index[n] for n in names])


def import_embeddings(entity_path: str | Path, predicate_path: str | Path,
                      g: KnowledgeGraph) -> EmbeddingSet:
    ent = _read_matrix(entity_path, g.entities, "entity")
    pred = _read_matrix(predicate_path, g.predicates, "predicate")
    es = EmbeddingSet(ent, pred)
    es.validate(g)
    return es
