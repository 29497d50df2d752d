"""Weak-supervision pair sampling and pairwise triple similarity scoring.

For each anchor triple we draw up to N candidates sharing its head, N sharing
its tail, N sharing its predicate and N with no slot in common, then score
each (anchor, candidate) pair by the mean of the three slot-wise cosine
similarities of the seed embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import KnowledgeGraph
from . import parallel
from .seeds import EmbeddingSet, row_dot

PROVENANCES = ("shared-head", "shared-tail", "shared-predicate", "negative")
_CODES = np.arange(len(PROVENANCES), dtype=np.int8)

# Rejection-sampling budget for negatives, per anchor, as a multiple of N.
NEGATIVE_RETRY_FACTOR = 100

SCORE_BLOCK = 1 << 17   # embedding values per slot gathered at once by `ptss_scores`
ROW_BLOCK = 1 << 14     # rows formatted by `save_dataset` or parsed by `load_dataset` at once


@dataclass
class PtssDataset:
    """Scored pairs as parallel arrays.

    Pair i joins triples `a[i]` and `b[i]` with weak label `score[i]`;
    `provenance[i]` indexes PROVENANCES.
    """
    a: np.ndarray
    b: np.ndarray
    score: np.ndarray
    provenance: np.ndarray
    # anchors for which rejection sampling could not find N negatives
    negative_deficit_anchors: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.a)


def _scaled_rows(x: np.ndarray) -> np.ndarray:
    """`x` with each row (along the last axis) whose max-abs lies outside
    [2**-500, 2**500) multiplied by the power of two that brings it into
    [0.5, 1), so that its squares and products neither underflow nor overflow.
    The scaling is exact and leaves the row's cosines alone. Rows in range, and
    zero rows, keep their bits; `x` itself is returned when every row does."""
    _, exp = np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))
    out = (exp < -499) | (exp > 500)
    return np.where(out, np.ldexp(x, -exp), x) if out.any() else x


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; all-zero vectors compare as 0.0.
    Vectors of tiny or huge values are first scaled by `_scaled_rows`."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    u, v = _scaled_rows(np.asarray(u)), _scaled_rows(np.asarray(v))
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, c))


def compute_ptss(a, b, emb: EmbeddingSet) -> float:
    """Arithmetic mean of the head/predicate/tail cosine similarities of two
    triples, each a (head, predicate, tail) row of ids; the scalar reference
    for `ptss_scores`."""
    (head_a, pred_a, tail_a), (head_b, pred_b, tail_b) = a, b
    ent = emb.entity_vectors
    pred = emb.predicate_vectors
    return (cosine_sim(ent[head_a], ent[head_b])
            + cosine_sim(pred[pred_a], pred[pred_b])
            + cosine_sim(ent[tail_a], ent[tail_b])) / 3.0


def anchor_rng(rng_seed: int, triple_id: int) -> np.random.Generator:
    """The anchor's own stream, seeded by (rng_seed, triple_id): an anchor's
    candidates do not depend on which anchors were sampled before it, or in which
    process, so `build_dataset` samples ranges of anchors in `fork_map` workers
    and gets the pairs of one serial pass at any worker count."""
    return np.random.default_rng([rng_seed, triple_id])


def _slot_cosines(table: np.ndarray, norms: np.ndarray, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """cosine_sim(table[i[k]], table[j[k]]) for every k, bit for bit, where `table`
    has its rows scaled by `_scaled_rows` as `cosine_sim` scales each vector, and
    `norms` holds its row norms."""
    ni, nj = norms[i], norms[j]
    ok = (ni != 0.0) & (nj != 0.0)
    cos = row_dot(table[i], table[j]) / np.where(ok, ni * nj, 1.0)
    return np.where(ok, np.clip(cos, -1.0, 1.0), 0.0)


def ptss_scores(g: KnowledgeGraph, emb: EmbeddingSet, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """compute_ptss of every pair (a[k], b[k]) of triple ids, one slot at a time.

    The rows of a block of pairs are gathered at once, SCORE_BLOCK values per
    gathered slot, so the scratch memory does not grow with the pair count.
    """
    ent, pred = _scaled_rows(emb.entity_vectors), _scaled_rows(emb.predicate_vectors)
    ent_norms, pred_norms = np.sqrt(row_dot(ent, ent)), np.sqrt(row_dot(pred, pred))
    score = np.empty(len(a))
    step = max(1, SCORE_BLOCK // max(1, ent.shape[1]))
    for start in range(0, len(a), step):
        ta, tb = g.ids[a[start:start + step]], g.ids[b[start:start + step]]
        block = score[start:start + step]
        block[...] = _slot_cosines(ent, ent_norms, ta[:, 0], tb[:, 0])
        block += _slot_cosines(pred, pred_norms, ta[:, 1], tb[:, 1])
        block += _slot_cosines(ent, ent_norms, ta[:, 2], tb[:, 2])
        block /= 3.0
    return score


def sample_candidates(g: KnowledgeGraph, triple_id: int, n: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, bool]:
    """Draw up to 4N labeled candidates for one anchor, as (ids, codes, deficit):
    int64 triple ids and their int8 PROVENANCES codes, in PROVENANCES order.

    Per shared slot: N distinct triples uniformly without replacement from the
    slot's posting list minus the anchor, or the entire set when it is smaller
    than N. Negatives are drawn by rejection over all triples, in ascending id
    order; if the retry budget runs out the anchor gets fewer negatives and the
    deficit flag is set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h, p, t = g.ids[triple_id].tolist()
    parts = []
    for posting in (g.by_head[h], g.by_tail[t], g.by_predicate[p]):
        eligible = posting[posting != triple_id]
        if len(eligible) > n:
            eligible = eligible[rng.choice(len(eligible), size=n, replace=False)]
        parts.append(eligible)

    negatives: set[int] = set()
    budget = NEGATIVE_RETRY_FACTOR * n
    n_triples = g.num_triples
    while len(negatives) < n and budget > 0:
        budget -= 1
        cand = int(rng.integers(n_triples))
        if cand == triple_id or cand in negatives:
            continue
        hc, pc, tc = g.ids[cand].tolist()
        if hc != h and pc != p and tc != t:
            negatives.add(cand)
    parts.append(np.array(sorted(negatives), dtype=np.int64))
    codes = np.repeat(_CODES, [len(part) for part in parts])
    return np.concatenate(parts), codes, len(negatives) < n


def _sample_anchors(g: KnowledgeGraph, emb: EmbeddingSet, n: int, rng_seed: int,
                    start: int, stop: int) -> tuple:
    """The scored pairs of anchors start .. stop - 1 as (a, b, score, provenance,
    deficit anchors). Candidates go straight into arrays of 4N slots per anchor,
    trimmed once."""
    b = np.empty(4 * n * (stop - start), dtype=np.int64)
    provenance = np.empty(len(b), dtype=np.int8)
    per_anchor = np.empty(stop - start, dtype=np.int64)
    deficits: list[int] = []
    filled = 0
    for anchor_id in range(start, stop):
        ids, codes, deficit = sample_candidates(g, anchor_id, n,
                                                anchor_rng(rng_seed, anchor_id))
        if deficit:
            deficits.append(anchor_id)
        per_anchor[anchor_id - start] = len(ids)
        b[filled:filled + len(ids)] = ids
        provenance[filled:filled + len(ids)] = codes
        filled += len(ids)
    b, provenance = b[:filled].copy(), provenance[:filled].copy()
    a = np.repeat(np.arange(start, stop, dtype=np.int64), per_anchor)
    return a, b, ptss_scores(g, emb, a, b), provenance, deficits


def build_dataset(g: KnowledgeGraph, emb: EmbeddingSet, n: int,
                  rng_seed: int = 0) -> PtssDataset:
    """Sample and score the pairs of every triple, in anchor order.

    The anchors are cut into one contiguous range per `fork_map` worker; each
    worker samples and scores its range, and the ranges are joined in order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    emb.validate(g)
    bounds = np.linspace(0, g.num_triples, parallel.workers() + 1).astype(np.int64).tolist()
    parts = parallel.fork_map(
        lambda r: _sample_anchors(g, emb, n, rng_seed, bounds[r], bounds[r + 1]),
        len(bounds) - 1)
    if len(parts) == 1:
        a, b, score, provenance, deficits = parts[0]
    else:
        a, b, score, provenance = (np.concatenate([part[c] for part in parts]) for c in range(4))
        deficits = [anchor for part in parts for anchor in part[4]]
    return PtssDataset(a, b, score, provenance, negative_deficit_anchors=deficits)


def save_dataset(ds: PtssDataset, path: str | Path) -> None:
    """Write one a<TAB>b<TAB>score<TAB>provenance line per pair, ROW_BLOCK pairs at a time."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for start in range(0, len(ds), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            fh.writelines(f"{a}\t{b}\t{score:.17g}\t{PROVENANCES[code]}\n"
                          for a, b, score, code in zip(ds.a[rows].tolist(), ds.b[rows].tolist(),
                                                       ds.score[rows].tolist(),
                                                       ds.provenance[rows].tolist()))


def load_dataset(path: str | Path) -> PtssDataset:
    """Read a pairs file; a row that is not a<TAB>b<TAB>score<TAB>provenance,
    or names an unknown provenance, raises ValueError naming its line.

    Rows are parsed ROW_BLOCK at a time into arrays, so no object per row is kept.
    """
    code = {name: i for i, name in enumerate(PROVENANCES)}
    dtypes = (np.int64, np.int64, np.float64, np.int8)
    columns: tuple[list[np.ndarray], ...] = ([], [], [], [])   # per column, each block's array
    a, b, score, provenance = block = ([], [], [], [])          # the rows not yet in arrays

    def flush() -> None:
        try:
            for arrays, values, dtype in zip(columns, block, dtypes):
                arrays.append(np.array(values, dtype=dtype))
                values.clear()
        except OverflowError:
            raise ValueError(f"{path}: a triple id is outside the int64 range") from None

    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                ai, bi, si, pi = line.rstrip("\n").split("\t")
                a.append(int(ai))
                b.append(int(bi))
                score.append(float(si))
                provenance.append(code[pi])
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: expected triple id, triple id, score "
                                 f"and one of {', '.join(PROVENANCES)}, got {line!r}") from None
            if len(a) == ROW_BLOCK:
                flush()
    flush()
    # join one column at a time and drop its blocks, so the rows are held once
    # plus the column being joined
    joined = []
    for arrays in columns:
        joined.append(np.concatenate(arrays))
        arrays.clear()
    return PtssDataset(*joined)
