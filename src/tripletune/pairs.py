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

from .graph import KnowledgeGraph, Triple
from .seeds import EmbeddingSet, row_dot

PROVENANCES = ("shared-head", "shared-tail", "shared-predicate", "negative")

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


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; all-zero vectors compare as 0.0."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, c))


def compute_ptss(a: Triple, b: Triple, emb: EmbeddingSet) -> float:
    """Arithmetic mean of head/predicate/tail cosine similarities; the scalar
    reference for `ptss_scores`."""
    ent = emb.entity_vectors
    pred = emb.predicate_vectors
    return (cosine_sim(ent[a.head], ent[b.head])
            + cosine_sim(pred[a.predicate], pred[b.predicate])
            + cosine_sim(ent[a.tail], ent[b.tail])) / 3.0


def shares_slot(a: Triple, b: Triple) -> bool:
    return a.head == b.head or a.tail == b.tail or a.predicate == b.predicate


def anchor_rng(rng_seed: int, triple_id: int) -> np.random.Generator:
    """Independent per-anchor stream so parallel and serial sampling agree."""
    return np.random.default_rng([rng_seed, triple_id])


def _slot_cosines(table: np.ndarray, norms: np.ndarray, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
    """cosine_sim(table[i[k]], table[j[k]]) for every k, bit for bit; `norms` holds
    the row norms of `table`."""
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
    ent, pred = emb.entity_vectors, emb.predicate_vectors
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
                      rng: np.random.Generator) -> tuple[list[tuple[int, str]], bool]:
    """Draw up to 4N labeled candidates for one anchor.

    Per shared slot: N distinct triples uniformly without replacement from the
    slot's posting list minus the anchor, or the entire set when it is smaller
    than N. Negatives are drawn by rejection over all triples; if the retry
    budget runs out the anchor gets fewer negatives and the deficit flag is set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h, p, t = g.ids[triple_id].tolist()
    out: list[tuple[int, str]] = []

    for posting, provenance in (
        (g.by_head[h], "shared-head"),
        (g.by_tail[t], "shared-tail"),
        (g.by_predicate[p], "shared-predicate"),
    ):
        eligible = posting[posting != triple_id]
        if len(eligible) > n:
            eligible = eligible[rng.choice(len(eligible), size=n, replace=False)]
        out.extend((c, provenance) for c in eligible.tolist())

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
    out.extend((c, "negative") for c in sorted(negatives))
    deficit = len(negatives) < n
    return out, deficit


def build_dataset(g: KnowledgeGraph, emb: EmbeddingSet, n: int,
                  rng_seed: int = 0) -> PtssDataset:
    """Sample pairs for every triple, in anchor order, then score them all.

    Candidates go straight into arrays of 4N slots per anchor, trimmed once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    emb.validate(g)
    code = {name: i for i, name in enumerate(PROVENANCES)}
    b = np.empty(4 * n * g.num_triples, dtype=np.int64)
    provenance = np.empty(len(b), dtype=np.int8)
    per_anchor = np.empty(g.num_triples, dtype=np.int64)
    deficits: list[int] = []
    filled = 0
    for anchor_id in range(g.num_triples):
        candidates, deficit = sample_candidates(g, anchor_id, n,
                                                anchor_rng(rng_seed, anchor_id))
        if deficit:
            deficits.append(anchor_id)
        per_anchor[anchor_id] = len(candidates)
        for cand_id, name in candidates:
            b[filled] = cand_id
            provenance[filled] = code[name]
            filled += 1
    b, provenance = b[:filled].copy(), provenance[:filled].copy()
    a = np.repeat(np.arange(g.num_triples, dtype=np.int64), per_anchor)
    return PtssDataset(a, b, ptss_scores(g, emb, a, b), provenance,
                       negative_deficit_anchors=deficits)


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
