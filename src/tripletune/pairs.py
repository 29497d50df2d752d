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


def _slot_cosines(table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """cosine_sim(table[i[k]], table[j[k]]) for every k, bit for bit."""
    norms = np.sqrt(row_dot(table, table))
    ni, nj = norms[i], norms[j]
    ok = (ni != 0.0) & (nj != 0.0)
    cos = row_dot(table[i], table[j]) / np.where(ok, ni * nj, 1.0)
    return np.where(ok, np.clip(cos, -1.0, 1.0), 0.0)


def ptss_scores(g: KnowledgeGraph, emb: EmbeddingSet, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """compute_ptss of every pair (a[k], b[k]) of triple ids, one slot at a time."""
    ta, tb = g.ids[a], g.ids[b]
    score = _slot_cosines(emb.entity_vectors, ta[:, 0], tb[:, 0])
    score += _slot_cosines(emb.predicate_vectors, ta[:, 1], tb[:, 1])
    score += _slot_cosines(emb.entity_vectors, ta[:, 2], tb[:, 2])
    return score / 3.0


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
    """Sample pairs for every triple, in anchor order, then score them all at once."""
    emb.validate(g)
    code = {name: i for i, name in enumerate(PROVENANCES)}
    a: list[int] = []
    b: list[int] = []
    provenance: list[int] = []
    deficits: list[int] = []
    for anchor_id in range(g.num_triples):
        candidates, deficit = sample_candidates(g, anchor_id, n,
                                                anchor_rng(rng_seed, anchor_id))
        if deficit:
            deficits.append(anchor_id)
        a.extend([anchor_id] * len(candidates))
        for cand_id, name in candidates:
            b.append(cand_id)
            provenance.append(code[name])
    a_ids = np.array(a, dtype=np.int64)
    b_ids = np.array(b, dtype=np.int64)
    return PtssDataset(a_ids, b_ids, ptss_scores(g, emb, a_ids, b_ids),
                       np.array(provenance, dtype=np.int8),
                       negative_deficit_anchors=deficits)


def save_dataset(ds: PtssDataset, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for a, b, score, code in zip(ds.a.tolist(), ds.b.tolist(), ds.score.tolist(),
                                     ds.provenance.tolist()):
            fh.write(f"{a}\t{b}\t{score:.17g}\t{PROVENANCES[code]}\n")


def load_dataset(path: str | Path) -> PtssDataset:
    """Read a pairs file; a row that is not a<TAB>b<TAB>score<TAB>provenance,
    or names an unknown provenance, raises ValueError naming its line."""
    code = {name: i for i, name in enumerate(PROVENANCES)}
    rows: list[tuple[int, int, float, int]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                a, b, score, provenance = line.rstrip("\n").split("\t")
                rows.append((int(a), int(b), float(score), code[provenance]))
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{lineno}: expected triple id, triple id, score "
                                 f"and one of {', '.join(PROVENANCES)}, got {line!r}") from None
    a, b, score, provenance = zip(*rows) if rows else ((), (), (), ())
    try:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: a triple id is outside the int64 range") from None
    return PtssDataset(a, b, np.array(score, dtype=np.float64),
                       np.array(provenance, dtype=np.int8))
