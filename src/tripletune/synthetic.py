"""Synthetic knowledge graphs and embeddings for desk-scale experiments."""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph
from .seeds import EmbeddingSet


def random_graph(n_triples: int, n_entities: int, n_predicates: int,
                 rng_seed: int = 0) -> KnowledgeGraph:
    """Uniform random triples, deduplicated, with every vocabulary item used."""
    rng = np.random.default_rng(rng_seed)
    rows = []
    seen = set()
    # guarantee each entity/predicate appears at least once
    guaranteed = max(n_entities, n_predicates)
    i = 0
    while len(rows) < n_triples:
        if i < guaranteed:
            h = i % n_entities
            p = i % n_predicates
            t = int(rng.integers(n_entities))
        else:
            h = int(rng.integers(n_entities))
            p = int(rng.integers(n_predicates))
            t = int(rng.integers(n_entities))
        i += 1
        key = (h, p, t)
        if key in seen or h == t:
            continue
        seen.add(key)
        rows.append((f"e{h}", f"p{p}", f"e{t}"))
    return KnowledgeGraph.from_named_triples(rows)


def clustered_graph(n_triples: int = 500, n_clusters: int = 5,
                    entities_per_cluster: int = 30, rng_seed: int = 0) -> KnowledgeGraph:
    """Predicate-correlated structure: each predicate lives in one entity cluster.

    Entities in cluster c connect mostly among themselves using predicates
    assigned to c, so predicate labels correlate with entity neighborhoods.
    """
    rng = np.random.default_rng(rng_seed)
    rows = []
    seen = set()
    preds_per_cluster = 2
    while len(rows) < n_triples:
        c = int(rng.integers(n_clusters))
        p = c * preds_per_cluster + int(rng.integers(preds_per_cluster))
        h = c * entities_per_cluster + int(rng.integers(entities_per_cluster))
        t = c * entities_per_cluster + int(rng.integers(entities_per_cluster))
        if h == t:
            continue
        key = (h, p, t)
        if key in seen:
            continue
        seen.add(key)
        rows.append((f"e{h}", f"p{p}", f"e{t}"))
    return KnowledgeGraph.from_named_triples(rows)


def exact_translation_graph(dim: int = 8, n_pairs_per_group: int = 30,
                            n_shared_pairs: int = 40, rng_seed: int = 0
                            ) -> tuple[KnowledgeGraph, EmbeddingSet]:
    """A graph whose embeddings satisfy h + p = t exactly on single-label triples.

    Two predicate labels q0 and q1 carry short orthogonal offset vectors, so
    the predicate-slot cosine distinguishes them while the sum h + p + t stays
    dominated by 2t. Single-label (h, t) pairs use their label's exact offset;
    `n_shared_pairs` pairs carry both labels with the midpoint offset, making
    them multi-predicate triples whose sum-aggregated features are nearly
    identical between the two labels (the per-pair difference is a fixed tiny
    shift swamped by entity noise).
    """
    rng = np.random.default_rng(rng_seed)
    p0 = rng.normal(0, 1.0, size=dim)
    p0 *= 0.2 / np.linalg.norm(p0)
    p1 = rng.normal(0, 1.0, size=dim)
    p1 -= (p1 @ p0) * p0 / (p0 @ p0)
    p1 *= 0.2 / np.linalg.norm(p1)
    center_a = rng.normal(0, 1.0, size=dim) + 4.0
    center_b = rng.normal(0, 1.0, size=dim) - 4.0

    rows = []
    vectors: dict[str, np.ndarray] = {}

    def add_pair(tag: str, center: np.ndarray, labels: tuple[str, ...],
                 offset: np.ndarray):
        h = center + rng.normal(0, 0.5, size=dim)
        t = h + offset
        hn, tn = f"h_{tag}", f"t_{tag}"
        vectors[hn] = h
        vectors[tn] = t
        for lab in labels:
            rows.append((hn, lab, tn))

    for i in range(n_pairs_per_group):
        add_pair(f"a{i}", center_a, ("q0",), p0)
    for i in range(n_pairs_per_group):
        add_pair(f"b{i}", center_b, ("q1",), p1)
    for i in range(n_shared_pairs):
        center = center_a if i % 2 == 0 else center_b
        add_pair(f"s{i}", center, ("q0", "q1"), (p0 + p1) / 2.0)

    g = KnowledgeGraph.from_named_triples(rows)
    ent = np.stack([vectors[g.entities.name(i)] for i in range(g.num_entities)])
    pred = np.stack([p0 if g.predicates.name(i) == "q0" else p1
                     for i in range(g.num_predicates)])
    emb = EmbeddingSet(ent, pred)
    emb.validate(g)
    return g, emb


def cross_linked_clustered_graph(n_triples: int = 500, n_clusters: int = 10,
                                 entities_per_cluster: int = 15,
                                 cross_fraction: float = 0.3,
                                 rng_seed: int = 0) -> KnowledgeGraph:
    """Predicate-per-cluster structure plus multi-predicate cross-cluster pairs.

    Each cluster owns one predicate and most triples stay inside their cluster,
    so predicate labels align with entity neighborhoods. A `cross_fraction`
    share of (h, t) pairs spans two random clusters and carries two random
    predicates at once; these multi-predicate pairs give every predicate pair
    nonzero co-occurrence, which keeps the triple line graph connected instead
    of splitting into one isolated component per cluster.
    """
    rng = np.random.default_rng(rng_seed)
    rows = []
    seen = set()

    def push(h, p, t):
        if h != t and (h, p, t) not in seen:
            seen.add((h, p, t))
            rows.append((f"e{h}", f"p{p}", f"e{t}"))

    while len(rows) < n_triples:
        if rng.random() < cross_fraction:
            c1, c2 = rng.integers(n_clusters, size=2)
            h = int(c1) * entities_per_cluster + int(rng.integers(entities_per_cluster))
            t = int(c2) * entities_per_cluster + int(rng.integers(entities_per_cluster))
            for p in rng.choice(n_clusters, size=2, replace=False):
                push(h, int(p), t)
        else:
            c = int(rng.integers(n_clusters))
            h = c * entities_per_cluster + int(rng.integers(entities_per_cluster))
            t = c * entities_per_cluster + int(rng.integers(entities_per_cluster))
            push(h, c, t)
    return KnowledgeGraph.from_named_triples(rows[:n_triples])

