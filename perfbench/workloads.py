"""Benchmark workloads: seeded synthetic graph generators and `run-all` configs.

Every graph is predicate-correlated, like `synthetic.cross_linked_clustered_graph`:
entities fall into clusters, each predicate belongs to one cluster, and most
triples join two entities of their predicate's cluster, so predicate labels
align with entity neighbourhoods and micro-F1 sits above chance. A
`CROSS_FRACTION` share of (head, tail) pairs spans two clusters and carries two
predicates at once; these multi-predicate pairs give predicates non-zero
co-occurrence, which keeps the baseline's line graph connected. Entity
popularity inside a cluster follows a Zipf law with exponent `entity_zipf`
(0 is uniform), which makes hub entities; predicate frequency follows a Zipf
law with exponent `predicate_zipf`.

The workload seed and a graph index drive only the graph. The pipeline itself
always runs with `rng_seed` 0, so a seed changes the input and nothing else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from metrics import STAGES

CROSS_FRACTION = 0.2


@dataclass(frozen=True)
class GraphSpec:
    n_triples: int
    n_entities: int
    n_predicates: int
    n_clusters: int
    entity_zipf: float = 0.0
    predicate_zipf: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec
    # sections merged over `tripletune.pipeline.DEFAULTS`, as in a run-all config file
    config: dict = field(default_factory=dict)
    # smaller graph and budgets for the smoke test
    tiny_graph: GraphSpec | None = None
    tiny_config: dict = field(default_factory=dict)

    @property
    def stages(self) -> tuple[str, ...]:
        """The `run_pipeline` stages this workload runs."""
        baseline = self.config.get("baseline", {}).get("enabled", True)
        return tuple(s for s in STAGES if baseline or s != "baseline")

    def scaled(self, tiny: bool) -> "Workload":
        if not tiny:
            return self
        config = {s: {**self.config.get(s, {}), **self.tiny_config.get(s, {})}
                  for s in {*self.config, *self.tiny_config}}
        return replace(self, graph=self.tiny_graph, config=config)


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def generate_triples(spec: GraphSpec, seed: int | list[int]) -> np.ndarray:
    """(n_triples, 3) int array of distinct (head, predicate, tail) rows, no self-loops."""
    rng = np.random.default_rng(seed)
    per_cluster = spec.n_entities // spec.n_clusters
    entity_p = _zipf_weights(per_cluster, spec.entity_zipf)
    predicate_p = _zipf_weights(spec.n_predicates, spec.predicate_zipf)
    # predicates of cluster c are c, c + C, c + 2C, ...; the k-th of them
    # rotates the cluster's popularity ranking by k, so predicates that share
    # a cluster favour different hub entities
    n_c = spec.n_clusters
    preds_in_cluster = (spec.n_predicates - np.arange(n_c) + n_c - 1) // n_c
    rows = np.empty((0, 3), dtype=np.int64)
    while True:
        m = max(64, spec.n_triples)
        p = rng.choice(spec.n_predicates, size=m, p=predicate_p)
        c = p % n_c
        cross = rng.random(m) < CROSS_FRACTION
        c_tail = np.where(cross, rng.integers(n_c, size=m), c)
        rotation = p // n_c
        h = c * per_cluster + (rng.choice(per_cluster, size=m, p=entity_p) + rotation) \
            % per_cluster
        t = c_tail * per_cluster + (rng.choice(per_cluster, size=m, p=entity_p) + rotation
                                    + per_cluster // 2) % per_cluster
        # a cross pair spans two clusters and also carries one predicate of the
        # tail's cluster
        second = c_tail + n_c * (rng.random(m) * preds_in_cluster[c_tail]).astype(np.int64)
        second = np.where(cross, second, -1)   # -1: no second predicate
        batch = np.stack([np.stack([h, p, t], axis=1), np.stack([h, second, t], axis=1)],
                         axis=1).reshape(-1, 3)
        batch = batch[(batch[:, 1] >= 0) & (batch[:, 0] != batch[:, 2])]
        rows = np.concatenate([rows, batch])
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
        if len(rows) >= spec.n_triples:
            return rows[:spec.n_triples]


def write_graph_tsv(spec: GraphSpec, seed: int | list[int], path: Path) -> tuple[int, str]:
    """Generate the workload graph and write it as head<TAB>predicate<TAB>tail.

    Returns the triple count and the SHA-256 of the file.
    """
    rows = generate_triples(spec, seed)
    text = "".join(f"e{h}\tp{p}\te{t}\n" for h, p, t in rows.tolist())
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(rows), hashlib.sha256(data).hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wn-sparse-ft",
        why="WN18RR-shaped: mean degree ~3.5, 11 predicates, default seed and fine-tune "
            "epochs, no baseline; fine-tuning and seed training do most of the work",
        graph=GraphSpec(n_triples=600, n_entities=440, n_predicates=11, n_clusters=11,
                        entity_zipf=0.5, predicate_zipf=0.8),
        config={"baseline": {"enabled": False}},
        tiny_graph=GraphSpec(n_triples=120, n_entities=88, n_predicates=11, n_clusters=11,
                             entity_zipf=0.5, predicate_zipf=0.8),
        tiny_config={"seed": {"epochs": 2}, "finetune": {"epochs": 1}},
    ),
    Workload(
        name="fb-manyrel-ft",
        why="FB15K-237-shaped: Zipf hub entities, mean degree ~16, 100 predicates, no "
            "baseline; evaluation (k-means at k=100, 100-class logreg) dominates",
        graph=GraphSpec(n_triples=800, n_entities=100, n_predicates=100, n_clusters=10,
                        entity_zipf=1.0, predicate_zipf=0.5),
        config={"seed": {"epochs": 10}, "finetune": {"epochs": 3},
                "baseline": {"enabled": False}},
        tiny_graph=GraphSpec(n_triples=300, n_entities=40, n_predicates=20, n_clusters=5,
                             entity_zipf=1.0, predicate_zipf=0.5),
        tiny_config={"seed": {"epochs": 2}, "finetune": {"epochs": 1}},
    ),
    Workload(
        name="hub-baseline",
        why="hub-heavy: mean degree ~75, 4 predicates, baseline on with cut walks and "
            "skip-gram, one seed and fine-tune epoch; the line-graph baseline dominates",
        graph=GraphSpec(n_triples=1200, n_entities=32, n_predicates=4, n_clusters=4,
                        entity_zipf=0.5),
        config={"seed": {"epochs": 1}, "pairs": {"n": 2}, "finetune": {"epochs": 1},
                "baseline": {"enabled": True, "walks_per_node": 1, "walk_length": 20,
                             "epochs": 1}},
        tiny_graph=GraphSpec(n_triples=150, n_entities=20, n_predicates=4, n_clusters=4,
                             entity_zipf=0.5),
        tiny_config={"baseline": {"walk_length": 3}},
    ),
)}
