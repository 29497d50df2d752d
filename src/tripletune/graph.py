"""Knowledge-graph data model: TSV ingestion, inverted indices, topology statistics."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


class GraphParseError(ValueError):
    """Raised for malformed triple files."""


class Postings:
    """CSR posting lists of one slot: the triple ids holding each value, ascending."""

    def __init__(self, column: np.ndarray, n_values: int):
        self.ids = np.argsort(column, kind="stable")
        self.offsets = np.zeros(n_values + 1, dtype=np.int64)
        np.cumsum(np.bincount(column, minlength=n_values), out=self.offsets[1:])

    def __getitem__(self, value: int) -> np.ndarray:
        return self.ids[self.offsets[value]:self.offsets[value + 1]]

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self):
        return (self[v] for v in range(len(self)))


class KnowledgeGraph:
    """Immutable-after-load triple store.

    `ids` is a (T, 3) int64 array of distinct (head, predicate, tail) rows;
    `entities[i]` and `predicates[i]` are the names of id i; `by_head`,
    `by_tail` and `by_predicate` are the posting lists per slot.
    """

    def __init__(self, entities: list[str], predicates: list[str],
                 ids, duplicates_dropped: int = 0):
        self.entities = entities
        self.predicates = predicates
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1, 3)
        self.duplicates_dropped = duplicates_dropped
        self.by_head = Postings(self.ids[:, 0], len(entities))
        self.by_tail = Postings(self.ids[:, 2], len(entities))
        self.by_predicate = Postings(self.ids[:, 1], len(predicates))

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    @property
    def num_triples(self) -> int:
        return len(self.ids)

    @classmethod
    def from_named_triples(cls, rows: Iterable[tuple[str, str, str]]) -> "KnowledgeGraph":
        # ids in first-appearance order: setdefault keeps a name's first id
        entity_ids: dict[str, int] = {}
        predicate_ids: dict[str, int] = {}
        ids: dict[tuple[int, int, int], None] = {}
        dropped = 0
        for h, p, t in rows:
            key = (entity_ids.setdefault(h, len(entity_ids)),
                   predicate_ids.setdefault(p, len(predicate_ids)),
                   entity_ids.setdefault(t, len(entity_ids)))
            if key in ids:
                dropped += 1
            else:
                ids[key] = None
        return cls(list(entity_ids), list(predicate_ids), list(ids), duplicates_dropped=dropped)


def load_triples(paths: str | Path | Sequence[str | Path]) -> KnowledgeGraph:
    """Load one or more head<TAB>predicate<TAB>tail files into a single graph.

    Multiple paths are unioned (duplicate facts across files are dropped with
    a counted warning). Name ids follow first appearance across the
    files in the order given.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise GraphParseError("no input files given")

    def rows():
        for path in paths:
            path = Path(path)
            with path.open("r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n").rstrip("\r")
                    if not line.strip():
                        continue
                    fields = line.split("\t")
                    if len(fields) != 3:
                        raise GraphParseError(
                            f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
                    yield fields[0], fields[1], fields[2]

    g = KnowledgeGraph.from_named_triples(rows())
    if g.num_triples == 0:
        raise GraphParseError(f"no triples found in {', '.join(str(p) for p in paths)}")
    if g.duplicates_dropped:
        warnings.warn(f"dropped {g.duplicates_dropped} duplicate triples", stacklevel=2)
    return g


def save_triples(g: KnowledgeGraph, path: str | Path) -> None:
    ent, pred = g.entities, g.predicates
    with Path(path).open("w", encoding="utf-8") as fh:
        for h, p, t in g.ids.tolist():
            fh.write(f"{ent[h]}\t{pred[p]}\t{ent[t]}\n")


@dataclass
class GraphStats:
    num_entities: int
    num_predicates: int
    num_triples: int
    num_multi_edge_triples: int
    num_scc: int
    num_wcc: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def multi_predicate_triple_ids(g: KnowledgeGraph) -> np.ndarray:
    """Ascending ids of triples whose (head, tail) pair carries >= 2 distinct predicates."""
    # rows are distinct, so a pair's triple count is its predicate count
    _, pair, count = np.unique(g.ids[:, 0] * g.num_entities + g.ids[:, 2],
                               return_inverse=True, return_counts=True)
    return np.flatnonzero(count[pair] >= 2)


def compute_stats(g: KnowledgeGraph) -> GraphStats:
    if g.num_triples == 0:
        raise ValueError("empty graph")
    n = g.num_entities
    adjacency = sparse.csr_matrix((np.ones(g.num_triples), (g.ids[:, 0], g.ids[:, 2])),
                                  shape=(n, n))
    num_scc, _ = connected_components(adjacency, directed=True, connection="strong")
    num_wcc, _ = connected_components(adjacency, directed=True, connection="weak")
    return GraphStats(
        num_entities=n,
        num_predicates=g.num_predicates,
        num_triples=g.num_triples,
        num_multi_edge_triples=len(multi_predicate_triple_ids(g)),
        num_scc=int(num_scc),
        num_wcc=int(num_wcc),
    )
