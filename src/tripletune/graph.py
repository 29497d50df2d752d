"""Knowledge-graph data model: TSV ingestion, inverted indices, topology statistics."""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


class GraphParseError(ValueError):
    """Raised for malformed triple files."""


class Triple(NamedTuple):
    """One row of `KnowledgeGraph.ids`."""
    head: int
    predicate: int
    tail: int


class Vocabulary:
    """String <-> dense-index mapping, indices assigned in first-appearance order."""

    def __init__(self, names: Iterable[str] = ()):
        self._name_to_id: dict[str, int] = {}
        self._names: list[str] = []
        for n in names:
            self.add(n)

    def add(self, name: str) -> int:
        idx = self._name_to_id.get(name)
        if idx is None:
            idx = len(self._names)
            self._name_to_id[name] = idx
            self._names.append(name)
        return idx

    def index(self, name: str) -> int:
        return self._name_to_id[name]

    def name(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._names == other._names


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
    `by_head`, `by_tail` and `by_predicate` are its posting lists per slot.
    """

    def __init__(self, entities: Vocabulary, predicates: Vocabulary,
                 ids, duplicates_dropped: int = 0):
        self.entities = entities
        self.predicates = predicates
        self.ids = np.asarray(ids, dtype=np.int64).reshape(-1, 3)
        self.duplicates_dropped = duplicates_dropped
        self.by_head = Postings(self.ids[:, 0], len(entities))
        self.by_tail = Postings(self.ids[:, 2], len(entities))
        self.by_predicate = Postings(self.ids[:, 1], len(predicates))

    @functools.cached_property
    def triples(self) -> list[Triple]:
        """The rows of `ids` as `Triple` tuples."""
        return [Triple(*row) for row in self.ids.tolist()]

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
        entities = Vocabulary()
        predicates = Vocabulary()
        ids: dict[tuple[int, int, int], None] = {}
        dropped = 0
        for h, p, t in rows:
            key = (entities.add(h), predicates.add(p), entities.add(t))
            if key in ids:
                dropped += 1
            else:
                ids[key] = None
        return cls(entities, predicates, list(ids), duplicates_dropped=dropped)


def load_triples(paths: str | Path | Sequence[str | Path]) -> KnowledgeGraph:
    """Load one or more head<TAB>predicate<TAB>tail files into a single graph.

    Multiple paths are unioned (duplicate facts across files are dropped with
    a counted warning). Vocabulary order follows first appearance across the
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
    ent, pred = g.entities.names, g.predicates.names
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
