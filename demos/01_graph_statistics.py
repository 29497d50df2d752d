#!/usr/bin/env python3
"""Walk through graph ingestion and topology statistics.

Builds a small synthetic knowledge graph, saves it as TSV, reloads it through
the same path the CLI uses, and prints the connectivity statistics (entity and
predicate counts, multi-predicate triples, strongly and weakly connected
components).
"""

import tempfile
from pathlib import Path

import numpy as np

from tripletune.graph import compute_stats, load_triples, save_triples
from tripletune.synthetic import cross_linked_clustered_graph


def main():
    g = cross_linked_clustered_graph(n_triples=300, rng_seed=1)
    print(f"generated {g.num_triples} triples over {g.num_entities} entities "
          f"and {g.num_predicates} predicates")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.tsv"
        save_triples(g, path)
        reloaded = load_triples(path)
        assert np.array_equal(reloaded.ids, g.ids)

        stats = compute_stats(reloaded)
        print(stats.to_json())
        print(f"\n{stats.num_multi_edge_triples} triples sit on (head, tail) pairs "
              "with more than one predicate; those are the rows the evaluation "
              "can restrict itself to with --restrict-multi-predicate")


if __name__ == "__main__":
    main()
