#!/usr/bin/env python3
"""The Triple2vec-style line-graph random-walk baseline, step by step.

Builds the predicate co-occurrence matrix, weights it with TF/ITF, and shows
the predicate similarity that `build_line_graph` computes from it to weight the
CSR line graph of triples; then advances weighted random walks from every
triple in lockstep into one walk matrix. The triple vectors come from the
closed-form skip-gram trainer: the walks' positive PMI shifted by
log(negatives), factorised by a truncated SVD (Levy & Goldberg, NeurIPS 2014).
Skip-gram with negative sampling on the same walks is trained as the
reference, and both are evaluated the same way as the fine-tuned embeddings.
"""

import numpy as np

from tripletune.baseline import (build_cm, build_line_graph, cooccurrence_counts,
                                 predicate_similarity, random_walks, sppmi_matrix,
                                 train_skipgram, train_sppmi)
from tripletune.evaluation import evaluate
from tripletune.synthetic import cross_linked_clustered_graph


def main():
    g = cross_linked_clustered_graph(n_triples=300, rng_seed=3)

    c = cooccurrence_counts(g)
    print(f"predicate co-occurrence: {np.count_nonzero(c) - c.shape[0]} "
          "off-diagonal nonzeros (multi-predicate pairs connect predicates)")

    cm = build_cm(c, g.num_triples)
    m_r = predicate_similarity(cm)
    print(f"predicate similarity range off-diagonal: "
          f"[{m_r[~np.eye(len(m_r), dtype=bool)].min():.3f}, "
          f"{m_r[~np.eye(len(m_r), dtype=bool)].max():.3f}]")

    lg = build_line_graph(g)   # weighted by m_r, built from the graph again
    print(f"line graph: {lg.n_nodes} nodes, {lg.n_edges} edges")

    walks = random_walks(lg, walks_per_node=5, walk_length=10, rng_seed=0)
    lengths = (walks >= 0).sum(axis=1)
    print(f"walk matrix {walks.shape}, mean length {lengths.mean():.1f} "
          f"(-1 pads a walk after a dead end); first walk: {walks[0].tolist()}")

    m = sppmi_matrix(walks, g.num_triples, window=5, negatives=5)
    print(f"shifted positive PMI: {m.nnz} non-zeros of {g.num_triples ** 2}")

    sppmi = train_sppmi(walks, g.num_triples, dim=16, rng_seed=0)
    corpus = [row[row >= 0].tolist() for row in walks]
    sgns = train_skipgram(corpus, g.num_triples, dim=16, epochs=10, rng_seed=0)
    print(f"skip-gram reference loss {sgns.loss_per_epoch[0]:.3f} -> "
          f"{sgns.loss_per_epoch[-1]:.3f}")
    for name, result in (("closed-form SPPMI", sppmi), ("skip-gram (SGNS)", sgns)):
        report = evaluate(result.vectors, g, classifier="logreg", rng_seed=0)
        print(f"{name}: micro-F1 {report.micro_f1_mean['logreg-ovr']:.3f}, "
              f"CH {report.ch_index:.1f}")


if __name__ == "__main__":
    main()
