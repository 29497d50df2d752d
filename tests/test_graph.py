import warnings
from collections import deque

import numpy as np
import pytest

from tripletune.graph import (GraphParseError, KnowledgeGraph, compute_stats,
                              load_triples, multi_predicate_triple_ids, save_triples)
from conftest import random_named_triples


def write_tsv(path, rows):
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")


def test_single_line_file(tmp_path):
    f = tmp_path / "g.tsv"
    write_tsv(f, [("a", "r", "b")])
    g = load_triples(f)
    assert g.num_entities == 2
    assert g.num_predicates == 1
    assert g.num_triples == 1


def test_malformed_line_reports_line_number(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("a\tr\tb\na\tb\n", encoding="utf-8")
    with pytest.raises(GraphParseError, match=":2"):
        load_triples(f)


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.tsv"
    f.write_text("", encoding="utf-8")
    with pytest.raises(GraphParseError):
        load_triples(f)


def test_duplicates_dropped_with_warning(tmp_path):
    f = tmp_path / "g.tsv"
    write_tsv(f, [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "c")])
    with pytest.warns(UserWarning, match="1 duplicate"):
        g = load_triples(f)
    assert g.num_triples == 2
    assert g.duplicates_dropped == 1


def test_multi_file_union(tmp_path):
    f1 = tmp_path / "a.tsv"
    f2 = tmp_path / "b.tsv"
    write_tsv(f1, [("a", "r", "b")])
    write_tsv(f2, [("b", "r", "c"), ("a", "r", "b")])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = load_triples([f1, f2])
    assert g.num_triples == 2


def test_round_trip(tmp_path, rng):
    rows = random_named_triples(rng, 20, 4, 60)
    f = tmp_path / "g.tsv"
    write_tsv(f, rows)
    g = load_triples(f)
    out = tmp_path / "out.tsv"
    save_triples(g, out)
    g2 = load_triples(out)
    assert g.entities == g2.entities
    assert g.predicates == g2.predicates
    assert np.array_equal(g.ids, g2.ids)


def test_inverted_indices_partition(tiny_graph):
    g = tiny_graph
    for index in (g.by_head, g.by_tail, g.by_predicate):
        seen = sorted(i for posting in index for i in posting)
        assert seen == list(range(g.num_triples))
        for posting in index:
            assert list(posting) == sorted(set(posting))


def test_no_orphan_vocabulary(tiny_graph):
    g = tiny_graph
    for e in range(g.num_entities):
        assert len(g.by_head[e]) + len(g.by_tail[e]) >= 1


def test_multi_predicate_examples():
    g = KnowledgeGraph.from_named_triples([
        ("a", "r1", "b"), ("a", "r2", "b"), ("a", "r1", "c")])
    assert multi_predicate_triple_ids(g).tolist() == [0, 1]
    g2 = KnowledgeGraph.from_named_triples([
        ("a", "r1", "b"), ("b", "r1", "c"), ("c", "r2", "a")])
    assert multi_predicate_triple_ids(g2).tolist() == []


def test_stats_four_node_example():
    g = KnowledgeGraph.from_named_triples([
        ("a", "r", "b"), ("b", "r", "a"), ("c", "r", "d")])
    s = compute_stats(g)
    assert s.num_scc == 3   # {a,b}, {c}, {d}
    assert s.num_wcc == 2
    assert s.num_multi_edge_triples == 0


def test_stats_json_fields():
    g = KnowledgeGraph.from_named_triples([("a", "r", "b")])
    s = compute_stats(g)
    import json
    payload = json.loads(s.to_json())
    assert set(payload) == {"num_entities", "num_predicates", "num_triples",
                            "num_multi_edge_triples", "num_scc", "num_wcc"}


# -- brute-force component oracle -------------------------------------------

def brute_force_components(n, directed_edges):
    adj = [[] for _ in range(n)]
    for u, v in directed_edges:
        adj[u].append(v)

    def reachable(src):
        seen = {src}
        q = deque([src])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen

    reach = [reachable(i) for i in range(n)]
    scc_repr = set()
    for i in range(n):
        comp = frozenset(j for j in reach[i] if i in reach[j])
        scc_repr.add(comp)

    undirected = [[] for _ in range(n)]
    for u, v in directed_edges:
        undirected[u].append(v)
        undirected[v].append(u)
    seen_global = set()
    wcc = 0
    for i in range(n):
        if i in seen_global:
            continue
        wcc += 1
        q = deque([i])
        seen_global.add(i)
        while q:
            u = q.popleft()
            for v in undirected[u]:
                if v not in seen_global:
                    seen_global.add(v)
                    q.append(v)
    return len(scc_repr), wcc


@pytest.mark.parametrize("seed", range(12))
def test_stats_match_brute_force_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    rows = random_named_triples(rng, n, 3, int(rng.integers(1, 3 * n)))
    g = KnowledgeGraph.from_named_triples(rows)
    s = compute_stats(g)
    edges = {(h, t) for h, _, t in g.ids.tolist()}
    scc, wcc = brute_force_components(g.num_entities, sorted(edges))
    assert s.num_scc == scc
    assert s.num_wcc == wcc
    assert s.num_wcc <= s.num_scc <= s.num_entities
