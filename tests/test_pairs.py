import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tripletune import pairs
from tripletune.graph import KnowledgeGraph, Triple
from tripletune.pairs import (PROVENANCES, PtssDataset, anchor_rng, build_dataset,
                              compute_ptss, cosine_sim, load_dataset, ptss_scores,
                              sample_candidates, save_dataset, shares_slot)
from tripletune.seeds import EmbeddingSet, row_dot
from tripletune.synthetic import random_graph
from conftest import FLOAT_TEXT, INT_TEXT, random_named_triples, tsv_text


def make_embeddings(g, dim, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(rng.normal(size=(g.num_entities, dim)),
                        rng.normal(size=(g.num_predicates, dim)))


# -- cosine -----------------------------------------------------------------

def test_cosine_examples():
    assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert cosine_sim(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_zero_vector_is_zero():
    assert cosine_sim(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
    assert cosine_sim(np.zeros(3), np.zeros(3)) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_sim(np.ones(2), np.ones(3))


# values whose squares are subnormal: unscaled, the two cosines were 1.0 and 0.0
TINY_ROW = [3.30e-162, 2.69e-162, 3.88e-162, 3.93e-162]


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
       st.floats(1e-3, 1e3))
@example(TINY_ROW, 0.125)
def test_cosine_scale_invariant(vals, scale):
    u = np.array(vals)
    v = u[::-1].copy()
    a = cosine_sim(u, v)
    b = cosine_sim(scale * u, v)
    assert abs(a - b) < 1e-9
    assert -1.0 <= a <= 1.0


@pytest.mark.parametrize("exponent", [-600, -100, 0, 100, 500, 1000])
def test_cosine_of_tiny_and_huge_vectors_equals_unit_scale(exponent):
    u = np.ldexp(np.array(TINY_ROW) * 1e162, exponent)
    v = u[::-1].copy()
    want = cosine_sim(u * 2.0 ** -exponent, v * 2.0 ** -exponent)
    assert abs(cosine_sim(u, v) - want) < 1e-15
    assert abs(cosine_sim(u, 0.125 * v) - want) < 1e-15


def test_scaled_rows_leave_rows_in_range_alone():
    x = np.array([[1.0, -2.0], [0.0, 0.0], [2.0 ** -499, 1.0e-300], [2.0 ** 500 * 0.99, 1.0]])
    assert pairs._scaled_rows(x) is x
    tiny = np.vstack([x, [[2.0 ** -501, -2.0 ** -600]]])
    scaled = pairs._scaled_rows(tiny)
    assert np.array_equal(scaled[:4], x)
    assert scaled[4].tolist() == [0.5, -2.0 ** -100]


# -- PTSS --------------------------------------------------------------------

def test_ptss_identical_triples_is_one():
    g = KnowledgeGraph.from_named_triples([("a", "r", "b")])
    emb = make_embeddings(g, 4)
    t = g.triples[0]
    assert compute_ptss(t, t, emb) == pytest.approx(1.0)


def test_ptss_hand_example():
    # orthogonal heads, identical predicate, opposite tails -> (0 + 1 - 1)/3
    ent = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [-1.0, 0.0]])
    pred = np.array([[1.0, 1.0]])
    emb = EmbeddingSet(ent, pred)
    a = Triple(0, 0, 2)
    b = Triple(1, 0, 3)
    expect = (0.0 + 1.0 + cosine_sim(ent[2], ent[3])) / 3.0
    assert compute_ptss(a, b, emb) == pytest.approx(expect)
    assert compute_ptss(a, b, emb) == pytest.approx(0.0, abs=1e-12)


def test_ptss_symmetric_and_bounded(rng):
    rows = random_named_triples(rng, 15, 4, 40)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 6)
    for _ in range(50):
        a = g.triples[int(rng.integers(g.num_triples))]
        b = g.triples[int(rng.integers(g.num_triples))]
        s_ab = compute_ptss(a, b, emb)
        s_ba = compute_ptss(b, a, emb)
        assert s_ab == pytest.approx(s_ba, abs=1e-12)
        assert -1.0 <= s_ab <= 1.0


def test_ptss_oracle_mean_of_cosines(rng):
    rows = random_named_triples(rng, 10, 3, 25)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 5)
    for _ in range(30):
        a = g.triples[int(rng.integers(g.num_triples))]
        b = g.triples[int(rng.integers(g.num_triples))]
        parts = [cosine_sim(emb.entity_vectors[a.head], emb.entity_vectors[b.head]),
                 cosine_sim(emb.predicate_vectors[a.predicate], emb.predicate_vectors[b.predicate]),
                 cosine_sim(emb.entity_vectors[a.tail], emb.entity_vectors[b.tail])]
        assert compute_ptss(a, b, emb) == pytest.approx(sum(parts) / 3.0, abs=1e-12)


# -- candidate sampling ------------------------------------------------------

def star_graph():
    # hub entity h0 as head of many triples plus disjoint extras
    rows = [("h0", "p0", f"t{i}") for i in range(8)]
    rows += [(f"x{i}", "p1", f"y{i}") for i in range(8)]
    return KnowledgeGraph.from_named_triples(rows)


def test_sample_counts_and_labels():
    g = star_graph()
    out, deficit = sample_candidates(g, 0, 3, anchor_rng(0, 0))
    by_label = {}
    for cid, prov in out:
        by_label.setdefault(prov, []).append(cid)
    assert set(by_label) <= set(PROVENANCES)
    assert len(by_label["shared-head"]) == 3
    assert len(by_label["shared-predicate"]) == 3
    # tail t0 is unique to the anchor
    assert "shared-tail" not in by_label
    assert len(by_label["negative"]) == 3
    assert not deficit


def test_sample_small_posting_takes_all():
    g = KnowledgeGraph.from_named_triples([
        ("a", "r", "b"), ("a", "r", "c"), ("d", "s", "e")])
    out, _ = sample_candidates(g, 0, 5, anchor_rng(0, 0))
    shared_head = [c for c, prov in out if prov == "shared-head"]
    assert shared_head == [1]


def test_sample_excludes_anchor_and_eligibility(rng):
    rows = random_named_triples(rng, 12, 3, 40)
    g = KnowledgeGraph.from_named_triples(rows)
    for anchor_id in range(0, g.num_triples, 5):
        anchor = g.triples[anchor_id]
        out, _ = sample_candidates(g, anchor_id, 4, anchor_rng(7, anchor_id))
        for cid, prov in out:
            assert cid != anchor_id
            cand = g.triples[cid]
            if prov == "shared-head":
                assert cand.head == anchor.head
            elif prov == "shared-tail":
                assert cand.tail == anchor.tail
            elif prov == "shared-predicate":
                assert cand.predicate == anchor.predicate
            else:
                assert not shares_slot(anchor, cand)


def test_sample_matches_brute_force_eligibility(rng):
    # oracle: recompute each provenance's eligible set from scratch
    rows = random_named_triples(rng, 10, 3, 30)
    g = KnowledgeGraph.from_named_triples(rows)
    for anchor_id in range(g.num_triples):
        anchor = g.triples[anchor_id]
        eligible = {
            "shared-head": {i for i, t in enumerate(g.triples)
                            if i != anchor_id and t.head == anchor.head},
            "shared-tail": {i for i, t in enumerate(g.triples)
                            if i != anchor_id and t.tail == anchor.tail},
            "shared-predicate": {i for i, t in enumerate(g.triples)
                                 if i != anchor_id and t.predicate == anchor.predicate},
            "negative": {i for i, t in enumerate(g.triples)
                         if i != anchor_id and not shares_slot(anchor, t)},
        }
        out, _ = sample_candidates(g, anchor_id, 3, anchor_rng(3, anchor_id))
        got = {}
        for cid, prov in out:
            got.setdefault(prov, []).append(cid)
        for prov, ids in got.items():
            assert len(ids) == len(set(ids))   # without replacement
            assert set(ids) <= eligible[prov]
            assert len(ids) == min(3, len(eligible[prov])) or prov == "negative"
        for prov in ("shared-head", "shared-tail", "shared-predicate"):
            if eligible[prov] and prov not in got:
                pytest.fail(f"missed nonempty slot {prov}")


def test_negative_deficit_flag():
    # every triple shares predicate p, so no valid negatives exist
    g = KnowledgeGraph.from_named_triples([
        ("a", "p", "b"), ("c", "p", "d"), ("e", "p", "f")])
    out, deficit = sample_candidates(g, 0, 2, anchor_rng(0, 0))
    assert deficit
    assert all(prov != "negative" for _, prov in out)


def test_sample_n_validation():
    g = star_graph()
    with pytest.raises(ValueError):
        sample_candidates(g, 0, 0, anchor_rng(0, 0))


# -- dataset build / persistence ---------------------------------------------

def test_build_dataset_counts(rng):
    rows = random_named_triples(rng, 30, 4, 60)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 6)
    ds = build_dataset(g, emb, n=2, rng_seed=11)
    assert 0 < len(ds) <= 4 * 2 * g.num_triples
    for a, b, score, provenance in zip(ds.a, ds.b, ds.score, ds.provenance):
        assert 0 <= provenance < len(PROVENANCES)
        assert -1.0 <= score <= 1.0
        # stored score is exactly the recomputed one
        assert score == compute_ptss(g.triples[a], g.triples[b], emb)


def test_build_dataset_deterministic(tmp_path, rng):
    rows = random_named_triples(rng, 20, 3, 50)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 4)
    d1 = build_dataset(g, emb, n=3, rng_seed=5)
    d2 = build_dataset(g, emb, n=3, rng_seed=5)
    f1, f2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_dataset(d1, f1)
    save_dataset(d2, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_build_dataset_seed_changes_output(rng):
    rows = random_named_triples(rng, 20, 3, 50)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 4)
    d1 = build_dataset(g, emb, n=3, rng_seed=5)
    d2 = build_dataset(g, emb, n=3, rng_seed=6)
    assert d1.b.tolist() != d2.b.tolist()


def test_dataset_round_trip(tmp_path, rng):
    rows = random_named_triples(rng, 15, 3, 35)
    g = KnowledgeGraph.from_named_triples(rows)
    emb = make_embeddings(g, 4)
    ds = build_dataset(g, emb, n=2, rng_seed=1)
    f = tmp_path / "pairs.tsv"
    save_dataset(ds, f)
    back = load_dataset(f)
    for field in ("a", "b", "score", "provenance"):
        assert np.array_equal(getattr(back, field), getattr(ds, field))


@pytest.mark.parametrize("row", ["0\t1\t0.5\n", "0\t1\t0.5\tsame-tail\n",
                                 "0\tx\t0.5\tnegative\n"])
def test_load_dataset_rejects_bad_row_naming_its_line(tmp_path, row):
    f = tmp_path / "pairs.tsv"
    f.write_text("0\t1\t0.5\tshared-head\n" + row, encoding="utf-8")
    with pytest.raises(ValueError, match="pairs.tsv:2:"):
        load_dataset(f)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=tsv_text(INT_TEXT, INT_TEXT, FLOAT_TEXT, st.sampled_from(PROVENANCES)))
def test_load_dataset_parses_or_raises_value_error(tmp_path, text):
    f = tmp_path / "pairs.tsv"
    f.write_text(text, encoding="utf-8")
    try:
        ds = load_dataset(f)
    except ValueError:
        return
    assert len(ds.a) == len(ds.b) == len(ds.score) == len(ds.provenance)
    assert ds.a.dtype == ds.b.dtype == np.int64


def _reference_slot_cosines(table, i, j):
    norms = np.sqrt(row_dot(table, table))
    ni, nj = norms[i], norms[j]
    ok = (ni != 0.0) & (nj != 0.0)
    cos = row_dot(table[i], table[j]) / np.where(ok, ni * nj, 1.0)
    return np.where(ok, np.clip(cos, -1.0, 1.0), 0.0)


def _reference_build_dataset(g, emb, n, rng_seed=0):
    """Frozen list-based build_dataset: per-pair Python lists, every pair's rows
    gathered at once."""
    code = {name: i for i, name in enumerate(PROVENANCES)}
    a, b, provenance, deficits = [], [], [], []
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
    ta, tb = g.ids[a_ids], g.ids[b_ids]
    score = _reference_slot_cosines(emb.entity_vectors, ta[:, 0], tb[:, 0])
    score += _reference_slot_cosines(emb.predicate_vectors, ta[:, 1], tb[:, 1])
    score += _reference_slot_cosines(emb.entity_vectors, ta[:, 2], tb[:, 2])
    return PtssDataset(a_ids, b_ids, score / 3.0, np.array(provenance, dtype=np.int8),
                       negative_deficit_anchors=deficits)


def deficit_graph():
    # the h0/p0 hub anchors have two slot-disjoint triples, so N >= 3 leaves them
    # short; ("h0", "p1", "y0") shares a slot with every other triple
    rows = [("h0", "p0", f"t{i}") for i in range(60)]
    rows += [(f"x{i}", "p1", f"y{i}") for i in range(2)]
    rows += [("h0", "p1", "y0")]
    return KnowledgeGraph.from_named_triples(rows)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("graph", ["deficit", "random"])
def test_build_dataset_equals_list_based_oracle(rng, graph, n):
    g = deficit_graph() if graph == "deficit" else \
        KnowledgeGraph.from_named_triples(random_named_triples(rng, 25, 4, 90))
    emb = make_embeddings(g, 6)
    emb.entity_vectors[0] = 0.0   # zero rows score 0 against everything
    got = build_dataset(g, emb, n=n, rng_seed=3)
    want = _reference_build_dataset(g, emb, n=n, rng_seed=3)
    if graph == "deficit":
        assert want.negative_deficit_anchors
    for name in ("a", "b", "score", "provenance"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.negative_deficit_anchors == want.negative_deficit_anchors


def test_build_dataset_rejects_n_below_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        build_dataset(star_graph(), make_embeddings(star_graph(), 3), n=0)


@pytest.mark.parametrize("block", [1, 4, 7 * 4 + 3, 1 << 17])
def test_ptss_scores_equal_compute_ptss_at_any_block(monkeypatch, rng, block):
    # block 1 and 4 (= dim) score one pair per block; 31 splits the pairs 7 by 7
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 12, 3, 40))
    emb = make_embeddings(g, 4)
    emb.predicate_vectors[1] = 0.0
    # the rows of the tiny-value cosine example, and the same rows made huge
    emb.entity_vectors[:2] = TINY_ROW, TINY_ROW[::-1]
    emb.entity_vectors[2] = np.ldexp(np.array(TINY_ROW), 1060)
    emb.predicate_vectors[0] = TINY_ROW
    a = rng.integers(g.num_triples, size=101)
    b = rng.integers(g.num_triples, size=101)
    monkeypatch.setattr(pairs, "SCORE_BLOCK", block)
    want = [compute_ptss(g.triples[i], g.triples[j], emb) for i, j in zip(a, b)]
    assert ptss_scores(g, emb, a, b).tolist() == want


def _reference_tsv(ds):
    return "".join(f"{a}\t{b}\t{score:.17g}\t{PROVENANCES[code]}\n"
                   for a, b, score, code in zip(ds.a.tolist(), ds.b.tolist(),
                                                ds.score.tolist(), ds.provenance.tolist()))


@pytest.mark.parametrize("block", [1, 7, 100, 10_000])
def test_save_and_load_dataset_equal_at_any_block(monkeypatch, tmp_path, rng, block):
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 15, 3, 40))
    ds = build_dataset(g, make_embeddings(g, 4), n=2, rng_seed=1)
    assert len(ds) > 100
    monkeypatch.setattr(pairs, "ROW_BLOCK", block)
    f = tmp_path / "pairs.tsv"
    save_dataset(ds, f)
    assert f.read_text(encoding="utf-8") == _reference_tsv(ds)
    back = load_dataset(f)
    for name in ("a", "b", "score", "provenance"):
        assert getattr(back, name).dtype == getattr(ds, name).dtype, name
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name


def test_empty_dataset_round_trip(tmp_path):
    empty = PtssDataset(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
                        np.empty(0, np.int8))
    f = tmp_path / "pairs.tsv"
    save_dataset(empty, f)
    assert f.read_bytes() == b""
    back = load_dataset(f)
    assert len(back) == 0
    assert [back.a.dtype, back.b.dtype, back.score.dtype, back.provenance.dtype] == \
        [np.int64, np.int64, np.float64, np.int8]


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 14])
def test_load_dataset_names_the_line_at_any_block(monkeypatch, tmp_path, block):
    monkeypatch.setattr(pairs, "ROW_BLOCK", block)
    good = "0\t1\t0.5\tshared-head\n"
    f = tmp_path / "pairs.tsv"
    f.write_text(good + "\n" + good + "\n" + "0\t1\tx\tnegative\n" + good, encoding="utf-8")
    with pytest.raises(ValueError, match="pairs.tsv:5:"):
        load_dataset(f)
    f.write_text(good + "\n" + good + f"0\t{2 ** 63}\t0.5\tnegative\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside the int64 range"):
        load_dataset(f)
    f.write_text(good + "\n\n" + good, encoding="utf-8")
    assert load_dataset(f).a.tolist() == [0, 0]


def test_bounded_memory_build_save_load(tmp_path):
    # scratch memory is set by SCORE_BLOCK and ROW_BLOCK, not by pairs x dim: at
    # d = 64, gathering every pair's rows at once would take 1 KiB per pair
    g = random_graph(2_000, n_entities=500, n_predicates=10, rng_seed=0)
    rng = np.random.default_rng(0)
    emb = EmbeddingSet(rng.normal(size=(g.num_entities, 64)),
                       rng.normal(size=(g.num_predicates, 64)))
    f = tmp_path / "pairs.tsv"
    tracemalloc.start()
    try:
        ds = build_dataset(g, emb, n=5, rng_seed=0)
        save_dataset(ds, f)
        built_peak = tracemalloc.get_traced_memory()[1]
        del ds
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        n_pairs = len(load_dataset(f))
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n_pairs >= 20_000
    bound = 64 * n_pairs + 8 * 2 ** 20
    assert built_peak < bound, (built_peak, n_pairs)
    assert load_peak < bound, (load_peak, n_pairs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_anchor_rng_streams_independent(seed):
    a = anchor_rng(seed, 0).random(4)
    b = anchor_rng(seed, 1).random(4)
    a2 = anchor_rng(seed, 0).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
