"""Acceptance gate: one printed pass/fail line per criterion.

Criteria touching the WN18RR / FB15K-237 benchmark files skip unless
TRIPLETUNE_DATA_DIR (or ./data) contains the split files; run
scripts/fetch_datasets.py in a networked environment to provide them.
Dataset statistics are computed over the union of train/valid/test splits.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tripletune import seeds as seedmod
from tripletune.baseline import (build_cm, build_line_graph, cooccurrence_counts,
                                 itf_weight, train_baseline)
from tripletune.evaluation import (LogisticOvR, calinski_harabasz, evaluate, kfold_split,
                                   micro_f1, pearson, train_classify)
from tripletune.graph import (KnowledgeGraph, compute_stats, load_triples,
                              multi_predicate_triple_ids)
from tripletune.pairs import (PROVENANCES, anchor_rng, build_dataset, compute_ptss,
                              sample_candidates)
from tripletune.seeds import EmbeddingSet, SeedTrainConfig, train_seed
from tripletune.siamese import (FineTuneConfig, SiameseModel, batch_loss_and_grads,
                                init_embedding_layer, train)
from tripletune.synthetic import (cross_linked_clustered_graph, exact_translation_graph,
                                  random_graph)
from conftest import batch_terms_case, random_named_triples, record_acceptance_line, standardized
from oracles import shares_slot, tf_weight


def announce(criterion: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    record_acceptance_line(f"[ACCEPTANCE {criterion}] {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def announce_skip(criterion: int, reason: str):
    record_acceptance_line(f"[ACCEPTANCE {criterion}] SKIP {reason}")
    pytest.skip(reason)


def data_dir() -> Path | None:
    root = Path(os.environ.get("TRIPLETUNE_DATA_DIR", "data"))
    return root if root.is_dir() else None


def dataset_files(name: str) -> list[Path] | None:
    root = data_dir()
    if root is None:
        return None
    d = root / name
    files = [d / f"{split}.txt" for split in ("train", "valid", "test")]
    if all(f.exists() for f in files):
        return files
    return None


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


# ---------------------------------------------------------------------------
# 1. benchmark statistics reproduction
# ---------------------------------------------------------------------------

TABLE_EXPECTED = {
    "WN18RR": (40943, 11, 93003, 218, 23105, 46),
    "FB15K-237": (14541, 237, 310116, 49214, 2678, 6),
}


@pytest.mark.parametrize("name", sorted(TABLE_EXPECTED))
def test_criterion_1_dataset_statistics(name):
    files = dataset_files(name)
    if files is None:
        announce_skip(1, f"{name} split files not available (see scripts/fetch_datasets.py)")
    t0 = time.perf_counter()
    g = load_triples(files)
    s = compute_stats(g)
    elapsed = time.perf_counter() - t0
    got = (s.num_entities, s.num_predicates, s.num_triples,
           s.num_multi_edge_triples, s.num_scc, s.num_wcc)
    announce(1, got == TABLE_EXPECTED[name] and elapsed < 60.0,
             f"{name}: stats {got} expected {TABLE_EXPECTED[name]} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. pair-score invariants on 10^4 random pairs
# ---------------------------------------------------------------------------

def test_criterion_2_pair_score_invariants():
    rng = np.random.default_rng(2024)
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 120, 8, 400))
    emb = EmbeddingSet(rng.normal(size=(g.num_entities, 16)),
                       rng.normal(size=(g.num_predicates, 16)))
    n_pairs = 10_000
    ok = True
    detail = []
    for _ in range(n_pairs):
        a = g.ids[int(rng.integers(g.num_triples))]
        b = g.ids[int(rng.integers(g.num_triples))]
        s_ab = compute_ptss(a, b, emb)
        if s_ab != compute_ptss(b, a, emb):
            ok = False
            detail.append("symmetry")
            break
        if not -1.0 <= s_ab <= 1.0:
            ok = False
            detail.append("range")
            break
    t = g.ids[0]
    if abs(compute_ptss(t, t, emb) - 1.0) > 1e-12:
        ok = False
        detail.append("self-score")

    n = 4
    ds = build_dataset(g, emb, n=n, rng_seed=7)
    if len(ds) > 4 * n * g.num_triples:
        ok = False
        detail.append("size-bound")
    for a, b, code in zip(ds.a, ds.b, ds.provenance):
        ta, tb, provenance = g.ids[a], g.ids[b], PROVENANCES[code]
        derived = ("shared-head" if provenance == "shared-head" and ta[0] == tb[0]
                   else "shared-tail" if provenance == "shared-tail" and ta[2] == tb[2]
                   else "shared-predicate" if provenance == "shared-predicate"
                   and ta[1] == tb[1]
                   else "negative" if provenance == "negative" and not shares_slot(ta, tb)
                   else None)
        if derived != provenance:
            ok = False
            detail.append(f"provenance {provenance}")
            break
    announce(2, ok, f"{n_pairs} pairs, dataset of {len(ds)} <= {4 * n * g.num_triples}"
             + (f"; failed: {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# 3. gradient checks against central finite differences
# ---------------------------------------------------------------------------

def central_diff(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        hi = f()
        x[i] = orig - eps
        lo = f()
        x[i] = orig
        g[i] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def test_criterion_3_gradient_checks():
    tol = 1e-4
    instances = 0
    worst = 0.0

    def check(analytic, fd):
        nonlocal worst
        worst = max(worst, rel_err(analytic, fd))

    # the seed batch scorer that train_seed runs, 25 scored triples per model in
    # five batches of two positives and three negatives; each instance checks the
    # gradients of one triple's loss term in its head, predicate and tail rows
    scored = {}   # (model, label, whether the row carries a gradient) -> triples
    for model in seedmod.TRAINABLE_MODELS:
        pred_key = "phases" if model == "rotate" else "pred"
        for seed in range(5):
            params, tri, is_pos, margin = batch_terms_case(model, 100 + seed, n=5)
            _, keep, d_head, d_tail, d_pred = seedmod._batch_terms(model, params, tri,
                                                                   is_pos, margin)
            for i, (h, p, t) in enumerate(tri):
                def term_i():
                    return seedmod._batch_terms(model, params, tri, is_pos, margin)[0][i]

                for key, row, grad in (("ent", h, d_head), (pred_key, p, d_pred),
                                       ("ent", t, d_tail)):
                    # a negative outside the margin adds no gradient row
                    analytic = grad[i] if keep[i] else np.zeros_like(grad[i])
                    check(analytic, central_diff(term_i, params[key][row]))
                kind = (model, "positive" if is_pos[i] else "negative", bool(keep[i]))
                scored[kind] = scored.get(kind, 0) + 1
                instances += 1
    seed_instances = instances
    # every model scores positives and negatives; TransE and RotatE score
    # negatives with the hinge active and inactive
    needed = [(m, label, True) for m in seedmod.TRAINABLE_MODELS
              for label in ("positive", "negative")]
    needed += [(m, "negative", False) for m in ("transe", "rotate")]
    missing = [kind for kind in needed if not scored.get(kind)]

    # Siamese batch loss gradients
    for seed in range(20):
        rng = np.random.default_rng([31, seed])
        model = SiameseModel(rng.normal(size=(6, 4)), rng.normal(size=(4, 4)) * 0.4,
                             rng.normal(size=4) * 0.1)
        a_ids = rng.integers(0, 6, size=5)
        b_ids = rng.integers(0, 6, size=5)
        targets = rng.uniform(-1, 1, size=5)

        def loss_only():
            return batch_loss_and_grads(model, a_ids, b_ids, targets)[0]

        _, gw, gb, rows, grows = batch_loss_and_grads(model, a_ids, b_ids, targets)
        check(gw, central_diff(loss_only, model.w1))
        check(gb, central_diff(loss_only, model.b1))
        dense = np.zeros_like(model.triple_embeddings)
        dense[rows] = grows
        check(dense, central_diff(loss_only, model.triple_embeddings))
        instances += 1

    announce(3, instances >= 120 and not missing and worst < tol,
             f"{instances} instances ({seed_instances} of seeds._batch_terms over "
             f"{len(seedmod.TRAINABLE_MODELS)} models, {instances - seed_instances} of "
             f"batch_loss_and_grads), worst relative error {worst:.2e} < {tol}"
             + (f"; no instance of {missing}" if missing else ""))


# ---------------------------------------------------------------------------
# 4. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(44)
    checks = []

    # CH index vs explicit dispersion matrices
    x = np.vstack([rng.normal(size=(20, 4)) + 6 * rng.normal(size=4) for _ in range(3)])
    y = np.repeat(np.arange(3), 20)
    mu = x.mean(axis=0)
    tr_b = tr_w = 0.0
    for c in range(3):
        pts = x[y == c]
        mc = pts.mean(axis=0)
        dvec = (mc - mu)[:, None]
        tr_b += len(pts) * float(np.trace(dvec @ dvec.T))
        cen = pts - mc
        tr_w += float(np.trace(cen.T @ cen))
    oracle_ch = (tr_b / tr_w) * ((len(x) - 3) / 2)
    checks.append(abs(calinski_harabasz(x, y, 3) - oracle_ch) < 1e-9 * max(1, oracle_ch))

    # micro F1 vs accuracy (single-label oracle)
    yt = rng.integers(0, 5, size=200)
    yp = rng.integers(0, 5, size=200)
    checks.append(abs(micro_f1(yt, yp) - float(np.mean(yt == yp))) < 1e-12)

    # Pearson vs numpy
    a = rng.normal(size=50)
    b = 0.3 * a + rng.normal(size=50)
    checks.append(abs(pearson(a, b) - np.corrcoef(a, b)[0, 1]) < 1e-9)

    # TF / ITF / weighted co-occurrence vs scalar reconstruction
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 10, 5, 40))
    c = cooccurrence_counts(g)
    cm = build_cm(c, g.num_triples)
    worst = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[0]):
            want = tf_weight(i, j, c) * (itf_weight(i, g.num_triples, c)
                                         + itf_weight(j, g.num_triples, c)) / 2.0
            worst = max(worst, abs(cm[i, j] - want))
    checks.append(worst < 1e-9)

    # candidate sampling vs brute-force eligibility (sets exact)
    sample_ok = True
    rows = g.ids.tolist()
    for anchor_id, anchor in enumerate(rows):
        ids, codes, _ = sample_candidates(g, anchor_id, 3, anchor_rng(4, anchor_id))
        eligible = {
            "shared-head": {i for i, t in enumerate(rows)
                            if i != anchor_id and t[0] == anchor[0]},
            "shared-tail": {i for i, t in enumerate(rows)
                            if i != anchor_id and t[2] == anchor[2]},
            "shared-predicate": {i for i, t in enumerate(rows)
                                 if i != anchor_id and t[1] == anchor[1]},
            "negative": {i for i, t in enumerate(rows)
                         if i != anchor_id and not shares_slot(anchor, t)},
        }
        got: dict[str, list[int]] = {}
        for cid, code in zip(ids.tolist(), codes.tolist()):
            got.setdefault(PROVENANCES[code], []).append(cid)
        for prov in ("shared-head", "shared-tail", "shared-predicate"):
            ids = got.get(prov, [])
            if len(ids) != len(set(ids)) or not set(ids) <= eligible[prov] \
                    or len(ids) != min(3, len(eligible[prov])):
                sample_ok = False
        if not set(got.get("negative", [])) <= eligible["negative"]:
            sample_ok = False
    checks.append(sample_ok)

    announce(4, all(checks),
             "CH/micro-F1/Pearson/TF-ITF/sampling oracles: "
             + ", ".join("ok" if c else "MISMATCH" for c in checks))


# ---------------------------------------------------------------------------
# 5. aggregation degeneracy demonstration
# ---------------------------------------------------------------------------

def test_criterion_5_sum_degeneracy():
    g, emb = exact_translation_graph(rng_seed=0)
    mp = set(multi_predicate_triple_ids(g))

    # on exactly-translational (single-label) triples, h + p + t collapses to 2t
    layer_sum = init_embedding_layer(g, emb, "sum")
    worst = max(np.abs(layer_sum[i] - 2.0 * emb.entity_vectors[t]).max()
                for i, t in enumerate(g.ids[:, 2]) if i not in mp)
    collapse_ok = worst <= 1e-12

    keep = np.array(sorted(mp))
    labels = g.ids[keep, 1]
    k = g.num_predicates
    folds = kfold_split(len(keep), rng_seed=0)
    f1_sum = float(np.mean(train_classify(standardized(layer_sum[keep]), labels,
                                          LogisticOvR, folds)))
    chance_bound = 1.0 / k + 0.05

    ds = build_dataset(g, emb, n=5, rng_seed=0)
    model = SiameseModel.initialize(g, emb, "avg", rng_seed=0)
    train(model, ds, FineTuneConfig(epochs=100, rng_seed=0))
    f1_ft = float(np.mean(train_classify(standardized(model.triple_embeddings[keep]), labels,
                                         LogisticOvR, folds)))

    announce(5, collapse_ok and f1_sum <= chance_bound and f1_ft > f1_sum,
             f"sum-vs-2t err {worst:.1e}; multi-predicate micro-F1: "
             f"sum-features {f1_sum:.3f} <= {chance_bound:.2f} (chance), "
             f"fine-tuned {f1_ft:.3f}")


# ---------------------------------------------------------------------------
# 6. desk-scale end-to-end comparison
# ---------------------------------------------------------------------------

def run_desk_scale(g: KnowledgeGraph, tag: str):
    t0 = time.perf_counter()
    emb = train_seed(g, "transe",
                     SeedTrainConfig(dim=16, epochs=1000, learning_rate=0.1, rng_seed=0))
    ds = build_dataset(g, emb, n=5, rng_seed=0)
    model = SiameseModel.initialize(g, emb, "avg", rng_seed=0)
    rep_init = evaluate(model.triple_embeddings, g, classifier="logreg", rng_seed=0)
    train(model, ds, FineTuneConfig(epochs=100, rng_seed=0))
    rep_ft = evaluate(model.triple_embeddings, g, classifier="logreg", rng_seed=0)
    bl = train_baseline(g, dim=16, rng_seed=0)
    rep_bl = evaluate(bl.vectors, g, classifier="logreg", rng_seed=0)
    elapsed = time.perf_counter() - t0

    f1_init = rep_init.micro_f1_mean["logreg-ovr"]
    f1_ft = rep_ft.micro_f1_mean["logreg-ovr"]
    ch_ft = rep_ft.ch_index
    ch_bl = rep_bl.ch_index
    announce(6, f1_ft > f1_init and ch_ft > ch_bl and elapsed < 600.0,
             f"{tag}: micro-F1 fine-tuned {f1_ft:.3f} > init {f1_init:.3f}; "
             f"CH fine-tuned {ch_ft:.1f} > baseline {ch_bl:.1f}; {elapsed:.0f}s")


def test_criterion_6_synthetic_end_to_end():
    g = cross_linked_clustered_graph(n_triples=500, rng_seed=0)
    run_desk_scale(g, "synthetic-500")


def test_criterion_6_benchmark_subsample():
    files = dataset_files("FB15K-237")
    if files is None:
        announce_skip(6, "FB15K-237 files not available for the 2000-triple subsample")
    g_full = load_triples(files)
    rng = np.random.default_rng(0)
    keep = rng.choice(g_full.num_triples, size=2000, replace=False)
    rows = [(g_full.entities[h], g_full.predicates[p], g_full.entities[t])
            for h, p, t in g_full.ids[keep].tolist()]
    run_desk_scale(KnowledgeGraph.from_named_triples(rows), "fb15k237-2000")


# ---------------------------------------------------------------------------
# 7. complexity evidence
# ---------------------------------------------------------------------------

def _best_time(fn, repeats=3):
    """Shortest of `repeats` timed calls: the call's cost with less host noise."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_7_scaling_exponents():
    build_times = {}
    for nt in (1_000, 10_000):
        g = random_graph(nt, n_entities=nt // 4, n_predicates=10, rng_seed=0)
        rng = np.random.default_rng(7)
        emb = EmbeddingSet(rng.normal(size=(g.num_entities, 8)),
                           rng.normal(size=(g.num_predicates, 8)))
        build_times[nt] = _best_time(lambda: build_dataset(g, emb, n=5, rng_seed=0))
    ptss_exp = math.log(build_times[10_000] / build_times[1_000]) / math.log(10)

    lg_times = {}
    for nt in (1_000, 3_000):
        g = random_graph(nt, n_entities=60, n_predicates=10, rng_seed=0)
        lg_times[nt] = _best_time(lambda: build_line_graph(g))
    lg_exp = math.log(lg_times[3_000] / lg_times[1_000]) / math.log(3)

    announce(7, ptss_exp < 1.3 and lg_exp > 1.5,
             f"pair-dataset build exponent {ptss_exp:.2f} < 1.3; "
             f"line-graph build exponent {lg_exp:.2f} > 1.5")


# ---------------------------------------------------------------------------
# 8. full-scale reproduction (optional, not gating)
# ---------------------------------------------------------------------------

def test_criterion_8_full_scale_optional():
    pretrained = os.environ.get("TRIPLETUNE_PRETRAINED_WN18RR")
    if dataset_files("WN18RR") is None or not pretrained:
        announce_skip(8, "optional full-scale run needs WN18RR files and "
                         "TRIPLETUNE_PRETRAINED_WN18RR=<dir with entity/predicate TSVs>")
    from tripletune.seeds import import_embeddings
    g = load_triples(dataset_files("WN18RR"))
    pre = Path(pretrained)
    emb = import_embeddings(pre / "entities.tsv", pre / "predicates.tsv", g)
    ds = build_dataset(g, emb, n=5, rng_seed=0)
    model = SiameseModel.initialize(g, emb, "avg", rng_seed=0)
    train(model, ds, FineTuneConfig(rng_seed=0))
    rep = evaluate(model.triple_embeddings, g, classifier="mlp", rng_seed=0)
    bl = train_baseline(g, dim=model.dim, rng_seed=0)
    rep_bl = evaluate(bl.vectors, g, classifier="mlp", rng_seed=0)
    f1 = rep.micro_f1_mean["mlp"]
    announce(8, abs(f1 - 0.672) <= 0.08 and f1 > rep_bl.micro_f1_mean["mlp"],
             f"high-capacity micro-F1 {f1:.4f} (target 0.672 +- 0.08), "
             f"baseline {rep_bl.micro_f1_mean['mlp']:.4f}")
