"""Call tracing from outside the package: wrap public functions, record spans.

`Tracer.install` replaces module and class attributes of `tripletune` with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Only the process that installs the tracer is
affected and `uninstall` puts every original back. Spans stay in memory until
`write_jsonl`. `layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from pathlib import Path

from tripletune import baseline, evaluation, graph, optim, pairs, pipeline, seeds, siamese

LAYERS = ("graph", "seeds", "pairs", "siamese", "optim", "evaluation", "baseline", "pipeline")


# Attribute extractors get the call's arguments by parameter name and its result.

def _n_examples(a, result):
    return {"examples": a["g"].num_triples * a["cfg"].epochs}


def _dataset_size(a, result):
    return {"pairs": len(result), "deficit": len(result.negative_deficit_anchors)}


def _train_shape(a, result):
    return {"pairs": len(a["dataset"]), "batch_size": a["cfg"].batch_size}


def _batch_loss(a, result):
    return {"loss": result[0], "batch": len(a["a_ids"])}


def _classifier_kind(a, result):
    return {"kind": a["spec"].kind}


def _kmeans_iters(a, result):
    # Lloyd steps of the kept restart; the history also holds the final inertia
    return {"iters": len(result.inertia_history) - 1}


def _line_graph_edges(a, result):
    return {"edges": sum(len(nb) for nb in result.neighbors) // 2}


def _walk_tokens(a, result):
    return {"tokens": sum(len(w) for w in result)}


def _skipgram_shape(a, result):
    return {"epochs": a["epochs"], "never_walked": int(len(result.seen) - result.seen.sum())}


# (owner, attribute, span name, attribute extractor); a module attribute that
# `tripletune.pipeline` imported by name is patched in both places.
TARGETS = (
    (graph, "load_triples", "graph.load_triples", None),
    (pipeline, "load_triples", "graph.load_triples", None),
    (graph, "compute_stats", "graph.compute_stats", None),
    (pipeline, "compute_stats", "graph.compute_stats", None),
    (seeds, "train_seed", "seeds.train_seed", _n_examples),
    (seeds, "export_embeddings", "seeds.export_embeddings", None),
    (seeds, "import_embeddings", "seeds.import_embeddings", None),
    (pairs, "build_dataset", "pairs.build_dataset", _dataset_size),
    (pairs, "sample_candidates", "pairs.sample_candidates", None),
    (pairs, "compute_ptss", "pairs.compute_ptss", None),
    (pairs, "save_dataset", "pairs.save_dataset", None),
    (pairs, "load_dataset", "pairs.load_dataset", None),
    (siamese.SiameseModel, "initialize", "siamese.SiameseModel.initialize", None),
    (siamese, "train", "siamese.train", _train_shape),
    (siamese, "batch_loss_and_grads", "siamese.batch_loss_and_grads", _batch_loss),
    (siamese, "save_checkpoint", "siamese.save_checkpoint", None),
    (siamese, "write_triple_embedding_tsv", "siamese.write_triple_embedding_tsv", None),
    (siamese, "read_triple_embedding_tsv", "siamese.read_triple_embedding_tsv", None),
    (optim.Adam, "step", "optim.Adam.step", None),
    (optim.Adam, "step_rows", "optim.Adam.step_rows", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (pipeline, "evaluate", "evaluation.evaluate", None),
    (evaluation, "train_classify", "evaluation.train_classify", _classifier_kind),
    (evaluation, "kmeans", "evaluation.kmeans", _kmeans_iters),
    (evaluation, "calinski_harabasz", "evaluation.calinski_harabasz", None),
    (baseline, "train_baseline", "baseline.train_baseline", None),
    (baseline, "cooccurrence_counts", "baseline.cooccurrence_counts", None),
    (baseline, "build_line_graph", "baseline.build_line_graph", _line_graph_edges),
    (baseline, "random_walks", "baseline.random_walks", _walk_tokens),
    (baseline, "train_skipgram", "baseline.train_skipgram", _skipgram_shape),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    *((pipeline.Pipeline, f"stage_{s}", f"pipeline.stage_{s}", None)
      for s in ("stats", "seed", "sample", "finetune", "eval", "baseline")),
)


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self) -> "Tracer":
        for owner, attr, name, attrs in TARGETS:
            raw = vars(owner)[attr]
            self._originals.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, attrs))
            else:
                wrapped = self._wrap(raw, name, attrs)
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced `run_pipeline` call.

    `<name>_s` metrics are inclusive span durations summed over calls;
    `<layer>.self_s` is each layer's time minus the time of the spans it called,
    so the self times of all layers add up to the traced run.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * n
    in_finetune = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_finetune[i] = in_finetune[parent]
        if name == "siamese.train":
            in_finetune[i] = True

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (name, *_rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name.split(".", 1)[0]] += dur[i] - child[i]

    def attrs_of(name):
        return [s[4] for s in spans if s[0] == name]

    def t(name):
        return total.get(name, 0.0)

    m: dict[str, float] = {}
    m["graph.load_s"] = t("graph.load_triples")
    m["graph.stats_s"] = t("graph.compute_stats")

    examples = sum(a["examples"] for a in attrs_of("seeds.train_seed"))
    m["seeds.train_s"] = t("seeds.train_seed")
    m["seeds.examples_per_s"] = _rate(examples, m["seeds.train_s"])
    m["seeds.export_s"] = t("seeds.export_embeddings")
    m["seeds.import_s"] = t("seeds.import_embeddings")
    m["seeds.import_calls"] = calls.get("seeds.import_embeddings", 0)

    built = attrs_of("pairs.build_dataset")
    m["pairs.build_s"] = t("pairs.build_dataset")
    m["pairs.sample_s"] = t("pairs.sample_candidates")
    m["pairs.score_s"] = t("pairs.compute_ptss")
    m["pairs.score_calls"] = calls.get("pairs.compute_ptss", 0)
    m["pairs.pairs"] = sum(a["pairs"] for a in built)
    m["pairs.pairs_per_s"] = _rate(m["pairs.pairs"], m["pairs.build_s"])
    m["pairs.deficit_anchors"] = sum(a["deficit"] for a in built)
    m["pairs.save_s"] = t("pairs.save_dataset")
    m["pairs.load_s"] = t("pairs.load_dataset")

    steps = attrs_of("siamese.batch_loss_and_grads")
    m["siamese.init_s"] = t("siamese.SiameseModel.initialize")
    m["siamese.train_s"] = t("siamese.train")
    m["siamese.steps"] = len(steps)
    m["siamese.steps_per_s"] = _rate(len(steps), m["siamese.train_s"])
    m["siamese.loss_grad_s"] = t("siamese.batch_loss_and_grads")
    m["siamese.adam_s"] = sum(dur[i] for i, s in enumerate(spans)
                              if in_finetune[i] and s[0].startswith("optim.Adam."))
    m["siamese.final_loss"] = 0.0
    shapes = attrs_of("siamese.train")
    if shapes and steps:
        per_epoch = math.ceil(shapes[-1]["pairs"] / shapes[-1]["batch_size"])
        last = steps[-per_epoch:]
        m["siamese.final_loss"] = (sum(a["loss"] * a["batch"] for a in last)
                                   / sum(a["batch"] for a in last))
    m["siamese.tsv_write_s"] = t("siamese.write_triple_embedding_tsv")
    m["siamese.tsv_read_s"] = t("siamese.read_triple_embedding_tsv")

    classify = [(s[4]["kind"], dur[i]) for i, s in enumerate(spans)
                if s[0] == "evaluation.train_classify"]
    m["evaluation.logreg_s"] = sum(d for kind, d in classify if kind == "logreg-ovr")
    m["evaluation.mlp_s"] = sum(d for kind, d in classify if kind == "mlp")
    m["evaluation.kmeans_s"] = t("evaluation.kmeans")
    m["evaluation.kmeans_iters"] = sum(a["iters"] for a in attrs_of("evaluation.kmeans"))
    m["evaluation.ch_s"] = t("evaluation.calinski_harabasz")

    skipgram = attrs_of("baseline.train_skipgram")
    m["baseline.cooc_s"] = t("baseline.cooccurrence_counts")
    m["baseline.line_graph_s"] = t("baseline.build_line_graph")
    m["baseline.line_graph_edges"] = sum(a["edges"]
                                         for a in attrs_of("baseline.build_line_graph"))
    m["baseline.walks_s"] = t("baseline.random_walks")
    m["baseline.walk_tokens"] = sum(a["tokens"] for a in attrs_of("baseline.random_walks"))
    m["baseline.skipgram_s"] = t("baseline.train_skipgram")
    m["baseline.tokens_per_s"] = _rate(
        m["baseline.walk_tokens"] * sum(a["epochs"] for a in skipgram), m["baseline.skipgram_s"])
    m["baseline.never_walked"] = sum(a["never_walked"] for a in skipgram)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = n
    m["trace.accounted_frac"] = _rate(sum(self_s.values()), run_s)
    return m
