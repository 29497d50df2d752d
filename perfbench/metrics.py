"""Metric names, units, and the end-to-end metric each layer metric should move."""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "ft_f1_logreg": "micro-F1",
    "ft_f1_mlp": "micro-F1",
    "ft_ch": "CH",
}
# printed with the end-to-end metrics but not gated: failed_frac is 0 on a
# correct run, bl_* exist only where the baseline runs, and run_wall_s and
# slowdown are what run_s is computed from
REPORTED_ONLY = {"failed_frac": "ratio", "bl_f1_logreg": "micro-F1", "bl_f1_mlp": "micro-F1",
                 "bl_ch": "CH", "run_wall_s": "s", "slowdown": "ratio"}

STAGES = ("stats", "seed", "sample", "finetune", "eval", "baseline")
# output checks made on every iteration (see worker.py)
CHECKS = ("embeddings", "pairs", "scores", "reports", "rerun")

WN, FB, HUB = "wn-sparse-ft", "fb-manyrel-ft", "hub-baseline"
EVERY = (WN, FB, HUB)

# Longest matching prefix wins: (end-to-end metrics it should move, workloads).
LAYER_MAP = {
    "graph.": (("run_s",), EVERY),
    "seeds.": (("run_s",), (WN,)),
    "pairs.": (("run_s",), (WN, FB)),
    "siamese.": (("run_s",), (WN,)),
    "siamese.final_loss": (("ft_f1_logreg", "ft_f1_mlp", "ft_ch"), (WN, FB)),
    "optim.": (("run_s",), (WN,)),
    "evaluation.": (("run_s", "peak_rss_mb"), (FB,)),
    "baseline.": (("run_s",), (HUB,)),
    "baseline.line_graph": (("run_s", "peak_rss_mb"), (HUB,)),
    "baseline.skipgram_s": (("run_s", "bl_f1_logreg", "bl_f1_mlp", "bl_ch"), (HUB,)),
    "baseline.tokens_per_s": (("run_s", "bl_f1_logreg", "bl_f1_mlp", "bl_ch"), (HUB,)),
    "baseline.f1_": (("bl_f1_logreg", "bl_f1_mlp"), (HUB,)),
    "baseline.ch": (("bl_ch",), (HUB,)),
    "pipeline.": (("run_s",), EVERY),
    "trace.": ((), ()),
}


def moves(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    prefix = max((p for p in LAYER_MAP if metric.startswith(p)), key=len, default=None)
    if prefix is None:
        raise KeyError(f"layer metric {metric!r} has no entry in LAYER_MAP")
    return LAYER_MAP[prefix]


def layer_unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or ".stage_s." in metric:
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_frac") or metric.endswith("slowdown"):
        return "ratio"
    if metric.endswith("final_loss"):
        return "mse"
    if ".f1_" in metric:
        return "micro-F1"
    if metric.endswith(".ch"):
        return "CH"
    return "count"
