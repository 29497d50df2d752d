"""The benchmark's call tracer (`perfbench/tracer.py`) against the package.

The tracer wraps package functions by module and attribute name, so renaming or
deleting one of them breaks the benchmark's traced runs; this test fails first.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

from tripletune import parallel
from tripletune.graph import save_triples
from tripletune.pipeline import ExperimentConfig, run_pipeline
from tripletune.synthetic import clustered_graph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_a_run_and_uninstalls(tmp_path, monkeypatch):
    # one worker: the baseline branch runs in this process, so its spans are recorded
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    tracing = load_tracer()
    g = clustered_graph(n_triples=60, n_clusters=3, entities_per_cluster=8, rng_seed=1)
    save_triples(g, tmp_path / "graph.tsv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "triple_files": [str(tmp_path / "graph.tsv")], "output_dir": str(tmp_path / "out"),
        "seed": {"dim": 8, "epochs": 5}, "pairs": {"n": 2}, "finetune": {"epochs": 2},
        "eval": {"classifier": "both", "folds": 2},
        "baseline": {"enabled": True, "walks_per_node": 2, "walk_length": 5}}),
        encoding="utf-8")
    cfg = ExperimentConfig.from_file(config)
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]

    tracer = tracing.Tracer()
    try:
        tracer.install()   # a wrapped name that no longer exists raises KeyError here
        t0 = time.perf_counter()
        run_pipeline(cfg)
        run_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS] == originals

    names = {span[0] for span in tracer.spans}
    assert {"pipeline.stage_finetune", "evaluation.evaluate", "baseline.train_baseline"} <= names
    metrics = tracing.layer_metrics(tracer.spans, run_s)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    for name in ("graph.load_s", "graph.stats_s", "seeds.train_s", "pairs.build_s",
                 "pairs.sample_s", "siamese.train_s", "baseline.cooc_s",
                 "baseline.line_graph_s", "baseline.walks_s"):
        assert metrics[name] > 0, name
    assert metrics["pairs.pairs"] > 0 and metrics["baseline.walk_tokens"] > 0
    assert 0 < metrics["trace.accounted_frac"] <= 1
