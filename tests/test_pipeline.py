import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tripletune import pairs as pairmod
from tripletune import parallel, pipeline
from tripletune import seeds as seedmod
from tripletune import siamese
from tripletune.cli import build_parser, main as cli_main
from tripletune.evaluation import EvalReport
from tripletune.graph import save_triples
from tripletune.pipeline import (DEFAULTS, ExperimentConfig, PipelineError, RunManifest,
                                 StaleArtifactError, compare_report, comparison_to_csv,
                                 run_pipeline)
from tripletune.synthetic import clustered_graph
from conftest import strict_json


def write_graph(tmp_path, n_triples=60):
    g = clustered_graph(n_triples=n_triples, n_clusters=3, entities_per_cluster=8,
                        rng_seed=1)
    f = tmp_path / "graph.tsv"
    save_triples(g, f)
    return f, g


def small_config(tmp_path, graph_file, **overrides):
    cfg = {
        "triple_files": [str(graph_file)],
        "output_dir": str(tmp_path / "out"),
        "dataset_tag": "toy",
        "rng_seed": 0,
        "seed": {"dim": 8, "epochs": 10},
        "pairs": {"n": 2},
        "finetune": {"epochs": 3, "batch_size": 32},
        "baseline": {"walks_per_node": 2, "walk_length": 5},
        "eval": {"classifier": "logreg", "folds": 5},
    }
    cfg.update(overrides)
    f = tmp_path / "config.json"
    f.write_text(json.dumps(cfg), encoding="utf-8")
    return f


EXPECTED_ARTIFACTS = [
    "stats.json", "seed_entities.tsv", "seed_predicates.tsv", "pairs.tsv",
    "siamese.npz", "triple_embeddings.tsv", "report_finetuned.json",
    "baseline_embeddings.tsv", "report_baseline.json", "manifest.json",
]


def test_pipeline_end_to_end(tmp_path):
    gf, g = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    cfg = ExperimentConfig.from_file(cfgf)
    manifest = run_pipeline(cfg)
    out = tmp_path / "out"
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).exists(), name
    assert set(manifest.stages) == {"stats", "seed", "sample", "finetune", "eval",
                                    "baseline"}
    stats = json.loads((out / "stats.json").read_text())
    assert stats["num_triples"] == g.num_triples
    rep = EvalReport.load(out / "report_finetuned.json")
    assert "logreg-ovr" in rep.micro_f1_mean
    assert rep.metadata["method"] == "finetuned"


def test_pipeline_resume_skips_stages(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfg = ExperimentConfig.from_file(small_config(tmp_path, gf))
    run_pipeline(cfg)
    m1 = RunManifest.load(tmp_path / "out" / "manifest.json")
    # artifacts unchanged: rerun keeps checksums and recorded timings
    run_pipeline(ExperimentConfig.from_file(small_config(tmp_path, gf)))
    m2 = RunManifest.load(tmp_path / "out" / "manifest.json")
    for stage in m1.stages:
        assert m2.stages[stage]["artifact_sha256"] == m1.stages[stage]["artifact_sha256"]
        assert m2.stages[stage]["wall_seconds"] == m1.stages[stage]["wall_seconds"]


def test_manifest_save_interrupted_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    RunManifest(config={"seed": 1}, stages={"stats": {"wall_seconds": 0.5}}).save(path)
    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        RunManifest(config={"seed": 2}, stages={}).save(path)
    monkeypatch.undo()
    back = RunManifest.load(path)
    assert back.config == {"seed": 1}
    assert back.stages == {"stats": {"wall_seconds": 0.5}}
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_pipeline_tampered_artifact_refuses_resume(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfg = ExperimentConfig.from_file(small_config(tmp_path, gf))
    run_pipeline(cfg)
    emb = tmp_path / "out" / "triple_embeddings.tsv"
    emb.write_text(emb.read_text().replace("0", "1", 1), encoding="utf-8")
    with pytest.raises(StaleArtifactError):
        run_pipeline(ExperimentConfig.from_file(small_config(tmp_path, gf)))


def test_pipeline_config_change_recomputes(tmp_path):
    gf, _ = write_graph(tmp_path)
    run_pipeline(ExperimentConfig.from_file(small_config(tmp_path, gf)))
    m1 = RunManifest.load(tmp_path / "out" / "manifest.json")
    cfgf = small_config(tmp_path, gf, pairs={"n": 3})
    run_pipeline(ExperimentConfig.from_file(cfgf))
    m2 = RunManifest.load(tmp_path / "out" / "manifest.json")
    assert m2.stages["stats"]["artifact_sha256"] == m1.stages["stats"]["artifact_sha256"]
    assert m2.stages["sample"]["input_key"] != m1.stages["sample"]["input_key"]


def test_config_missing_file_rejected(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"triple_files": [str(tmp_path / "nope.tsv")],
                                "output_dir": str(tmp_path / "out")}))
    with pytest.raises(PipelineError, match="not found"):
        ExperimentConfig.from_file(cfgf)


def test_config_bad_seed_mode_rejected(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf, seed={"mode": "download"})
    with pytest.raises(PipelineError, match="seed.mode"):
        ExperimentConfig.from_file(cfgf)


def test_config_defaults_merged(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfg = ExperimentConfig.from_file(small_config(tmp_path, gf))
    # unspecified keys fall back to defaults
    assert cfg.finetune["learning_rate"] == DEFAULTS["finetune"]["learning_rate"]
    assert cfg.finetune["epochs"] == 3
    assert cfg.baseline["window"] == DEFAULTS["baseline"]["window"]


def test_config_with_baseline_epochs_still_runs(tmp_path):
    # the skip-gram epoch count no longer applies; older configs set it
    gf, g = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf, baseline={"walks_per_node": 2, "walk_length": 5,
                                                 "epochs": 2})
    run_pipeline(ExperimentConfig.from_file(cfgf))
    rows = np.loadtxt(tmp_path / "out" / "baseline_embeddings.tsv", ndmin=2)
    assert rows.shape[0] == g.num_triples


# case: (raw config, with GRAPH for the graph file's path; text the message holds)
BAD_CONFIGS = {
    "missing-triple-files": ({"output_dir": "x"}, "required key 'triple_files'"),
    "missing-output-dir": ({"triple_files": ["GRAPH"]}, "required key 'output_dir'"),
    "string-triple-files": ({"triple_files": "GRAPH", "output_dir": "x"}, "triple_files"),
    "list-section": ({"triple_files": ["GRAPH"], "output_dir": "x", "seed": [1]},
                     "section 'seed' must be a JSON object"),
    "string-section": ({"triple_files": ["GRAPH"], "output_dir": "x", "eval": "both"},
                       "section 'eval' must be a JSON object"),
    "not-an-object": (["GRAPH"], "must be a JSON object"),
    # raw text or bytes are written as they are
    "not-json": ('{"triple_files": [', r"cfg\.json: not JSON \(Expecting value"),
    "not-utf8": (b"\xff\xfe", r"cfg\.json: not JSON \('utf-8' codec can't decode"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_malformed_config_is_a_validate_error(tmp_path, capsys, case):
    gf, _ = write_graph(tmp_path)
    raw, message = BAD_CONFIGS[case]
    cfgf = tmp_path / "cfg.json"
    if not isinstance(raw, (str, bytes)):
        raw = json.dumps(raw).replace("GRAPH", str(gf))
    cfgf.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    with pytest.raises(PipelineError, match=message) as exc:
        ExperimentConfig.from_file(cfgf)
    assert exc.value.stage == "validate"
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'validate' failed: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["GRAPH", "train", "import", "rotate"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
SECTION = st.dictionaries(st.sampled_from(["model", "dim", "n", "epochs", "enabled",
                                           "restrict_multi_predicate"]), JSON, max_size=3)
SEED_SECTION = JSON | st.fixed_dictionaries(
    {"mode": st.sampled_from(["train", "import"]) | JSON},
    optional=dict.fromkeys(["entity_file", "predicate_file", "model", "margin"], JSON))
RAW_CONFIG = st.fixed_dictionaries(
    {"triple_files": st.just(["GRAPH"]) | JSON, "output_dir": st.just("OUT") | JSON},
    optional={"rng_seed": JSON, "dataset_tag": JSON, **dict.fromkeys(DEFAULTS, SECTION),
              "seed": SEED_SECTION})


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=RAW_CONFIG | JSON)
@example(raw={"triple_files": ["GRAPH"], "output_dir": "OUT",
              "seed": {"mode": "import", "entity_file": 5, "predicate_file": None}})
def test_config_parses_or_raises_pipeline_error(tmp_path, raw):
    gf = tmp_path / "graph.tsv"
    if not gf.exists():
        write_graph(tmp_path)
    text = json.dumps(raw).replace('"GRAPH"', json.dumps(str(gf)))
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(text.replace('"OUT"', json.dumps(str(tmp_path / "out"))), encoding="utf-8")
    try:
        cfg = ExperimentConfig.from_file(cfgf)
    except PipelineError as exc:
        assert exc.stage == "validate"
        return
    for section in DEFAULTS:
        assert set(DEFAULTS[section]) <= set(getattr(cfg, section))
    assert cfg.seed["mode"] in ("train", "import")
    # the values that reports and stages read as they are
    assert isinstance(cfg.dataset_tag, str) and isinstance(cfg.seed["model"], str)
    assert isinstance(cfg.eval["restrict_multi_predicate"], bool)
    assert isinstance(cfg.baseline["enabled"], bool)
    if cfg.seed["mode"] == "train":   # an import trains nothing, so has no margin
        margin = cfg.seed["margin"]
        assert not isinstance(margin, bool) and math.isfinite(margin) and margin >= 0


def test_cli_defaults_are_the_run_all_defaults():
    graph, files = ["--graph", "g.tsv"], ["--entities", "e", "--predicates", "p"]
    # section: (argv, the section keys that the subcommand sets)
    cases = {
        "seed": (["seed-train", *graph, "--out-entities", "e", "--out-predicates", "p"],
                 ["mode", "model", "dim", "epochs", "learning_rate", "batch_size",
                  "negatives", "margin"]),
        "pairs": (["sample", *graph, *files, "--out", "o"], ["n"]),
        "finetune": (["finetune", *graph, *files, "--pairs", "x", "--out", "o"],
                     list(DEFAULTS["finetune"])),
        "eval": (["eval", *graph, "--embeddings", "x"], list(DEFAULTS["eval"])),
        "baseline": (["baseline", *graph, "--out", "o"],
                     ["walks_per_node", "walk_length", "window", "negatives"]),
    }
    parser = build_parser()
    for section, (argv, keys) in cases.items():
        args = vars(parser.parse_args(argv))
        assert {k: args[k] for k in keys} == {k: DEFAULTS[section][k] for k in keys}
    assert vars(parser.parse_args(cases["baseline"][0]))["dim"] == DEFAULTS["seed"]["dim"]


def count_artifact_reads(monkeypatch) -> dict[str, int]:
    """Count calls of the three readers of pipeline artifacts."""
    counts: dict[str, int] = {}
    for module, name in ((seedmod, "import_embeddings"), (pairmod, "load_dataset"),
                         (siamese, "read_triple_embedding_tsv")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def import_seed_section(tmp_path, g) -> dict:
    es = seedmod.train_seed(g, "rotate", seedmod.SeedTrainConfig(dim=8, epochs=3, rng_seed=5))
    ef, pf = tmp_path / "ext_entities.tsv", tmp_path / "ext_predicates.tsv"
    seedmod.export_embeddings(es, g, ef, pf)
    return {"mode": "import", "model": "rotate", "entity_file": str(ef),
            "predicate_file": str(pf)}


@pytest.mark.parametrize("seed", ["transe", "rotate", "import"])
def test_resume_from_disk_equals_in_memory_handoff(tmp_path, monkeypatch, seed):
    gf, g = write_graph(tmp_path)
    section = (import_seed_section(tmp_path, g) if seed == "import"
               else {"dim": 8, "epochs": 10, "model": seed})
    cfgf = small_config(tmp_path, gf, seed=section)
    reads = count_artifact_reads(monkeypatch)
    run_pipeline(ExperimentConfig.from_file(cfgf))
    # a fresh run reads no artifact it wrote; an import reads the config's files once
    assert reads == ({"import_embeddings": 1} if seed == "import" else {})
    out = tmp_path / "out"

    def artifacts():
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    fresh = artifacts()
    stages = list(RunManifest.load(out / "manifest.json").stages)
    # deleting a stage and every later one makes that stage read its inputs back
    expected_reads = {"sample": {"import_embeddings": 1},
                      "finetune": {"import_embeddings": 1, "load_dataset": 1},
                      "eval": {"read_triple_embedding_tsv": 1}}
    for first in expected_reads:
        manifest = RunManifest.load(out / "manifest.json")
        for name in stages[stages.index(first):]:
            for artifact in manifest.stages.pop(name)["artifacts"]:
                (out / artifact).unlink()
        manifest.save(out / "manifest.json")
        reads.clear()
        run_pipeline(ExperimentConfig.from_file(cfgf))
        assert reads == expected_reads[first], first
        assert artifacts() == fresh, first
    # the baseline is as wide as the fine-tuned matrix: the files' 8, with no seed.dim
    assert width(out / "baseline_embeddings.tsv") == width(out / "triple_embeddings.tsv") == 8


def width(path) -> int:
    """Values per row of a triple-embedding TSV."""
    return np.loadtxt(path, ndmin=2).shape[1] - 1


def export_seed(tmp_path, g, dim: int) -> dict:
    """An import-mode seed section for `dim`-wide vectors, written to e.tsv and p.tsv."""
    es = seedmod.train_seed(g, "transe", seedmod.SeedTrainConfig(dim=dim, epochs=1))
    ef, pf = tmp_path / "e.tsv", tmp_path / "p.tsv"
    seedmod.export_embeddings(es, g, ef, pf)
    return {"mode": "import", "entity_file": str(ef), "predicate_file": str(pf)}


@pytest.mark.parametrize("aggregation, model", [("avg", None), ("ht", "rotate")])
def test_import_width_sets_finetuned_and_baseline_width(tmp_path, aggregation, model):
    gf, g = write_graph(tmp_path)
    out = tmp_path / "out"
    factor = 2 if aggregation == "ht" else 1
    # the second run re-imports files of another width at the same paths
    for dim in (8, 6):
        section = {**export_seed(tmp_path, g, dim), **({"model": model} if model else {})}
        cfgf = small_config(tmp_path, gf, seed=section, finetune={
            "epochs": 1, "batch_size": 32, "aggregation": aggregation})
        assert cli_main(["run-all", "--config", str(cfgf)]) == 0
        assert width(out / "triple_embeddings.tsv") == factor * dim
        assert width(out / "baseline_embeddings.tsv") == factor * dim
    for report in ("report_finetuned.json", "report_baseline.json"):
        assert EvalReport.load(out / report).metadata["seed_model"] == (model or "imported")


def test_import_with_complex_model_rejects_odd_dim_at_validate(tmp_path, capsys):
    gf, g = write_graph(tmp_path)
    section = export_seed(tmp_path, g, 3)
    cfgf = small_config(tmp_path, gf, seed={**section, "model": "rotate"})
    with pytest.raises(PipelineError, match="even dimension") as exc:
        ExperimentConfig.from_file(cfgf)
    assert exc.value.stage == "validate"
    capsys.readouterr()
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    message = "rotate requires an even dimension, got 3\n"
    assert capsys.readouterr().err == "error: stage 'validate' failed: seed: " + message
    assert not (tmp_path / "out").exists()
    assert cli_main(["seed-import", "--graph", str(gf), "--entities", section["entity_file"],
                     "--predicates", section["predicate_file"], "--model", "rotate"]) == 1
    assert capsys.readouterr().err == "error: " + message


def test_config_with_legacy_value_kind_still_runs(tmp_path):
    # seed.value_kind no longer exists: the layout follows seed.model, and an
    # import without one takes any width
    gf, g = write_graph(tmp_path)
    section = {**export_seed(tmp_path, g, 3), "value_kind": "complex-interleaved"}
    cfgf = small_config(tmp_path, gf, seed=section, finetune={"epochs": 1},
                        baseline={"enabled": False})
    run_pipeline(ExperimentConfig.from_file(cfgf))
    assert width(tmp_path / "out" / "triple_embeddings.tsv") == 3


# -- comparison ---------------------------------------------------------------

def make_report(method, f1, ch, dataset="toy"):
    return EvalReport(micro_f1_per_fold={"logreg-ovr": [f1]},
                      micro_f1_mean={"logreg-ovr": f1}, ch_index=ch,
                      ch_degenerate=False, restricted_to_multi_predicate=False,
                      metadata={"method": method, "dataset": dataset})


def test_compare_report_marks_best():
    table = compare_report([make_report("finetuned", 0.9, 50.0),
                            make_report("triple2vec", 0.5, 10.0)])
    assert table["rows"][0]["best"] == ["ch_index", "micro_f1_logreg"]
    assert table["rows"][1]["best"] == []
    assert table["correlations"]["pearson_f1_ch"] == pytest.approx(1.0)


@pytest.mark.parametrize("ch", [float("nan"), float("inf")])
def test_compare_report_non_finite_ch_is_missing(ch):
    # a report holds a non-finite CH index as None: never best, not correlated
    table = compare_report([make_report("classify-only", 0.9, ch),
                            make_report("finetuned", 0.8, 50.0),
                            make_report("triple2vec", 0.5, 10.0)])
    assert [row["ch_index"] for row in table["rows"]] == [None, 50.0, 10.0]
    assert [row["best"] for row in table["rows"]] == [["micro_f1_logreg"], ["ch_index"], []]
    assert table["correlations"]["pearson_f1_ch"] == pytest.approx(1.0)


def test_compare_report_requires_two():
    with pytest.raises(ValueError):
        compare_report([make_report("a", 0.5, 1.0)])


def test_compare_report_dataset_mismatch():
    with pytest.raises(ValueError, match="incompatible"):
        compare_report([make_report("a", 0.5, 1.0, dataset="x"),
                        make_report("b", 0.6, 2.0, dataset="y")])


def test_comparison_csv_format():
    table = compare_report([make_report("finetuned", 0.9, 50.0),
                            make_report("triple2vec", 0.5, 10.0)])
    csv = comparison_to_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("method,")
    assert len(lines) == 3
    assert "finetuned" in lines[1]


def test_comparison_csv_quotes_fields():
    plain = compare_report([make_report("finetuned", 0.9, 50.0),
                            make_report("triple2vec", 0.5, None)])
    assert comparison_to_csv(plain) == (
        "method,seed_model,aggregation,micro_f1_logreg,micro_f1_mlp,ch_index,best\n"
        "finetuned,?,?,0.9,,50,ch_index;micro_f1_logreg\n"
        "triple2vec,?,?,0.5,,,\n")
    table = compare_report([make_report('ft, "avg"', 0.9, 50.0),
                            make_report("triple2vec", 0.5, 10.0)])
    rows = list(csv.reader(io.StringIO(comparison_to_csv(table))))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert rows[1][0] == 'ft, "avg"'


# -- CLI ----------------------------------------------------------------------

def test_cli_stats(tmp_path, capsys):
    gf, g = write_graph(tmp_path)
    out = tmp_path / "stats.json"
    assert cli_main(["stats", "--graph", str(gf), "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["num_triples"] == g.num_triples


def test_cli_seed_sample_finetune_eval(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    ents = tmp_path / "ents.tsv"
    preds = tmp_path / "preds.tsv"
    rc = cli_main(["seed-train", "--graph", str(gf), "--model", "transe",
                   "--dim", "8", "--epochs", "10", "--out-entities", str(ents),
                   "--out-predicates", str(preds)])
    assert rc == 0
    assert ents.exists() and preds.exists()

    rc = cli_main(["seed-import", "--graph", str(gf), "--entities", str(ents),
                   "--predicates", str(preds)])
    assert rc == 0

    pairsf = tmp_path / "pairs.tsv"
    rc = cli_main(["sample", "--graph", str(gf), "--entities", str(ents),
                   "--predicates", str(preds), "--n", "2", "--out", str(pairsf)])
    assert rc == 0

    embf = tmp_path / "emb.tsv"
    rc = cli_main(["finetune", "--graph", str(gf), "--entities", str(ents),
                   "--predicates", str(preds), "--pairs", str(pairsf),
                   "--epochs", "2", "--batch-size", "32", "--out", str(embf)])
    assert rc == 0

    repf = tmp_path / "report.json"
    rc = cli_main(["eval", "--graph", str(gf), "--embeddings", str(embf),
                   "--classifier", "logreg", "--json-out", str(repf)])
    assert rc == 0
    rep = EvalReport.load(repf)
    assert "logreg-ovr" in rep.micro_f1_mean
    for task in ("classify", "cluster"):   # a report of one task is strict JSON too
        rc = cli_main(["eval", "--graph", str(gf), "--embeddings", str(embf),
                       "--task", task, "--json-out", str(repf)])
        assert rc == 0
        payload = strict_json(repf.read_text())
        assert (payload["ch_index"] is None) == (task == "classify")


def test_cli_baseline_rejects_a_walk_of_one_triple(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    embf = tmp_path / "baseline.tsv"
    rc = cli_main(["baseline", "--graph", str(gf), "--dim", "8", "--walk-length", "1",
                   "--out", str(embf)])
    err = capsys.readouterr().err
    assert rc == 1 and err == "error: walk_length must be >= 2, got 1\n"
    assert not embf.exists()


def test_cli_baseline_and_compare(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    embf = tmp_path / "baseline.tsv"
    rc = cli_main(["baseline", "--graph", str(gf), "--dim", "8", "--walks", "2",
                   "--walk-length", "5", "--out", str(embf)])
    assert rc == 0

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    make_report("finetuned", 0.9, 50.0).save(r1)
    make_report("triple2vec", 0.5, 10.0).save(r2)
    csvf = tmp_path / "cmp.csv"
    rc = cli_main(["compare", str(r1), str(r2), "--csv-out", str(csvf)])
    assert rc == 0
    assert csvf.read_text().startswith("method,")


def report_text_with(**fields):
    return json.dumps({**json.loads(make_report("finetuned", 0.9, 50.0).to_json()), **fields})


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a report must be a JSON object"),
    ('{"micro_f1_mean": {}}', "missing 4 required positional arguments"),
    ('{"bogus": 1}', "unexpected keyword argument 'bogus'"),
    *(pytest.param(text, message, id=name) for name, text, message in [
        ("not-json", "{bad", "not JSON"),
        ("not-utf8", b"\xff{}", "not JSON"),
        ("mean-list", report_text_with(micro_f1_mean=[]),
         "micro_f1_mean must be an object of numbers"),
        ("mean-string", report_text_with(micro_f1_mean={"mlp": "0.5"}),
         "micro_f1_mean must be an object of numbers"),
        ("folds-number", report_text_with(micro_f1_per_fold={"mlp": 0.5}),
         "micro_f1_per_fold must be an object of number lists"),
        ("folds-bool", report_text_with(micro_f1_per_fold={"mlp": [True]}),
         "micro_f1_per_fold must be an object of number lists"),
        ("ch-string", report_text_with(ch_index="50"), "ch_index must be a number or null"),
        ("degenerate-int", report_text_with(ch_degenerate=0),
         "ch_degenerate must be true or false"),
        ("restricted-null", report_text_with(restricted_to_multi_predicate=None),
         "restricted_to_multi_predicate must be true or false"),
        ("metadata-list", report_text_with(metadata=[]), "metadata must be an object"),
        ("dataset-list", report_text_with(metadata={"dataset": ["toy"]}),
         "metadata must be an object with string"),
    ]),
])
def test_cli_compare_malformed_report_exits_one(tmp_path, capsys, text, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    make_report("finetuned", 0.9, 50.0).save(good)
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=message):
        EvalReport.load(bad)
    capsys.readouterr()
    assert cli_main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


# Run in a fresh interpreter: importing the package and a run with the baseline
# on must leave scipy.stats and scipy.special out (~35 and ~4 MiB resident), and
# `compare` still imports scipy.stats for the Spearman correlation.
IMPORT_FLOOR_SCRIPT = """
import sys
import tripletune, tripletune.cli
from tripletune.pipeline import ExperimentConfig, run_pipeline
run_pipeline(ExperimentConfig.from_file(sys.argv[1]))
loaded = [m for m in ("scipy.stats", "scipy.special") if m in sys.modules]
if loaded:
    sys.exit(f"importing tripletune and a run-all loaded {loaded}")
sys.exit(tripletune.cli.main(["compare", *sys.argv[2:]]))
"""


def test_import_floor_run_all_loads_no_scipy_stats_or_special(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf, eval={"classifier": "both", "folds": 5})
    out = tmp_path / "out"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FLOOR_SCRIPT, str(cfgf),
                           str(out / "report_finetuned.json"), str(out / "report_baseline.json")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "spearman_f1_ch" in json.loads(proc.stdout)["correlations"]


def test_cli_run_all(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    assert cli_main(["run-all", "--config", str(cfgf)]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_finetune_divergence_exits_nonzero(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    ents, preds, pairsf = (tmp_path / n for n in ("ents.tsv", "preds.tsv", "pairs.tsv"))
    assert cli_main(["seed-train", "--graph", str(gf), "--dim", "8", "--epochs", "2",
                     "--out-entities", str(ents), "--out-predicates", str(preds)]) == 0
    assert cli_main(["sample", "--graph", str(gf), "--entities", str(ents),
                     "--predicates", str(preds), "--n", "2", "--out", str(pairsf)]) == 0
    capsys.readouterr()
    rc = cli_main(["finetune", "--graph", str(gf), "--entities", str(ents),
                   "--predicates", str(preds), "--pairs", str(pairsf), "--epochs", "1",
                   "--warmup", "0", "--lr", "1e308", "--out", str(tmp_path / "emb.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "training diverged" in err and "epoch 0" in err


# case: (command, extra arguments, file to overwrite or None, its text)
BAD_CLI_INPUTS = {
    "finetune-epochs-0": ("finetune", ["--epochs", "0"], None, ""),
    "finetune-batch-size-0": ("finetune", ["--batch-size", "0"], None, ""),
    "pairs-negative-id": ("finetune", [], "pairs.tsv", "-1\t0\t0.5\tshared-head\n"),
    "pairs-id-past-end": ("finetune", [], "pairs.tsv", "0\t99999\t0.5\tshared-head\n"),
    "pairs-unknown-provenance": ("finetune", [], "pairs.tsv", "0\t1\t0.5\tsame-tail\n"),
    "pairs-short-row": ("finetune", [], "pairs.tsv", "0\t1\t0.5\n"),
    "pairs-nan-score": ("finetune", [], "pairs.tsv", "0\t1\t0.5\tshared-head\n"
                                                     "0\t2\tnan\tshared-head\n"),
    "pairs-score-above-1": ("finetune", [], "pairs.tsv", "0\t1\t7.5\tshared-head\n"),
    "embeddings-id-gap": ("eval", [], "emb.tsv", "0\t1.0\n2\t1.0\n"),
    "baseline-dim-0": ("baseline", ["--dim", "0"], None, ""),
    "baseline-walks-0": ("baseline", ["--walks", "0"], None, ""),
    "baseline-walk-length-0": ("baseline", ["--walk-length", "0"], None, ""),
}


@pytest.mark.parametrize("case", list(BAD_CLI_INPUTS))
def test_cli_bad_input_exits_one_with_message(tmp_path, capsys, case):
    command, extra, bad_file, text = BAD_CLI_INPUTS[case]
    gf, _ = write_graph(tmp_path)
    ents, preds, pairsf, embf = (tmp_path / n for n in
                                 ("ents.tsv", "preds.tsv", "pairs.tsv", "emb.tsv"))
    assert cli_main(["seed-train", "--graph", str(gf), "--dim", "8", "--epochs", "2",
                     "--out-entities", str(ents), "--out-predicates", str(preds)]) == 0
    assert cli_main(["sample", "--graph", str(gf), "--entities", str(ents),
                     "--predicates", str(preds), "--n", "2", "--out", str(pairsf)]) == 0
    if bad_file:
        (tmp_path / bad_file).write_text(text, encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out.tsv"
    if command == "finetune":
        argv = ["finetune", "--graph", str(gf), "--entities", str(ents), "--predicates",
                str(preds), "--pairs", str(pairsf), "--out", str(out)]
    elif command == "baseline":
        argv = ["baseline", "--graph", str(gf), "--out", str(out)]
    else:
        argv = ["eval", "--graph", str(gf), "--embeddings", str(embf)]
    rc = cli_main(argv + extra)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert "diverged" not in err          # a bad input is named, not trained on
    assert err.count("\n") == 1          # one line
    assert not out.exists()


# case: (section values or top-level values, the message of the validate error)
BAD_VALUES = {
    "rng-seed-string": ({"rng_seed": "abc"}, "rng_seed must be an integer, got 'abc'"),
    "rng-seed-negative": ({"rng_seed": -1}, "rng_seed must be >= 0, got -1"),
    "seed-epochs-float": ({"seed": {"epochs": 2.5}}, "seed: epochs must be an integer, got 2.5"),
    "seed-dim-bool": ({"seed": {"dim": True}}, "seed: dim must be an integer, got True"),
    "finetune-batch-size-float": ({"finetune": {"batch_size": 64.5}},
                                  "finetune: batch_size must be an integer, got 64.5"),
    "pairs-n-float": ({"pairs": {"n": 2.5}}, "pairs: n must be an integer, got 2.5"),
    "eval-folds-float": ({"eval": {"folds": 2.5}}, "eval: folds must be an integer, got 2.5"),
    "baseline-walks-float": ({"baseline": {"walks_per_node": 1.5}},
                             "baseline: walks_per_node must be an integer, got 1.5"),
    "seed-batch-size-0": ({"seed": {"batch_size": 0}}, "seed: batch_size must be >= 1, got 0"),
    "seed-epochs-0": ({"seed": {"epochs": 0}}, "seed: epochs must be >= 1, got 0"),
    "seed-lr-0": ({"seed": {"learning_rate": 0.0}},
                  "seed: learning_rate must be finite and > 0, got 0.0"),
    "seed-model": ({"seed": {"model": "rescal"}}, "seed: cannot train rescal"),
    "seed-odd-rotate": ({"seed": {"model": "rotate", "dim": 9}},
                        "seed: rotate requires an even dimension, got 9"),
    "finetune-lr-nan": ({"finetune": {"learning_rate": float("nan")}},
                        "finetune: learning_rate must be finite and > 0, got nan"),
    "finetune-batch-size-0": ({"finetune": {"batch_size": 0}},
                              "finetune: batch_size must be >= 1, got 0"),
    "finetune-aggregation": ({"finetune": {"aggregation": "bogus"}},
                             "finetune: unknown aggregation 'bogus'"),
    "pairs-n-0": ({"pairs": {"n": 0}}, "pairs: n must be >= 1, got 0"),
    "pairs-n-string": ({"pairs": {"n": "2"}}, "pairs: n must be an integer, got '2'"),
    "eval-classifier": ({"eval": {"classifier": "svm"}}, "eval: unknown classifier 'svm'"),
    "eval-folds-1": ({"eval": {"folds": 1}}, "eval: folds must be >= 2, got 1"),
    "baseline-walk-length-0": ({"baseline": {"walk_length": 0}},
                               "baseline: walk_length must be >= 2, got 0"),
    "baseline-walk-length-1": ({"baseline": {"walk_length": 1}},
                               "baseline: walk_length must be >= 2, got 1"),
    "baseline-window-0": ({"baseline": {"window": 0}}, "baseline: window must be >= 1, got 0"),
    # values that a run would carry into its reports or read by truthiness
    "dataset-tag-int": ({"dataset_tag": 5}, "dataset_tag must be a string, got 5"),
    "import-seed-model-int": ({"seed": {"mode": "import", "model": 5}},
                              "seed.model must be a string, got 5"),
    "eval-restrict-string": ({"eval": {"restrict_multi_predicate": "no"}},
                             "eval: restrict_multi_predicate must be true or false, got 'no'"),
    "baseline-enabled-string": ({"baseline": {"enabled": "false"}},
                                "baseline: enabled must be true or false, got 'false'"),
    "seed-margin-nan": ({"seed": {"margin": float("nan")}},
                        "seed: margin must be a finite number >= 0, got nan"),
    "seed-margin-string": ({"seed": {"margin": "x"}},
                           "seed: margin must be a finite number >= 0, got 'x'"),
    # a bool is not a number, and a value of another type fails naming its key
    "seed-lr-bool": ({"seed": {"learning_rate": True}},
                     "seed: learning_rate must be finite and > 0, got True"),
    "finetune-lr-bool": ({"finetune": {"learning_rate": True}},
                         "finetune: learning_rate must be finite and > 0, got True"),
    "finetune-warmup-bool": ({"finetune": {"warmup_fraction": False}},
                             "finetune: warmup_fraction must be in [0, 1), got False"),
    "seed-lr-string": ({"seed": {"learning_rate": "x"}},
                       "seed: learning_rate must be finite and > 0, got 'x'"),
    "finetune-warmup-null": ({"finetune": {"warmup_fraction": None}},
                             "finetune: warmup_fraction must be in [0, 1), got None"),
    "seed-margin-huge-int": ({"seed": {"margin": 10 ** 400}},
                             f"seed: margin must be a finite number >= 0, got {10 ** 400}"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_section_value_fails_validate(tmp_path, capsys, case):
    section, message = BAD_VALUES[case]
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    raw = json.loads(cfgf.read_text())
    for name, values in section.items():
        raw[name] = {**raw[name], **values} if isinstance(values, dict) else values
    cfgf.write_text(json.dumps(raw))
    with pytest.raises(PipelineError) as exc:
        ExperimentConfig.from_file(cfgf)
    assert exc.value.stage == "validate"
    assert str(exc.value).startswith(f"stage 'validate' failed: {message}")
    capsys.readouterr()
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage 'validate' failed: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_int_learning_rates_load(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf, seed={"learning_rate": 1}, finetune={"learning_rate": 1})
    cfg = ExperimentConfig.from_file(cfgf)
    assert (cfg.seed["learning_rate"], cfg.finetune["learning_rate"]) == (1, 1)


def test_disabled_baseline_counts_are_not_checked(tmp_path):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf, baseline={"enabled": False, "walk_length": 0})
    assert ExperimentConfig.from_file(cfgf).baseline["walk_length"] == 0


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing graph file -> generic input error
    assert cli_main(["stats", "--graph", str(tmp_path / "nope.tsv")]) == 1
    # pipeline validation error -> exit code 2 naming the stage
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"triple_files": [str(tmp_path / "nope.tsv")],
                                "output_dir": str(tmp_path / "out")}))
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert "validate" in err


# -- the fine-tune branch and the baseline side by side (`Pipeline.run`)

def test_pipeline_errors_pickle_with_type_message_and_stage():
    for cls in (PipelineError, StaleArtifactError):
        exc = cls("baseline", "boom")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) == "stage 'baseline' failed: boom"
        assert back.stage == "baseline"


@pytest.fixture
def two_workers(monkeypatch):
    """Two fork_map workers even on one CPU, and after the test no child left."""
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def baseline_pid_file(tmp_path, monkeypatch, fail: bool = False) -> Path:
    """The file that `baseline_stage` writes the pid of its process to; with
    `fail` it then raises ValueError."""
    pid_file = tmp_path / "baseline.pid"

    def recorded(*args, _stage=pipeline.baseline_stage, **kwargs):
        pid_file.write_text(str(os.getpid()))
        if fail:
            raise ValueError("no walks today")
        return _stage(*args, **kwargs)

    monkeypatch.setattr(pipeline, "baseline_stage", recorded)
    return pid_file


def count_forks(monkeypatch) -> list[int]:
    """A list that each `os.fork` in this process appends its child's pid to."""
    pids: list[int] = []

    def fork(_fork=os.fork):
        pid = _fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


# The tests set the worker count by hand, so they fork also where BLAS has idle
# threads, which Python 3.12+ warns about; the jobs forked here do not wait on them.
forks = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")


@forks
@pytest.mark.parametrize("cls", [PipelineError, StaleArtifactError])
def test_fork_map_reraises_pipeline_errors_with_their_stage(two_workers, cls):
    def job(j):
        if j == 1:
            raise cls("baseline", "from the child")
        return j

    with pytest.raises(cls, match="^stage 'baseline' failed: from the child$") as info:
        parallel.fork_map(job, 2)
    assert type(info.value) is cls and info.value.stage == "baseline"


def run_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def stage_records(out: Path) -> dict:
    """The manifest's stages, in order, without their wall times."""
    stages = RunManifest.load(out / "manifest.json").stages
    return {s: {k: v for k, v in rec.items() if k != "wall_seconds"}
            for s, rec in stages.items()}


@forks
def test_branches_side_by_side_give_the_bytes_of_one_at_a_time(tmp_path, monkeypatch,
                                                               two_workers):
    gf, _ = write_graph(tmp_path)
    pid_file = baseline_pid_file(tmp_path, monkeypatch)
    outs = {}
    for w in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda w=w: w)
        outs[w] = tmp_path / f"out{w}"
        run_pipeline(ExperimentConfig.from_file(
            small_config(tmp_path, gf, output_dir=str(outs[w]))))
        # the baseline runs in a child only when there is a second worker
        assert (int(pid_file.read_text()) == os.getpid()) == (w == 1)
        # no temporary manifest left behind by either process
        assert sorted(p.name for p in outs[w].iterdir()) == sorted(EXPECTED_ARTIFACTS)
    assert run_files(outs[1]) == run_files(outs[2])
    assert stage_records(outs[1]) == stage_records(outs[2])
    assert list(stage_records(outs[2])) == ["stats", "seed", "sample", "finetune", "eval",
                                            "baseline"]


@forks
def test_baseline_failure_is_its_stage_after_the_finetune_branch_is_saved(
        tmp_path, monkeypatch, two_workers, capsys):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    pid_file = baseline_pid_file(tmp_path, monkeypatch, fail=True)
    with pytest.raises(PipelineError) as info:
        run_pipeline(ExperimentConfig.from_file(cfgf))
    assert type(info.value) is PipelineError and info.value.stage == "baseline"
    assert "no walks today" in str(info.value)
    assert int(pid_file.read_text()) != os.getpid()
    out = tmp_path / "out"
    assert list(stage_records(out)) == ["stats", "seed", "sample", "finetune", "eval"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        set(EXPECTED_ARTIFACTS) - {"baseline_embeddings.tsv", "report_baseline.json"})
    # the CLI names the stage and exits 2, without a traceback
    (out / "manifest.json").unlink()
    capsys.readouterr()
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'baseline' failed: no walks today")
    assert "Traceback" not in err


@forks
def test_finetune_branch_failure_kills_the_baseline_child(tmp_path, monkeypatch,
                                                          two_workers):
    gf, _ = write_graph(tmp_path)
    reference = tmp_path / "reference"
    run_pipeline(ExperimentConfig.from_file(
        small_config(tmp_path, gf, output_dir=str(reference))))
    cfgf = small_config(tmp_path, gf)
    pid_file = tmp_path / "baseline.pid"

    def slow_baseline(*args, **kwargs):
        pid_file.write_text(str(os.getpid()))
        time.sleep(60)

    def failing_finetune(*args, **kwargs):   # fails once the baseline child is running
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ValueError("fine-tuning failed")

    monkeypatch.setattr(pipeline, "baseline_stage", slow_baseline)
    monkeypatch.setattr(pipeline, "finetune_stage", failing_finetune)
    t0 = time.monotonic()
    with pytest.raises(PipelineError, match="fine-tuning failed") as info:
        run_pipeline(ExperimentConfig.from_file(cfgf))
    assert info.value.stage == "finetune"
    assert time.monotonic() - t0 < 30
    with pytest.raises(ProcessLookupError):   # killed and reaped
        os.kill(int(pid_file.read_text()), 0)
    out = tmp_path / "out"
    assert list(stage_records(out)) == ["stats", "seed", "sample"]
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    run_pipeline(ExperimentConfig.from_file(cfgf))
    assert run_files(out) == run_files(reference)
    assert stage_records(out) == stage_records(reference)


@forks
def test_tampered_baseline_report_is_a_stale_artifact(tmp_path, two_workers):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    run_pipeline(ExperimentConfig.from_file(cfgf))
    report = tmp_path / "out" / "report_baseline.json"
    report.write_text(report.read_text().replace("triple2vec", "triple2veg"),
                      encoding="utf-8")
    with pytest.raises(StaleArtifactError) as info:
        run_pipeline(ExperimentConfig.from_file(cfgf))
    assert info.value.stage == "baseline"


@forks
def test_only_a_stale_baseline_reruns(tmp_path, monkeypatch, two_workers):
    gf, _ = write_graph(tmp_path)
    run_pipeline(ExperimentConfig.from_file(small_config(tmp_path, gf)))
    out = tmp_path / "out"
    before = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    records = stage_records(out)
    calls = []
    real_fork_map = parallel.fork_map
    monkeypatch.setattr(parallel, "fork_map",
                        lambda fn, n: calls.append(n) or real_fork_map(fn, n))
    run_pipeline(ExperimentConfig.from_file(small_config(
        tmp_path, gf, baseline={"walks_per_node": 2, "walk_length": 6})))
    assert calls == []   # the pipeline forks no branch; evaluation's own maps may
    after = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    changed = {name for name in before if after[name] != before[name]}
    assert changed == {"baseline_embeddings.tsv", "report_baseline.json", "manifest.json"}
    again = stage_records(out)
    assert list(again) == list(records)
    assert {s for s in records if again[s] != records[s]} == {"baseline"}


@forks
def test_complete_resume_forks_nothing(tmp_path, monkeypatch, two_workers):
    gf, _ = write_graph(tmp_path)
    cfgf = small_config(tmp_path, gf)
    run_pipeline(ExperimentConfig.from_file(cfgf))
    forked = count_forks(monkeypatch)
    run_pipeline(ExperimentConfig.from_file(cfgf))
    assert forked == []
