import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tripletune import pairs as pairmod
from tripletune import seeds as seedmod
from tripletune import siamese
from tripletune.cli import build_parser, main as cli_main
from tripletune.evaluation import EvalReport
from tripletune.graph import save_triples
from tripletune.pipeline import (DEFAULTS, ExperimentConfig, PipelineError, RunManifest,
                                 StaleArtifactError, compare_report, comparison_to_csv,
                                 run_pipeline)
from tripletune.synthetic import clustered_graph


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
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_malformed_config_is_a_validate_error(tmp_path, capsys, case):
    gf, _ = write_graph(tmp_path)
    raw, message = BAD_CONFIGS[case]
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(raw).replace("GRAPH", str(gf)), encoding="utf-8")
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
SECTION = st.dictionaries(st.sampled_from(["model", "dim", "n", "epochs", "enabled"]), JSON,
                          max_size=3)
SEED_SECTION = JSON | st.fixed_dictionaries(
    {"mode": st.sampled_from(["train", "import"]) | JSON},
    optional=dict.fromkeys(["entity_file", "predicate_file", "model"], JSON))
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


def test_import_with_complex_model_rejects_odd_dim_at_seed_stage(tmp_path, capsys):
    gf, g = write_graph(tmp_path)
    section = export_seed(tmp_path, g, 3)
    cfgf = small_config(tmp_path, gf, seed={**section, "model": "rotate"})
    with pytest.raises(PipelineError, match="even dimension") as exc:
        run_pipeline(ExperimentConfig.from_file(cfgf))
    assert exc.value.stage == "seed"
    capsys.readouterr()
    assert cli_main(["run-all", "--config", str(cfgf)]) == 2
    message = "rotate requires an even dimension, got 3\n"
    assert capsys.readouterr().err == "error: stage 'seed' failed: " + message
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
                   "--warmup", "0", "--lr", "inf", "--out", str(tmp_path / "emb.tsv")])
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
    assert err.count("\n") == 1          # one line
    assert not out.exists()


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
