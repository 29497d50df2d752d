import functools
import json
import math

import numpy as np
import pytest

from tripletune import baseline as t2v
from tripletune.cli import main as cli_main
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
        "baseline": {"walks_per_node": 2, "walk_length": 5, "epochs": 2},
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
                   "--walk-length", "5", "--epochs", "2", "--out", str(embf)])
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


def test_cli_baseline_rejects_zero_epochs(tmp_path, capsys):
    gf, _ = write_graph(tmp_path)
    embf = tmp_path / "baseline.tsv"
    rc = cli_main(["baseline", "--graph", str(gf), "--dim", "8", "--walks", "1",
                   "--walk-length", "5", "--epochs", "0", "--out", str(embf)])
    assert rc == 1
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not embf.exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_baseline_divergence_exits_nonzero(tmp_path, capsys, monkeypatch):
    gf, _ = write_graph(tmp_path)
    monkeypatch.setattr(t2v, "train_skipgram",
                        functools.partial(t2v.train_skipgram, learning_rate=math.inf))
    rc = cli_main(["baseline", "--graph", str(gf), "--dim", "8", "--walks", "1",
                   "--walk-length", "5", "--epochs", "1", "--out", str(tmp_path / "b.tsv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "training diverged" in err and "epoch 0" in err


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
