"""End-to-end experiment driver: stats -> seeds -> pairs -> fine-tune -> eval -> baseline.

Every stage persists its artifact under the experiment output directory and is
recorded in a manifest with input/output checksums, so re-running an unchanged
configuration skips completed stages and a tampered artifact refuses to resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import baseline as t2v
from . import pairs as pairmod
from . import seeds as seedmod
from . import siamese
from .evaluation import EvalReport, classifier_specs, evaluate, pearson, spearman
from .graph import KnowledgeGraph, compute_stats, load_triples


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


class StaleArtifactError(PipelineError):
    pass


DEFAULTS = {
    "pairs": {"n": 5},
    "finetune": {"aggregation": "avg", "batch_size": 128, "learning_rate": 2e-3,
                 "warmup_fraction": 0.10, "epochs": 30},
    "baseline": {"enabled": True, "walks_per_node": 10, "walk_length": 20, "window": 5,
                 "negatives": 5},
    "eval": {"classifier": "both", "restrict_multi_predicate": False, "folds": 5},
    "seed": {"mode": "train", "model": "transe", "dim": 32, "epochs": 100,
             "learning_rate": 0.05, "batch_size": 64, "negatives": 1, "margin": 1.0,
             "value_kind": "real"},
}


@dataclass
class ExperimentConfig:
    triple_files: list[str]
    output_dir: str
    dataset_tag: str = "dataset"
    rng_seed: int = 0
    seed: dict = field(default_factory=lambda: dict(DEFAULTS["seed"]))
    pairs: dict = field(default_factory=lambda: dict(DEFAULTS["pairs"]))
    finetune: dict = field(default_factory=lambda: dict(DEFAULTS["finetune"]))
    eval: dict = field(default_factory=lambda: dict(DEFAULTS["eval"]))
    baseline: dict = field(default_factory=lambda: dict(DEFAULTS["baseline"]))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = cls(triple_files=raw["triple_files"], output_dir=raw["output_dir"])
        cfg.dataset_tag = raw.get("dataset_tag", cfg.dataset_tag)
        cfg.rng_seed = raw.get("rng_seed", cfg.rng_seed)
        for section in ("seed", "pairs", "finetune", "eval", "baseline"):
            merged = dict(DEFAULTS[section])
            merged.update(raw.get(section, {}))
            setattr(cfg, section, merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in self.triple_files:
            if not Path(f).exists():
                raise PipelineError("validate", f"triple file not found: {f}")
        if self.seed["mode"] == "import":
            for key in ("entity_file", "predicate_file"):
                if key not in self.seed:
                    raise PipelineError("validate", f"seed.mode=import requires seed.{key}")
                if not Path(self.seed[key]).exists():
                    raise PipelineError("validate",
                                        f"embedding file not found: {self.seed[key]}")
        elif self.seed["mode"] != "train":
            raise PipelineError("validate", f"unknown seed.mode {self.seed['mode']!r}")

    def snapshot(self) -> dict:
        return asdict(self)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_obj(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


@dataclass
class RunManifest:
    config: dict
    stages: dict = field(default_factory=dict)

    def save(self, path: Path) -> None:
        """Write to a temporary file beside `path`, then rename it over `path`, so an
        interrupted save leaves the previous manifest intact."""
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            tmp.write_text(json.dumps({"config": self.config, "stages": self.stages},
                                      indent=2), encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        raw = json.loads(path.read_text(encoding="utf-8"))
        return cls(config=raw["config"], stages=raw["stages"])


class Pipeline:
    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.out = Path(cfg.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        if self.manifest_path.exists():
            self.manifest = RunManifest.load(self.manifest_path)
        else:
            self.manifest = RunManifest(config=cfg.snapshot())
        self._graph: KnowledgeGraph | None = None

    # -- stage bookkeeping ---------------------------------------------------

    def _run_stage(self, name: str, input_key: str, artifacts: list[str], fn):
        rec = self.manifest.stages.get(name)
        paths = [self.out / a for a in artifacts]
        if rec is not None and rec["input_key"] == input_key:
            if all(p.exists() for p in paths):
                actual = {a: _sha256_file(p) for a, p in zip(artifacts, paths)}
                if actual != rec["artifact_sha256"]:
                    raise StaleArtifactError(
                        name, "artifact checksum mismatch; refusing stale resume "
                              f"(delete {self.out} to rebuild)")
                return  # stage complete, skip
        t0 = time.monotonic()
        try:
            fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc
        elapsed = time.monotonic() - t0
        self.manifest.stages[name] = {
            "input_key": input_key,
            "artifacts": artifacts,
            "artifact_sha256": {a: _sha256_file(p) for a, p in zip(artifacts, paths)},
            "wall_seconds": round(elapsed, 4),
        }
        self.manifest.config = self.cfg.snapshot()
        self.manifest.save(self.manifest_path)

    # -- inputs --------------------------------------------------------------

    @property
    def graph(self) -> KnowledgeGraph:
        if self._graph is None:
            self._graph = load_triples(self.cfg.triple_files)
        return self._graph

    def _input_hash(self) -> str:
        return _sha256_obj([_sha256_file(Path(f)) for f in self.cfg.triple_files])

    # -- stages --------------------------------------------------------------

    def stage_stats(self):
        key = _sha256_obj(["stats", self._input_hash()])

        def run():
            stats = compute_stats(self.graph)
            (self.out / "stats.json").write_text(stats.to_json(), encoding="utf-8")

        self._run_stage("stats", key, ["stats.json"], run)

    def stage_seed(self):
        sc = self.cfg.seed
        key = _sha256_obj(["seed", self._input_hash(), sc, self.cfg.rng_seed])

        def run():
            g = self.graph
            if sc["mode"] == "train":
                cfg = seedmod.SeedTrainConfig(
                    dim=sc["dim"], epochs=sc["epochs"], learning_rate=sc["learning_rate"],
                    batch_size=sc["batch_size"], negatives_per_positive=sc["negatives"],
                    margin=sc["margin"], rng_seed=self.cfg.rng_seed)
                es = seedmod.train_seed(g, sc["model"], cfg)
            else:
                es = seedmod.import_embeddings(sc["entity_file"], sc["predicate_file"], g,
                                               value_kind=sc["value_kind"],
                                               model_tag=sc.get("model", "imported"))
            seedmod.export_embeddings(es, g, self.out / "seed_entities.tsv",
                                      self.out / "seed_predicates.tsv")

        self._run_stage("seed", key, ["seed_entities.tsv", "seed_predicates.tsv"], run)

    def _load_seed(self) -> seedmod.EmbeddingSet:
        sc = self.cfg.seed
        kind = seedmod.COMPLEX_KIND if sc.get("model") in seedmod.COMPLEX_MODELS \
            else sc.get("value_kind", "real")
        return seedmod.import_embeddings(self.out / "seed_entities.tsv",
                                         self.out / "seed_predicates.tsv", self.graph,
                                         value_kind=kind, model_tag=sc.get("model", "imported"))

    def stage_sample(self):
        key = _sha256_obj(["sample", self.manifest.stages["seed"]["artifact_sha256"],
                           self.cfg.pairs, self.cfg.rng_seed])

        def run():
            ds = pairmod.build_dataset(self.graph, self._load_seed(), self.cfg.pairs["n"],
                                       rng_seed=self.cfg.rng_seed)
            pairmod.save_dataset(ds, self.out / "pairs.tsv")

        self._run_stage("sample", key, ["pairs.tsv"], run)

    def stage_finetune(self):
        fc = self.cfg.finetune
        key = _sha256_obj(["finetune", self.manifest.stages["sample"]["artifact_sha256"],
                           fc, self.cfg.rng_seed])

        def run():
            ds = pairmod.load_dataset(self.out / "pairs.tsv", n_param=self.cfg.pairs["n"],
                                      seed_tag=self.cfg.seed.get("model", "imported"),
                                      rng_seed=self.cfg.rng_seed)
            model = siamese.SiameseModel.initialize(self.graph, self._load_seed(),
                                                    fc["aggregation"],
                                                    rng_seed=self.cfg.rng_seed)
            cfg = siamese.FineTuneConfig(
                batch_size=fc["batch_size"], learning_rate=fc["learning_rate"],
                warmup_fraction=fc["warmup_fraction"], epochs=fc["epochs"],
                rng_seed=self.cfg.rng_seed)
            siamese.train(model, ds, cfg)
            siamese.save_checkpoint(model, self.out / "siamese.npz", config=cfg)
            siamese.write_triple_embedding_tsv(siamese.export_triple_embeddings(model),
                                               self.out / "triple_embeddings.tsv")

        self._run_stage("finetune", key, ["siamese.npz", "triple_embeddings.tsv"], run)

    def _evaluate_matrix(self, matrix: np.ndarray, method: str, out_name: str):
        report = evaluate(
            matrix, self.graph,
            specs=classifier_specs(self.cfg.eval["classifier"], self.cfg.rng_seed),
            restrict_multi_predicate=self.cfg.eval["restrict_multi_predicate"],
            folds=self.cfg.eval["folds"], rng_seed=self.cfg.rng_seed,
            metadata={"method": method, "dataset": self.cfg.dataset_tag,
                      "seed_model": self.cfg.seed.get("model", "imported"),
                      "aggregation": self.cfg.finetune["aggregation"]})
        report.save(self.out / out_name)

    def stage_eval(self):
        key = _sha256_obj(["eval", self.manifest.stages["finetune"]["artifact_sha256"],
                           self.cfg.eval, self.cfg.rng_seed])

        def run():
            matrix = siamese.read_triple_embedding_tsv(self.out / "triple_embeddings.tsv")
            self._evaluate_matrix(matrix, "finetuned", "report_finetuned.json")

        self._run_stage("eval", key, ["report_finetuned.json"], run)

    def stage_baseline(self):
        bc = self.cfg.baseline
        dim = siamese.aggregated_dim(self.cfg.seed["dim"], self.cfg.finetune["aggregation"])
        key = _sha256_obj(["baseline", self._input_hash(), bc, dim, self.cfg.eval,
                           self.cfg.rng_seed])

        def run():
            result = t2v.train_baseline(
                self.graph, dim, walks_per_node=bc["walks_per_node"],
                walk_length=bc["walk_length"], rng_seed=self.cfg.rng_seed,
                window=bc["window"], negatives=bc["negatives"])
            siamese.write_triple_embedding_tsv(result.vectors,
                                               self.out / "baseline_embeddings.tsv")
            self._evaluate_matrix(result.vectors, "triple2vec", "report_baseline.json")

        self._run_stage("baseline", key,
                        ["baseline_embeddings.tsv", "report_baseline.json"], run)

    def run(self) -> RunManifest:
        self.stage_stats()
        self.stage_seed()
        self.stage_sample()
        self.stage_finetune()
        self.stage_eval()
        if self.cfg.baseline.get("enabled", True):
            self.stage_baseline()
        return self.manifest


def run_pipeline(cfg: ExperimentConfig) -> RunManifest:
    return Pipeline(cfg).run()


def compare_report(reports: list[EvalReport]) -> dict:
    """Tabulate Micro-F1 and clusterability across runs, marking column bests."""
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    datasets = {r.metadata.get("dataset", "dataset") for r in reports}
    if len(datasets) > 1:
        raise ValueError(f"incompatible dataset tags: {sorted(datasets)}")
    rows = []
    for r in reports:
        rows.append({
            "method": r.metadata.get("method", "?"),
            "seed_model": r.metadata.get("seed_model", "?"),
            "aggregation": r.metadata.get("aggregation", "?"),
            "micro_f1_logreg": r.micro_f1_mean.get("logreg-ovr"),
            "micro_f1_mlp": r.micro_f1_mean.get("mlp"),
            "ch_index": None if r.ch_degenerate else r.ch_index,
        })
    best = {}
    for col in ("micro_f1_logreg", "micro_f1_mlp", "ch_index"):
        vals = [(i, row[col]) for i, row in enumerate(rows) if row[col] is not None]
        if vals:
            best[col] = max(vals, key=lambda iv: iv[1])[0]
    for i, row in enumerate(rows):
        row["best"] = sorted(col for col, idx in best.items() if idx == i)

    corr = {}
    f1 = [r.micro_f1_mean.get("logreg-ovr") for r in reports]
    ch = [None if r.ch_degenerate else r.ch_index for r in reports]
    usable = [(a, b) for a, b in zip(f1, ch) if a is not None and b is not None]
    if len(usable) >= 2:
        xs = [a for a, _ in usable]
        ys = [b for _, b in usable]
        try:
            corr["pearson_f1_ch"] = pearson(xs, ys)
            corr["spearman_f1_ch"] = spearman(xs, ys)
        except ValueError:
            pass
    return {"dataset": datasets.pop(), "rows": rows, "correlations": corr}


def comparison_to_csv(table: dict) -> str:
    cols = ["method", "seed_model", "aggregation", "micro_f1_logreg", "micro_f1_mlp",
            "ch_index", "best"]
    lines = [",".join(cols)]
    for row in table["rows"]:
        vals = []
        for c in cols:
            v = row[c]
            if isinstance(v, list):
                vals.append(";".join(v))
            elif v is None:
                vals.append("")
            elif isinstance(v, float):
                vals.append(f"{v:.6g}")
            else:
                vals.append(str(v))
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
