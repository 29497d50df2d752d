"""End-to-end experiment driver: stats -> seeds -> pairs -> fine-tune -> eval -> baseline.

Every stage persists its artifact under the experiment output directory and is
recorded in a manifest with input/output checksums, so re-running an unchanged
configuration skips completed stages and a tampered artifact refuses to resume.
Within one run a stage hands its object to the next in memory; artifacts are
read back only on resume. The CLI subcommands call the same stage functions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field, fields, asdict
from functools import cache, cached_property
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


def _field_defaults(cls) -> dict:
    """The defaults of a training config's fields, all but the run's `rng_seed`."""
    return {f.name: f.default for f in fields(cls) if f.name != "rng_seed"}


def _config(cls, section: dict, rng_seed: int):
    """A training config from the section's values for its fields."""
    return cls(**{k: section[k] for k in _field_defaults(cls)}, rng_seed=rng_seed)


DEFAULTS = {
    "pairs": {"n": 5},
    "finetune": {"aggregation": "avg", **_field_defaults(siamese.FineTuneConfig)},
    "baseline": {"enabled": True, "walks_per_node": 10, "walk_length": 20, "window": 5,
                 "negatives": 5},
    "eval": {"classifier": "both", "restrict_multi_predicate": False, "folds": 5},
    "seed": {"mode": "train", "model": "transe", **_field_defaults(seedmod.SeedTrainConfig)},
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
        """Read a JSON config, merging each section over DEFAULTS and ignoring
        unknown keys; an import without `seed.model` is tagged "imported". A config
        that is not an object, lacks a required key or has a section that is not
        an object raises PipelineError."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise PipelineError("validate", f"{path}: config must be a JSON object")
        for section in DEFAULTS:
            if not isinstance(raw.get(section, {}), dict):
                raise PipelineError("validate", f"config section {section!r} must be a "
                                                f"JSON object, got {json.dumps(raw[section])}")
        sections = {s: {**DEFAULTS[s], **raw.get(s, {})} for s in DEFAULTS}
        if sections["seed"]["mode"] == "import" and "model" not in raw.get("seed", {}):
            sections["seed"]["model"] = "imported"
        try:
            cfg = cls(raw["triple_files"], raw["output_dir"],
                      **{k: raw[k] for k in ("dataset_tag", "rng_seed") if k in raw},
                      **sections)
        except KeyError as exc:
            raise PipelineError("validate", f"config lacks required key {exc}") from None
        cfg.validate()
        return cfg

    def validate(self) -> None:
        def check(ok, message: str):
            if not ok:
                raise PipelineError("validate", message)

        files, sc = self.triple_files, self.seed
        check(isinstance(files, list) and files and all(isinstance(f, str) for f in files),
              f"triple_files must be a non-empty list of paths, got {files!r}")
        for f in files:
            check(Path(f).is_file(), f"triple file not found: {f}")
        check(isinstance(self.output_dir, str),
              f"output_dir must be a path, got {self.output_dir!r}")
        check(sc["mode"] in ("train", "import"), f"unknown seed.mode {sc['mode']!r}")
        for key in ("entity_file", "predicate_file") if sc["mode"] == "import" else ():
            check(key in sc, f"seed.mode=import requires seed.{key}")
            check(isinstance(sc[key], str) and Path(sc[key]).is_file(),
                  f"embedding file not found: {sc[key]}")


# -- one function per stage, called by the CLI subcommands and by Pipeline; each
# reads only the keys of its config section that it needs

def seed_stage(g: KnowledgeGraph, sc: dict, rng_seed: int,
               files: tuple[str | Path, str | Path] | None = None) -> seedmod.EmbeddingSet:
    """Train seed embeddings, or import them from `files` (entities, predicates),
    by default the section's `entity_file` and `predicate_file`. An import for
    ComplEx or RotatE must have an even width, as `train_seed` requires."""
    if sc["mode"] == "train" and files is None:
        return seedmod.train_seed(g, sc["model"],
                                  _config(seedmod.SeedTrainConfig, sc, rng_seed))
    es = seedmod.import_embeddings(*(files or (sc["entity_file"], sc["predicate_file"])), g)
    seedmod.check_width(sc["model"], es.dim)
    return es


def seed_width(sc: dict) -> int:
    """`dim` when training, else the number of values on the entity file's first row."""
    if sc["mode"] == "train":
        return sc["dim"]
    with Path(sc["entity_file"]).open(encoding="utf-8", errors="replace") as fh:
        return next((line for line in fh if line.strip()), "").count("\t")


def sample_stage(g: KnowledgeGraph, es: seedmod.EmbeddingSet, pc: dict,
                 rng_seed: int) -> pairmod.PtssDataset:
    return pairmod.build_dataset(g, es, pc["n"], rng_seed=rng_seed)


def finetune_stage(g: KnowledgeGraph, es: seedmod.EmbeddingSet, ds: pairmod.PtssDataset,
                   fc: dict, rng_seed: int, checkpoint: str | Path | None = None,
                   loss_history: list[float] | None = None) -> siamese.SiameseModel:
    """The fine-tuned model, saved with its training config to `checkpoint` if given."""
    cfg = _config(siamese.FineTuneConfig, fc, rng_seed)
    model = siamese.SiameseModel.initialize(g, es, fc["aggregation"], rng_seed=rng_seed)
    siamese.train(model, ds, cfg, loss_history=loss_history)
    if checkpoint:
        siamese.save_checkpoint(model, checkpoint, config=cfg)
    return model


def eval_stage(g: KnowledgeGraph, matrix: np.ndarray, ec: dict, rng_seed: int,
               metadata: dict, tasks: tuple[str, ...] = ("classify", "cluster")
               ) -> EvalReport:
    return evaluate(matrix, g, specs=classifier_specs(ec["classifier"], rng_seed),
                    restrict_multi_predicate=ec["restrict_multi_predicate"],
                    folds=ec["folds"], rng_seed=rng_seed, tasks=tasks, metadata=metadata)


def baseline_stage(g: KnowledgeGraph, bc: dict, dim: int, rng_seed: int) -> np.ndarray:
    return t2v.train_baseline(g, dim, walks_per_node=bc["walks_per_node"],
                              walk_length=bc["walk_length"], rng_seed=rng_seed,
                              window=bc["window"], negatives=bc["negatives"]).vectors


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
    """Runs the stages in order. Each stage method returns a function that gives
    the stage's object (seed embeddings, pair dataset, fine-tuned matrix) to the
    stages that consume it: the object itself when the stage ran in this process,
    or its artifacts read back, once and only if asked for, when it was skipped."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.out = Path(cfg.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        if self.manifest_path.exists():
            self.manifest = RunManifest.load(self.manifest_path)
        else:
            self.manifest = RunManifest(config=asdict(cfg))
        self.seed_dim = seed_width(cfg.seed)

    # -- stage bookkeeping ---------------------------------------------------

    def _run_stage(self, name: str, input_key: str, artifacts: list[str], fn, load=None):
        """Run `fn` unless the manifest shows the stage complete for `input_key`, and
        return the function that gives its object: `fn`'s result, or else `load`."""
        rec = self.manifest.stages.get(name)
        paths = [self.out / a for a in artifacts]
        if rec is not None and rec["input_key"] == input_key:
            if all(p.exists() for p in paths):
                actual = {a: _sha256_file(p) for a, p in zip(artifacts, paths)}
                if actual != rec["artifact_sha256"]:
                    raise StaleArtifactError(
                        name, "artifact checksum mismatch; refusing stale resume "
                              f"(delete {self.out} to rebuild)")
                return cache(load) if load else None  # stage complete, skip
        t0 = time.monotonic()
        try:
            result = fn()
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
        self.manifest.config = asdict(self.cfg)
        self.manifest.save(self.manifest_path)
        return lambda: result

    def _key(self, name: str, upstream: str, section: dict) -> str:
        return _sha256_obj([name, self.manifest.stages[upstream]["artifact_sha256"],
                            section, self.cfg.rng_seed])

    # -- inputs --------------------------------------------------------------

    @cached_property
    def graph(self) -> KnowledgeGraph:
        return load_triples(self.cfg.triple_files)

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
        sc = self.cfg.seed   # an import's key holds its files' contents too
        imported = [_sha256_file(Path(sc[f])) for f in ("entity_file", "predicate_file")
                    if sc["mode"] == "import"]
        key = _sha256_obj(["seed", self._input_hash(), sc, self.cfg.rng_seed, *imported])
        files = (self.out / "seed_entities.tsv", self.out / "seed_predicates.tsv")

        def run():
            es = seed_stage(self.graph, self.cfg.seed, self.cfg.rng_seed)
            seedmod.export_embeddings(es, self.graph, *files)
            return es

        return self._run_stage("seed", key, [f.name for f in files], run, load=lambda:
                               seed_stage(self.graph, self.cfg.seed, self.cfg.rng_seed, files))

    def stage_sample(self, seed):
        def run():
            ds = sample_stage(self.graph, seed(), self.cfg.pairs, self.cfg.rng_seed)
            pairmod.save_dataset(ds, self.out / "pairs.tsv")
            return ds

        return self._run_stage("sample", self._key("sample", "seed", self.cfg.pairs),
                               ["pairs.tsv"], run,
                               load=lambda: pairmod.load_dataset(self.out / "pairs.tsv"))

    def stage_finetune(self, seed, pairs):
        def run():
            model = finetune_stage(self.graph, seed(), pairs(), self.cfg.finetune,
                                   self.cfg.rng_seed, checkpoint=self.out / "siamese.npz")
            siamese.write_triple_embedding_tsv(model.triple_embeddings,
                                               self.out / "triple_embeddings.tsv")
            return model.triple_embeddings

        return self._run_stage(
            "finetune", self._key("finetune", "sample", self.cfg.finetune),
            ["siamese.npz", "triple_embeddings.tsv"], run,
            load=lambda: siamese.read_triple_embedding_tsv(self.out / "triple_embeddings.tsv"))

    def _evaluate_matrix(self, matrix: np.ndarray, method: str, out_name: str):
        eval_stage(self.graph, matrix, self.cfg.eval, self.cfg.rng_seed, metadata={
            "method": method, "dataset": self.cfg.dataset_tag,
            "seed_model": self.cfg.seed["model"],
            "aggregation": self.cfg.finetune["aggregation"]}).save(self.out / out_name)

    def stage_eval(self, matrix):
        def run():
            self._evaluate_matrix(matrix(), "finetuned", "report_finetuned.json")

        self._run_stage("eval", self._key("eval", "finetune", self.cfg.eval),
                        ["report_finetuned.json"], run)

    def stage_baseline(self):
        dim = siamese.aggregated_dim(self.seed_dim, self.cfg.finetune["aggregation"])
        key = _sha256_obj(["baseline", self._input_hash(), self.cfg.baseline, dim,
                           self.cfg.eval, self.cfg.rng_seed])

        def run():
            vectors = baseline_stage(self.graph, self.cfg.baseline, dim, self.cfg.rng_seed)
            siamese.write_triple_embedding_tsv(vectors, self.out / "baseline_embeddings.tsv")
            self._evaluate_matrix(vectors, "triple2vec", "report_baseline.json")

        self._run_stage("baseline", key,
                        ["baseline_embeddings.tsv", "report_baseline.json"], run)

    def run(self) -> RunManifest:
        self.stage_stats()
        seed = self.stage_seed()
        pairs = self.stage_sample(seed)
        matrix = self.stage_finetune(seed, pairs)
        del seed, pairs   # release the seed embeddings and pairs before evaluation
        self.stage_eval(matrix)
        del matrix
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
    usable = [(row["micro_f1_logreg"], row["ch_index"]) for row in rows
              if row["micro_f1_logreg"] is not None and row["ch_index"] is not None]
    if len(usable) >= 2:
        xs, ys = zip(*usable)
        try:
            corr["pearson_f1_ch"] = pearson(xs, ys)
            corr["spearman_f1_ch"] = spearman(xs, ys)
        except ValueError:
            pass
    return {"dataset": datasets.pop(), "rows": rows, "correlations": corr}


def comparison_to_csv(table: dict) -> str:
    """The table's rows as CSV; a field holding a comma, a quote or a newline is quoted."""
    cols = ["method", "seed_model", "aggregation", "micro_f1_logreg", "micro_f1_mlp",
            "ch_index", "best"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")   # writes None as an empty field
    writer.writerow(cols)
    writer.writerows([";".join(v) if isinstance(v, list) else f"{v:.6g}" if isinstance(v, float)
                      else v for v in map(row.get, cols)] for row in table["rows"])
    return out.getvalue()
