"""End-to-end experiment driver: stats, then two independent branches, seeds ->
pairs -> fine-tune -> eval and the Triple2vec baseline, run side by side.

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
from . import parallel
from . import seeds as seedmod
from . import siamese
from .evaluation import CLASSIFIERS, EvalReport, evaluate, pearson, spearman
from .graph import KnowledgeGraph, compute_stats, load_triples
from .optim import check_count


class PipelineError(RuntimeError):
    """Stage `stage` failed. The stage and the message are the exception's args,
    so it pickles, and crosses a `fork_map` pipe, with its type and `.stage`."""

    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage = stage

    def __str__(self) -> str:
        return f"stage {self.args[0]!r} failed: {self.args[1]}"


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
        """Run every stage's checks of its section, so that a bad value fails
        before any stage runs, as a PipelineError naming the section."""
        def check(ok, message: str):
            if not ok:
                raise PipelineError("validate", section + message)

        files, sc, section = self.triple_files, self.seed, ""
        check(isinstance(files, list) and files and all(isinstance(f, str) for f in files),
              f"triple_files must be a non-empty list of paths, got {files!r}")
        for f in files:
            check(Path(f).is_file(), f"triple file not found: {f}")
        check(isinstance(self.output_dir, str),
              f"output_dir must be a path, got {self.output_dir!r}")
        check(isinstance(self.dataset_tag, str),
              f"dataset_tag must be a string, got {self.dataset_tag!r}")
        check(sc["mode"] in ("train", "import"), f"unknown seed.mode {sc['mode']!r}")
        check(isinstance(sc["model"], str), f"seed.model must be a string, got {sc['model']!r}")
        for key in ("entity_file", "predicate_file") if sc["mode"] == "import" else ():
            check(key in sc, f"seed.mode=import requires seed.{key}")
            check(isinstance(sc[key], str) and Path(sc[key]).is_file(),
                  f"embedding file not found: {sc[key]}")
        pc, fc, ec, bc = self.pairs, self.finetune, self.eval, self.baseline
        try:   # a value of the wrong type fails a comparison or a config's own check
            check_count("rng_seed", self.rng_seed, 0)
            section = "seed: "
            if sc["mode"] == "train":
                check(sc["model"] in seedmod.TRAINABLE_MODELS, f"cannot train {sc['model']}")
                _config(seedmod.SeedTrainConfig, sc, self.rng_seed)
            seedmod.check_width(sc["model"], seed_width(sc))
            section = "finetune: "
            _config(siamese.FineTuneConfig, fc, self.rng_seed)
            check(fc["aggregation"] in siamese.AGG_OPS,
                  f"unknown aggregation {fc['aggregation']!r}")
            section = "pairs: "
            check_count("n", pc["n"])
            section = "eval: "
            check(ec["classifier"] in CLASSIFIERS, f"unknown classifier {ec['classifier']!r}")
            check_count("folds", ec["folds"], 2)
            restrict, enabled = ec["restrict_multi_predicate"], bc["enabled"]
            check(isinstance(restrict, bool),
                  f"restrict_multi_predicate must be true or false, got {restrict!r}")
            section = "baseline: "
            check(isinstance(enabled, bool), f"enabled must be true or false, got {enabled!r}")
            if enabled:
                for key in ("walks_per_node", "walk_length", "window", "negatives"):
                    # a walk of one triple has no context
                    check_count(key, bc[key], 2 if key == "walk_length" else 1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise PipelineError("validate", f"{section}{exc}") from None


# -- one function per stage, called by the CLI subcommands and by Pipeline; each
# reads only the keys of its config section that it needs

def seed_stage(g: KnowledgeGraph, sc: dict, rng_seed: int) -> seedmod.EmbeddingSet:
    """Train seed embeddings, or import them from the section's `entity_file` and
    `predicate_file`. An import for ComplEx or RotatE must have an even width, as
    `train_seed` requires."""
    if sc["mode"] == "train":
        return seedmod.train_seed(g, sc["model"],
                                  _config(seedmod.SeedTrainConfig, sc, rng_seed))
    es = seedmod.import_embeddings(sc["entity_file"], sc["predicate_file"], g)
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
    return evaluate(matrix, g, classifier=ec["classifier"],
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


# the stages of the fine-tune branch, in order
FINETUNE_BRANCH = ("seed", "sample", "finetune", "eval")


class Pipeline:
    """Runs stats, then the fine-tune branch (seed -> sample -> finetune -> eval)
    and the baseline side by side (`run`). Each fine-tune branch stage method
    returns a function that gives the stage's object (seed embeddings, pair
    dataset, fine-tuned matrix) to the stages that consume it: the object itself
    when the stage ran in this process, or its artifacts read back, once and only
    if asked for, when it was skipped."""

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
        # the baseline is as wide as the fine-tuned matrix
        self.baseline_dim = siamese.aggregated_dim(seed_width(cfg.seed),
                                                   cfg.finetune["aggregation"])

    # -- stage bookkeeping ---------------------------------------------------

    def _key(self, name: str) -> str:
        """Stage `name`'s input key: a hash of everything its artifacts depend on.
        Sample, finetune and eval hash the artifact checksums of the stage before
        them, so their keys exist only once that stage is recorded."""
        cfg = self.cfg
        if name == "stats":
            return _sha256_obj(["stats", self._input_hash])
        if name == "seed":
            sc = cfg.seed   # an import's key holds its files' contents too
            imported = [_sha256_file(Path(sc[f])) for f in ("entity_file", "predicate_file")
                        if sc["mode"] == "import"]
            return _sha256_obj(["seed", self._input_hash, sc, cfg.rng_seed, *imported])
        if name == "baseline":
            return _sha256_obj(["baseline", self._input_hash, cfg.baseline, self.baseline_dim,
                                cfg.eval, cfg.rng_seed])
        upstream, section = {"sample": ("seed", cfg.pairs), "finetune": ("sample", cfg.finetune),
                             "eval": ("finetune", cfg.eval)}[name]
        return _sha256_obj([name, self.manifest.stages[upstream]["artifact_sha256"],
                            section, cfg.rng_seed])

    def _complete(self, name: str, key: str) -> bool:
        """Whether the manifest records stage `name` for `key` and every artifact of
        the record exists; their checksums are not read."""
        rec = self.manifest.stages.get(name)
        return (rec is not None and rec["input_key"] == key
                and all((self.out / a).exists() for a in rec["artifacts"]))

    def _skip(self, name: str, key: str) -> bool:
        """Whether stage `name` is complete for `key`; a complete stage whose
        artifacts no longer match their checksums raises StaleArtifactError."""
        if not self._complete(name, key):
            return False
        rec = self.manifest.stages[name]
        if {a: _sha256_file(self.out / a) for a in rec["artifacts"]} != rec["artifact_sha256"]:
            raise StaleArtifactError(name, "artifact checksum mismatch; refusing stale resume "
                                           f"(delete {self.out} to rebuild)")
        return True

    def _execute(self, name: str, key: str, artifacts: list[str], fn):
        """`fn`'s result and the manifest record of stage `name`, which `fn` runs;
        any other exception than a PipelineError is raised as one naming the stage."""
        t0 = time.monotonic()
        try:
            result = fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc
        elapsed = time.monotonic() - t0
        return result, {
            "input_key": key,
            "artifacts": artifacts,
            "artifact_sha256": {a: _sha256_file(self.out / a) for a in artifacts},
            "wall_seconds": round(elapsed, 4),
        }

    def _record(self, name: str, rec: dict) -> None:
        self.manifest.stages[name] = rec
        self.manifest.config = asdict(self.cfg)
        self.manifest.save(self.manifest_path)

    def _run_stage(self, name: str, artifacts: list[str], fn, load=None):
        """Run `fn` and record the stage unless the manifest shows it complete, and
        return the function that gives its object: `fn`'s result, or else `load`."""
        key = self._key(name)
        if self._skip(name, key):
            return cache(load) if load else None
        result, rec = self._execute(name, key, artifacts, fn)
        self._record(name, rec)
        return lambda: result

    # -- inputs --------------------------------------------------------------

    @cached_property
    def graph(self) -> KnowledgeGraph:
        return load_triples(self.cfg.triple_files)

    @cached_property
    def _input_hash(self) -> str:
        return _sha256_obj([_sha256_file(Path(f)) for f in self.cfg.triple_files])

    # -- stages --------------------------------------------------------------

    def stage_stats(self):
        def run():
            stats = compute_stats(self.graph)
            (self.out / "stats.json").write_text(stats.to_json(), encoding="utf-8")

        self._run_stage("stats", ["stats.json"], run)

    def stage_seed(self):
        files = (self.out / "seed_entities.tsv", self.out / "seed_predicates.tsv")

        def run():
            es = seed_stage(self.graph, self.cfg.seed, self.cfg.rng_seed)
            seedmod.export_embeddings(es, self.graph, *files)
            return es

        return self._run_stage("seed", [f.name for f in files], run,
                               load=lambda: seedmod.import_embeddings(*files, self.graph))

    def stage_sample(self, seed):
        def run():
            ds = sample_stage(self.graph, seed(), self.cfg.pairs, self.cfg.rng_seed)
            pairmod.save_dataset(ds, self.out / "pairs.tsv")
            return ds

        return self._run_stage("sample", ["pairs.tsv"], run,
                               load=lambda: pairmod.load_dataset(self.out / "pairs.tsv"))

    def stage_finetune(self, seed, pairs):
        def run():
            model = finetune_stage(self.graph, seed(), pairs(), self.cfg.finetune,
                                   self.cfg.rng_seed, checkpoint=self.out / "siamese.npz")
            siamese.write_triple_embedding_tsv(model.triple_embeddings,
                                               self.out / "triple_embeddings.tsv")
            return model.triple_embeddings

        return self._run_stage(
            "finetune", ["siamese.npz", "triple_embeddings.tsv"], run,
            load=lambda: siamese.read_triple_embedding_tsv(self.out / "triple_embeddings.tsv"))

    def _evaluate_matrix(self, matrix: np.ndarray, method: str, out_name: str):
        eval_stage(self.graph, matrix, self.cfg.eval, self.cfg.rng_seed, metadata={
            "method": method, "dataset": self.cfg.dataset_tag,
            "seed_model": self.cfg.seed["model"],
            "aggregation": self.cfg.finetune["aggregation"]}).save(self.out / out_name)

    def stage_eval(self, matrix):
        def run():
            self._evaluate_matrix(matrix(), "finetuned", "report_finetuned.json")

        self._run_stage("eval", ["report_finetuned.json"], run)

    def stage_baseline(self) -> dict | None:
        """Train and evaluate the baseline and write its two artifacts. Returns the
        stage's manifest record for the caller to save, or None when the stage is
        complete: it may run in a forked child, which writes no manifest."""
        key = self._key("baseline")
        if self._skip("baseline", key):
            return None

        def run():
            vectors = baseline_stage(self.graph, self.cfg.baseline, self.baseline_dim,
                                     self.cfg.rng_seed)
            siamese.write_triple_embedding_tsv(vectors, self.out / "baseline_embeddings.tsv")
            self._evaluate_matrix(vectors, "triple2vec", "report_baseline.json")

        return self._execute("baseline", key,
                             ["baseline_embeddings.tsv", "report_baseline.json"], run)[1]

    def _finetune_branch(self) -> None:
        seed = self.stage_seed()
        pairs = self.stage_sample(seed)
        matrix = self.stage_finetune(seed, pairs)
        del seed, pairs   # release the seed embeddings and pairs before evaluation
        self.stage_eval(matrix)

    def run(self) -> RunManifest:
        """Stats, then the fine-tune branch in this process and the baseline beside
        it: one `parallel.fork_map` over the two, so the baseline runs in a forked
        child when there is a second worker, and after the fine-tune branch when
        there is not. Nothing forks unless both branches have a stage to run. The
        baseline child is held to its own CPU, so its maps run in its process; the
        fine-tune branch's sampling and evaluation maps run in this process while
        the baseline runs, and those that start after it has exited fork onto its
        CPU. Only this process writes the manifest; it records the baseline last."""
        self.stage_stats()
        if not self.cfg.baseline.get("enabled", True):
            self._finetune_branch()
            return self.manifest
        branches = (self._finetune_branch, self.stage_baseline)
        if (not self._complete("baseline", self._key("baseline"))
                and not all(self._complete(s, self._key(s)) for s in FINETUNE_BRANCH)):
            _, record = parallel.fork_map(lambda j: branches[j](), 2)
        else:
            _, record = [branch() for branch in branches]
        if record is not None:
            self._record("baseline", record)
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
            "ch_index": r.ch_index,
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
