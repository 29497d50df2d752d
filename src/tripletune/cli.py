"""Command-line entry points for the experiment stages.

Each subcommand calls the stage function that `run-all` calls. An option that
sets a config key stores its value under that key, with the key's default from
`pipeline.DEFAULTS`, so the parsed arguments serve as the stage's config section.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pairs as pairmod
from . import seeds as seedmod
from . import siamese
from .evaluation import CLASSIFIERS, EvalReport
from .graph import compute_stats, load_triples
from .optim import TrainingDiverged
from .pipeline import (DEFAULTS, ExperimentConfig, PipelineError, baseline_stage,
                       compare_report, comparison_to_csv, eval_stage, finetune_stage,
                       run_pipeline, sample_stage, seed_stage)

CHOICES = {"model": seedmod.TRAINABLE_MODELS, "aggregation": siamese.AGG_OPS,
           "classifier": tuple(CLASSIFIERS)}


def _options(p: argparse.ArgumentParser, section: str, **flags: str):
    """For each `key="--flag"`, an option that stores config key `section.key`
    with the type and default of DEFAULTS[section][key]."""
    for key, flag in flags.items():
        default = DEFAULTS[section][key]
        if isinstance(default, bool):
            p.add_argument(flag, dest=key, action="store_true")
        else:
            p.add_argument(flag, dest=key, type=type(default), default=default,
                           choices=CHOICES.get(key))


def _add_seed_files(p: argparse.ArgumentParser):
    """Seed embeddings imported from TSV files, as `seed.mode: import` reads them."""
    p.add_argument("--entities", dest="entity_file", required=True)
    p.add_argument("--predicates", dest="predicate_file", required=True)
    p.set_defaults(mode="import", model="imported")


def _done(text: str, path: str | None = None) -> int:
    """Print `text`, first writing it to `path` if one is given; exit status 0."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_stats(args, g) -> int:
    return _done(compute_stats(g).to_json(), args.json_out)


def cmd_seed_train(args, g) -> int:
    es = seed_stage(g, vars(args), args.seed)
    seedmod.export_embeddings(es, g, args.out_entities, args.out_predicates)
    return _done(f"wrote {args.out_entities} and {args.out_predicates} "
                 f"({len(es.entity_vectors)}+{len(es.predicate_vectors)} rows, d={es.dim})")


def cmd_seed_import(args, g) -> int:
    es = seed_stage(g, vars(args), 0)
    return _done(f"validated embeddings: {len(es.entity_vectors)} entities, "
                 f"{len(es.predicate_vectors)} predicates, d={es.dim}")


def cmd_sample(args, g) -> int:
    ds = sample_stage(g, seed_stage(g, vars(args), args.seed), vars(args), args.seed)
    pairmod.save_dataset(ds, args.out)
    short = len(ds.negative_deficit_anchors)
    return _done(f"wrote {len(ds)} pairs to {args.out}"
                 + (f" ({short} anchors short of negatives)" if short else ""))


def cmd_finetune(args, g) -> int:
    history: list[float] = []
    model = finetune_stage(g, seed_stage(g, vars(args), args.seed),
                           pairmod.load_dataset(args.pairs), vars(args), args.seed,
                           checkpoint=args.checkpoint, loss_history=history)
    siamese.write_triple_embedding_tsv(model.triple_embeddings, args.out)
    return _done(f"wrote {args.out}; loss {history[0]:.5f} -> {history[-1]:.5f}")


def cmd_eval(args, g) -> int:
    matrix = siamese.read_triple_embedding_tsv(args.embeddings)
    tasks = ("classify", "cluster") if args.task == "all" else (args.task,)
    report = eval_stage(g, matrix, vars(args), args.seed,
                        metadata={"dataset": args.tag, "method": args.method}, tasks=tasks)
    return _done(report.to_json(), args.json_out)


def cmd_baseline(args, g) -> int:
    vectors = baseline_stage(g, vars(args), args.dim, args.seed)
    siamese.write_triple_embedding_tsv(vectors, args.out)
    return _done(f"wrote {args.out} ({len(vectors)} rows, {int((~vectors.any(axis=1)).sum())} "
                 "zero rows: no positive shifted PMI)")


def cmd_compare(args) -> int:
    table = compare_report([EvalReport.load(p) for p in args.reports])
    if args.csv_out:
        Path(args.csv_out).write_text(comparison_to_csv(table), encoding="utf-8")
    return _done(json.dumps(table, indent=2))


def cmd_run_all(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    manifest = run_pipeline(cfg)
    stages = {k: v["wall_seconds"] for k, v in manifest.stages.items()}
    return _done(json.dumps({"stages": stages, "output_dir": cfg.output_dir}, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripletune")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, graph: bool = True, seed: bool = False,
                **defaults):
        """A subcommand; with `graph` its handler gets the loaded graph as well."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=(lambda args: fn(args, load_triples(args.graph))) if graph else fn,
                       **defaults)
        if graph:
            p.add_argument("--graph", nargs="+", required=True, metavar="TSV",
                           help="triple file(s); multiple files are unioned")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    p = command("stats", cmd_stats, "graph topology statistics as JSON")
    p.add_argument("--json-out")

    p = command("seed-train", cmd_seed_train, "train seed entity/predicate embeddings",
                seed=True, mode="train")
    _options(p, "seed", model="--model", dim="--dim", epochs="--epochs",
             learning_rate="--lr", batch_size="--batch-size", negatives="--negatives",
             margin="--margin")
    p.add_argument("--out-entities", required=True)
    p.add_argument("--out-predicates", required=True)

    p = command("seed-import", cmd_seed_import, "validate externally trained embeddings")
    _add_seed_files(p)
    p.add_argument("--model")   # defaults to "imported", as set by _add_seed_files

    p = command("sample", cmd_sample, "build the weak-supervision pair dataset", seed=True)
    _add_seed_files(p)
    _options(p, "pairs", n="--n")
    p.add_argument("--out", required=True)

    p = command("finetune", cmd_finetune, "Siamese fine-tuning of triple embeddings",
                seed=True)
    _add_seed_files(p)
    p.add_argument("--pairs", required=True)
    _options(p, "finetune", aggregation="--agg", epochs="--epochs", learning_rate="--lr",
             batch_size="--batch-size", warmup_fraction="--warmup")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")

    p = command("eval", cmd_eval, "classification / clusterability evaluation", seed=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--task", choices=["classify", "cluster", "all"], default="all")
    _options(p, "eval", classifier="--classifier",
             restrict_multi_predicate="--restrict-multi-predicate", folds="--folds")
    p.add_argument("--tag", default="dataset")
    p.add_argument("--method", default="finetuned")
    p.add_argument("--json-out")

    p = command("baseline", cmd_baseline, "line-graph random-walk triple embeddings",
                seed=True, window=DEFAULTS["baseline"]["window"],
                negatives=DEFAULTS["baseline"]["negatives"])
    _options(p, "seed", dim="--dim")
    _options(p, "baseline", walks_per_node="--walks", walk_length="--walk-length")
    p.add_argument("--out", required=True)

    p = command("compare", cmd_compare, "tabulate evaluation reports", graph=False)
    p.add_argument("reports", nargs="+")
    p.add_argument("--csv-out")

    p = command("run-all", cmd_run_all, "run the full pipeline from a config file",
                graph=False)
    p.add_argument("--config", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PipelineError, TrainingDiverged, ValueError, OSError) as exc:
        diverged = "training diverged: " if isinstance(exc, TrainingDiverged) else ""
        print(f"error: {diverged}{exc}", file=sys.stderr)
        return 2 if isinstance(exc, PipelineError) else 1


if __name__ == "__main__":
    sys.exit(main())
