"""Command-line entry points for the experiment stages."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import baseline as t2v
from . import pairs as pairmod
from . import seeds as seedmod
from . import siamese
from .evaluation import EvalReport, classifier_specs, evaluate
from .graph import compute_stats, load_triples
from .optim import TrainingDiverged
from .pipeline import (ExperimentConfig, PipelineError, compare_report,
                       comparison_to_csv, run_pipeline)


def _add_graph_arg(p: argparse.ArgumentParser):
    p.add_argument("--graph", nargs="+", required=True, metavar="TSV",
                   help="triple file(s); multiple files are unioned")


def cmd_stats(args) -> int:
    g = load_triples(args.graph)
    stats = compute_stats(g)
    text = stats.to_json()
    if args.json_out:
        Path(args.json_out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_seed_train(args) -> int:
    g = load_triples(args.graph)
    cfg = seedmod.SeedTrainConfig(dim=args.dim, epochs=args.epochs,
                                  learning_rate=args.lr, batch_size=args.batch_size,
                                  negatives_per_positive=args.negatives,
                                  margin=args.margin, rng_seed=args.seed)
    es = seedmod.train_seed(g, args.model, cfg)
    seedmod.export_embeddings(es, g, args.out_entities, args.out_predicates)
    print(f"wrote {args.out_entities} and {args.out_predicates} "
          f"({es.entity_vectors.shape[0]}+{es.predicate_vectors.shape[0]} rows, d={es.dim})")
    return 0


def cmd_seed_import(args) -> int:
    g = load_triples(args.graph)
    es = seedmod.import_embeddings(args.entities, args.predicates, g,
                                   value_kind=args.value_kind, model_tag=args.model)
    if args.checkpoint:
        seedmod.save_checkpoint(es, args.checkpoint)
    print(f"validated embeddings: {es.entity_vectors.shape[0]} entities, "
          f"{es.predicate_vectors.shape[0]} predicates, d={es.dim}")
    return 0


def cmd_sample(args) -> int:
    g = load_triples(args.graph)
    es = seedmod.import_embeddings(args.entities, args.predicates, g,
                                   value_kind=args.value_kind)
    ds = pairmod.build_dataset(g, es, args.n, rng_seed=args.seed)
    pairmod.save_dataset(ds, args.out)
    msg = f"wrote {len(ds)} pairs to {args.out}"
    if ds.negative_deficit_anchors:
        msg += f" ({len(ds.negative_deficit_anchors)} anchors short of negatives)"
    print(msg)
    return 0


def cmd_finetune(args) -> int:
    g = load_triples(args.graph)
    es = seedmod.import_embeddings(args.entities, args.predicates, g,
                                   value_kind=args.value_kind)
    ds = pairmod.load_dataset(args.pairs)
    model = siamese.SiameseModel.initialize(g, es, args.agg, rng_seed=args.seed)
    cfg = siamese.FineTuneConfig(batch_size=args.batch_size, learning_rate=args.lr,
                                 warmup_fraction=args.warmup, epochs=args.epochs,
                                 rng_seed=args.seed)
    history: list[float] = []
    siamese.train(model, ds, cfg, loss_history=history)
    siamese.write_triple_embedding_tsv(siamese.export_triple_embeddings(model), args.out)
    if args.checkpoint:
        siamese.save_checkpoint(model, args.checkpoint, config=cfg)
    print(f"wrote {args.out}; loss {history[0]:.5f} -> {history[-1]:.5f}")
    return 0


def cmd_eval(args) -> int:
    g = load_triples(args.graph)
    matrix = siamese.read_triple_embedding_tsv(args.embeddings)
    tasks = ("classify", "cluster") if args.task == "all" else (args.task,)
    report = evaluate(matrix, g, specs=classifier_specs(args.classifier, args.seed),
                      restrict_multi_predicate=args.restrict_multi_predicate,
                      folds=args.folds, rng_seed=args.seed, tasks=tasks,
                      metadata={"dataset": args.tag, "method": args.method})
    text = report.to_json()
    if args.json_out:
        Path(args.json_out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def cmd_baseline(args) -> int:
    g = load_triples(args.graph)
    result = t2v.train_baseline(g, args.dim, walks_per_node=args.walks,
                                walk_length=args.walk_length, rng_seed=args.seed)
    siamese.write_triple_embedding_tsv(result.vectors, args.out)
    zero = int((~result.vectors.any(axis=1)).sum())
    print(f"wrote {args.out} ({result.vectors.shape[0]} rows, {zero} zero rows: "
          "no positive shifted PMI)")
    return 0


def cmd_compare(args) -> int:
    reports = [EvalReport.load(p) for p in args.reports]
    table = compare_report(reports)
    if args.csv_out:
        Path(args.csv_out).write_text(comparison_to_csv(table), encoding="utf-8")
    print(json.dumps(table, indent=2))
    return 0


def cmd_run_all(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    manifest = run_pipeline(cfg)
    print(json.dumps({"stages": {k: v["wall_seconds"] for k, v in manifest.stages.items()},
                      "output_dir": cfg.output_dir}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripletune")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph topology statistics as JSON")
    _add_graph_arg(p)
    p.add_argument("--json-out")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("seed-train", help="train seed entity/predicate embeddings")
    _add_graph_arg(p)
    p.add_argument("--model", choices=list(seedmod.TRAINABLE_MODELS), default="transe")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-entities", required=True)
    p.add_argument("--out-predicates", required=True)
    p.set_defaults(fn=cmd_seed_train)

    p = sub.add_parser("seed-import", help="validate externally trained embeddings")
    _add_graph_arg(p)
    p.add_argument("--entities", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--value-kind", choices=[seedmod.REAL_KIND, seedmod.COMPLEX_KIND],
                   default=seedmod.REAL_KIND)
    p.add_argument("--model", default="imported")
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_seed_import)

    p = sub.add_parser("sample", help="build the weak-supervision pair dataset")
    _add_graph_arg(p)
    p.add_argument("--entities", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--value-kind", choices=[seedmod.REAL_KIND, seedmod.COMPLEX_KIND],
                   default=seedmod.REAL_KIND)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("finetune", help="Siamese fine-tuning of triple embeddings")
    _add_graph_arg(p)
    p.add_argument("--entities", required=True)
    p.add_argument("--predicates", required=True)
    p.add_argument("--value-kind", choices=[seedmod.REAL_KIND, seedmod.COMPLEX_KIND],
                   default=seedmod.REAL_KIND)
    p.add_argument("--pairs", required=True)
    p.add_argument("--agg", choices=list(siamese.AGG_OPS), default="avg")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--warmup", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="classification / clusterability evaluation")
    _add_graph_arg(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--task", choices=["classify", "cluster", "all"], default="all")
    p.add_argument("--classifier", choices=["logreg", "mlp", "both"], default="both")
    p.add_argument("--restrict-multi-predicate", action="store_true")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", default="dataset")
    p.add_argument("--method", default="finetuned")
    p.add_argument("--json-out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("baseline", help="line-graph random-walk triple embeddings")
    _add_graph_arg(p)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--walks", type=int, default=10)
    p.add_argument("--walk-length", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("compare", help="tabulate evaluation reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--csv-out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("run-all", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
