"""One workload iteration in a fresh process; prints one JSON object on stdout.

Generates graph `--graph` of the workload's run for `--seed` into `--workdir`,
runs `run_pipeline` on it once (optionally traced), checks the outputs, runs the
pipeline a second time to check that every stage is skipped, and reports
timings, peak RSS, quality and check results. `run.py` starts one of these per
iteration.

A `speed.SpeedProbe` samples the core's speed between the set-up repeats and
during the `run_pipeline` call; `setup_s` and `run_s` are given at the probe's
reference speed, and `wall_s` and `slowdown` as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from tripletune.pipeline import (ExperimentConfig, PipelineError, StaleArtifactError,
                                 run_pipeline)

import tracer as tracing
from metrics import CHECKS
from speed import SpeedProbe
from workloads import WORKLOADS, write_graph_tsv

PROVENANCES = {"shared-head", "shared-tail", "shared-predicate", "negative"}
SETUP_REPEATS = 15


def _check_embeddings(path: Path, n_triples: int) -> str:
    m = np.loadtxt(path, delimiter="\t", ndmin=2)
    if m.shape[0] != n_triples:
        return f"{path.name}: {m.shape[0]} rows for {n_triples} triples"
    if not np.array_equal(m[:, 0], np.arange(n_triples)):
        return f"{path.name}: row ids are not 0..{n_triples - 1} in order"
    if not np.all(np.isfinite(m[:, 1:])):
        return f"{path.name}: non-finite value"
    return ""


def _read_pairs(path: Path) -> tuple[np.ndarray, np.ndarray, set[str]]:
    ids, scores, provenances = [], [], set()
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            a, b, score, provenance = line.rstrip("\n").split("\t")
            ids.append((int(a), int(b)))
            scores.append(float(score))
            provenances.add(provenance)
    return np.array(ids, dtype=np.int64).reshape(-1, 2), np.array(scores), provenances


def _check_pairs(ids: np.ndarray, provenances: set[str], n_triples: int, n: int) -> str:
    if len(ids) == 0:
        return "no pairs"
    if provenances - PROVENANCES:
        return f"unknown provenance {sorted(provenances - PROVENANCES)}"
    if ids.min() < 0 or ids.max() >= n_triples:
        return "pair id out of range"
    if np.any(ids[:, 0] == ids[:, 1]):
        return "self-pair"
    if np.bincount(ids[:, 0], minlength=n_triples).max() > 4 * n:
        return f"an anchor has more than 4N = {4 * n} pairs"
    return ""


def _check_scores(scores: np.ndarray) -> str:
    if not np.all(np.isfinite(scores)) or scores.min() < -1.0 or scores.max() > 1.0:
        return "pair score outside [-1, 1]"
    return ""


def _read_report(path: Path) -> tuple[dict[str, float], str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    f1 = report["micro_f1_mean"]
    quality = {"f1_logreg": f1.get("logreg-ovr"), "f1_mlp": f1.get("mlp"),
               "ch": report.get("ch_index")}
    for key, value in quality.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return quality, f"{path.name}: {key} missing or not finite"
    if not (0.0 <= quality["f1_logreg"] <= 1.0 and 0.0 <= quality["f1_mlp"] <= 1.0):
        return quality, f"{path.name}: micro-F1 outside [0, 1]"
    return quality, ""


def _snapshot(out: Path) -> dict[str, int | str]:
    state = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
    state["manifest.json"] = (out / "manifest.json").read_text(encoding="utf-8")
    return state


def _check_rerun(config_path: Path, out: Path) -> str:
    before = _snapshot(out)
    try:
        run_pipeline(ExperimentConfig.from_file(config_path))
    except StaleArtifactError as exc:
        return f"second run refused to resume: {exc}"
    if _snapshot(out) != before:
        return "second run re-ran a stage"
    return ""


def run_iteration(workload: str, seed: int, graph: int, workdir: Path, trace: bool,
                  tiny: bool, trace_file: Path | None) -> dict:
    wl = WORKLOADS[workload].scaled(tiny)
    workdir.mkdir(parents=True)
    tsv = workdir / "graph.tsv"
    # set-up takes milliseconds, so it is repeated and the median reported;
    # a probe sample before each repeat measures the core's speed meanwhile
    setup = []
    setup_probe = SpeedProbe()
    for _ in range(SETUP_REPEATS):
        setup_probe.sample()
        t0 = time.perf_counter()
        n_triples, graph_sha = write_graph_tsv(wl.graph, [seed, graph], tsv)
        setup.append(time.perf_counter() - t0)

    out = workdir / "run"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({
        "triple_files": [str(tsv)], "output_dir": str(out), "dataset_tag": wl.name,
        "rng_seed": 0, **wl.config}), encoding="utf-8")
    cfg = ExperimentConfig.from_file(config_path)
    stages = wl.stages

    tracer = tracing.Tracer().install() if trace else None
    error, stages_failed = "", 0
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        try:
            run_pipeline(cfg)
        except PipelineError as exc:
            error = str(exc)
            stages_failed = len(stages) - stages.index(exc.stage) if exc.stage in stages \
                else len(stages)
        t1 = time.perf_counter()
    run_wall = t1 - t0
    if tracer is not None:
        tracer.uninstall()

    checks: dict[str, str] = {}
    quality: dict[str, float] = {}
    n_pairs = 0
    if not error:
        embeddings = ["triple_embeddings.tsv"] + (
            ["baseline_embeddings.tsv"] if "baseline" in stages else [])
        checks["embeddings"] = "; ".join(
            filter(None, (_check_embeddings(out / e, n_triples) for e in embeddings)))
        ids, scores, provenances = _read_pairs(out / "pairs.tsv")
        n_pairs = len(ids)
        checks["pairs"] = _check_pairs(ids, provenances, n_triples, cfg.pairs["n"])
        checks["scores"] = _check_scores(scores)
        report_errors = []
        for prefix, name in (("ft", "report_finetuned.json"), ("bl", "report_baseline.json")):
            if prefix == "bl" and "baseline" not in stages:
                continue
            values, err = _read_report(out / name)
            quality.update({f"{prefix}_{k}": v for k, v in values.items()})
            report_errors.append(err)
        checks["reports"] = "; ".join(filter(None, report_errors))
        checks["rerun"] = _check_rerun(config_path, out)
    else:
        checks = dict.fromkeys(CHECKS, "not run: " + error)

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8")) \
        if (out / "manifest.json").exists() else {"stages": {}}
    stage_s = {s: rec["wall_seconds"] for s, rec in manifest["stages"].items()}
    artifact_bytes = sum((out / a).stat().st_size
                         for rec in manifest["stages"].values() for a in rec["artifacts"])

    result = {
        "setup_s": statistics.median(setup) / setup_probe.slowdown,
        "run_s": probe.normalize(t0, t1),
        "wall_s": run_wall - probe.probe_s,
        "slowdown": probe.slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "graph": graph,
        "graph_sha256": graph_sha,
        "n_pairs": n_pairs,
        "stages_failed": stages_failed,
        "error": error,
        "checks": checks,
        "quality": quality,
        "stage_s": stage_s,
        # stage times and spans include the probe's samples, so they are
        # compared with the wall time as measured
        "overhead_s": run_wall - sum(stage_s.values()),
        "artifact_bytes": artifact_bytes,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, run_wall)
        if trace_file is not None:
            tracer.write_jsonl(trace_file)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--graph", type=int, default=0, help="graph index within the run")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args()
    result = run_iteration(args.workload, args.seed, args.graph, args.workdir, args.trace,
                           args.tiny, args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
