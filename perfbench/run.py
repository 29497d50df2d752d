"""Benchmark of `tripletune run-all` on seeded synthetic graphs.

    python3 perfbench/run.py --workload wn-sparse-ft --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root. A run covers GRAPHS_PER_RUN graphs of the
workload, generated from (`--seed`, graph index). Each iteration starts a fresh
worker process (`worker.py`) with a fresh output directory: it generates one of
the graphs, writes it as TSV (`setup_s`), calls
`tripletune.pipeline.run_pipeline` once (`run_s`), checks the outputs and
reports its peak RSS. `setup_s` and `run_s` are wall times divided by the
core's slowdown, which a probe interleaved with the work measures
(`speed.py`); the wall times and slowdowns are printed beside them.
Iterations run one after another (a closed loop with one client), cycling
through the graphs, until every graph has run and `--seconds` is used up.
Timings are medians over iterations; quality metrics are means over the
graphs, so they repeat exactly for a fixed seed.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs each graph untraced
and then traced, and prints the per-layer metrics: layer timings and counts
from the traced iterations, manifest stage times from the untraced ones, and
the tracing overhead as the difference of their median `run_s`. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--tiny` shrinks every workload for the smoke test (`test_smoke.py`).

The command exits non-zero if a stage raises, an output check fails, two
iterations on one graph disagree on quality metrics or counts, or two graphs
of the run are the same.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import CHECKS, END_TO_END, REPORTED_ONLY, STAGES, layer_unit, moves
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 165.0     # the whole command must end within 180 s
GRAPHS_PER_RUN = 4
# counts that two runs of one seed must reproduce exactly
DETERMINISTIC_COUNTS = ("pairs.pairs", "siamese.steps", "baseline.line_graph_edges",
                        "baseline.walk_tokens", "evaluation.kmeans_iters")


def worker_env(root: Path, tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    # one BLAS thread: the speed probe samples the main thread's core, and a
    # second thread would only contend with other work on a 2-core host
    threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args, index: int, graph: int, traced: bool, base: Path, env: dict,
               timeout: float) -> tuple[dict | None, str]:
    workdir = base / f"iter{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--graph", str(graph), "--workdir", str(workdir)]
    if traced:
        trace_file = base.parent / f"{args.workload}-seed{args.seed}.trace.jsonl"
        cmd += ["--trace", "--trace-file", str(trace_file)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, f"iteration {index} timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"iteration {index} exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(lines[-1]), ""


def median(values) -> float:
    return float(statistics.median(values))


def mean_quality(results: list[dict]) -> dict[str, float]:
    """Mean over graphs; repeats of one graph agree exactly (checked separately)."""
    per_graph = {r["graph"]: r["quality"] for r in results if r["quality"]}
    keys = set.intersection(*(set(q) for q in per_graph.values())) if per_graph else set()
    return {k: statistics.fmean(q[k] for q in per_graph.values()) for k in sorted(keys)}


def summarize_e2e(results: list[dict]) -> dict[str, float]:
    m = {"setup_s": median(r["setup_s"] for r in results),
         "run_s": median(r["run_s"] for r in results),
         "run_wall_s": median(r["wall_s"] for r in results),
         "slowdown": median(r["slowdown"] for r in results),
         "peak_rss_mb": median(r["peak_rss_mb"] for r in results)}
    m.update(mean_quality(results))
    return m


def summarize_layers(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    m = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = median(r["stage_s"].get(stage, 0.0) for r in untraced)
    m["pipeline.overhead_s"] = median(r["overhead_s"] for r in untraced)
    m["pipeline.artifact_bytes"] = median(r["artifact_bytes"] for r in untraced)
    quality = mean_quality(untraced)
    for key in ("f1_logreg", "f1_mlp", "ch"):
        m[f"baseline.{key}"] = quality.get(f"bl_{key}", 0.0)
    m["trace.run_s"] = median(r["run_s"] for r in traced)
    m["trace.slowdown"] = median(r["slowdown"] for r in traced)
    m["trace.overhead_s"] = m["trace.run_s"] - median(r["run_s"] for r in untraced)
    return m


def determinism_errors(results: list[dict]) -> list[str]:
    """Iterations on one graph must agree exactly; different graphs must differ."""
    errors = []
    first: dict[int, dict] = {}
    first_traced: dict[int, dict] = {}
    for r in results:
        f = first.setdefault(r["graph"], r)
        for key in ("graph_sha256", "n_pairs", "quality"):
            if r[key] != f[key]:
                errors.append(f"graph {r['graph']}: {key} differs between iterations")
        if "layers" in r:
            ft = first_traced.setdefault(r["graph"], r)
            for key in DETERMINISTIC_COUNTS:
                if r["layers"][key] != ft["layers"][key]:
                    errors.append(f"graph {r['graph']}: {key} differs between iterations")
    if len({r["graph_sha256"] for r in first.values()}) < len(first):
        errors.append("two graph indices generated the same graph")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny graphs, for the smoke test")
    args = ap.parse_args()

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "tripletune" / "pipeline.py").is_file():
        print(f"error: run from the repository root; {root / 'src' / 'tripletune'} "
              "not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                                 str(args.trace), *(["--tiny"] if args.tiny else [])]).returncode
                 for w in WORKLOADS]
        return max(codes)
    base = root / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    (base / "tmp").mkdir(parents=True)
    env = worker_env(root, base / "tmp")

    results: list[dict] = []
    durations: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    stages_per_iteration = len(WORKLOADS[args.workload].stages)
    # trace 0 runs every graph at least once; trace 1 runs graph 0 untraced and traced
    min_iterations = 2 if args.trace else GRAPHS_PER_RUN
    index = 0
    try:
        while True:
            t0 = time.perf_counter()
            remaining = TIME_LIMIT_S - (t0 - started)
            if args.trace:
                graph, traced = (index // 2) % GRAPHS_PER_RUN, index % 2 == 1
            else:
                graph, traced = index % GRAPHS_PER_RUN, False
            result, error = run_worker(args, index, graph, traced, base, env, remaining)
            durations.append(time.perf_counter() - t0)
            index += 1
            attempted += stages_per_iteration + len(CHECKS)
            if result is None:
                failed += stages_per_iteration + len(CHECKS)
                errors.append(error)
                break
            results.append(result)
            failed += result["stages_failed"]
            if result["error"]:
                errors.append(result["error"])
            for name in CHECKS:
                if result["checks"][name]:
                    failed += 1
                    errors.append(f"check {name}: {result['checks'][name]}")
            elapsed = time.perf_counter() - started
            if elapsed + 2 * max(durations) > TIME_LIMIT_S:
                break
            # with tracing, iterations come in (untraced, traced) pairs on one graph
            step = 2 if args.trace else 1
            if index >= min_iterations and index % step == 0 \
                    and elapsed + step * median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if len(results) >= 2:
        attempted += 1
        det = determinism_errors(results)
        if det:
            failed += 1
            errors.extend(det)

    untraced = [r for r in results if "layers" not in r]
    traced = [r for r in results if "layers" in r]
    correct = failed == 0 and bool(untraced) and (args.trace == 0 or bool(traced))
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced iterations on {len({r['graph'] for r in results})} graphs, "
          "closed loop, one client")
    for e in errors:
        print(f"  FAILED {e}")
    print("  run_s per iteration (wall_s/slowdown): " + " ".join(
        f"{r['run_s']:.3f}{'T' if 'layers' in r else ''}"
        f"({r['wall_s']:.3f}/{r['slowdown']:.3f})" for r in results))

    metrics: dict[str, dict] = {}
    if untraced:
        e2e = summarize_e2e(untraced)
        e2e["failed_frac"] = failed / attempted
        for name in (*END_TO_END, *REPORTED_ONLY):
            if name in e2e:
                unit = END_TO_END.get(name) or REPORTED_ONLY[name]
                print(f"  {name:<16} {e2e[name]:>14.6g} {unit}")
        if args.trace == 0:
            metrics = {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}
    if args.trace == 1 and untraced and traced:
        layers = summarize_layers(traced, untraced)
        print(f"  per layer, median of {len(traced)} traced iterations "
              "(-> end-to-end metric it should move @ workloads):")
        for name, value in layers.items():
            targets, workloads = moves(name)
            print(f"  {name:<30} {value:>14.6g} {layer_unit(name):<8} -> "
                  f"{','.join(targets) or '-'} @ {','.join(workloads) or '-'}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
