"""Smoke and determinism tests for the benchmark, on tiny graphs.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_smoke.py

Run from the repository root. Every workload must emit each metric that
BENCHMARK.json names, with its unit, and pass its output checks; two runs of one
seed must agree exactly, and another seed must give another graph.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, EVERY, moves  # noqa: E402
from run import DETERMINISTIC_COUNTS, worker_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture
def workspace():
    """A fresh directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_spec_matches_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert set(EVERY) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    for m in SPEC["per_layer"]:
        moves(m["name"])   # every layer metric says what it should move


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)


def _traced_iteration(workload: str, seed: int, workspace: Path) -> dict:
    workdir = workspace / f"{workload}-{seed}-{len(list(workspace.iterdir()))}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--workdir", str(workdir), "--trace", "--tiny"],
        env=worker_env(ROOT, workspace), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_and_other_seed_differs(workload, workspace):
    a = _traced_iteration(workload, 5, workspace)
    b = _traced_iteration(workload, 5, workspace)
    c = _traced_iteration(workload, 6, workspace)
    assert a["graph_sha256"] == b["graph_sha256"]
    assert a["quality"] == b["quality"]
    for key in DETERMINISTIC_COUNTS:
        assert a["layers"][key] == b["layers"][key], key
    assert c["graph_sha256"] != a["graph_sha256"]


def test_fails_without_the_program(workspace):
    """A directory holding only BENCHMARK.json and the benchmark must not pass."""
    shutil.copytree(HERE, workspace / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", workspace)
    proc = bench("--workload", "wn-sparse-ft", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=workspace)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
