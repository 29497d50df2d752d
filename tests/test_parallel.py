import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from tripletune import parallel
from tripletune.evaluation import (LogisticOvR, MlpClassifier, kfold_split, kmeans,
                                   train_classify)
from tripletune.graph import KnowledgeGraph
from tripletune.pairs import build_dataset
from tripletune.parallel import RemoteTraceback, fork_map
from tripletune.seeds import EmbeddingSet
from conftest import random_named_triples

# The tests set the worker count by hand, so they fork also where BLAS has idle
# threads, which Python 3.12+ warns about; the jobs forked here do not wait on them.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")


@pytest.fixture
def set_workers(monkeypatch):
    def set_to(w):
        monkeypatch.setattr(parallel, "workers", lambda: w)
    return set_to


@pytest.mark.parametrize("n_jobs", [0, 1, 2, 5, 7])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_results_in_job_order_with_job_j_on_worker_j_mod_w(set_workers, w, n_jobs):
    set_workers(w)
    got = fork_map(lambda j: (j, j * j, os.getpid()), n_jobs)
    assert [r[:2] for r in got] == [(j, j * j) for j in range(n_jobs)]
    pids = [r[2] for r in got]
    used = min(w, n_jobs)   # n_jobs < W forks only n_jobs - 1 children
    assert len(set(pids)) == used
    assert all(pids[j] == pids[j % used] for j in range(n_jobs))
    assert pids[:1] in ([], [os.getpid()])


def test_child_exception_comes_back_with_its_type_and_message(set_workers):
    set_workers(3)

    def job(j):
        if j == 4:
            raise ValueError(f"bad job {j}")
        return j

    with pytest.raises(ValueError, match="^bad job 4$") as info:
        fork_map(job, 6)
    assert isinstance(info.value.__cause__, RemoteTraceback)
    assert "bad job 4" in str(info.value.__cause__)


def test_exception_that_does_not_unpickle_comes_back_by_name(set_workers):
    set_workers(2)

    class NeedsTwo(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}/{b}")

    def job(j):
        if j == 1:
            raise NeedsTwo(1, 2)
        return j

    with pytest.raises(ChildProcessError, match="NeedsTwo: 1/2"):
        fork_map(job, 2)


def _gone(pid):
    try:
        os.kill(pid, 0)   # succeeds for a running child and for an unreaped zombie
    except ProcessLookupError:
        return True
    return False


def test_parent_exception_kills_and_reaps_the_children(set_workers, tmp_path):
    set_workers(3)

    def job(j):
        if j == 0:   # the parent's share: fail once both children are running
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("the parent's own job failed")
        (tmp_path / f"child{j}").write_text(str(os.getpid()))
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="own job failed"):
        fork_map(job, 3)
    assert time.monotonic() - t0 < 30
    pids = [int(f.read_text()) for f in sorted(tmp_path.iterdir())]
    assert len(pids) == 2 and os.getpid() not in pids
    assert all(_gone(pid) for pid in pids)


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
])
def test_child_that_dies_without_results_names_its_exit_status(set_workers, death, message):
    set_workers(2)

    def job(j):
        if j == 1:
            death()
        return j

    with pytest.raises(ChildProcessError, match=f"worker 1 .* {message} before sending"):
        fork_map(job, 4)


def test_one_worker_while_a_second_thread_is_alive():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel.workers() == 1
        assert fork_map(lambda j: os.getpid(), 4) == [os.getpid()] * 4
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_workers_are_the_cpus_only_with_one_thread():
    threads = len(os.listdir("/proc/self/task"))
    want = len(os.sched_getaffinity(0)) if threads == 1 else 1
    assert parallel.workers() == want


def test_call_sites_give_the_same_bits_at_any_worker_count(set_workers):
    rng = np.random.default_rng(8)
    x = np.vstack([c + rng.normal(size=(30, 4)) for c in rng.normal(size=(5, 4)) * 4])
    y = np.repeat(np.arange(5), 30)
    folds = kfold_split(len(y), rng_seed=1)
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 20, 4, 70))
    emb = EmbeddingSet(rng.normal(size=(g.num_entities, 6)),
                       rng.normal(size=(g.num_predicates, 6)))

    def run():
        km = kmeans(x, 5, rng_seed=2, restarts=10)
        scores = [train_classify(x, y, spec, folds, rng_seed=3)
                  for spec in (partial(LogisticOvR, iters=20),
                               partial(MlpClassifier, hidden=8, epochs=2))]
        ds = build_dataset(g, emb, n=3, rng_seed=4)
        return (km.assignment.tolist(), km.centers.tobytes(), km.inertia, km.inertia_history,
                scores, ds.a.tolist(), ds.b.tolist(), ds.score.tobytes(),
                ds.provenance.tolist(), ds.negative_deficit_anchors)

    set_workers(1)
    want = run()
    for w in (2, 3):
        set_workers(w)
        assert run() == want, w
