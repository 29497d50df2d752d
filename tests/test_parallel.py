import errno
import json
import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from tripletune import evaluation, parallel
from tripletune.evaluation import (CLASSIFIERS, LogisticOvR, MlpClassifier, calinski_harabasz,
                                   evaluate, kfold_split, kmeans, train_classify)
from tripletune.graph import KnowledgeGraph, multi_predicate_triple_ids
from tripletune.pairs import build_dataset
from tripletune.parallel import RemoteTraceback, fork_map
from tripletune.seeds import EmbeddingSet
from conftest import random_named_triples

# The tests set the worker count by hand, so they fork also where BLAS has idle
# threads, which Python 3.12+ warns about; the jobs forked here do not wait on them.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")


@pytest.fixture(autouse=True)
def callers_mask_is_restored():
    """Every map leaves the test process on the CPUs it had before."""
    before = os.sched_getaffinity(0)
    yield
    assert os.sched_getaffinity(0) == before


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


@pytest.mark.parametrize("w", [2, 3])
def test_each_child_runs_on_its_own_cpu_of_the_callers_mask(set_workers, monkeypatch, w):
    set_workers(w)
    mask = os.sched_getaffinity(0)
    order = sorted(mask)
    calls = []   # the caller's own; a child records into its copy
    real_setaffinity = os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda pid, cpus: calls.append(set(cpus)) or real_setaffinity(pid, cpus))
    got = fork_map(lambda j: (os.getpid(), os.sched_getaffinity(0)), w)
    assert len({pid for pid, _ in got}) == w
    # child i on the i-th CPU of the mask: distinct while W <= CPUs, then wrapping
    assert [cpus for _, cpus in got[1:]] == [{order[i % len(order)]} for i in range(1, w)]
    # the caller moves to the first CPU and runs its share on its whole mask
    assert calls == [{order[0]}, mask]
    assert got[0][1] == mask


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
def test_callers_mask_is_restored_when_a_job_raises(set_workers, failing):
    set_workers(2)
    mask = os.sched_getaffinity(0)
    seen = []

    def job(j):
        seen.append(os.sched_getaffinity(0))   # a child appends to its own copy
        if j == failing:
            raise ValueError(f"job {j} failed")
        return j

    with pytest.raises(ValueError, match=f"^job {failing} failed$"):
        fork_map(job, 2)
    assert os.sched_getaffinity(0) == mask
    assert seen == [mask]


def test_a_map_inside_a_child_runs_in_that_childs_process(monkeypatch):
    real_workers = parallel.workers
    # W from the mask alone, also where BLAS threads would make it 1
    monkeypatch.setattr(parallel, "workers", lambda: len(os.sched_getaffinity(0)))

    def job(j):
        return (os.getpid(), parallel.workers(), real_workers(),
                fork_map(lambda i: os.getpid(), 4))

    got = fork_map(job, len(os.sched_getaffinity(0)))
    assert len({pid for pid, *_ in got}) == len(got)
    for pid, w, real_w, inner in got[1:]:
        assert (w, real_w, inner) == (1, 1, [pid] * 4)


def test_a_map_in_the_callers_share_uses_the_cpus_its_running_children_leave(monkeypatch):
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        pytest.skip("needs two CPUs")
    # W from the free CPUs alone, also where BLAS threads would make it 1
    monkeypatch.setattr(parallel, "workers",
                        lambda: len(parallel._free_cpus(os.sched_getaffinity(0))))
    go_r, go_w = os.pipe()

    def job(j):
        if j > 0:   # a child: runs until the caller's first nested map is done
            os.read(go_r, 1)
            return None
        beside = fork_map(lambda i: os.getpid(), 4)
        os.write(go_w, b"x" * (len(mask) - 1))
        deadline = time.monotonic() + 10
        while parallel.workers() < len(mask):
            assert time.monotonic() < deadline, "the children did not exit"
            time.sleep(0.01)
        return beside, fork_map(lambda i: os.getpid(), 4)

    try:
        (beside, after), *_ = fork_map(job, len(mask))
    finally:
        os.close(go_r)
        os.close(go_w)
    assert beside == [os.getpid()] * 4
    assert len(set(after)) == min(len(mask), 4) and after[0] == os.getpid()
    assert parallel._held == {}


def test_results_are_unchanged_where_the_os_refuses_a_mask(set_workers, monkeypatch):
    set_workers(2)
    want = [j * j for j in range(5)]
    assert [r for r, _ in fork_map(lambda j: (j * j, os.getpid()), 5)] == want

    def refuse(pid, cpus):
        raise OSError(errno.EINVAL, "Invalid argument")
    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    mask = os.sched_getaffinity(0)
    got = fork_map(lambda j: (j * j, os.getpid(), os.sched_getaffinity(0)), 5)
    assert [r[0] for r in got] == want
    assert len({r[1] for r in got}) == 2
    assert all(r[2] == mask for r in got)


def _multi_predicate_graph(rng):
    """70 random triples plus 12 (head, tail) pairs that carry two predicates each."""
    rows = random_named_triples(rng, 20, 4, 70)
    rows += [(f"m{i}", p, f"m{i + 1}") for i in range(12) for p in ("p0", f"p{1 + i % 3}")]
    return KnowledgeGraph.from_named_triples(rows)


def test_call_sites_give_the_same_bits_at_any_worker_count(set_workers, monkeypatch):
    rng = np.random.default_rng(8)
    x = np.vstack([c + rng.normal(size=(30, 4)) for c in rng.normal(size=(5, 4)) * 4])
    y = np.repeat(np.arange(5), 30)
    folds = kfold_split(len(y), rng_seed=1)
    g = KnowledgeGraph.from_named_triples(random_named_triples(rng, 20, 4, 70))
    emb = EmbeddingSet(rng.normal(size=(g.num_entities, 6)),
                       rng.normal(size=(g.num_predicates, 6)))
    g_eval = _multi_predicate_graph(rng)
    x_eval = rng.normal(size=(g_eval.num_triples, 6))
    cases = [(c, r) for c in CLASSIFIERS for r in (False, True)]
    assignments = []   # what evaluate's k-means handed to the CH index, per call

    def recording_ch(features, assignment, k):
        assignments.append(assignment.tolist())
        return calinski_harabasz(features, assignment, k)
    monkeypatch.setattr(evaluation, "calinski_harabasz", recording_ch)

    def run():
        km = kmeans(x, 5, rng_seed=2, restarts=10)
        scores = [train_classify(x, y, spec, folds, rng_seed=3)
                  for spec in (partial(LogisticOvR, iters=20),
                               partial(MlpClassifier, hidden=8, epochs=2))]
        ds = build_dataset(g, emb, n=3, rng_seed=4)
        reports = [evaluate(x_eval, g_eval, classifier=c, restrict_multi_predicate=r,
                            rng_seed=5).to_json() for c, r in cases]
        return (km.assignment.tolist(), km.centers.tobytes(), km.inertia, km.inertia_history,
                scores, ds.a.tolist(), ds.b.tolist(), ds.score.tobytes(),
                ds.provenance.tolist(), ds.negative_deficit_anchors, reports)

    set_workers(1)
    want = run()
    for w in (2, 3):
        set_workers(w)
        assert run() == want, w
    assert assignments == assignments[:len(cases)] * 3

    # evaluate's one map gives what the two entry points give alone on the same rows
    set_workers(1)
    for (classifier, restrict), report, assignment in zip(cases, want[-1], assignments):
        keep = (multi_predicate_triple_ids(g_eval) if restrict
                else np.arange(g_eval.num_triples))
        labels = g_eval.ids[keep, 1]
        per_fold = json.loads(report)["micro_f1_per_fold"]
        split = kfold_split(len(keep), rng_seed=5)
        assert list(per_fold) == [cls.kind for cls in CLASSIFIERS[classifier]]
        for cls in CLASSIFIERS[classifier]:
            assert per_fold[cls.kind] == train_classify(x_eval[keep], labels, cls, split,
                                                        rng_seed=5)
        k = len(np.unique(labels))
        assert kmeans(x_eval[keep], k, rng_seed=5).assignment.tolist() == assignment
