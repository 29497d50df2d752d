import json
import math
import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tripletune import seeds as seedmod
from tripletune.graph import KnowledgeGraph
from tripletune.optim import TrainingDiverged, scatter_rows

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a property
# test cannot pass on one CI run and fail on the next
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def tiny_graph():
    return KnowledgeGraph.from_named_triples([
        ("a", "r1", "b"),
        ("a", "r2", "b"),
        ("a", "r1", "c"),
        ("b", "r2", "c"),
        ("c", "r1", "a"),
    ])


def random_named_triples(rng, n_entities, n_predicates, n_triples):
    rows = set()
    while len(rows) < n_triples:
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        p = int(rng.integers(n_predicates))
        rows.add((f"e{h}", f"p{p}", f"e{t}"))
    return sorted(rows)


INT_TEXT = st.integers().map(str)
FLOAT_TEXT = st.floats().map(repr)


def tsv_text(*columns):
    """Strategy: the text of up to 6 tab-separated rows. A row holds either one
    field from each strategy in `columns`, or up to 5 fields that are each
    from one of them, an integer of any size, a float (inf and nan too) or up
    to 3 characters of any text, line breaks included."""
    field = st.one_of(INT_TEXT, FLOAT_TEXT, *columns,
                      st.text(st.characters(exclude_categories=("Cs",)), max_size=3))
    row = st.tuples(*columns) | st.lists(field, max_size=5)
    return st.lists(row.map("\t".join), max_size=6).map(
        lambda rows: "".join(row + "\n" for row in rows))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text: str):
    """`json.loads` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_not_json)


def standardized(x: np.ndarray) -> np.ndarray:
    """Each column scaled to zero mean and unit variance (a constant column is
    only centred), from statistics over all rows."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    return (x - mu) / sd


def batch_terms_case(model, seed, n=12):
    """Parameters and a batch of n scored triples (every third a positive,
    head and tail distinct) for `seeds._batch_terms`; for the margin models, a
    margin that leaves some negatives' hinges active and some inactive, none
    near the kink."""
    rng = np.random.default_rng([seedmod.TRAINABLE_MODELS.index(model), seed])
    d, n_ent, n_pred = 6, 7, 3
    params = {"ent": rng.normal(size=(n_ent, d))}
    if model == "rotate":
        params["phases"] = rng.uniform(0.0, 2.0 * np.pi, size=(n_pred, d // 2))
    else:
        params["pred"] = rng.normal(size=(n_pred, d))
    heads = rng.integers(n_ent, size=n)
    tails = (heads + rng.integers(1, n_ent, size=n)) % n_ent
    tri = np.stack([heads, rng.integers(n_pred, size=n), tails], axis=1)
    is_pos = np.arange(n) % 3 == 0
    margin = 1.0
    if model in ("transe", "rotate"):
        # every row as a positive: its term is its squared distance
        d2 = np.sort(seedmod._batch_terms(model, params, tri, np.ones(n, bool), 0.0)[0][~is_pos])
        gap = np.argmax(np.diff(d2))
        margin = (d2[gap] + d2[gap + 1]) / 2
    return params, tri, is_pos, margin


class _AllocatingAdam:
    """Adam with every step written out as whole-array expressions, each making
    fresh arrays: the oracle that the in-place `optim.Adam` must equal bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def begin_step(self):
        self.t += 1

    def _corrections(self):
        return 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t

    def step(self, name, grad, lr=None):
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        c1, c2 = self._corrections()
        self.params[name] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def step_rows(self, name, rows, grad_rows, lr=None):
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        m_r = self.beta1 * m[rows] + (1 - self.beta1) * grad_rows
        v_r = self.beta2 * v[rows] + (1 - self.beta2) * grad_rows * grad_rows
        m[rows] = m_r
        v[rows] = v_r
        c1, c2 = self._corrections()
        self.params[name][rows] -= lr * (m_r / c1) / (np.sqrt(v_r / c2) + self.eps)


def _reference_batch_loss_and_grads(model, a_ids, b_ids, targets):
    """`siamese.batch_loss_and_grads` as it was with one product per branch and
    one `scatter_rows` call per step: the oracle for the planned, fused step."""
    batch = len(a_ids)
    e_a = model.triple_embeddings[a_ids]
    e_b = model.triple_embeddings[b_ids]
    o_a = np.tanh(e_a @ model.w1.T + model.b1)
    o_b = np.tanh(e_b @ model.w1.T + model.b1)
    na = np.linalg.norm(o_a, axis=1)
    nb = np.linalg.norm(o_b, axis=1)
    ok = (na > 0) & (nb > 0)
    dots = np.einsum("ij,ij->i", o_a, o_b)
    denom = np.where(ok, na * nb, 1.0)
    s = np.where(ok, dots / denom, 0.0)
    residual = s - targets
    loss = float(np.mean(residual ** 2))
    ds = np.where(ok, 2.0 * residual / batch, 0.0)
    na_safe = np.where(ok, na, 1.0)
    nb_safe = np.where(ok, nb, 1.0)
    do_a = (o_b / denom[:, None] - (s / na_safe**2)[:, None] * o_a) * ds[:, None]
    do_b = (o_a / denom[:, None] - (s / nb_safe**2)[:, None] * o_b) * ds[:, None]
    dz_a = do_a * (1.0 - o_a ** 2)
    dz_b = do_b * (1.0 - o_b ** 2)
    grad_w1 = dz_a.T @ e_a + dz_b.T @ e_b
    grad_b1 = dz_a.sum(axis=0) + dz_b.sum(axis=0)
    de_a = dz_a @ model.w1
    de_b = dz_b @ model.w1
    touched, grad_rows, _ = scatter_rows(np.stack([a_ids, b_ids], axis=1),
                                         np.stack([de_a, de_b], axis=1).reshape(2 * batch, -1))
    return loss, grad_w1, grad_b1, touched, grad_rows


def _reference_train(model, dataset, cfg, loss_history=None):
    """`siamese.train` as it was: three Adam steps (w1, b1, the touched rows) per
    batch on the model's own arrays. Returns the optimizer for its moments."""
    n = len(dataset)
    rng = np.random.default_rng(cfg.rng_seed)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    warmup_steps = int(cfg.warmup_fraction * total_steps)
    opt = _AllocatingAdam({"emb": model.triple_embeddings, "w1": model.w1, "b1": model.b1},
                          lr=cfg.learning_rate)
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb, rows, grows = _reference_batch_loss_and_grads(
                model, dataset.a[idx], dataset.b[idx], dataset.score[idx])
            step += 1
            lr = (cfg.learning_rate * min(1.0, step / warmup_steps) if warmup_steps
                  else cfg.learning_rate)
            opt.begin_step()
            opt.step("w1", gw, lr=lr)
            opt.step("b1", gb, lr=lr)
            opt.step_rows("emb", rows, grows, lr=lr)
            epoch_loss += loss * len(idx)
            if not (np.all(np.isfinite(model.w1)) and np.all(np.isfinite(model.b1))
                    and np.all(np.isfinite(model.triple_embeddings[rows]))):
                raise TrainingDiverged(f"NaN/Inf parameter at epoch {epoch}, step {step}")
        if loss_history is not None:
            loss_history.append(epoch_loss / n)
    return opt


# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive pytest's output capture
_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
