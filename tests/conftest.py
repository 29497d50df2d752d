import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tripletune.graph import KnowledgeGraph

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
