import os

import numpy as np
import pytest
from hypothesis import settings

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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
