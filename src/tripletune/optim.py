"""Minimal Adam optimizer shared by seed training, fine-tuning and the classifiers,
and the error that fine-tuning and skip-gram raise on non-finite parameters."""

from __future__ import annotations

import numpy as np


class TrainingDiverged(RuntimeError):
    """A training loop produced non-finite parameters."""


class Adam:
    """Adam over a dict of named parameter arrays.

    `step` applies a dense update; `step_rows` applies a lazy (row-sparse)
    update touching only the given rows of a matrix parameter, leaving the
    moment estimates of untouched rows as they are. Bias correction uses the
    global step count in both cases.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def begin_step(self) -> None:
        self.t += 1

    def _corrections(self) -> tuple[float, float]:
        return 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t

    def step(self, name: str, grad: np.ndarray, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        c1, c2 = self._corrections()
        self.params[name] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def step_rows(self, name: str, rows: np.ndarray, grad_rows: np.ndarray,
                  lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        m, v = self.m[name], self.v[name]
        m_r = self.beta1 * m[rows] + (1 - self.beta1) * grad_rows
        v_r = self.beta2 * v[rows] + (1 - self.beta2) * grad_rows * grad_rows
        m[rows] = m_r
        v[rows] = v_r
        c1, c2 = self._corrections()
        self.params[name][rows] -= lr * (m_r / c1) / (np.sqrt(v_r / c2) + self.eps)
