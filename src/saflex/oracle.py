"""Independent verification machinery.

The assignment step claims to maximize, per augmented sample, the
first-order decrease of the validation loss over hard labels and binary
weights. Everything here re-derives that objective by brute force:
alignment scores via per-class reverse-mode gradients (no forward-mode
code shared with the fast path), exhaustive vertex enumeration of the
per-sample linear program, coordinate-wise finite differences, and exact
(non-linearized) post-step validation losses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import combined_step_gradient
from .data import Batch
from .losses import ce_from_logits, one_hot
from .nn import ModelParams, ParamGrad, mlp_backward, mlp_forward, param_dot, sgd_step

# largest augmented batch and class count `saflex oracle-check` accepts
ENUM_MAX_B = 8
ENUM_MAX_K = 6


@dataclass
class Assignment:
    """Per-sample hard label and binary keep-weight."""

    labels: np.ndarray  # (B,) int
    weights: np.ndarray  # (B,) in {0, 1}

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.labels.shape != self.weights.shape or self.labels.ndim != 1:
            raise ValueError("labels and weights must be matching 1-D arrays")
        if np.any((self.weights != 0) & (self.weights != 1)):
            raise ValueError("weights must be binary")


def finite_diff(fn: Callable[[ModelParams], float], params: ModelParams, eps: float) -> ParamGrad:
    """Central finite differences of a scalar function, per flat coordinate."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    grad = ParamGrad.zeros_like(params)
    work = params.copy()
    theta = work.flat
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + eps
        hi = fn(work)
        theta[j] = orig - eps
        lo = fn(work)
        theta[j] = orig
        grad.flat[j] = (hi - lo) / (2.0 * eps)
    return grad


def pi_scores_reverse(params: ModelParams, X: np.ndarray, g_val: ParamGrad) -> np.ndarray:
    """Alignment scores via explicit per-class backward passes.

    For sample i and class k, backpropagate the per-class loss -log p_k
    (logit gradient p - e_k) and take the parameter-space inner product
    with g_val. Shares no code with the forward-mode fast path.
    """
    X = np.asarray(X, dtype=np.float64)
    b = X.shape[0]
    k = params.n_classes
    out = np.empty((b, k))
    eye = np.eye(k)
    for i in range(b):
        probs_i, cache_i = mlp_forward(params, X[i : i + 1])
        for c in range(k):
            g_ic = mlp_backward(params, cache_i, probs_i - eye[c : c + 1])
            out[i, c] = param_dot(g_ic, g_val)
    return out


def enumerate_optimum_scores(pi: np.ndarray) -> tuple[Assignment, float]:
    """Maximize sum_i w_i * pi[i, k_i] over per-sample vertices.

    Candidates per sample are scanned as (label 0, keep), (label 0, drop),
    (label 1, keep), ...; ties keep the earliest candidate, so equal
    values resolve to the lowest label index and, at exactly zero score,
    to the keep decision.
    """
    pi = np.asarray(pi, dtype=np.float64)
    b, k = pi.shape
    labels = np.zeros(b, dtype=np.int64)
    weights = np.zeros(b, dtype=np.int64)
    for i in range(b):
        best_label, best_weight, best_val = 0, 1, pi[i, 0]
        for c in range(k):
            for w in (1, 0):
                val = pi[i, c] if w else 0.0
                if val > best_val:
                    best_label, best_weight, best_val = c, w, val
        labels[i] = best_label
        weights[i] = best_weight
    best = Assignment(labels, weights)
    # objective through the same reduction as assignment_objective, so equal
    # assignments score bitwise-equal
    return best, assignment_objective(pi, best)


def assignment_objective(pi: np.ndarray, assignment: Assignment) -> float:
    """First-order objective of an assignment under a score table."""
    pi = np.asarray(pi, dtype=np.float64)
    picked = pi[np.arange(pi.shape[0]), assignment.labels]
    return float((assignment.weights * picked).sum())


def iter_assignments(b: int, k: int) -> Iterator[Assignment]:
    """All distinct assignments: each sample keeps one of k labels or drops."""
    for combo in itertools.product(range(k + 1), repeat=b):
        labels = np.array([c if c < k else 0 for c in combo], dtype=np.int64)
        weights = np.array([1 if c < k else 0 for c in combo], dtype=np.int64)
        yield Assignment(labels, weights)


def post_step_val_loss(
    params: ModelParams,
    train_batch: Batch,
    aug_batch: Batch,
    assignment: Assignment,
    val_set: Batch,
    alpha: float,
) -> float:
    """Exact validation loss after one step under the given assignment.

    The augmented term uses the raw binary weights (the vertex the
    enumeration scores), with soft labels one-hot at the assigned class.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    k = params.n_classes
    soft = one_hot(assignment.labels, k)
    grad = combined_step_gradient(
        params, train_batch, aug_batch.X, assignment.weights.astype(np.float64), soft
    )
    stepped = sgd_step(params, grad, alpha)
    _, cache = mlp_forward(stepped, val_set.X)
    return ce_from_logits(cache.logits, val_set.hard_labels)
