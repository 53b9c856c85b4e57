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
    """Per-sample hard label and binary keep-weight.

    Both take integer (or bool) arrays only: casting a float array to
    integers would truncate a weight of 0.5 to a binary 0, or a label of
    0.7 to 0. Labels are range-checked against a score table where one is
    read (assignment_objective).
    """

    labels: np.ndarray  # (B,) int
    weights: np.ndarray  # (B,) in {0, 1}

    def __post_init__(self) -> None:
        self.labels = _integers(self.labels, "labels")
        self.weights = _integers(self.weights, "weights")
        if self.labels.shape != self.weights.shape or self.labels.ndim != 1:
            raise ValueError("labels and weights must be matching 1-D arrays")
        if np.count_nonzero(self.weights & ~1):
            raise ValueError("weights must be binary")


def _integers(values, name: str) -> np.ndarray:
    """values as int64 without a copy for int64 input; other dtypes than integers raise."""
    values = np.asarray(values)
    if values.dtype.kind not in "iub":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


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
    with g_val. Shares no code with the forward-mode fast path. A 1-D X
    is one sample. One forward pass takes the b samples as a (b, 1, d)
    stack of 1-row batches, one backward pass a (b, K, 1, K) stack of
    their logit gradients, and one dot the (b * K)-row gradient stack.
    Samples and classes never share the rows of one product, since a
    multi-row product can differ from the 1-row one in the last bit; on
    the stack axes, each keeps its own 1-row product.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"X of shape {X.shape} is not a batch of {params.input_dim}-wide samples")
    if g_val.shapes != params.shapes:
        raise ValueError(f"g_val laid out for {g_val.shapes}, not the parameters' {params.shapes}")
    k = params.n_classes
    probs, cache = mlp_forward(params, X[:, None, :])
    # table [i, c] is bitwise probs_i - eye[c]
    grads = mlp_backward(params, cache, probs[:, None] - np.eye(k)[:, None, :])
    return param_dot(grads, g_val).reshape(X.shape[0], k)


def enumerate_optimum_scores(pi: np.ndarray) -> tuple[Assignment, float]:
    """Maximize sum_i w_i * pi[i, k_i] over per-sample vertices.

    Each sample's 2K vertices are laid out as (label 0, keep), (label 0,
    drop), (label 1, keep), ... in a (b, 2K) table: a keep scores
    pi[i, c], a drop 0.0. argmax takes each row's first maximum, so equal
    values resolve to the lowest label index, and a zero score (+0.0 or
    -0.0) at label 0 to the keep decision; a zero at a later label loses
    to label 0's drop. A NaN score is a row's maximum, and then the
    objective is NaN.
    """
    pi = np.asarray(pi, dtype=np.float64)
    b, k = pi.shape
    table = np.zeros((b, k, 2))
    table[:, :, 0] = pi
    pick = table.reshape(b, 2 * k).argmax(axis=1)
    best = Assignment(pick >> 1, (pick & 1) ^ 1)
    # objective through the same reduction as assignment_objective, so equal
    # assignments score bitwise-equal
    return best, assignment_objective(pi, best)


def assignment_objective(pi: np.ndarray, assignment: Assignment) -> float:
    """First-order objective of an assignment under a (B, K) score table.

    An assignment of another sample count, or a label outside 0..K-1,
    raises ValueError (indexing would broadcast the one, and read a
    negative label from the end of its row).
    """
    pi = np.asarray(pi, dtype=np.float64)
    labels = assignment.labels
    if pi.ndim != 2 or labels.shape[0] != pi.shape[0]:
        raise ValueError(f"an assignment of {labels.shape[0]} samples does not fit "
                         f"a score table of shape {pi.shape}")
    # a negative int64 label reads as a uint64 past any class count
    if np.count_nonzero(labels.view(np.uint64) >= pi.shape[1]):
        raise ValueError(f"labels must lie in 0..{pi.shape[1] - 1}")
    picked = pi[np.arange(pi.shape[0]), labels]
    # np.add.reduce is the reduction ndarray.sum runs, without its per-call cost
    return float(np.add.reduce(assignment.weights * picked))


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
