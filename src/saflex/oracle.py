"""Independent verification machinery.

The assignment step claims to maximize, per augmented sample, the
first-order decrease of the validation loss over hard labels and binary
weights. This module re-derives that objective by brute force: alignment
scores via per-class reverse-mode gradients, on its own stacked forward
pass, backward pass and dot (pi_scores_reverse); exhaustive vertex
enumeration of the per-sample linear program over a score table
(enumerate_optimum_scores, assignment_objective); and the exact
(non-linearized) post-step validation loss of an assignment
(post_step_val_loss). `saflex oracle-check` runs the first two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import nn
from .core import combined_step_gradient
from .data import Batch
from .losses import ce_from_logits, one_hot
from .nn import ModelParams, ParamGrad, block_spans, sgd_step, softmax

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


def mlp_forward(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The network on a stack of batches X (S, n, d); returns (probs, layer inputs).

    Each matmul runs once per stack element, as nn.mlp_forward runs it for
    that batch alone, and the softmax takes the logits' (S * n, K) view,
    whose rows it treats one by one: so batch s is bitwise a lone forward
    of X[s]. The layer inputs are X and each hidden layer, ReLU'd in place.
    It takes no workspace, and an X of another rank or width raises ValueError.
    """
    if X.ndim != 3 or X.shape[2] != params.input_dim:
        raise ValueError(f"X of shape {X.shape} is not a stack of batches "
                         f"of {params.input_dim}-wide rows")
    acts, a = [X], X
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if i:
            acts.append(np.maximum(a, 0.0, out=a))
        a = np.matmul(a, w)
        a += b
    # a fresh matmul's output is C-contiguous, so both reshapes are views
    return softmax(a.reshape(-1, a.shape[-1])).reshape(a.shape), acts


def mlp_backward(params: ModelParams, acts: list[np.ndarray], tables: np.ndarray) -> np.ndarray:
    """One gradient per logit-gradient table over a stacked forward, as (S * R, P) rows.

    `tables` (S, R, n, K) holds R tables for each of the S batches whose
    layer inputs mlp_forward returned. Row s * R + r is the gradient of
    table r of batch s in the flat parameter layout, bitwise the lone
    backward pass of that table: each product runs once per stack
    element, as it runs for that table alone. np.matmul gives an element
    the bits np.dot gives, but for a (1, 1) @ (1, 1): np.dot multiplies,
    so a zero product keeps its sign, where np.matmul adds the product to
    +0.0. np.multiply keeps it too. Tables of another shape than (S, R, n,
    K) over the forward's S batches of n rows raise ValueError: numpy would
    broadcast a one-batch forward across tables of several batches.
    """
    s, n = acts[0].shape[:2]
    if tables.ndim != 4 or (tables.shape[0], *tables.shape[2:]) != (s, n, params.n_classes):
        raise ValueError(f"tables of shape {tables.shape} do not fit {s} batches "
                         f"of {n} rows and {params.n_classes} classes")
    r = tables.shape[1]
    grads = np.empty((s * r, params.param_count))
    spans, last = block_spans(params.shapes), params.n_layers - 1
    delta = tables
    for i in range(last, -1, -1):
        a_in = acts[i][:, None].swapaxes(-1, -2)
        product = np.multiply if a_in.shape[-2:] == (1, 1) and delta.shape[-1] == 1 else np.matmul
        # splitting the row axis and a weight block's columns keeps a view
        (w_lo, w_hi), (b_lo, b_hi) = spans[i], spans[last + 1 + i]
        product(a_in, delta, out=grads[:, w_lo:w_hi].reshape(s, r, *params.shapes[i]))
        np.add.reduce(delta, axis=-2, out=grads[:, b_lo:b_hi].reshape(s, r, -1))
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= (acts[i] > 0.0)[:, None]  # numpy casts a bool to 0.0 / 1.0
    return grads


def param_dot(grads: np.ndarray, g_val: ParamGrad) -> np.ndarray:
    """Each row of grads (R, P) dotted with g_val, bitwise that row's own 1-D dot.

    Each block of the rows is an (R, 1, len) view, and np.matmul runs each
    stack element's (1, len) @ (len,) as the ddot a 1-D dot runs. The
    block dots add up from +0.0 in the same order, weights first, as
    Python's sum does. np.einsum sums in another order, so it is not used.
    """
    total = np.zeros(grads.shape[0])
    g = g_val.flat
    for lo, hi in block_spans(g_val.shapes):
        total += np.matmul(grads[:, None, lo:hi], g[lo:hi])[:, 0]
    return total


def pi_scores_reverse(params: ModelParams, X: np.ndarray, g_val: ParamGrad) -> np.ndarray:
    """Alignment scores via explicit per-class backward passes.

    For sample i and class k, backpropagate the per-class loss -log p_k
    (logit gradient p - e_k) and take the parameter-space inner product
    with g_val. The forward pass, backward pass and dot are this module's
    own; from the fast path's nn it takes only the parameter layout and
    the row softmax. X is a (b, d) batch. One forward pass takes the b
    samples as a (b, 1, d) stack of 1-row batches, one backward pass a
    (b, K, 1, K) stack of their logit gradients, and one dot the
    (b * K)-row gradient stack. Samples and classes never share the rows
    of one product, since a multi-row product can differ from the 1-row
    one in the last bit; on the stack axes, each keeps its own 1-row product.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ValueError(f"X of shape {X.shape} is not a batch of {params.input_dim}-wide samples")
    if g_val.shapes != params.shapes:
        raise ValueError(f"g_val laid out for {g_val.shapes}, not the parameters' {params.shapes}")
    k = params.n_classes
    probs, acts = mlp_forward(params, X[:, None, :])
    # table [i, c] is bitwise probs_i - eye[c]
    grads = mlp_backward(params, acts, probs[:, None] - _identity(k))
    return param_dot(grads, g_val).reshape(X.shape[0], k)


# class counts the identity cache keeps; oracle-check takes K <= ENUM_MAX_K
@lru_cache(maxsize=64)
def _identity(k: int) -> np.ndarray:
    """The (K, 1, K) identity pi_scores_reverse subtracts, built once per K and read-only."""
    eye = np.eye(k)[:, None, :]
    eye.flags.writeable = False
    return eye


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
    stepped = sgd_step(params, grad.flat, alpha)
    _, cache = nn.mlp_forward(stepped, val_set.X)
    return ce_from_logits(cache.logits, val_set.hard_labels)
