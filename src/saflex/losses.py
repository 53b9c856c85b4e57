"""The training step's losses and the label helpers the package shares.

The saflex step's augmented rows train on a weighted soft-label
cross-entropy reduced by summation, sum_i -w_i * sum_k y_ik * log p_ik,
which is exactly linear in the weights and, at fixed weights, in the
soft labels; it enters the step only through its logit gradient
(ce_grad_logits). The step's training rows, its validation gradient and
the none and naive steps take the mean cross-entropy's logit gradient
(mean_ce_grad_logits), and the epoch evaluation the mean cross-entropy
itself (ce_from_logits). The label helpers are the range check
(check_labels), one-hot rows (one_hot) and the simplex-row check
(check_simplex_rows).
"""

from __future__ import annotations

import numpy as np

from .nn import row_max

# how far a soft-label row may stray below 0 or from summing to 1
SIMPLEX_TOL = 1e-9


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """labels as int64; ValueError unless each lies in [0, num_classes). Not shape-checked."""
    labels = np.asarray(labels, dtype=np.int64)
    # the ufunc reductions skip the per-call cost of the .min()/.max() methods
    if labels.size and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return labels


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = check_labels(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def check_simplex_rows(y: np.ndarray, name: str) -> None:
    """ValueError unless every row of y is nonnegative and sums to 1, within SIMPLEX_TOL."""
    if np.any(y < -SIMPLEX_TOL):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(y.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        raise ValueError(f"{name} rows must sum to 1")


def ce_grad_logits(
    probs: np.ndarray,
    weights: np.ndarray,
    soft_labels: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Logit-space gradient of the weighted soft-label loss: row i is w_i * (p_i - y_i).

    Written to `out`. Neither shapes nor finiteness are checked: the
    saflex step slices all three from one batch and raises on non-finite
    scores before it gets here, and the trainer checks every gradient.
    """
    out = np.subtract(probs, soft_labels, out=out)
    out *= weights[:, None]
    return out


def mean_ce_grad_logits(
    probs: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Logit-space gradient of the mean cross-entropy: (p - y) / n, in `out` if given.

    `targets` holds target rows (n, K) or hard labels (n,). Labels build no
    one-hot matrix: 1 is subtracted at the label entries of a copy of
    probs, which equals (probs - one_hot(labels, K)) / n bitwise because
    p - 0.0 == p. Labels are not range-checked here, and one out of range
    would hit another row's entry: check_labels them where they enter.
    """
    n, k = probs.shape
    if targets.ndim == 1:
        if out is None:
            out = probs.copy()
        else:
            np.copyto(out, probs)
        # row-major flat positions; indexing .flat costs a fraction of out[rows, cols]
        out.flat[np.arange(0, n * k, k) + targets] -= 1.0
    else:
        out = np.subtract(probs, targets, out=out)
    out /= n
    return out


def ce_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy straight from logits.

    Equals the mean of -log softmax(logits)[i, labels[i]] but cannot
    underflow when a row is saturated. Non-finite logits yield nan rather
    than raising, so divergence guards can observe the failure; labels out
    of range raise. Logits (n, K) and labels (n,) are not shape-checked.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = check_labels(labels, logits.shape[1])
    # the label entries of log_softmax(logits), without the full matrix;
    # sum / n is np.mean's own arithmetic
    z = logits - row_max(logits)
    z_label = z[np.arange(labels.shape[0]), labels]
    np.exp(z, out=z)
    nll = -(z_label - np.log(z.sum(axis=1)))
    return float(nll.sum() / labels.shape[0])
