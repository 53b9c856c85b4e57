"""Losses linear in sample weights and soft labels.

The classification loss is a weighted soft-label cross-entropy reduced by
summation, so it is exactly linear in the weights and, at fixed weights,
in the soft labels. The contrastive losses treat the batch as a proxy
classification task over its own entries and share the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import check_matrix, log_softmax, row_max


def check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """labels as a 1-D int64 array; ValueError unless each lies in [0, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    # the ufunc reductions skip the per-call cost of the .min()/.max() methods
    if labels.size and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return labels


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = check_labels(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _check_simplex_rows(y: np.ndarray, name: str, tol: float = 1e-9) -> None:
    if np.any(y < -tol):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(y.sum(axis=1) - 1.0) > tol):
        raise ValueError(f"{name} rows must sum to 1")


def _check_weighted(probs: np.ndarray, weights: np.ndarray, soft_labels: np.ndarray) -> tuple:
    """(probs, weights, soft_labels) of a weighted soft-label loss, shapes checked."""
    probs = np.asarray(probs, dtype=np.float64)
    soft_labels = np.asarray(soft_labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if probs.ndim != 2 or probs.shape != soft_labels.shape or weights.shape != (probs.shape[0],):
        raise ValueError(
            f"shape mismatch: probs {probs.shape}, labels {soft_labels.shape}, "
            f"weights {weights.shape}"
        )
    return probs, weights, soft_labels


def weighted_soft_ce(probs: np.ndarray, weights: np.ndarray, soft_labels: np.ndarray) -> float:
    """Sum over samples of -w_i * sum_k y_ik * log p_ik."""
    probs, weights, soft_labels = _check_weighted(
        check_matrix(probs, "probs"), weights, check_matrix(soft_labels, "soft_labels")
    )
    if np.any(probs <= 0.0):
        raise ValueError("probabilities must be strictly positive")
    return float(-(weights * (soft_labels * np.log(probs)).sum(axis=1)).sum())


def ce_grad_logits(
    probs: np.ndarray,
    weights: np.ndarray,
    soft_labels: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Logit-space gradient of weighted_soft_ce: row i is w_i * (p_i - y_i).

    Written to `out` when given. Shapes are checked, finiteness is not:
    the saflex step raises on non-finite scores before it gets here, and
    the trainer checks every gradient.
    """
    probs, weights, soft_labels = _check_weighted(probs, weights, soft_labels)
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


def hard_ce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood under hard labels."""
    probs = check_matrix(probs, "probs")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels shape mismatch")
    p = probs[np.arange(labels.shape[0]), labels]
    if np.any(p <= 0.0):
        raise ValueError("probabilities must be strictly positive")
    return float(-np.log(p).mean())


def ce_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy straight from logits.

    Equals hard_ce(softmax(logits), labels) but cannot underflow when a
    row is saturated. Non-finite logits yield nan rather than raising, so
    divergence guards can observe the failure.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise ValueError("labels shape mismatch")
    # the label entries of log_softmax(logits), without the full matrix;
    # sum / n is np.mean's own arithmetic
    z = logits - row_max(logits)
    z_label = z[np.arange(labels.shape[0]), labels]
    np.exp(z, out=z)
    nll = -(z_label - np.log(z.sum(axis=1)))
    return float(nll.sum() / labels.shape[0])


def normalize_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero row")
    return x / norms


@dataclass
class ContrastiveBatch:
    """Paired L2-normalized embeddings with optional weights / proxy labels.

    Each anchor's positive is the same-index partner row; the other B-1
    partners act as in-batch negatives, so the batch defines a B-way proxy
    classification task. proxy_labels rows live on the B-simplex.
    """

    anchors: np.ndarray
    partners: np.ndarray
    temperature: float = 0.07
    weights: np.ndarray | None = None
    proxy_labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.anchors = check_matrix(self.anchors, "anchors")
        self.partners = check_matrix(self.partners, "partners")
        if self.anchors.shape != self.partners.shape:
            raise ValueError("anchors and partners must have the same shape")
        if self.anchors.shape[0] == 0:
            raise ValueError("empty contrastive batch")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        for name, rows in (("anchors", self.anchors), ("partners", self.partners)):
            norms = np.linalg.norm(rows, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError(f"{name} rows must be L2-normalized")
        b = self.anchors.shape[0]
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (b,):
                raise ValueError("weights must have one entry per pair")
            if np.any(self.weights < 0) or np.any(self.weights > 1):
                raise ValueError("weights must lie in [0, 1]")
        if self.proxy_labels is not None:
            self.proxy_labels = check_matrix(self.proxy_labels, "proxy_labels")
            if self.proxy_labels.shape != (b, b):
                raise ValueError("proxy_labels must be (B, B)")
            _check_simplex_rows(self.proxy_labels, "proxy_labels")

    @property
    def size(self) -> int:
        return self.anchors.shape[0]


def infonce_loss(cb: ContrastiveBatch) -> float:
    """Anchor-to-partner contrastive loss with B-1 in-batch negatives."""
    sims = (cb.anchors @ cb.partners.T) / cb.temperature
    log_p = log_softmax(sims)
    return float(-np.trace(log_p))


def weighted_soft_clip(cb: ContrastiveBatch) -> float:
    """Weighted soft-proxy-label contrastive loss, both directions.

    With identity proxy labels and unit weights this is the plain
    symmetric two-direction contrastive loss.
    """
    b = cb.size
    w = cb.weights if cb.weights is not None else np.ones(b)
    y = cb.proxy_labels if cb.proxy_labels is not None else np.eye(b)
    sims = (cb.anchors @ cb.partners.T) / cb.temperature
    # direction 1: each anchor classifies over partners (rows of sims)
    term1 = -(w * (y * log_softmax(sims)).sum(axis=1)).sum()
    # direction 2: each partner classifies over anchors (columns of sims)
    term2 = -(w * (y * log_softmax(sims.T)).sum(axis=1)).sum()
    return float(term1 + term2)
