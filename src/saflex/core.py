"""The validation-guided assignment step.

Given the current model, an upstream-augmented batch, and a validation
minibatch, one step does:

1. mean validation cross-entropy gradient g (mean_ce_gradient, which is
   also the whole step of the none and naive baselines);
2. per augmented sample, class-alignment scores pi via a single logit
   JVP: with u = J(x) g and p the softmax at x, pi_k = p.u - u_k, which
   equals the inner product between g and the gradient of the per-class
   loss -log p_k. Larger pi_k means a descent step on label k lowers the
   validation loss more.
3. soft labels y_i = softmax((pi_i + beta * onehot(orig_i) + gumbel) / tau)
   and binary keep-weights w_i = [pi_i . y_i >= 0], renormalized to sum
   to one (all-zero batches stay zero);
4. one SGD step on mean train cross-entropy plus the weighted soft-label
   cross-entropy of the augmented batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch, RangeError
from .losses import ce_grad_logits, check_labels, mean_ce_grad_logits, one_hot
# not called here; perfbench/tracing.py wraps core.ce_from_logits, so the name stays
from .losses import ce_from_logits  # noqa: F401
from .nn import (
    ForwardCache,
    ModelParams,
    ParamGrad,
    jvp_logits_batch,
    mlp_backward,
    mlp_forward,
    row_sum,
    softmax,
)


@dataclass
class SaflexConfig:
    beta: float = 0.0  # retention bonus added to the original label's score
    tau: float = 0.01  # softmax temperature for the relaxed assignment
    seed: int = 0
    gumbel_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.tau < np.inf:
            raise RangeError(f"tau must be a finite number > 0, got {self.tau}")
        if not self.beta >= 0:
            raise RangeError(f"beta must be >= 0, got {self.beta}")


@dataclass
class SaflexOutput:
    """Per-sample weights and soft labels plus assignment diagnostics.

    weights sum to 1 unless every sample was dropped (then all zero);
    binary_weights are the pre-normalization keep decisions.
    """

    weights: np.ndarray
    soft_labels: np.ndarray
    binary_weights: np.ndarray
    frac_zero_weight: float  # share of samples dropped
    frac_label_changed: float  # share whose soft-label argmax is not the original label


# Row formulas shared by the composed functions below and the fused
# saflex_gradient; `rows` selects a batch's rows in a forward cache.
# Labels reaching them have been range-checked by the public entry point.

def _mean_ce_gradient(
    params: ModelParams, cache: ForwardCache, rows: slice, targets: np.ndarray
) -> ParamGrad:
    return mlp_backward(params, cache, mean_ce_grad_logits(cache.probs[rows], targets), rows)


def _pi(params: ModelParams, cache: ForwardCache, rows: slice, g_val: ParamGrad) -> np.ndarray:
    u = jvp_logits_batch(params, g_val, cache, rows)
    return np.subtract(row_sum(cache.probs[rows] * u), u, out=u)


def _step_gradient(
    params: ModelParams,
    cache: ForwardCache,
    train_labels: np.ndarray,
    aug_weights: np.ndarray,
    aug_soft_labels: np.ndarray,
) -> ParamGrad:
    """Gradient of mean train CE plus weighted augmented soft CE.

    The cache rows are [train, augmented, rest]; only the first two take part,
    their logit gradients written into one array for one backward pass.
    """
    b_tr, b = len(train_labels), len(train_labels) + len(aug_weights)
    probs = cache.probs
    dlogits = np.empty((b, params.n_classes))
    mean_ce_grad_logits(probs[:b_tr], train_labels, out=dlogits[:b_tr])
    ce_grad_logits(probs[b_tr:b], aug_weights, aug_soft_labels, out=dlogits[b_tr:])
    return mlp_backward(params, cache, dlogits, slice(0, b))


def mean_ce_gradient(params: ModelParams, batch: Batch) -> ParamGrad:
    """Mean cross-entropy gradient of a batch: its soft labels if set, else its hard labels."""
    if batch.size == 0:
        raise ValueError("empty batch")
    labels = check_labels(batch.hard_labels, params.n_classes)
    targets = labels if batch.soft_labels is None else batch.soft_labels
    if batch.soft_labels is not None and targets.shape != (batch.size, params.n_classes):
        raise ValueError(f"soft labels must be (n, K) = ({batch.size}, {params.n_classes})")
    _, cache = mlp_forward(params, batch.X)
    return _mean_ce_gradient(params, cache, slice(None), targets)


def pi_scores(params: ModelParams, x_aug: np.ndarray, g_val: ParamGrad) -> np.ndarray:
    """Per-class alignment scores for each row of the (B, d) batch x_aug, (B, K).

    One batched forward-mode pass along g_val: u = J g_val per sample,
    then pi_k = p.u - u_k. The softmax-weighted mean of each row is zero
    by construction.
    """
    _, cache = mlp_forward(params, x_aug)
    return _pi(params, cache, slice(None), g_val)


def saflex_assign(
    pi: np.ndarray,
    orig_labels: np.ndarray,
    cfg: SaflexConfig,
    rng: np.random.Generator,
) -> SaflexOutput:
    """Assign soft labels and keep-weights from alignment scores.

    Score shaping: the original label gets a +beta bonus, so relabeling
    requires another class to win by at least beta; optional Gumbel(0,1)
    noise softens the otherwise near-argmax labels. A sample is kept when
    its scores, averaged under its assigned soft label, are nonnegative;
    kept weights are renormalized to total mass one. Non-finite scores
    raise FloatingPointError: they mean the model has diverged. pi is
    (B, K) and orig_labels (B,), both built from one batch by the caller.
    """
    pi = np.asarray(pi, dtype=np.float64)
    b, k = pi.shape
    orig_labels = np.asarray(orig_labels, dtype=np.int64)
    shaped = pi + cfg.beta * one_hot(orig_labels, k) if cfg.beta != 0.0 else pi
    if cfg.gumbel_enabled:
        # Gumbel + shaped equals shaped + Gumbel bitwise
        scores = rng.gumbel(size=(b, k))
        scores += shaped
        scores /= cfg.tau
    else:
        scores = shaped / cfg.tau
    if not np.isfinite(scores).all():
        raise FloatingPointError("alignment scores pi / tau are not finite")
    soft = softmax(scores)
    keep = row_sum(pi * soft)[:, 0] >= 0.0
    binary = keep.astype(np.float64)
    kept = np.count_nonzero(keep)
    weights = binary / kept if kept else np.zeros(b)
    changed = np.count_nonzero(soft.argmax(axis=1) != orig_labels)
    return SaflexOutput(weights, soft, binary, float(1.0 - kept / b), float(changed / b))


def closed_form_assignment(
    pi: np.ndarray,
    orig_labels: np.ndarray | None = None,
    beta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-temperature, noise-free limit of the assignment.

    Labels are the argmax of the shaped scores (lowest index on ties);
    a sample is kept iff its score at the chosen label is nonnegative.
    """
    pi = np.asarray(pi, dtype=np.float64)
    scores = pi
    if orig_labels is not None and beta != 0.0:
        scores = pi + beta * one_hot(np.asarray(orig_labels, dtype=np.int64), pi.shape[1])
    labels = scores.argmax(axis=1)
    kept = pi[np.arange(pi.shape[0]), labels] >= 0.0
    return labels, kept.astype(np.int64)


def combined_step_gradient(
    params: ModelParams,
    train_batch: Batch,
    aug_X: np.ndarray,
    aug_weights: np.ndarray,
    aug_soft_labels: np.ndarray,
) -> ParamGrad:
    """Gradient of mean train CE plus weighted-sum augmented soft CE.

    The two terms are mixed equally: the train batch contributes unit
    mass through its mean, the augmented batch through weights that the
    assignment already normalized to total mass one.
    """
    labels = check_labels(train_batch.hard_labels, params.n_classes)
    _, cache = mlp_forward(params, np.concatenate([train_batch.X, aug_X]))
    return _step_gradient(params, cache, labels, aug_weights, aug_soft_labels)


def saflex_gradient(
    params: ModelParams,
    train_batch: Batch,
    aug_batch: Batch,
    val_batch: Batch,
    cfg: SaflexConfig,
    rng: np.random.Generator,
) -> tuple[ParamGrad, SaflexOutput]:
    """Assignment plus combined gradient in one fused stacked pass.

    This is mean_ce_gradient of val_batch, pi_scores, saflex_assign and
    combined_step_gradient over one shared forward pass of the stacked
    [train, augmented, validation] rows, behind the same entry checks.
    """
    if train_batch.size == 0 or aug_batch.size == 0 or val_batch.size == 0:
        raise ValueError("all batches must be nonempty")
    b_tr, b_aug = train_batch.size, aug_batch.size
    check_labels(np.concatenate([
        train_batch.hard_labels, aug_batch.hard_labels, val_batch.hard_labels
    ]), params.n_classes)
    _, cache = mlp_forward(params, np.concatenate([train_batch.X, aug_batch.X, val_batch.X]))
    g_val = _mean_ce_gradient(params, cache, slice(b_tr + b_aug, None), val_batch.hard_labels)
    pi = _pi(params, cache, slice(b_tr, b_tr + b_aug), g_val)
    out = saflex_assign(pi, aug_batch.hard_labels, cfg, rng)
    grad = _step_gradient(params, cache, train_batch.hard_labels, out.weights, out.soft_labels)
    return grad, out
