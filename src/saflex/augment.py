"""Upstream augmenters producing candidate (features, label) pairs.

All transforms are value-semantic (the input batch is never touched) and
deterministic given their Generator. The label-noise injector exists so
experiments can corrupt augmented labels at a known, controllable rate.
AugmenterSpec carries every strength's range, and the transforms do not
check it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch, RangeError
from .losses import one_hot

KINDS = ("gaussian_jitter", "crop_flip", "mixup", "cutmix_tabular", "label_noise")


@dataclass
class AugmenterSpec:
    """Configuration for one augmentation pipeline.

    `flip_rate` stacks label noise after any base kind; with
    kind="label_noise" only the label noise runs.
    """

    kind: str = "gaussian_jitter"
    sigma: float = 0.5
    pad: int = 2
    mixup_alpha: float = 1.0
    p_replace: float = 0.1
    flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RangeError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.sigma >= 0:
            raise RangeError(f"sigma must be >= 0, got {self.sigma}")
        if not self.pad >= 0:
            raise RangeError(f"pad must be >= 0, got {self.pad}")
        if not self.mixup_alpha > 0:
            raise RangeError(f"mixup_alpha must be > 0, got {self.mixup_alpha}")
        for name, p in (("p_replace", self.p_replace), ("flip_rate", self.flip_rate)):
            if not 0.0 <= p <= 1.0:
                raise RangeError(f"{name} must lie in [0, 1], got {p}")


def gaussian_jitter(batch: Batch, sigma: float, rng: np.random.Generator) -> Batch:
    """Add isotropic Gaussian noise to the features; labels are copied."""
    noise = sigma * rng.standard_normal(batch.X.shape) if sigma > 0 else 0.0
    return Batch(batch.X + noise, batch.hard_labels.copy())


def cutmix_tabular(
    batch: Batch,
    p_replace: float,
    rng: np.random.Generator,
    groups: list[np.ndarray],
) -> Batch:
    """Replace each feature with the same feature of a random donor row.

    Replacement is per source feature; a one-hot categorical group moves
    as a unit so every output row stays a valid encoding. The base row's
    label is kept. `groups` holds integer column-index arrays, one per
    source feature (Dataset.group_slices); a column in several groups
    ends with the donor of the last group that replaced it.

    Each group draws which rows it replaces and each row's donor; those
    draws only record, per column and row, how far past the base row the
    donor lies. The output is then one gather from `batch.X`.
    """
    b, d = batch.X.shape
    if b < 2 or p_replace == 0.0:
        return Batch(batch.X.copy(), batch.hard_labels.copy())
    shift = np.zeros((d, b), dtype=np.int64)  # column x row; 0 keeps the base row
    for cols in groups:
        take = rng.random(b) < p_replace
        # donors distinct from the base row
        offsets = rng.integers(1, b, size=b)
        shift[cols[:, None], take] = offsets[take]
    # flat index into batch.X of each output entry. A gather takes its index's
    # layout, and the matmuls downstream need X C-contiguous to keep their bits.
    src = np.add(shift.T, np.arange(b)[:, None], order="C")
    src %= b
    src *= d
    src += np.arange(d)
    return Batch(batch.X.ravel()[src], batch.hard_labels.copy())


def mixup(
    batch: Batch,
    alpha: float,
    rng: np.random.Generator,
    num_classes: int,
) -> Batch:
    """Convex-combine each row with a random partner; soft label to match."""
    lam_val = float(rng.beta(alpha, alpha))
    perm = rng.permutation(batch.size)
    X = lam_val * batch.X + (1.0 - lam_val) * batch.X[perm]
    soft = (lam_val * one_hot(batch.hard_labels, num_classes)
            + (1.0 - lam_val) * one_hot(batch.hard_labels[perm], num_classes))
    hard = np.where(lam_val >= 0.5, batch.hard_labels, batch.hard_labels[perm])
    return Batch(X, hard, soft_labels=soft)


def crop_flip(
    batch: Batch,
    pad: int,
    rng: np.random.Generator,
    image_hw: tuple[int, int] | None,
) -> Batch:
    """Zero-pad, re-crop at a random offset, and flip horizontally at 0.5."""
    if image_hw is None:
        raise ValueError("crop_flip needs a batch with image_hw metadata")
    h, w = image_hw
    if h != w:
        raise ValueError(f"crop_flip requires square images, got {h}x{w}")
    b = batch.size
    imgs = batch.X.reshape(b, h, w)
    padded = np.pad(imgs, ((0, 0), (pad, pad), (pad, pad)))
    # at pad 0 this is int64 zeros, and it draws nothing
    offsets = rng.integers(0, 2 * pad + 1, size=(b, 2))
    do_flip = rng.random(b) < 0.5
    rows = offsets[:, 0, None] + np.arange(h)
    cols = offsets[:, 1, None] + np.arange(w)
    out = padded[np.arange(b)[:, None, None], rows[:, :, None], cols[:, None, :]]
    out[do_flip] = out[do_flip, :, ::-1]
    return Batch(out.reshape(b, h * w), batch.hard_labels.copy())


def label_noise(
    batch: Batch,
    rho: float,
    rng: np.random.Generator,
    num_classes: int,
) -> Batch:
    """Replace each label by a uniformly chosen different class w.p. rho."""
    if rho > 0 and num_classes < 2:
        raise ValueError("label noise needs at least two classes")
    labels = batch.hard_labels.copy()
    if rho > 0:
        hit = rng.random(batch.size) < rho
        # uniform over the K-1 other classes
        shift = rng.integers(1, num_classes, size=batch.size)
        labels[hit] = (labels[hit] + shift[hit]) % num_classes
    return Batch(batch.X.copy(), labels)


def apply_augmenter(
    spec: AugmenterSpec,
    batch: Batch,
    rng: np.random.Generator,
    num_classes: int,
    groups: list[np.ndarray],
    image_hw: tuple[int, int] | None,
) -> Batch:
    """Run the configured pipeline: base kind, then optional label noise."""
    if spec.kind == "gaussian_jitter":
        out = gaussian_jitter(batch, spec.sigma, rng)
    elif spec.kind == "crop_flip":
        out = crop_flip(batch, spec.pad, rng, image_hw)
    elif spec.kind == "mixup":
        out = mixup(batch, spec.mixup_alpha, rng, num_classes)
    elif spec.kind == "cutmix_tabular":
        out = cutmix_tabular(batch, spec.p_replace, rng, groups)
    else:  # "label_noise", the one kind AugmenterSpec allows besides these
        return label_noise(batch, spec.flip_rate, rng, num_classes)
    if spec.flip_rate > 0:
        out = label_noise(out, spec.flip_rate, rng, num_classes)
    return out
