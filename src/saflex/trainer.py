"""Epoch-level training loop with augmentation modes and metrics.

Modes: "none" trains on the raw minibatch; "naive" is standard practice,
training on the augmented minibatch with its upstream labels; "saflex"
trains on the raw-plus-augmented union with the assignment step choosing
the augmented samples' weights and soft labels. All randomness comes
from counter-based streams keyed by (seed, purpose, epoch, iteration),
so two runs with the same config produce identical numbers regardless of
the host.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from .augment import AugmenterSpec, apply_augmenter
from .core import SaflexConfig, SaflexOutput, saflex_gradient
from .data import Batch, Dataset, SplitSpec, apply_train_statistics, split
from .losses import ce_from_logits, mean_ce_grad_logits, one_hot
from .nn import ModelParams, ParamGrad, init_mlp, mlp_backward, mlp_forward
from .rng import stream

METRICS_COLUMNS = (
    "epoch",
    "train_loss",
    "val_loss",
    "test_acc",
    "mean_w",
    "frac_zero_w",
    "frac_label_changed",
    "sec_per_epoch",
)

MODES = ("none", "naive", "saflex")


class DivergenceError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class RunConfig:
    hidden: tuple[int, ...] = (32, 32)
    lr: float = 0.1
    momentum: float = 0.0
    optimizer: str = "sgd"  # sgd | adam; verification paths use plain sgd
    epochs: int = 20
    batch_size: int = 64
    val_batch_size: int | None = None  # defaults to batch_size
    mode: str = "saflex"
    augment: AugmenterSpec = field(default_factory=AugmenterSpec)
    saflex: SaflexConfig = field(default_factory=SaflexConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    standardize: bool = False  # z-score continuous features from the train split
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0 or self.epochs < 0 or self.batch_size < 1:
            raise ValueError("invalid run configuration")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden layer widths must be >= 1, got {list(self.hidden)}")
        if self.val_batch_size is not None and self.val_batch_size < 1:
            raise ValueError(f"val_batch_size must be >= 1, got {self.val_batch_size}")

    def effective_val_batch(self) -> int:
        if self.val_batch_size is not None:
            return self.val_batch_size
        return self.batch_size


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    val_loss: float
    test_acc: float
    mean_w: float
    frac_zero_w: float
    frac_label_changed: float
    sec_per_epoch: float

    def as_tuple(self) -> tuple:
        return astuple(self)


def evaluate(params: ModelParams, ds: Dataset) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy over a dataset."""
    if ds.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs, cache = mlp_forward(params, ds.X)
    loss = ce_from_logits(cache.logits, ds.labels)
    acc = float((probs.argmax(axis=1) == ds.labels).mean())
    return loss, acc


class _ValCycler:
    """Without-replacement validation minibatches, reshuffled per pass.

    Each pass is gathered once in its shuffled order; its minibatches are
    consecutive slices of it.
    """

    def __init__(self, val: Dataset, batch_size: int, seed: int):
        self.val = val
        self.batch_size = min(batch_size, val.size)
        self.seed = seed
        self.cycle = -1
        self.pos = 0
        self.shuffled = val.batch(np.empty(0, dtype=np.int64))

    def next_batch(self) -> Batch:
        if self.pos + self.batch_size > self.shuffled.size:
            self.cycle += 1
            order = stream(self.seed, "val_order", self.cycle).permutation(self.val.size)
            self.shuffled = self.val.batch(order)
            self.pos = 0
        rows = slice(self.pos, self.pos + self.batch_size)
        self.pos += self.batch_size
        s = self.shuffled
        return Batch(s.X[rows], s.hard_labels[rows], image_hw=s.image_hw)


class _Optimizer:
    """SGD with optional momentum, or Adam, over the flat parameter vector."""

    def __init__(self, cfg: RunConfig, params: ModelParams):
        self.cfg = cfg
        self.velocity = np.zeros_like(params.flat) if cfg.momentum > 0 else None
        if cfg.optimizer == "adam":
            self.m = np.zeros_like(params.flat)
            self.v = np.zeros_like(params.flat)
            self.t = 0

    def apply(self, params: ModelParams, grad: ParamGrad) -> ModelParams:
        g = grad.flat
        if self.cfg.optimizer == "adam":
            self.t += 1
            b1, b2, eps = 0.9, 0.999, 1e-8
            self.m = b1 * self.m + (1 - b1) * g
            self.v = b2 * self.v + (1 - b2) * g * g
            step = (self.m / (1 - b1 ** self.t)) / (np.sqrt(self.v / (1 - b2 ** self.t)) + eps)
        elif self.velocity is not None:
            self.velocity = self.cfg.momentum * self.velocity + g
            step = self.velocity
        else:
            step = g
        return ModelParams.from_flat(params.flat - self.cfg.lr * step, params.shapes)


def run_splits(run: RunConfig, data: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """The (train, val, test) splits a run trains and evaluates on.

    With run.standardize, continuous columns are z-scored with the train
    split's statistics.
    """
    parts = split(data, run.split)
    if run.standardize:
        parts = apply_train_statistics(*parts)
    return parts


Observer = Callable[[int, int, Batch, Batch | None, SaflexOutput | None], None]


def train(
    run: RunConfig,
    data: Dataset,
    observer: Observer | None = None,
) -> tuple[list[MetricsRow], ModelParams]:
    """Train per the config; returns (per-epoch metrics, final parameters).

    The observer, when given, sees every iteration's base minibatch,
    augmented minibatch (None in mode "none"), and assignment output
    (None outside mode "saflex").
    """
    train_ds, val_ds, test_ds = run_splits(run, data)
    if min(train_ds.size, val_ds.size, test_ds.size) == 0:
        raise ValueError("every split must be nonempty for training")
    k = data.num_classes
    params = init_mlp([data.dim, *run.hidden, k], seed=run.seed)
    optimizer = _Optimizer(run, params)
    cycler = _ValCycler(val_ds, run.effective_val_batch(), run.seed)
    groups = data.group_slices()
    history: list[MetricsRow] = []
    for epoch in range(run.epochs):
        tic = time.perf_counter()
        order = stream(run.seed, "shuffle", epoch).permutation(train_ds.size)
        w_sum = zero_sum = changed_sum = n_aug = 0.0
        for it in range(0, train_ds.size, run.batch_size):
            i = it // run.batch_size
            base = train_ds.batch(order[it : it + run.batch_size])
            aug: Batch | None = None
            out: SaflexOutput | None = None
            if run.mode != "none":
                aug_rng = stream(run.seed, "augment", epoch, it)
                aug = apply_augmenter(run.augment, base, aug_rng, k, groups)
                n_aug += 1
            if run.mode == "saflex":
                val_batch = cycler.next_batch()
                gumbel_rng = stream(run.saflex.seed, "gumbel", epoch, it)
                try:
                    grad, out = saflex_gradient(
                        params, base, aug, val_batch, run.saflex, gumbel_rng
                    )
                except FloatingPointError as exc:
                    raise DivergenceError(f"{exc} at epoch {epoch}, iteration {i}") from exc
                w_sum += float(out.weights.sum() / out.weights.size)
                zero_sum += out.frac_zero_weight
                changed_sum += out.frac_label_changed
            else:
                # naive is standard practice: the augmented batch replaces the raw one
                batch = base if aug is None else aug
                probs, cache = mlp_forward(params, batch.X)
                targets = batch.soft_labels
                if targets is None:
                    targets = one_hot(batch.hard_labels, k)
                grad = mlp_backward(params, cache, mean_ce_grad_logits(probs, targets))
                if aug is not None:
                    w_sum += 1.0 / aug.size
            if not np.isfinite(grad.flat).all():
                raise DivergenceError(f"non-finite gradient at epoch {epoch}, iteration {i}")
            params = optimizer.apply(params, grad)
            if observer is not None:
                observer(epoch, i, base, aug, out)
        train_loss, _ = evaluate(params, train_ds)
        val_loss, _ = evaluate(params, val_ds)
        _, test_acc = evaluate(params, test_ds)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}: "
                                  f"train={train_loss}, val={val_loss}")
        history.append(MetricsRow(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=val_loss,
            test_acc=test_acc,
            mean_w=w_sum / n_aug if n_aug else 0.0,
            frac_zero_w=zero_sum / n_aug if n_aug else 0.0,
            frac_label_changed=changed_sum / n_aug if n_aug else 0.0,
            sec_per_epoch=time.perf_counter() - tic,
        ))
    return history, params


def write_metrics_csv(rows: list[MetricsRow], path: str) -> None:
    """Exact-format metrics file; float fields use shortest round-trip repr."""
    with open(path, "w", newline="") as f:
        f.write(",".join(METRICS_COLUMNS) + "\n")
        for row in rows:
            vals = row.as_tuple()
            f.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in vals))
            f.write("\n")
