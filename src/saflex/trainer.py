"""Epoch-level training loop with augmentation modes and metrics.

Modes: "none" trains on the raw minibatch; "naive" is standard practice,
training on the augmented minibatch with its upstream labels; "saflex"
trains on the raw-plus-augmented union with the assignment step choosing
the augmented samples' weights and soft labels. Each step's gradient comes
from core (mean_ce_gradient, or saflex_gradient in mode "saflex"). All
randomness comes from counter-based streams, so two runs with the same
config produce identical numbers regardless of the host. Training draws
are keyed by epoch and iteration, validation minibatches by pass: pass c
permutes the n validation rows with (seed, "val_order", c) and serves
n // b full batches of b = min(val batch size, n) rows, so saflex
iteration j, counted across epochs, takes batch j % (n // b) of pass
j // (n // b).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Iterator

import numpy as np

from .augment import AugmenterSpec, apply_augmenter
from .core import SaflexConfig, SaflexOutput, mean_ce_gradient, saflex_gradient
# perfbench/tracing.py wraps trainer.split and trainer.apply_train_statistics by name
# (data.split_s, data.standardize_s): both stay module globals, each called once per
# standardized train()
from .data import Batch, Dataset, RangeError, SplitSpec, apply_train_statistics, split
from .losses import ce_from_logits
from .nn import ForwardCache, ModelParams, ParamGrad, init_mlp, mlp_forward, sgd_step
# not called here; perfbench/tracing.py wraps trainer.mlp_backward and trainer.one_hot,
# so the names stay
from .losses import one_hot  # noqa: F401
from .nn import mlp_backward  # noqa: F401
from .rng import stream

MODES = ("none", "naive", "saflex")
OPTIMIZERS = ("sgd", "adam")


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
    val_batch_size: int = 0  # 0 means: use batch_size
    mode: str = "saflex"
    augment: AugmenterSpec = field(default_factory=AugmenterSpec)
    saflex: SaflexConfig = field(default_factory=SaflexConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    standardize: bool = False  # z-score continuous features from the train split
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise RangeError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.optimizer not in OPTIMIZERS:
            raise RangeError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not self.lr > 0:
            raise RangeError(f"lr must be > 0, got {self.lr}")
        if not self.momentum >= 0:
            raise RangeError(f"momentum must be >= 0, got {self.momentum}")
        if self.optimizer == "adam" and self.momentum != 0:
            raise RangeError(f"momentum must be 0 with optimizer adam, got {self.momentum}")
        if self.epochs < 0:
            raise RangeError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise RangeError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(h < 1 for h in self.hidden):
            raise RangeError(f"hidden layer widths must be >= 1, got {list(self.hidden)}")
        if self.val_batch_size < 0:
            raise RangeError(f"val_batch_size must be >= 0, got {self.val_batch_size}")


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


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))  # the metrics.csv header


def evaluate(
    params: ModelParams, ds: Dataset, reuse: ForwardCache | None = None
) -> tuple[float, float]:
    """Mean cross-entropy and top-1 accuracy over a dataset.

    The forward pass writes into the leading rows of the workspace `reuse`
    when one is given (nn.mlp_forward). run_splits has refused an empty split.
    """
    probs, cache = mlp_forward(params, ds.X, reuse)
    loss = ce_from_logits(cache.logits, ds.labels)
    acc = float((probs.argmax(axis=1) == ds.labels).mean())
    return loss, acc


def _val_batches(val: Dataset, batch_size: int, seed: int) -> Iterator[Batch]:
    """Without-replacement validation minibatches, reshuffled per pass.

    Each minibatch is gathered from the pass's shuffled order; a partial
    batch at the end of a pass is skipped.
    """
    b = min(batch_size, val.size)
    for cycle in itertools.count():
        order = stream(seed, "val_order", cycle).permutation(val.size)
        for lo in range(0, val.size - b + 1, b):
            yield val.batch(order[lo : lo + b])


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
        g = step = grad.flat
        if self.cfg.optimizer == "adam":
            self.t += 1
            b1, b2, eps = 0.9, 0.999, 1e-8
            self.m = b1 * self.m + (1 - b1) * g
            self.v = b2 * self.v + (1 - b2) * g * g
            step = (self.m / (1 - b1 ** self.t)) / (np.sqrt(self.v / (1 - b2 ** self.t)) + eps)
        elif self.velocity is not None:
            self.velocity = step = self.cfg.momentum * self.velocity + g
        return sgd_step(params, step, self.cfg.lr)


def run_splits(run: RunConfig, data: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """The (train, val, test) splits a run trains and evaluates on.

    `split` partitions the row indices, and each part's rows are gathered
    once: with run.standardize, continuous columns are z-scored in place
    with the train split's statistics. Every split must be nonempty.
    """
    parts = split(data, run.split)
    if min(p.size for p in parts) == 0:
        raise ValueError("every split must be nonempty")
    if run.standardize:
        return apply_train_statistics(data, parts)
    return tuple(replace(data, X=data.X[p], labels=data.labels[p]) for p in parts)


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
    k = data.num_classes
    params = init_mlp([data.dim, *run.hidden, k], seed=run.seed)
    # every split's evaluation forward writes into the leading rows of one workspace;
    # evaluate reduces each before the next overwrites it
    ws = ForwardCache.empty(params, max(train_ds.size, val_ds.size, test_ds.size))
    optimizer = _Optimizer(run, params)
    val_batches = _val_batches(val_ds, run.val_batch_size or run.batch_size, run.seed)
    groups, image_hw = data.group_slices(), data.image_hw
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
                aug = apply_augmenter(run.augment, base, aug_rng, k, groups, image_hw)
                n_aug += 1
            if run.mode == "saflex":
                val_batch = next(val_batches)
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
                grad = mean_ce_gradient(params, base if aug is None else aug)
                if aug is not None:
                    w_sum += 1.0 / aug.size
            if not np.isfinite(grad.flat).all():
                raise DivergenceError(f"non-finite gradient at epoch {epoch}, iteration {i}")
            params = optimizer.apply(params, grad)
            if observer is not None:
                observer(epoch, i, base, aug, out)
        train_loss, _ = evaluate(params, train_ds, ws)
        val_loss, _ = evaluate(params, val_ds, ws)
        _, test_acc = evaluate(params, test_ds, ws)
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


def metrics_csv(rows: list[MetricsRow]) -> str:
    """Exact-format metrics file text; float fields use shortest round-trip repr."""
    lines = [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row.as_tuple())
             for row in rows]
    return "\n".join([",".join(METRICS_COLUMNS), *lines]) + "\n"
