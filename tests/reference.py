"""Reference implementations that the tests compare against.

No saflex command runs anything here. The module holds the plain losses,
the contrastive block, central finite differences, the brute-force
assignment list, the per-instance oracle-check loop, the raw image
writer and the parameter-vector arithmetic that the unit tests and the
acceptance criteria score the package with. `tests/test_public_names.py`
checks that no module under `src/saflex` imports from the tests or
defines a name that this module defines.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from saflex import cli
from saflex.config import ConfigError
from saflex.core import SaflexConfig
from saflex.data import (IMAGE_MAGIC, Dataset, FeatureGroup, apply_train_statistics, decoding,
                         read_schema)
from saflex.losses import check_simplex_rows, one_hot
from saflex.nn import ModelParams, ParamGrad, block_spans, row_max
from saflex.oracle import ENUM_MAX_B, ENUM_MAX_K, Assignment


# ---------------------------------------------------------------------------
# parameter vectors and rows


def check_matrix(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense 2-D float64 carrier; returns a C-contiguous view."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax with max subtraction; cannot underflow."""
    z = logits - row_max(logits)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def zeros_like(params: ModelParams) -> ParamGrad:
    """A zero vector laid out like params."""
    return ParamGrad.from_flat(np.zeros_like(params.flat), params.shapes)


def from_blocks(cls, weights: list[np.ndarray], biases: list[np.ndarray]):
    """A `cls` vector (ModelParams or ParamGrad) holding copies of the given layer blocks.

    Each block is written into its block_spans span of a fresh flat vector.
    """
    if len(weights) != len(biases):
        raise ValueError("weights and biases must pair up layer by layer")
    shapes = tuple(w.shape for w in weights)
    spans = block_spans(shapes)
    flat = np.empty(spans[-1][1])
    for (lo, hi), block in zip(spans, [*weights, *biases]):
        flat[lo:hi] = np.reshape(block, hi - lo)
    return cls.from_flat(flat, shapes)


def copy(params: ModelParams) -> ModelParams:
    """params over a copy of their flat vector."""
    return ModelParams.from_flat(params.flat.copy(), params.shapes)


def _check_same_shape(a: ParamGrad, b: ParamGrad) -> None:
    if a.shapes != b.shapes:
        raise ValueError("parameter-vector shapes do not match")


def add_scaled(a: ParamGrad, b: ParamGrad, scale: float) -> ParamGrad:
    """Return a + scale * b."""
    _check_same_shape(a, b)
    return ParamGrad.from_flat(a.flat + scale * b.flat, a.shapes)


def scale(g: ParamGrad, c: float) -> ParamGrad:
    """Return c * g."""
    return ParamGrad.from_flat(c * g.flat, g.shapes)


def dot(a: ParamGrad, b: ParamGrad) -> float:
    """Sum of per-block dots, all weight blocks first, then all biases.

    Each block is its 1-D slice of `flat`, the memory a weight block's
    ravel() views, so every ddot runs on the same elements in the same order.
    """
    _check_same_shape(a, b)
    return sum(float(a.flat[lo:hi].dot(b.flat[lo:hi])) for lo, hi in block_spans(a.shapes))


def norm(g: ParamGrad) -> float:
    return float(np.linalg.norm(g.flat))


# ---------------------------------------------------------------------------
# losses


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


# ---------------------------------------------------------------------------
# contrastive block: the batch as a proxy classification task over its own
# entries, with the same linear structure as the weighted soft-label loss


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
            check_simplex_rows(self.proxy_labels, "proxy_labels")

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


# ---------------------------------------------------------------------------
# brute force


def finite_diff(fn: Callable[[ModelParams], float], params: ModelParams, eps: float) -> ParamGrad:
    """Central finite differences of a scalar function, per flat coordinate."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    grad = zeros_like(params)
    work = copy(params)
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


def iter_assignments(b: int, k: int) -> Iterator[Assignment]:
    """All distinct assignments: each sample keeps one of k labels or drops."""
    for combo in itertools.product(range(k + 1), repeat=b):
        labels = np.array([c if c < k else 0 for c in combo], dtype=np.int64)
        weights = np.array([1 if c < k else 0 for c in combo], dtype=np.int64)
        yield Assignment(labels, weights)


def oracle_check_per_instance(args: argparse.Namespace) -> int:
    """`saflex oracle-check` with every step run one instance at a time.

    It looks up the scoring, assignment and enumeration functions through
    `saflex.cli`, so a test that replaces one there replaces it here too.
    """
    if args.k < 2:
        raise ConfigError("--k must be >= 2: a single-class task has nothing to assign")
    if args.b < 1 or args.b > ENUM_MAX_B or args.k > ENUM_MAX_K:
        raise ConfigError(f"guard bounds: 1 <= --b <= {ENUM_MAX_B} and 2 <= --k <= {ENUM_MAX_K}")
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if not 0 < args.tau < np.inf:
        raise ConfigError(f"--tau must be a finite number > 0, got {args.tau}")
    cfg = SaflexConfig(beta=0.0, tau=args.tau, gumbel_enabled=False)
    rng_unused = np.random.default_rng(0)
    max_gap = 0.0
    value_mismatch = 0
    assign_mismatch = 0
    keep_algorithm = 0
    keep_sum_rule = 0
    rule_disagree = 0
    samples = 0
    for i in range(args.n):
        params, X, g_val = cli.oracle_instance(args.seed, i, args.b, args.k)
        b = X.shape[0]
        pi_fast = cli.pi_scores(params, X, g_val)
        if not np.isfinite(pi_fast).all():
            raise FloatingPointError(f"instance {i}: the fast scores are not finite")
        try:
            out = cli.saflex_assign(pi_fast, np.zeros(b, dtype=np.int64), cfg, rng_unused)
        except FloatingPointError as exc:
            raise FloatingPointError(f"instance {i}: {exc}") from exc
        ours = Assignment(out.soft_labels.argmax(axis=1), out.binary_weights.astype(np.int64))
        pi_ref = cli.pi_scores_reverse(params, X, g_val)
        if not np.isfinite(pi_ref).all():
            raise FloatingPointError(f"instance {i}: the reference scores are not finite")
        best, best_obj = cli.enumerate_optimum_scores(pi_ref)
        gap = best_obj - cli.assignment_objective(pi_ref, ours)
        max_gap = max(max_gap, abs(gap))
        if gap != 0.0:
            value_mismatch += 1
            print(f"instance {i}: nonzero gap {gap!r}")
        # a sample kept by one assignment only, or kept by both under other labels
        kept = best.weights == 1
        differ = (best.weights != ours.weights) | ((best.labels != ours.labels) & kept)
        if np.count_nonzero(differ):
            assign_mismatch += 1
        keep_algorithm += np.count_nonzero(ours.weights)
        sum_keep = np.add.reduce(pi_ref, axis=1) >= 0  # pi_ref.sum(axis=1), bitwise
        keep_sum_rule += np.count_nonzero(sum_keep)
        rule_disagree += np.count_nonzero(sum_keep != ours.weights)
        samples += b
    print(f"instances: {args.n}  samples: {samples}")
    print(f"max |objective gap|: {max_gap!r}")
    print(f"value mismatches: {value_mismatch}  assignment mismatches: {assign_mismatch}")
    print(f"keep rate (score-at-label rule): {keep_algorithm / samples:.4f}")
    print(f"keep rate (score-sum rule):      {keep_sum_rule / samples:.4f}")
    print(f"per-sample rule disagreement:    {rule_disagree / samples:.4f}")
    # a NaN gap counts as a mismatch, though max() drops it from max_gap
    passed = value_mismatch == 0
    print(f"oracle-check: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 3


# ---------------------------------------------------------------------------
# files


def save_images_raw(pixels: np.ndarray, labels: np.ndarray, num_classes: int, path: str) -> None:
    """pixels: (n, h, w) uint8; little-endian header then pixels then labels."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(IMAGE_MAGIC)
        f.write(struct.pack("<IIII", n, h, w, num_classes))
        f.write(pixels.tobytes())
        f.write(labels.tobytes())


def _codes(raw: list[str]) -> tuple[list[str], np.ndarray]:
    """A column's sorted distinct values, and each entry's index among them."""
    values = sorted(set(raw))
    lut = {v: i for i, v in enumerate(values)}
    return values, np.array([lut[v] for v in raw], dtype=np.int64)


def load_csv_unchunked(path: str, schema_path: str, standardize: bool = False) -> Dataset:
    """`saflex.data.load_csv` as it was before it parsed in chunks: every
    row is read as strings before any value is converted, and each column
    is then converted whole, in schema order."""
    schema = read_schema(schema_path)
    expected = [name for name, _, _ in schema]
    with decoding(path), open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != expected:
            missing = [c for c in expected if c not in header]
            if missing:
                raise ValueError(f"{path}: missing columns {missing} required by schema")
            raise ValueError(f"{path}: header {header} does not match schema order {expected}")
        rows, lines = [], []
        for r in reader:
            if not r:
                continue
            if len(r) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: {len(r)} fields, the header has {len(header)}"
                )
            rows.append(r)
            lines.append(reader.line_num)

    cols = {name: [r[j].strip() for r in rows] for j, name in enumerate(header)}
    n = len(rows)
    blocks: list[np.ndarray] = []
    groups: list[FeatureGroup] = []
    start = 0
    for name, kind, card in schema:  # read_schema allows exactly one label column
        raw = cols[name]
        if kind == "label":
            label_values, labels = _codes(raw)
        elif kind == "continuous":
            try:
                x = np.array([float(v) for v in raw], dtype=np.float64)
            except ValueError:
                for i, v in enumerate(raw):
                    try:
                        float(v)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lines[i]}: non-numeric value {v!r} in column {name!r}"
                        ) from None
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{path}:{lines[i]}: non-finite value {raw[i]!r} in column {name!r}"
                )
            blocks.append(x[:, None])
            groups.append(FeatureGroup(name, "continuous", start, 1))
            start += 1
        else:
            values, codes = _codes(raw)
            if card is not None and len(values) > card:
                raise ValueError(
                    f"{path}: column {name!r} has unknown category {values[card]!r} "
                    f"(cardinality {card}, saw {len(values)} values)"
                )
            width = card if card is not None else len(values)
            blocks.append(one_hot(codes, width))
            groups.append(FeatureGroup(name, "categorical", start, width, values))
            start += width
    X = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    ds = Dataset(X, labels, len(label_values), groups, label_values)
    return apply_train_statistics(ds, (np.arange(n),))[0] if standardize else ds
