"""Datasets: synthetic 2-D tasks, schema'd CSV, raw images, and splits.

A Dataset holds a dense float64 feature matrix with categorical columns
one-hot expanded, integer labels in [0, K), and the feature-group
metadata needed to map processed columns back to the original schema.
Datasets are frozen after construction and safe to share.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

IMAGE_MAGIC = b"SFIM1"

_KINDS = ("continuous", "categorical", "label")


@dataclass
class FeatureGroup:
    """One source column and where it landed in the processed matrix."""

    name: str
    kind: str  # continuous | categorical
    start: int
    width: int
    categories: list[str] | None = None


@dataclass
class Batch:
    """A minibatch: features, hard labels, optional soft labels."""

    X: np.ndarray
    hard_labels: np.ndarray
    soft_labels: np.ndarray | None = None
    image_hw: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.hard_labels = np.asarray(self.hard_labels, dtype=np.int64)
        if self.X.ndim != 2 or self.hard_labels.shape != (self.X.shape[0],):
            raise ValueError("batch features must be (B, d) with one label per row")
        if self.soft_labels is not None:
            self.soft_labels = np.asarray(self.soft_labels, dtype=np.float64)
            if self.soft_labels.shape[0] != self.X.shape[0]:
                raise ValueError("soft labels must have one row per sample")
            if np.any(self.soft_labels < -1e-9):
                raise ValueError("soft labels must be nonnegative")
            if np.any(np.abs(self.soft_labels.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("soft label rows must sum to 1")

    @property
    def size(self) -> int:
        return self.X.shape[0]


@dataclass
class SplitSpec:
    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        fracs = (self.train, self.val, self.test)
        if not all(f >= 0 for f in fracs) or all(f == 0 for f in fracs):
            raise ValueError("split fractions must be nonnegative, not all zero")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass
class Dataset:
    X: np.ndarray
    labels: np.ndarray
    num_classes: int
    groups: list[FeatureGroup] = field(default_factory=list)
    label_values: list[str] | None = None
    image_hw: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.ndim != 2 or self.labels.shape != (self.X.shape[0],):
            raise ValueError("X must be (n, d) with one label per row")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if not self.groups:
            self.groups = [
                FeatureGroup(f"x{j}", "continuous", j, 1) for j in range(self.X.shape[1])
            ]
        self.X.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def batch(self, indices: np.ndarray) -> Batch:
        idx = np.asarray(indices, dtype=np.int64)
        return Batch(self.X[idx], self.labels[idx], image_hw=self.image_hw)

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.X[idx], self.labels[idx], self.num_classes,
            self.groups, self.label_values, self.image_hw,
        )

    def group_slices(self) -> list[np.ndarray]:
        """Column indices of each source feature, for group-wise transforms."""
        return [np.arange(g.start, g.start + g.width) for g in self.groups]


class RangeError(ValueError):
    """A generator argument outside its range: `name` is the argument, `rule` the rest."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name
        self.rule = rule


def gen_two_gaussians(
    n: int,
    means: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 1.0), (-1.0, -1.0)),
    sigma: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Balanced binary 2-D task: class c drawn from N(mean_c, sigma^2 I)."""
    if n < 2:
        raise RangeError("n", f"must be >= 2, got {n}")
    if not 0 < sigma < np.inf:
        raise RangeError("sigma", f"must be a finite number > 0, got {sigma}")
    try:
        mu = np.asarray(means, dtype=np.float64)
    except ValueError:  # ragged rows
        mu = np.empty(0)
    if mu.shape != (2, 2) or not np.isfinite(mu).all():
        raise RangeError("means", f"must be a finite 2x2 array, got {means}")
    rng = stream(seed, "two_gaussians")
    n0 = n // 2
    counts = (n0, n - n0)
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(mu[c] + sigma * rng.standard_normal((cnt, 2)))
        ys.append(np.full(cnt, c, dtype=np.int64))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n)
    return Dataset(X[order], y[order], 2)


def gen_two_moons(n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved half circles with Gaussian noise."""
    if n < 2:
        raise RangeError("n", f"must be >= 2, got {n}")
    if not 0 <= noise < np.inf:
        raise RangeError("noise", f"must be a finite number >= 0, got {noise}")
    rng = stream(seed, "two_moons")
    n0 = n // 2
    n1 = n - n0
    t0 = np.pi * rng.random(n0)
    t1 = np.pi * rng.random(n1)
    outer = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    inner = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    X = np.concatenate([outer, inner]) + noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order], 2)


# ---------------------------------------------------------------------------
# CSV + schema

def read_schema(schema_path: str) -> list[tuple[str, str, int | None]]:
    """Schema file: one `name,kind[,cardinality]` line per column."""
    out = []
    with open(schema_path, newline="") as f:
        for ln, row in enumerate(csv.reader(f), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (2, 3):
                raise ValueError(f"{schema_path}:{ln}: expected name,kind[,cardinality]")
            name, kind = row[0].strip(), row[1].strip()
            if kind not in _KINDS:
                raise ValueError(f"{schema_path}:{ln}: unknown kind {kind!r}")
            card = row[2].strip() if len(row) == 3 else None
            if card is not None:
                if not card.isdigit() or int(card) < 1:
                    raise ValueError(
                        f"{schema_path}:{ln}: cardinality must be a positive integer, got {card!r}"
                    )
                card = int(card)
            out.append((name, kind, card))
    if sum(1 for _, kind, _ in out if kind == "label") != 1:
        raise ValueError(f"{schema_path}: schema must declare exactly one label column")
    return out


def write_schema(schema: list[tuple[str, str, int | None]], schema_path: str) -> None:
    with open(schema_path, "w", newline="") as f:
        w = csv.writer(f)
        for name, kind, card in schema:
            w.writerow([name, kind] if card is None else [name, kind, card])


def load_csv(path: str, schema_path: str, standardize: bool = True) -> Dataset:
    """Load a header'd CSV against a schema.

    Continuous columns are z-scored over the file (idempotent: already
    standardized data passes through unchanged); categorical columns are
    one-hot expanded over their sorted observed values. A row whose field
    count differs from the header's, or a continuous value that is not a
    finite number, raises ValueError naming the file, line and column.
    """
    schema = read_schema(schema_path)
    expected = [name for name, _, _ in schema]
    with open(path, newline="") as f:
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
    labels = None
    label_values: list[str] | None = None
    start = 0
    for name, kind, card in schema:
        raw = cols[name]
        if kind == "label":
            label_values = sorted(set(raw))
            lut = {v: i for i, v in enumerate(label_values)}
            labels = np.array([lut[v] for v in raw], dtype=np.int64)
            continue
        if kind == "continuous":
            try:
                x = np.array([float(v) for v in raw], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric value in column {name!r}") from exc
            bad = np.flatnonzero(~np.isfinite(x))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{path}:{lines[i]}: non-finite value {raw[i]!r} in column {name!r}"
                )
            if standardize:
                sd = x.std()
                x = (x - x.mean()) / (sd if sd > 0 else 1.0)
            blocks.append(x[:, None])
            groups.append(FeatureGroup(name, "continuous", start, 1))
            start += 1
        else:
            values = sorted(set(raw))
            if card is not None and len(values) > card:
                extra = [v for v in values][card:]
                raise ValueError(
                    f"{path}: column {name!r} has unknown category {extra[0]!r} "
                    f"(cardinality {card}, saw {len(values)} values)"
                )
            lut = {v: i for i, v in enumerate(values)}
            width = card if card is not None else len(values)
            block = np.zeros((n, width))
            block[np.arange(n), [lut[v] for v in raw]] = 1.0
            blocks.append(block)
            groups.append(FeatureGroup(name, "categorical", start, width, values))
            start += width
    if labels is None or label_values is None:
        raise ValueError(f"{schema_path}: no label column")
    X = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    return Dataset(X, labels, len(label_values), groups, label_values)


def save_csv(ds: Dataset, path: str, schema_path: str) -> None:
    """Write a Dataset back to CSV + schema (categoricals from their argmax)."""
    schema: list[tuple[str, str, int | None]] = []
    names = []
    columns: list[list[str]] = []
    for g in ds.groups:
        names.append(g.name)
        if g.kind == "continuous":
            schema.append((g.name, "continuous", None))
            columns.append([repr(float(v)) for v in ds.X[:, g.start]])
        else:
            cats = g.categories or [str(i) for i in range(g.width)]
            schema.append((g.name, "categorical", g.width))
            hot = ds.X[:, g.start : g.start + g.width].argmax(axis=1)
            columns.append([cats[i] for i in hot])
    names.append("label")
    schema.append(("label", "label", None))
    lv = ds.label_values or [str(i) for i in range(ds.num_classes)]
    columns.append([lv[i] for i in ds.labels])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for i in range(ds.size):
            w.writerow([col[i] for col in columns])
    write_schema(schema, schema_path)


# ---------------------------------------------------------------------------
# Raw images

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


def load_images_raw(path: str) -> Dataset:
    """Load the raw image format; pixels scaled to [0, 1] and flattened."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(IMAGE_MAGIC)] != IMAGE_MAGIC:
        raise ValueError(f"not an image file: bad magic in {path!r}")
    off = len(IMAGE_MAGIC)
    if len(blob) < off + 16:
        raise ValueError(f"truncated image file header in {path!r}")
    n, h, w, k = struct.unpack_from("<IIII", blob, off)
    off += 16
    expected = off + n * h * w + n
    if len(blob) != expected:
        raise ValueError(f"truncated image file: expected {expected} bytes, got {len(blob)}")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=n * h * w, offset=off)
    labels = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off + n * h * w)
    X = pixels.reshape(n, h * w).astype(np.float64) / 255.0
    return Dataset(X, labels.astype(np.int64), k, image_hw=(h, w))


# ---------------------------------------------------------------------------
# Splitting + normalization

def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint, exhaustive, seed-deterministic, label-stratified partition."""
    rng = stream(spec.seed, "split")
    fracs = np.array([spec.train, spec.val, spec.test])
    chunks: list[list[np.ndarray]] = [[], [], []]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        idx = idx[rng.permutation(idx.size)]
        # largest-remainder apportionment per class
        quota = fracs * idx.size
        base = np.floor(quota).astype(int)
        rem = idx.size - base.sum()
        base[np.argsort(-(quota - base), kind="stable")[:rem]] += 1
        pos = 0
        for s in range(3):
            chunks[s].append(idx[pos : pos + base[s]])
            pos += base[s]
    buckets = [np.concatenate(c) if c else np.empty(0, dtype=np.int64) for c in chunks]
    # guarantee nonzero splits receive at least one sample
    for s in range(3):
        if fracs[s] > 0 and buckets[s].size == 0:
            donor = int(np.argmax([b.size for b in buckets]))
            buckets[s] = buckets[donor][-1:]
            buckets[donor] = buckets[donor][:-1]
    parts = []
    for s in range(3):
        part = ds.subset(np.sort(buckets[s]))
        if fracs[s] > 0 and part.size:
            # np.unique would import numpy.ma on its first call
            present = np.count_nonzero(np.bincount(part.labels, minlength=ds.num_classes))
            if present < ds.num_classes:
                warnings.warn(
                    f"split {('train', 'val', 'test')[s]} is missing "
                    f"{ds.num_classes - present} class(es)",
                    stacklevel=2,
                )
        parts.append(part)
    return parts[0], parts[1], parts[2]


def apply_train_statistics(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Re-standardize continuous columns using the training split only.

    Each output is `(X - shift) / scale`, one pass over its split: `shift`
    and `scale` hold the train mean and std on continuous columns and 0
    and 1 elsewhere, which leave a value bitwise as it is. The statistics
    come from one copy of the continuous columns. That copy is
    Fortran-ordered, so `np.add.reduce(dev, 0)` sums each column pairwise
    in the order `X[:, cont].mean(axis=0)` and `.std(axis=0)` use, and
    gives their values bit for bit.
    """
    cont = [g.start for g in train.groups if g.kind == "continuous"]
    if not cont:
        return (train, *others)
    dev = train.X[:, cont]
    mean = np.add.reduce(dev, 0) / train.size
    dev -= mean
    dev *= dev
    sd = np.sqrt(np.add.reduce(dev, 0) / train.size)
    shift = np.zeros(train.dim)
    shift[cont] = mean
    scale = np.ones(train.dim)
    scale[cont] = np.where(sd > 0, sd, 1.0)
    out = []
    for ds in (train, *others):
        X = ds.X - shift
        X /= scale
        out.append(Dataset(X, ds.labels, ds.num_classes, ds.groups, ds.label_values, ds.image_hw))
    return tuple(out)
