"""Datasets: synthetic 2-D tasks, schema'd CSV, raw images, and splits.

A Dataset holds a dense float64 feature matrix with categorical columns
one-hot expanded, integer labels in [0, K), and the feature-group
metadata needed to map processed columns back to the original schema.
Datasets are frozen after construction and safe to share.
"""

from __future__ import annotations

import csv
import io
import os
import struct
import warnings
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .losses import check_labels, check_simplex_rows
from .nn import check_exact_length
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

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.hard_labels = np.asarray(self.hard_labels, dtype=np.int64)
        if self.X.ndim != 2 or self.hard_labels.shape != (self.X.shape[0],):
            raise ValueError("batch features must be (B, d) with one label per row")
        if self.soft_labels is not None:
            self.soft_labels = np.asarray(self.soft_labels, dtype=np.float64)
            if self.soft_labels.shape[0] != self.X.shape[0]:
                raise ValueError("soft labels must have one row per sample")
            check_simplex_rows(self.soft_labels, "soft labels")

    @property
    def size(self) -> int:
        return self.X.shape[0]


class RangeError(ValueError):
    """A value outside its range; the message starts with its argument's or field's name."""


@dataclass
class SplitSpec:
    train: float = 0.6
    val: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        fracs = (self.train, self.val, self.test)
        for name, f in zip(("train", "val", "test"), fracs):
            if not f >= 0:
                raise RangeError(f"{name} must be >= 0, got {f}")
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
        check_labels(self.labels, self.num_classes)
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
        return Batch(self.X[idx], self.labels[idx])

    def group_slices(self) -> list[np.ndarray]:
        """Column indices of each source feature, for group-wise transforms."""
        return [np.arange(g.start, g.start + g.width) for g in self.groups]


# gen_two_gaussians' class means by default, and so data.means' default
TWO_GAUSSIANS_MEANS = ((1.0, 1.0), (-1.0, -1.0))


def gen_two_gaussians(
    n: int,
    means: tuple[tuple[float, float], tuple[float, float]] = TWO_GAUSSIANS_MEANS,
    sigma: float = 1.0,
    *,
    seed: int,
) -> Dataset:
    """Balanced binary 2-D task: class c drawn from N(mean_c, sigma^2 I)."""
    if n < 2:
        raise RangeError(f"n must be >= 2, got {n}")
    if not 0 < sigma < np.inf:
        raise RangeError(f"sigma must be a finite number > 0, got {sigma}")
    try:
        mu = np.asarray(means, dtype=np.float64)
    except ValueError:  # ragged rows
        mu = np.empty(0)
    if mu.shape != (2, 2) or not np.isfinite(mu).all():
        raise RangeError(f"means must be a finite 2x2 array, got {means}")
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


def gen_two_moons(n: int, sigma: float, seed: int) -> Dataset:
    """Two interleaved half circles with Gaussian noise of std sigma."""
    if n < 2:
        raise RangeError(f"n must be >= 2, got {n}")
    if not 0 <= sigma < np.inf:
        raise RangeError(f"sigma must be a finite number >= 0, got {sigma}")
    rng = stream(seed, "two_moons")
    n0 = n // 2
    n1 = n - n0
    t0 = np.pi * rng.random(n0)
    t1 = np.pi * rng.random(n1)
    outer = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    inner = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    X = np.concatenate([outer, inner]) + sigma * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n)
    return Dataset(X[order], y[order], 2)


# ---------------------------------------------------------------------------
# CSV + schema

@contextmanager
def decoding(path: str):
    """Turn a text file's decode error into a ValueError that names the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def read_schema(schema_path: str) -> list[tuple[str, str, int | None]]:
    """Schema file: one `name,kind[,cardinality]` line per column."""
    out = []
    names: set[str] = set()
    with decoding(schema_path), open(schema_path, newline="") as f:
        for ln, row in enumerate(csv.reader(f), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (2, 3):
                raise ValueError(f"{schema_path}:{ln}: expected name,kind[,cardinality]")
            name, kind = row[0].strip(), row[1].strip()
            if name in names:
                raise ValueError(f"{schema_path}:{ln}: duplicate column name {name!r}")
            names.add(name)
            if kind not in _KINDS:
                raise ValueError(f"{schema_path}:{ln}: unknown kind {kind!r}")
            card = row[2].strip() if len(row) == 3 else None
            if card is not None:
                if not card.isdecimal() or int(card) < 1:
                    raise ValueError(f"{schema_path}:{ln}: cardinality must be a positive "
                                     f"integer, got {card!r}")
                card = int(card)
                if kind != "categorical":
                    raise ValueError(f"{schema_path}:{ln}: a cardinality is only for "
                                     "categorical columns")
            out.append((name, kind, card))
    if sum(1 for _, kind, _ in out if kind == "label") != 1:
        raise ValueError(f"{schema_path}: schema must declare exactly one label column")
    return out


CSV_CHUNK_ROWS = 256  # data rows parsed per pass; only one chunk's strings are alive


class _CsvColumn:
    """One schema column, parsed a chunk at a time.

    A continuous column keeps one float64 array per chunk; a categorical
    or label column keeps one int64 array of first-seen codes per chunk,
    and the code of each distinct value. The first non-numeric and the
    first non-finite value are kept with their lines, to be raised after
    the last chunk.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.parts: list[np.ndarray] = []
        self.table: dict[str, int] = {}
        self.non_numeric: tuple[int, str] | None = None
        self.non_finite: tuple[int, str] | None = None

    def add(self, raw: list[str], lines: list[int]) -> None:
        if self.kind != "continuous":
            table = self.table
            self.parts.append(np.array([table.setdefault(v, len(table)) for v in raw],
                                       dtype=np.int64))
            return
        if self.non_numeric:
            return  # the column's error is known; its values are not needed
        try:
            x = np.array([float(v) for v in raw], dtype=np.float64)
        except ValueError:
            i = next(i for i, v in enumerate(raw) if not _parses(v))
            self.non_numeric = (lines[i], raw[i])
            return
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size and not self.non_finite:
            self.non_finite = (lines[bad[0]], raw[bad[0]])
        self.parts.append(x)

    def sorted_codes(self) -> tuple[list[str], np.ndarray]:
        """The sorted distinct values, and each row's index among them."""
        values = sorted(self.table)
        lut = {v: i for i, v in enumerate(values)}
        rank = np.array([lut[v] for v in self.table], dtype=np.int64)
        return values, rank[np.concatenate(self.parts)]


def _parses(v: str) -> bool:
    try:
        float(v)
    except ValueError:
        return False
    return True


def _read_chunk(reader, path: str, width: int) -> tuple[list[list[str]], list[int]]:
    """The next CSV_CHUNK_ROWS non-blank rows (fewer at the end), and the line each ends on."""
    rows, lines = [], []
    for r in reader:
        if not r:
            continue
        if len(r) != width:
            raise ValueError(f"{path}:{reader.line_num}: {len(r)} fields, the header has {width}")
        rows.append(r)
        lines.append(reader.line_num)
        if len(rows) == CSV_CHUNK_ROWS:
            break
    return rows, lines


def load_csv(path: str, schema_path: str, standardize: bool = False) -> Dataset:
    """Load a header'd CSV against a schema.

    Continuous columns are returned raw, or with standardize=True z-scored
    over the file by apply_train_statistics; categorical columns are
    one-hot expanded over their sorted observed values. A row whose field
    count differs from the header's, or a continuous value that is not a
    finite number, raises ValueError naming the file, line and column; a
    file that does not decode raises ValueError naming the file.

    The rows are turned into numbers CSV_CHUNK_ROWS at a time, so only one
    chunk's strings are alive. A decode or field-count error is raised
    where it is read; value errors wait for the last chunk and are raised
    in schema order, a column's non-numeric value before its non-finite one.
    """
    schema = read_schema(schema_path)
    expected = [name for name, _, _ in schema]
    columns = [_CsvColumn(kind) for _, kind, _ in schema]
    n = 0
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
        while True:  # a file of whole chunks ends on an empty one
            rows, lines = _read_chunk(reader, path, len(header))
            for j, col in enumerate(columns):
                col.add([r[j].strip() for r in rows], lines)
            n += len(rows)
            if len(rows) < CSV_CHUNK_ROWS:
                break

    width = sum(1 if kind == "continuous" else card or len(col.table)
                for (_, kind, card), col in zip(schema, columns) if kind != "label")
    X = np.zeros((n, width))
    groups: list[FeatureGroup] = []
    start = 0
    for (name, kind, card), col in zip(schema, columns):  # read_schema allows one label column
        if col.non_numeric:
            line, raw = col.non_numeric
            raise ValueError(f"{path}:{line}: non-numeric value {raw!r} in column {name!r}")
        if col.non_finite:
            line, raw = col.non_finite
            raise ValueError(f"{path}:{line}: non-finite value {raw!r} in column {name!r}")
        if kind == "continuous":
            X[:, start] = np.concatenate(col.parts)
            groups.append(FeatureGroup(name, "continuous", start, 1))
            start += 1
            continue
        values, codes = col.sorted_codes()
        if kind == "label":
            label_values, labels = values, codes
            continue
        if card is not None and len(values) > card:
            raise ValueError(
                f"{path}: column {name!r} has unknown category {values[card]!r} "
                f"(cardinality {card}, saw {len(values)} values)"
            )
        X[np.arange(n), start + codes] = 1.0
        groups.append(FeatureGroup(name, "categorical", start, card or len(values), values))
        start += card or len(values)
    ds = Dataset(X, labels, len(label_values), groups, label_values)
    return apply_train_statistics(ds, (np.arange(n),))[0] if standardize else ds


def csv_texts(ds: Dataset) -> tuple[str, str]:
    """A Dataset as the text of a CSV and of its schema (categoricals from their argmax)."""
    schema: list[list] = []
    names = []
    columns: list[list[str]] = []
    for g in ds.groups:
        names.append(g.name)
        if g.kind == "continuous":
            schema.append([g.name, "continuous"])
            columns.append([repr(float(v)) for v in ds.X[:, g.start]])
        else:
            cats = g.categories or [str(i) for i in range(g.width)]
            schema.append([g.name, "categorical", g.width])
            hot = ds.X[:, g.start : g.start + g.width].argmax(axis=1)
            columns.append([cats[i] for i in hot])
    label, j = "label", 0
    while label in names:  # the first of label, label_1, label_2, ... no feature takes
        j += 1
        label = f"label_{j}"
    names.append(label)
    schema.append([label, "label"])
    lv = ds.label_values or [str(i) for i in range(ds.num_classes)]
    columns.append([lv[i] for i in ds.labels])
    data, schema_text = io.StringIO(), io.StringIO()
    csv.writer(data).writerows([names, *zip(*columns)])
    csv.writer(schema_text).writerows(schema)
    return data.getvalue(), schema_text.getvalue()


def write_files(files: dict[str, str | bytes]) -> None:
    """Write each path's text (newline="") or bytes; no path ever holds a cut-short body.

    Each body goes to `<path>.partial` beside its path; only once all are written
    is each renamed onto its path, in order, one rename at a time. An OSError
    removes the partial files and is raised again as `<path>: <error>`.
    """
    try:
        for path, body in files.items():
            mode, newline = ("wb", None) if isinstance(body, bytes) else ("w", "")
            with open(path + ".partial", mode, newline=newline) as f:
                f.write(body)
        for path in files:
            os.replace(path + ".partial", path)
    except OSError as exc:
        for name in files:
            with suppress(OSError):  # not made or renamed already; exc is the error to report
                os.remove(name + ".partial")
        raise OSError(f"{path}: {OSError(*exc.args)}") from None


# ---------------------------------------------------------------------------
# Raw images

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
    if not 1 <= k <= 256:  # uint8 labels name at most 256 classes; more only inflate the model
        raise ValueError(f"image file {path!r} declares {k} classes; uint8 labels allow 1 to 256")
    off += 16
    check_exact_length(blob, off + n * h * w + n, f"image file {path!r}")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=n * h * w, offset=off)
    labels = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off + n * h * w)
    if n and labels.max() >= k:
        raise ValueError(f"image file {path!r} has label {labels.max()} outside [0, {k})")
    X = pixels.reshape(n, h * w).astype(np.float64)
    X /= 255.0
    return Dataset(X, labels.astype(np.int64), k, image_hw=(h, w))


# ---------------------------------------------------------------------------
# Splitting + normalization

def split(ds: Dataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint, exhaustive, seed-deterministic, label-stratified partition.

    Returns the sorted int64 row indices of the train, val and test parts;
    `trainer.run_splits` gathers the rows.
    """
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
        rows = np.sort(buckets[s])
        if fracs[s] > 0 and rows.size:
            # np.unique would import numpy.ma on its first call
            present = np.count_nonzero(np.bincount(ds.labels[rows], minlength=ds.num_classes))
            if present < ds.num_classes:
                warnings.warn(
                    f"split {('train', 'val', 'test')[s]} is missing "
                    f"{ds.num_classes - present} class(es)",
                    stacklevel=2,
                )
        parts.append(rows)
    return parts[0], parts[1], parts[2]


def apply_train_statistics(ds: Dataset, parts: Sequence[np.ndarray]) -> tuple[Dataset, ...]:
    """One Dataset per part of ds's rows, continuous columns z-scored with
    the first part's statistics.

    Each part's rows are gathered once, `ds.X[rows]`, and that fresh array
    is z-scored in place: `X -= shift; X /= scale`, where `shift` and
    `scale` hold the first part's mean and std on continuous columns and 0
    and 1 elsewhere, which leave a value bitwise as it is. Without
    continuous columns each output is the plain gather of its rows, bitwise.
    """
    cont = [g.start for g in ds.groups if g.kind == "continuous"]
    out = []
    for i, rows in enumerate(parts):
        X = ds.X[rows]
        if cont:
            if i == 0:
                shift, scale = _column_statistics(X, cont)
            X -= shift
            X /= scale
        out.append(replace(ds, X=X, labels=ds.labels[rows]))
    return tuple(out)


def _column_statistics(X: np.ndarray, cont: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Full-width shift and scale: X's mean and std on the continuous
    columns (a zero std scales by 1), and 0 and 1 on the others.

    The statistics come from one copy of those columns, dropped on return.
    It is Fortran-ordered, so `np.add.reduce(dev, 0)` sums each column
    pairwise in the order `X[:, cont].mean(axis=0)` and `.std(axis=0)`
    use, and gives their values bit for bit; a C-ordered slice such as
    `X[:, lo:hi]` would sum in another order.
    """
    dev = X[:, cont]
    mean = np.add.reduce(dev, 0) / X.shape[0]
    dev -= mean
    dev *= dev
    sd = np.sqrt(np.add.reduce(dev, 0) / X.shape[0])
    shift = np.zeros(X.shape[1])
    shift[cont] = mean
    scale = np.ones(X.shape[1])
    scale[cont] = np.where(sd > 0, sd, 1.0)
    return shift, scale
