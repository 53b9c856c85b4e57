"""Print one sha256 line per pinned run, so a bitwise comparison of two
commits is one diff of this script's output.

    PYTHONPATH=src python3 scripts/pinned_digests.py > before.txt
    # check out the other commit, then
    PYTHONPATH=src python3 scripts/pinned_digests.py | diff before.txt -

Pinned runs:
* the acceptance criterion-8 config through `saflex train`: metrics.csv
  without its wall-clock column, checkpoint.bin, and resolved_config.json
  with the run's temporary directory replaced by a fixed name;
* `saflex train --print-config` stdout, the default config's format;
* train() in each mode x {sgd, momentum 0.9, adam} x {gaussian_jitter,
  mixup} on two Gaussians: metrics rows without sec_per_epoch, and the
  final parameter vector;
* train() in each mode with crop_flip on small blob images, raw and
  standardized (every column continuous);
* train() in each mode with cutmix_tabular on a CSV with continuous and
  categorical columns and K = 3, loaded and standardized as `saflex
  train` does for CSV input;
* the same on a CSV whose continuous columns, one of them constant, are
  separated by a categorical group;
* `saflex oracle-check --n 1000 --seed 0` stdout;
* the raw bytes of both score tables, `core.pi_scores` and
  `oracle.pi_scores_reverse`, over the first 200 instances of that
  run, drawn by the CLI's own `oracle_instance`: a last-bit change in a
  score that flips no decision still shows;
* the features and labels of both CSVs z-scored over the file, by
  `apply_train_statistics` with every row as its one part (the path
  `load_csv(..., standardize=True)` takes), and of one `gen_two_moons`
  dataset;
* `cutmix_tabular` on the first 64 rows of the K = 3 CSV, with its own
  column groups and with a group list that shares a column, at
  p_replace 0.2 and 1.0 over 200 streams: the output bytes, the labels
  and each stream's next draw.
* train() in each mode with gaussian_jitter and label noise on two
  Gaussians, split 0.1/0.7/0.2 as in acceptance criterion 7: val is the
  largest split, so the train and test evaluation forwards write the
  leading rows of a workspace sized for val.
* the features and labels of each split `trainer.run_splits` returns,
  with standardize off and on, for the blob images and both raw-loaded
  CSVs: a last-bit change in set-up shows without a training run.
* the raw bytes of `oracle.pi_scores_reverse` on 64 rows of the
  training step's layer shapes (2-32-32-2, 100-32-32-2, 35-32-32-3) and
  of a layout with a 1-wide hidden layer: the oracle-check instances
  above reach at most 8 rows and 16-wide layers.

Takes a few seconds. Exits 0 when every run completes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from saflex import cli
from saflex.augment import AugmenterSpec, cutmix_tabular
from saflex.core import SaflexConfig, pi_scores
from saflex.data import (
    Dataset, SplitSpec, apply_train_statistics, gen_two_gaussians, gen_two_moons, load_csv,
)
from saflex.nn import ParamGrad, init_mlp
from saflex.oracle import pi_scores_reverse
from saflex.rng import stream
from saflex.trainer import MODES, RunConfig, run_splits, train

CRITERION_8 = {
    "data": {"kind": "two_gaussians", "n": 400, "seed": 5},
    "model": {"hidden": [8, 8]},
    "optimizer": {"lr": 0.2},
    "train": {"mode": "saflex", "epochs": 3, "batch_size": 32, "seed": 5},
    "augment": {"kind": "gaussian_jitter", "sigma": 0.5},
}

OPTIMIZERS = {
    "sgd": {"optimizer": "sgd"},
    "momentum": {"optimizer": "sgd", "momentum": 0.9},
    "adam": {"optimizer": "adam", "lr": 0.01},
}

AUGMENTERS = {
    "jitter": AugmenterSpec(kind="gaussian_jitter", sigma=1.0),
    "mixup": AugmenterSpec(kind="mixup", mixup_alpha=0.4),
}


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def train_digest(run: RunConfig, data: Dataset) -> str:
    history, params = train(run, data)
    rows = "\n".join(",".join(repr(v) for v in row.as_tuple()[:-1]) for row in history)
    return sha256(rows.encode(), repr(params.shapes).encode(), params.flat.tobytes())


def dataset_digest(ds: Dataset) -> str:
    return sha256(repr(ds.X.shape).encode(), ds.X.tobytes(), ds.labels.tobytes())


def blob_images(n: int = 400, hw: int = 8) -> Dataset:
    g = stream(0, "pinned_digests", "images")
    labels = g.integers(0, 2, size=n)
    yy, xx = np.mgrid[0:hw, 0:hw]
    base = np.zeros((n, hw, hw))
    for c, (cy, cx) in enumerate([(2, 2), (5, 5)]):
        base[labels == c] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 4.0)
    imgs = np.clip(base + 0.25 * g.standard_normal((n, hw, hw)), 0.0, 1.0)
    return Dataset(imgs.reshape(n, hw * hw), labels, 2, image_hw=(hw, hw))


def tabular_csv(tmp: str, n: int = 300) -> tuple[str, str]:
    """Three classes, two continuous columns and a 3-level categorical one."""
    g = stream(0, "pinned_digests", "csv")
    labels = g.integers(0, 3, size=n)
    x = g.standard_normal((n, 2)) * [1.0, 4.0] + labels[:, None] * [1.0, -2.0] + [0.0, 10.0]
    color = np.where(g.random(n) < 0.7, labels, g.integers(0, 3, size=n))
    data, schema = os.path.join(tmp, "tabular.csv"), os.path.join(tmp, "tabular_schema.csv")
    with open(data, "w") as f:
        f.write("x0,x1,color,label\n")
        for (a, b), c, y in zip(x, color, labels):
            f.write(f"{float(a)!r},{float(b)!r},{('red', 'green', 'blue')[c]},class{y}\n")
    with open(schema, "w") as f:
        f.write("x0,continuous\nx1,continuous\ncolor,categorical,3\nlabel,label\n")
    return data, schema


def gapped_csv(tmp: str, n: int = 240) -> tuple[str, str]:
    """Three classes; continuous columns on both sides of a categorical one, one constant."""
    g = stream(0, "pinned_digests", "gapped csv")
    labels = g.integers(0, 3, size=n)
    x = g.standard_normal((n, 2)) * [2.0, 0.5] + labels[:, None] * [1.5, -1.0] + [5.0, 0.0]
    shape = np.where(g.random(n) < 0.6, labels, g.integers(0, 3, size=n))
    data, schema = os.path.join(tmp, "gapped.csv"), os.path.join(tmp, "gapped_schema.csv")
    with open(data, "w") as f:
        f.write("x0,shape,x1,flat,label\n")
        for (a, b), c, y in zip(x, shape, labels):
            f.write(f"{float(a)!r},{('disc', 'ring', 'star')[c]},{float(b)!r},2.5,class{y}\n")
    with open(schema, "w") as f:
        f.write("x0,continuous\nshape,categorical,3\nx1,continuous\nflat,continuous\nlabel,label\n")
    return data, schema


def score_table_digest(n: int = 200) -> str:
    """Both score tables of the first n instances of `oracle-check --seed 0`."""
    args = cli.build_parser().parse_args(["oracle-check", "--seed", "0"])
    chunks = []
    for i in range(n):
        params, X, g_val = cli.oracle_instance(args.seed, i, args.b, args.k)
        chunks += [pi_scores(params, X, g_val).tobytes(),
                   pi_scores_reverse(params, X, g_val).tobytes()]
    return sha256(*chunks)


REVERSE_SCORE_LAYOUTS = ((2, 32, 32, 2), (100, 32, 32, 2), (35, 32, 32, 3), (6, 16, 1, 16, 4))


def reverse_score_digest(dims: tuple[int, ...], rows: int = 64) -> str:
    """pi_scores_reverse over `rows` samples, with drawn biases, inputs and g_val."""
    g = stream(0, "pinned_digests", "reverse scores", *dims)
    params = init_mlp(list(dims), seed=int(g.integers(0, 2**31)))
    for b in params.biases:
        b[...] = 0.1 * g.standard_normal(b.shape)
    X = g.standard_normal((rows, dims[0]))
    g_val = ParamGrad.from_flat(g.standard_normal(params.param_count), params.shapes)
    return sha256(pi_scores_reverse(params, X, g_val).tobytes())


def cutmix_digest(ds: Dataset, n: int = 200) -> str:
    """cutmix_tabular's outputs, and where each stream stands after the call."""
    batch = ds.batch(np.arange(64))
    shared = [np.array([0, 1]), np.array([1]), np.array([2, 3, 4]), np.array([4, 0])]
    chunks = []
    for groups in (ds.group_slices(), shared):
        for p in (0.2, 1.0):
            for s in range(n):
                rng = stream(s, "pinned_digests", "cutmix")
                out = cutmix_tabular(batch, p, rng, groups)
                chunks += [out.X.tobytes(), out.hard_labels.tobytes(), rng.random(1).tobytes()]
    return sha256(*chunks)


def cli_digests(tmp: str) -> list[tuple[str, str]]:
    cfg = dict(CRITERION_8, output={"dir": os.path.join(tmp, "criterion8")})
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["train", "-c", path])
    if rc != 0:
        raise SystemExit(f"criterion-8 train exited {rc}")
    with open(os.path.join(tmp, "criterion8", "metrics.csv")) as f:
        metrics = "\n".join(line.rsplit(",", 1)[0] for line in f.read().splitlines())
    with open(os.path.join(tmp, "criterion8", "checkpoint.bin"), "rb") as f:
        checkpoint = f.read()
    with open(os.path.join(tmp, "criterion8", "resolved_config.json")) as f:
        resolved = f.read().replace(tmp, "TMP")
    defaults = io.StringIO()
    with contextlib.redirect_stdout(defaults):
        rc = cli.main(["train", "--print-config"])
    if rc != 0:
        raise SystemExit(f"train --print-config exited {rc}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["oracle-check", "--n", "1000", "--seed", "0"])
    if rc != 0:
        raise SystemExit(f"oracle-check exited {rc}")
    return [
        ("criterion8 metrics.csv", sha256(metrics.encode())),
        ("criterion8 checkpoint.bin", sha256(checkpoint)),
        ("criterion8 resolved_config.json", sha256(resolved.encode())),
        ("train --print-config", sha256(defaults.getvalue().encode())),
        ("oracle-check --n 1000 --seed 0", sha256(out.getvalue().encode())),
        ("oracle-check --seed 0 score tables, first 200 instances", score_table_digest()),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = cli_digests(tmp)
        csvs = {"tabular": load_csv(*tabular_csv(tmp)), "gapped": load_csv(*gapped_csv(tmp))}
    tabular, gapped = csvs.values()
    gaussians = gen_two_gaussians(400, sigma=1.0, seed=3)
    for mode in MODES:
        for opt_name, opt in OPTIMIZERS.items():
            for aug_name, aug in AUGMENTERS.items():
                run = RunConfig(
                    **{"lr": 0.2, **opt}, hidden=(16, 8), epochs=2, batch_size=32,
                    mode=mode, augment=aug, saflex=SaflexConfig(seed=1),
                    split=SplitSpec(0.6, 0.2, 0.2, seed=2), seed=2,
                )
                lines.append((f"train {mode} {opt_name} {aug_name}", train_digest(run, gaussians)))
    images = blob_images()
    crop = AugmenterSpec(kind="crop_flip", pad=2)
    # label, dataset, augmenter, split and init seed, standardize: one run per mode each
    for label, ds, aug, seed, standardize in (
        ("crop_flip", images, crop, 0, False),
        ("crop_flip standardized", images, crop, 3, True),
        ("cutmix_tabular csv k3", tabular,
         AugmenterSpec(kind="cutmix_tabular", p_replace=0.2), 1, True),
        ("cutmix_tabular gapped csv k3", gapped,
         AugmenterSpec(kind="cutmix_tabular", p_replace=0.3), 4, True),
    ):
        for mode in MODES:
            run = RunConfig(
                hidden=(16, 8), lr=0.1, epochs=2, batch_size=32, mode=mode, augment=aug,
                split=SplitSpec(0.6, 0.2, 0.2, seed=seed), standardize=standardize, seed=seed,
            )
            lines.append((f"train {mode} sgd {label}", train_digest(run, ds)))
    for name, ds in csvs.items():
        zscored = apply_train_statistics(ds, (np.arange(ds.size),))[0]
        lines.append((f"load_csv {name} csv standardize=True", dataset_digest(zscored)))
    # positional, so the line reads the same whatever the spread parameter is named
    lines.append(("gen_two_moons 400 0.2 seed 7", dataset_digest(gen_two_moons(400, 0.2, 7))))
    lines.append(("cutmix_tabular csv k3 and shared-column groups, p 0.2 and 1.0, 200 streams",
                  cutmix_digest(tabular)))
    for mode in MODES:
        # val is the largest split, so the train and test forwards write the
        # leading rows of a val-sized evaluation workspace
        run = RunConfig(
            hidden=(16, 8), lr=0.2, epochs=2, batch_size=16, mode=mode, val_batch_size=64,
            augment=AugmenterSpec(kind="gaussian_jitter", sigma=0.5, flip_rate=0.3),
            saflex=SaflexConfig(beta=0.5, gumbel_enabled=False),
            split=SplitSpec(0.1, 0.7, 0.2, seed=5), seed=5,
        )
        lines.append((f"train {mode} sgd jitter flip 0.3 split 0.1/0.7/0.2",
                      train_digest(run, gaussians)))
    for name, ds, seed in (("blob images", images, 3), ("tabular csv", tabular, 1),
                           ("gapped csv", gapped, 4)):
        for standardize in (False, True):
            run = RunConfig(split=SplitSpec(0.6, 0.2, 0.2, seed=seed), standardize=standardize)
            for part, split_ds in zip(("train", "val", "test"), run_splits(run, ds)):
                lines.append((f"run_splits {name} seed {seed} standardize={standardize} {part}",
                              dataset_digest(split_ds)))
    for dims in REVERSE_SCORE_LAYOUTS:
        lines.append((f"pi_scores_reverse 64 rows {'-'.join(map(str, dims))}",
                       reverse_score_digest(dims)))
    for name, digest in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
