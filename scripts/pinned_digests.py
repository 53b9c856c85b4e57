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
* `saflex oracle-check --n 1000 --seed 0` stdout.

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
from saflex.augment import AugmenterSpec
from saflex.core import SaflexConfig
from saflex.data import Dataset, SplitSpec, gen_two_gaussians, load_csv
from saflex.rng import stream
from saflex.trainer import MODES, RunConfig, train

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


def blob_images(n: int = 400, hw: int = 8) -> Dataset:
    g = stream(0, "pinned_digests", "images")
    labels = g.integers(0, 2, size=n)
    yy, xx = np.mgrid[0:hw, 0:hw]
    base = np.zeros((n, hw, hw))
    for c, (cy, cx) in enumerate([(2, 2), (5, 5)]):
        base[labels == c] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 4.0)
    imgs = np.clip(base + 0.25 * g.standard_normal((n, hw, hw)), 0.0, 1.0)
    return Dataset(imgs.reshape(n, hw * hw), labels, 2, image_hw=(hw, hw))


def tabular_csv(tmp: str, n: int = 300) -> Dataset:
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
    return load_csv(data, schema, standardize=False)


def gapped_csv(tmp: str, n: int = 240) -> Dataset:
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
    return load_csv(data, schema, standardize=False)


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
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = cli_digests(tmp)
        tabular = tabular_csv(tmp)
        gapped = gapped_csv(tmp)
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
    for mode in MODES:
        run = RunConfig(
            hidden=(16, 8), lr=0.1, epochs=2, batch_size=32, mode=mode,
            augment=AugmenterSpec(kind="crop_flip", pad=2),
            split=SplitSpec(0.6, 0.2, 0.2, seed=0), seed=0,
        )
        lines.append((f"train {mode} sgd crop_flip", train_digest(run, images)))
    for mode in MODES:
        run = RunConfig(
            hidden=(16, 8), lr=0.1, epochs=2, batch_size=32, mode=mode,
            augment=AugmenterSpec(kind="crop_flip", pad=2),
            split=SplitSpec(0.6, 0.2, 0.2, seed=3), standardize=True, seed=3,
        )
        lines.append((f"train {mode} sgd crop_flip standardized", train_digest(run, images)))
    for mode in MODES:
        run = RunConfig(
            hidden=(16, 8), lr=0.1, epochs=2, batch_size=32, mode=mode,
            augment=AugmenterSpec(kind="cutmix_tabular", p_replace=0.2),
            split=SplitSpec(0.6, 0.2, 0.2, seed=1), standardize=True, seed=1,
        )
        lines.append((f"train {mode} sgd cutmix_tabular csv k3", train_digest(run, tabular)))
    for mode in MODES:
        run = RunConfig(
            hidden=(16, 8), lr=0.1, epochs=2, batch_size=32, mode=mode,
            augment=AugmenterSpec(kind="cutmix_tabular", p_replace=0.3),
            split=SplitSpec(0.6, 0.2, 0.2, seed=4), standardize=True, seed=4,
        )
        lines.append((f"train {mode} sgd cutmix_tabular gapped csv k3", train_digest(run, gapped)))
    for name, digest in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
