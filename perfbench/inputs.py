"""Workload inputs and configs, written from the workload seed.

Each workload is a dataset file plus one config JSON. The files are made
with the benchmark's own numpy code, never with saflex, so a change to the
package cannot change what it is measured on. Every seed in the config is
derived from the workload seed: the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

WORKLOADS = ("jitter2d", "image_crop", "tabular_cutmix")

# epochs per train() call, sized so one call takes tens of milliseconds and a
# run holds hundreds of interleaved calls
EPOCHS = {"jitter2d": 5, "image_crop": 3, "tabular_cutmix": 2}

TABULAR_CARDS = (4, 5, 8, 12)
TABULAR_CONT = 6
TABULAR_SCALES = (1.0, 10.0, 100.0, 0.1, 5.0, 1000.0)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _write_csv(path: str, header: list[str], columns: list[list[str]]) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join(row) + "\n")


def _write_schema(path: str, rows: list[tuple]) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def _jitter2d(seed: int, out: str) -> dict:
    """2000 points from two unit Gaussians at (1, 1) and (-1, -1)."""
    g = _rng(seed, 1)
    n = 2000
    labels = g.integers(0, 2, size=n)
    means = np.array([[1.0, 1.0], [-1.0, -1.0]])
    X = means[labels] + g.standard_normal((n, 2))
    data, schema = os.path.join(out, "data.csv"), os.path.join(out, "schema.csv")
    _write_csv(data, ["x0", "x1", "label"],
               [[repr(float(v)) for v in X[:, 0]], [repr(float(v)) for v in X[:, 1]],
                [f"c{c}" for c in labels]])
    _write_schema(schema, [("x0", "continuous"), ("x1", "continuous"), ("label", "label")])
    return {
        "data": {"kind": "csv", "path": data, "schema": schema},
        "optimizer": {"kind": "sgd", "lr": 0.25},
        "augment": {"kind": "gaussian_jitter", "sigma": 1.0, "seed": seed},
    }


def _image_crop(seed: int, out: str) -> dict:
    """2000 noisy 10x10 blob images, two classes, as an SFIM1 file."""
    g = _rng(seed, 2)
    n, hw = 2000, 10
    labels = g.integers(0, 2, size=n)
    yy, xx = np.mgrid[0:hw, 0:hw]
    base = np.zeros((n, hw, hw))
    for c, (cy, cx) in enumerate([(3, 3), (6, 6)]):
        base[labels == c] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 4.0)
    imgs = np.clip(base + 0.25 * g.standard_normal((n, hw, hw)), 0.0, 1.0)
    pixels = np.rint(imgs * 255.0).astype(np.uint8)
    path = os.path.join(out, "images.sfim")
    with open(path, "wb") as f:
        f.write(b"SFIM1")
        f.write(struct.pack("<IIII", n, hw, hw, 2))
        f.write(pixels.tobytes())
        f.write(labels.astype(np.uint8).tobytes())
    return {
        "data": {"kind": "images", "path": path},
        "optimizer": {"kind": "sgd", "lr": 0.1},
        "augment": {"kind": "crop_flip", "pad": 2, "seed": seed},
    }


def _tabular_cutmix(seed: int, out: str) -> dict:
    """4000 rows, 3 classes, 6 continuous and 4 categorical columns."""
    g = _rng(seed, 3)
    n, k = 4000, 3
    labels = g.integers(0, k, size=n)
    header, columns, schema = [], [], []
    for j, scale in enumerate(TABULAR_SCALES):
        centers = g.normal(0.0, 1.0, size=k)
        x = scale * (centers[labels] + g.standard_normal(n)) + 10.0 * scale
        header.append(f"num{j}")
        columns.append([repr(float(v)) for v in x])
        schema.append((f"num{j}", "continuous"))
    for j, card in enumerate(TABULAR_CARDS):
        # each class prefers one category; every category stays likely
        prefs = g.integers(0, card, size=k)
        favoured = g.random(n) < 0.5
        cat = np.where(favoured, prefs[labels], g.integers(0, card, size=n))
        header.append(f"cat{j}")
        columns.append([f"v{v}" for v in cat])
        schema.append((f"cat{j}", "categorical", card))
    header.append("label")
    columns.append([f"c{c}" for c in labels])
    schema.append(("label", "label"))
    data, schema_path = os.path.join(out, "data.csv"), os.path.join(out, "schema.csv")
    _write_csv(data, header, columns)
    _write_schema(schema_path, schema)
    return {
        "data": {"kind": "csv", "path": data, "schema": schema_path},
        "optimizer": {"kind": "sgd", "lr": 0.1},
        "augment": {"kind": "cutmix_tabular", "p_replace": 0.2, "seed": seed},
    }


_WRITERS = {"jitter2d": _jitter2d, "image_crop": _image_crop, "tabular_cutmix": _tabular_cutmix}


def write_inputs(workload: str, seed: int, out: str) -> str:
    """Write the workload's dataset and config under `out`; return the config path."""
    os.makedirs(out, exist_ok=True)
    cfg = _WRITERS[workload](seed, out)
    cfg.update({
        "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": seed},
        "model": {"hidden": [32, 32]},
        "train": {"mode": "saflex", "epochs": EPOCHS[workload], "batch_size": 64, "seed": seed},
        "saflex": {"seed": seed},
        "output": {"dir": os.path.join(out, "run")},
    })
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)
    return path


def load_dataset(data_mod, cfg: dict):
    """Load a resolved config's input through the saflex.data loaders.

    CSV columns are left raw here. Every workload trains with
    `standardize=True`, so train() z-scores with the train-split
    statistics, as `saflex train` does for CSV inputs; image_crop does the
    same so that the data layer's standardize step is measured everywhere.
    """
    d = cfg["data"]
    if d["kind"] == "csv":
        return data_mod.load_csv(d["path"], d["schema"], standardize=False)
    return data_mod.load_images_raw(d["path"])
