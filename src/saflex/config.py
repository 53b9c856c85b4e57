"""Config file handling for the CLI.

A run is a single JSON document with fixed sections. Unknown keys are
rejected with their full path; every key has an explicit default that
`saflex train --print-config` shows. The fully-resolved config is written
next to each run's outputs so any run can be reproduced from it.
"""

from __future__ import annotations

import copy
import json
from typing import Any

from .augment import AugmenterSpec
from .core import SaflexConfig
from .data import SplitSpec
from .trainer import RunConfig


class ConfigError(ValueError):
    """Configuration problem; carries a human-readable key path."""


DEFAULTS: dict[str, Any] = {
    "data": {
        "kind": "two_gaussians",  # two_gaussians | two_moons | csv | images
        "path": "",               # csv/images input file
        "schema": "",             # schema file for kind=csv
        "n": 2000,
        "sigma": 1.0,             # class spread (two_gaussians) / noise (two_moons)
        "means": [[1.0, 1.0], [-1.0, -1.0]],
        "seed": 0,
    },
    "split": {"train": 0.6, "val": 0.2, "test": 0.2, "seed": 0},
    "model": {"hidden": [32, 32]},
    "optimizer": {"kind": "sgd", "lr": 0.1, "momentum": 0.0},
    "train": {
        "mode": "saflex",  # none | naive | saflex
        "epochs": 20,
        "batch_size": 64,
        "val_batch_size": 0,  # 0 means: use batch_size
        "seed": 0,
    },
    "augment": {
        "kind": "gaussian_jitter",
        "sigma": 0.5,
        "pad": 2,
        "mixup_alpha": 1.0,
        "p_replace": 0.1,
        "flip_rate": 0.0,
        "seed": 0,
    },
    "saflex": {"beta": 0.0, "tau": 0.01, "gumbel": True, "seed": 0},
    "output": {"dir": "runs/out"},
}


def _merge(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            out[key] = _merge(defaults[key], value, here)
        else:
            out[key] = value
    return out


def resolve(user: dict | None) -> dict:
    """Merge a user document over the defaults, rejecting unknown keys."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULTS, user, "")


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return resolve(raw)


def require(cfg: dict, section: str, key: str) -> Any:
    value = cfg[section][key]
    if value in ("", None):
        raise ConfigError(f"{section}.{key} is required for this run and has no default")
    return value


def build_run_config(cfg: dict) -> RunConfig:
    aug = cfg["augment"]
    sf = cfg["saflex"]
    tr = cfg["train"]
    try:
        return RunConfig(
            hidden=tuple(int(h) for h in cfg["model"]["hidden"]),
            lr=float(cfg["optimizer"]["lr"]),
            momentum=float(cfg["optimizer"]["momentum"]),
            optimizer=str(cfg["optimizer"]["kind"]),
            epochs=int(tr["epochs"]),
            batch_size=int(tr["batch_size"]),
            val_batch_size=int(tr["val_batch_size"]) or None,
            mode=str(tr["mode"]),
            augment=AugmenterSpec(
                kind=str(aug["kind"]),
                sigma=float(aug["sigma"]),
                pad=int(aug["pad"]),
                mixup_alpha=float(aug["mixup_alpha"]),
                p_replace=float(aug["p_replace"]),
                flip_rate=float(aug["flip_rate"]),
                seed=int(aug["seed"]),
            ),
            saflex=SaflexConfig(
                beta=float(sf["beta"]),
                tau=float(sf["tau"]),
                gumbel_enabled=bool(sf["gumbel"]),
                seed=int(sf["seed"]),
            ),
            split=SplitSpec(
                train=float(cfg["split"]["train"]),
                val=float(cfg["split"]["val"]),
                test=float(cfg["split"]["test"]),
                seed=int(cfg["split"]["seed"]),
            ),
            standardize=cfg["data"]["kind"] == "csv",
            seed=int(tr["seed"]),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=False) + "\n"
