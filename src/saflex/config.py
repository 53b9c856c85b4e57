"""Config file handling for the CLI.

A run is a single JSON document with fixed sections. Unknown keys are
rejected with their full path; every key has an explicit default that
`saflex train --print-config` shows, and the default's type is the only
type the key takes (see `_leaf`). The fully-resolved config is written
next to each run's outputs so any run can be reproduced from it.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict
from typing import Any, Callable

from .augment import AugmenterSpec
from .core import SaflexConfig
from .data import RangeError, SplitSpec, decoding
from .trainer import RunConfig


class ConfigError(ValueError):
    """Configuration problem; carries a human-readable key path."""


_RUN = RunConfig()  # the model, optimizer, train and saflex defaults

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
    "split": asdict(SplitSpec()),
    "model": {"hidden": list(_RUN.hidden)},
    "optimizer": {"kind": _RUN.optimizer, "lr": _RUN.lr, "momentum": _RUN.momentum},
    "train": {
        "mode": _RUN.mode,  # none | naive | saflex
        "epochs": _RUN.epochs,
        "batch_size": _RUN.batch_size,
        "val_batch_size": 0,  # 0 means: use batch_size
        "seed": _RUN.seed,
    },
    "augment": asdict(AugmenterSpec()),  # its "seed" is accepted but not read
    "saflex": {"beta": _RUN.saflex.beta, "tau": _RUN.saflex.tau,
               "gumbel": _RUN.saflex.gumbel_enabled, "seed": _RUN.saflex.seed},
    "output": {"dir": "runs/out"},
}


_EXPECTED = {dict: "an object", list: "a list", bool: "true or false", int: "an integer",
             float: "a finite number", str: "a string"}


def _leaf(default: Any, value: Any, path: str) -> Any:
    """`value` checked against the type of `default`, which it replaces.

    An int takes no bool and no float (not even 20.0); a float takes any
    finite number but no bool, and is stored as a float; a list's
    elements follow the rule of the default's first element.
    """
    kind = type(default)
    if kind is dict and type(value) is dict:
        return _merge(default, value, path)
    if kind is list and type(value) is list:
        return [_leaf(default[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    # false for NaN, the infinities and ints too large for a float
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, int, str) and type(value) is kind:
        return value
    raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {json.dumps(value, default=repr)}")


def _merge(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        out[key] = _leaf(defaults[key], value, here)
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
        with decoding(path), open(path) as f:
            raw = json.load(f)
        return resolve(raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder and _leaf's message recurse per [ or {
        raise ConfigError(f"{path}: nested too deeply") from exc


def require(cfg: dict, section: str, key: str) -> Any:
    value = cfg[section][key]
    if not value:
        raise ConfigError(f"{section}.{key} is required for this run and has no default")
    return value


# the config key of each RunConfig field that a RangeError can name
_RUN_KEYS = {
    "hidden": "model.hidden", "optimizer": "optimizer.kind", "lr": "optimizer.lr",
    "momentum": "optimizer.momentum", "mode": "train.mode", "epochs": "train.epochs",
    "batch_size": "train.batch_size", "val_batch_size": "train.val_batch_size",
}


def _built(key: Callable[[str], str], make: Callable[..., Any], **fields: Any) -> Any:
    """`make(**fields)`; a RangeError's leading field name becomes `key(field)`."""
    try:
        return make(**fields)
    except RangeError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{key(field)} {rest}") from exc
    except ValueError as exc:  # a rule across fields: the split fractions' sum
        raise ConfigError(str(exc)) from exc


def build_run_config(cfg: dict) -> RunConfig:
    """The run a resolved config describes; its leaves are already typed."""
    opt, tr, sf = cfg["optimizer"], cfg["train"], cfg["saflex"]
    return _built(
        _RUN_KEYS.__getitem__, RunConfig,
        hidden=tuple(cfg["model"]["hidden"]),
        lr=opt["lr"],
        momentum=opt["momentum"],
        optimizer=opt["kind"],
        epochs=tr["epochs"],
        batch_size=tr["batch_size"],
        val_batch_size=tr["val_batch_size"] or None,
        mode=tr["mode"],
        augment=_built("augment.{}".format, AugmenterSpec, **cfg["augment"]),
        saflex=_built("saflex.{}".format, SaflexConfig,
                      beta=sf["beta"], tau=sf["tau"], gumbel_enabled=sf["gumbel"], seed=sf["seed"]),
        split=_built("split.{}".format, SplitSpec, **cfg["split"]),
        standardize=cfg["data"]["kind"] == "csv",
        seed=tr["seed"],
    )


def dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=False) + "\n"
