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
from operator import attrgetter
from typing import Any, Callable

from .augment import AugmenterSpec
from .core import SaflexConfig
from .data import TWO_GAUSSIANS_MEANS, RangeError, SplitSpec, decoding
from .trainer import RunConfig


class ConfigError(ValueError):
    """Configuration problem; carries a human-readable key path."""


# every model, optimizer, train and saflex key, in --print-config order, by
# the RunConfig field it sets ("saflex.beta" is RunConfig.saflex.beta). The
# defaults, build_run_config and the key a RangeError names all read it
_KEYS = {
    "hidden": "model.hidden",
    "optimizer": "optimizer.kind", "lr": "optimizer.lr", "momentum": "optimizer.momentum",
    "mode": "train.mode", "epochs": "train.epochs", "batch_size": "train.batch_size",
    "val_batch_size": "train.val_batch_size", "seed": "train.seed",
    "saflex.beta": "saflex.beta", "saflex.tau": "saflex.tau",
    "saflex.gumbel_enabled": "saflex.gumbel", "saflex.seed": "saflex.seed",
}
_RUN = RunConfig()


def _section(name: str) -> dict[str, Any]:
    """DEFAULTS[name]: the value in RunConfig() of each of its keys' fields."""
    return {key.partition(".")[2]: attrgetter(field)(_RUN)
            for field, key in _KEYS.items() if key.startswith(name + ".")}


# a JSON document, as --print-config prints it: each tuple becomes a list
DEFAULTS: dict[str, Any] = json.loads(json.dumps({
    "data": {
        "kind": "two_gaussians",  # two_gaussians | two_moons | csv | images
        "path": "",               # csv/images input file
        "schema": "",             # schema file for kind=csv
        "n": 2000,
        "sigma": 1.0,             # class spread (two_gaussians) / noise (two_moons)
        "means": TWO_GAUSSIANS_MEANS,
        "seed": 0,
    },
    "split": asdict(SplitSpec()),
    **{name: _section(name) for name in ("model", "optimizer", "train")},
    "augment": asdict(AugmenterSpec()),  # its "seed" is accepted but not read
    "saflex": _section("saflex"),
    "output": {"dir": "runs/out"},
}))


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


def resolve(user: dict) -> dict:
    """Merge a user document over the defaults, rejecting unknown keys."""
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


def require(section: dict, prefix: str, key: str) -> Any:
    """section[key]; ConfigError naming it as prefix + key when it is empty."""
    value = section[key]
    if not value:
        raise ConfigError(f"{prefix}{key} is required for this run and has no default")
    return value


def _built(prefix: str, make: Callable[..., Any], **fields: Any) -> Any:
    """`make(**fields)`; a RangeError's leading field, at `prefix` in RunConfig, becomes its key."""
    try:
        return make(**fields)
    except RangeError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_KEYS.get(prefix + field, prefix + field)} {rest}") from exc
    except ValueError as exc:  # a rule across fields: the split fractions' sum
        raise ConfigError(str(exc)) from exc


def build_run_config(cfg: dict) -> RunConfig:
    """The run a resolved config describes; its leaves are already typed."""
    # each leaf by its key, a JSON list as the tuple RunConfig takes
    leaves = {f"{s}.{k}": tuple(v) if type(v) is list else v
              for s, section in cfg.items() for k, v in section.items()}
    run = {field: leaves[key] for field, key in _KEYS.items() if "." not in field}
    saflex = {field[len("saflex."):]: leaves[key] for field, key in _KEYS.items() if "." in field}
    # the nested specs' ranges are checked before RunConfig's own
    return _built(
        "", RunConfig, **run,
        augment=_built("augment.", AugmenterSpec, **cfg["augment"]),
        saflex=_built("saflex.", SaflexConfig, **saflex),
        split=_built("split.", SplitSpec, **cfg["split"]),
        standardize=cfg["data"]["kind"] == "csv",
    )


def dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=False) + "\n"
