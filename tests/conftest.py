import importlib.util
import os
import sys

import numpy as np
import pytest

from reference import from_blocks
from saflex.nn import ModelParams, ParamGrad, init_mlp


def random_grad(params: ModelParams, rng: np.random.Generator, scale: float = 1.0) -> ParamGrad:
    return from_blocks(
        ParamGrad,
        [scale * rng.standard_normal(w.shape) for w in params.weights],
        [scale * rng.standard_normal(b.shape) for b in params.biases],
    )


def pre_activations(params: ModelParams, cache) -> list[np.ndarray]:
    """Each hidden layer's x @ W + b, recomputed from its cached input.

    The calls take the forward pass's shapes, so the values are bitwise
    those the forward pass ReLU'd in place.
    """
    inputs = [cache.inputs, *cache.activations]
    return [a @ w + b for a, w, b in zip(inputs, params.weights[:-1], params.biases[:-1])]


def small_mlp(dims=(3, 8, 6, 4), seed=0) -> ModelParams:
    return init_mlp(list(dims), seed=seed)


def random_layout(rng: np.random.Generator, trial: int, k: int) -> ModelParams:
    """init_mlp over 1-3 layers with k classes.

    Two trials in three get a 1-wide layer below the output, and one in
    three a 1-wide input feeding a 1-wide hidden layer: a (1, 1) weight
    block, whose gradient np.matmul would take from +0.0 and so lose a -0.0.
    """
    n_layers = int(rng.integers(1, 4))
    dims = [int(d) for d in rng.integers(1, 48, size=n_layers)] + [k]
    if trial % 3 == 1:
        dims[int(rng.integers(0, n_layers))] = 1
    elif trial % 3 == 2:
        dims[: min(2, n_layers)] = [1] * min(2, n_layers)
    return init_mlp(dims, seed=trial)


def load_script(name):
    """scripts/<name>.py as a module. scripts/ is first on sys.path while it
    loads, as when it runs, so it can import another script."""
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    spec = importlib.util.spec_from_file_location(name, os.path.join(scripts, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, scripts)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(scripts)
    return module


def load_outcome(load, path, schema):
    """What a CSV loader gives: the Dataset's bytes and metadata, or its error."""
    try:
        ds = load(path, schema)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return (ds.X.shape, ds.X.tobytes(), ds.labels.tobytes(), ds.num_classes, ds.groups,
            ds.label_values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
