"""Dense MLP engine: forward pass, reverse-mode gradients, forward-mode JVPs.

Conventions used throughout the package:

* batches are row-major float64 arrays of shape (batch, features);
* a network stacks linear layers W (fan_in, fan_out) + bias (fan_out,),
  with ReLU on every hidden layer and raw logits on the last;
* probabilities are the row-softmax of the logits;
* parameters and gradients live in one flat float64 vector, W0, b0, W1,
  b1, ... (the checkpoint body), with per-layer views into it.

Everything here is a pure function of its inputs; parameters and
gradients are never mutated in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .rng import stream

CHECKPOINT_MAGIC = b"SFLX1"


def check_matrix(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense 2-D float64 carrier; returns a C-contiguous view."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


class _LayerVector:
    """One contiguous float64 vector with per-layer weight and bias views.

    The layout is the checkpoint body: W0 (row-major), b0, W1, b1, ...
    `shapes` holds each layer's (fan_in, fan_out); `weights` and `biases`
    are views into `flat`, so writing through either side changes both.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up layer by layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
        parts = [a.ravel() for pair in zip(weights, biases) for a in pair]
        flat = np.concatenate(parts, dtype=np.float64) if parts else np.zeros(0)
        self._bind(flat, tuple(w.shape for w in weights))

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        """Views over `flat` itself (not a copy) for the given layer shapes."""
        obj = cls.__new__(cls)
        obj._bind(flat, shapes)
        return obj

    def _bind(self, flat: np.ndarray, shapes: tuple[tuple[int, int], ...]) -> None:
        if not shapes:
            raise ValueError("at least one layer required")
        self.flat, self.shapes = flat, shapes
        self.weights, self.biases = [], []
        off, fan_in = 0, shapes[0][0]
        for i, (fi, fo) in enumerate(shapes):
            if fi != fan_in:
                raise ValueError(f"layer {i}: fan-in does not chain from layer {i - 1}")
            end = off + fi * fo
            self.weights.append(flat[off:end].reshape(fi, fo))
            off, fan_in = end + fo, fo
            self.biases.append(flat[end:off])
        if flat.shape != (off,):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {off} parameters")


class ModelParams(_LayerVector):
    """MLP parameters: ReLU hidden layers, linear output layer."""

    @property
    def n_layers(self) -> int:
        return len(self.shapes)

    @property
    def input_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def n_classes(self) -> int:
        return self.shapes[-1][1]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(fo for _, fo in self.shapes)

    @property
    def param_count(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.shapes)


class ParamGrad(_LayerVector):
    """A vector in parameter space, laid out like some ModelParams."""

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "ParamGrad":
        return cls.from_flat(np.zeros_like(params.flat), params.shapes)

    def _check_same_shape(self, other: "ParamGrad") -> None:
        if self.shapes != other.shapes:
            raise ValueError("parameter-vector shapes do not match")

    def dot(self, other: "ParamGrad") -> float:
        """Sum of per-block dots, all weight blocks first, then all biases."""
        self._check_same_shape(other)
        pairs = zip(self.weights + self.biases, other.weights + other.biases)
        return sum(float(np.dot(a.ravel(), b.ravel())) for a, b in pairs)

    def add_scaled(self, other: "ParamGrad", scale: float) -> "ParamGrad":
        """Return self + scale * other."""
        self._check_same_shape(other)
        return ParamGrad.from_flat(self.flat + scale * other.flat, self.shapes)

    def scale(self, c: float) -> "ParamGrad":
        return ParamGrad.from_flat(c * self.flat, self.shapes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


def param_dot(a: ParamGrad, b: ParamGrad) -> float:
    """Euclidean inner product over all parameters."""
    return a.dot(b)


def init_mlp(layer_dims: list[int] | tuple[int, ...], seed: int = 0) -> ModelParams:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = stream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


@dataclass
class ForwardCache:
    """Intermediate values retained for gradients and JVPs.

    pre_activations holds every layer's pre-nonlinearity output (the last
    entry is the logits); activations holds the post-ReLU hidden outputs.
    Logits are kept even though the model's nominal output is the softmax,
    because downstream directional derivatives are taken at the logit level.
    """

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax with max subtraction; cannot underflow."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def mlp_forward(params: ModelParams, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a batch; returns (probabilities, cache)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != params.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != model input dim {params.input_dim}")
    cache = ForwardCache(inputs=X)
    a = X
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = a @ w + b
        cache.pre_activations.append(pre)
        if i < last:
            a = np.maximum(pre, 0.0)
            cache.activations.append(a)
    cache.logits = cache.pre_activations[-1]
    cache.probs = softmax(cache.logits)
    return cache.probs, cache


def mlp_backward(
    params: ModelParams,
    cache: ForwardCache,
    dloss_dlogits: np.ndarray,
    rows: slice = slice(None),
) -> ParamGrad:
    """Reverse-mode gradient of a scalar loss with the given logit gradient.

    The returned gradient is summed over the batch; divide dloss_dlogits
    by the batch size beforehand for a mean-reduced loss. `rows` picks
    the cache rows the logit gradient belongs to.
    """
    d = np.asarray(dloss_dlogits, dtype=np.float64)
    if cache.logits is None or d.shape != cache.logits[rows].shape:
        raise ValueError(
            f"dloss_dlogits shape {d.shape} != logits shape "
            f"{None if cache.logits is None else cache.logits[rows].shape}"
        )
    grad = ParamGrad.from_flat(np.empty(params.flat.size), params.shapes)
    delta = d
    for i in range(params.n_layers - 1, -1, -1):
        a_in = cache.activations[i - 1] if i > 0 else cache.inputs
        np.dot(a_in[rows].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i].T) * (cache.pre_activations[i - 1][rows] > 0.0)
    return grad


def jvp_logits_batch(
    params: ModelParams,
    tangent: ParamGrad,
    cache: ForwardCache,
    rows: slice = slice(None),
) -> np.ndarray:
    """Logit JVP along a parameter-space tangent for the cache rows `rows`.

    One forward pass propagating (value, tangent) pairs through the
    cached activations; returns (rows, classes).
    """
    if tangent.shapes != params.shapes:
        raise ValueError("tangent shape does not match parameters")
    # the input's tangent is zero, so layer 0 has no t @ W term
    t = cache.inputs[rows] @ tangent.weights[0] + tangent.biases[0]
    for i in range(1, params.n_layers):
        t_in = t * (cache.pre_activations[i - 1][rows] > 0.0)
        t = cache.activations[i - 1][rows] @ tangent.weights[i] + tangent.biases[i]
        t += t_in @ params.weights[i]
    return t


def sgd_step(params: ModelParams, grad: ParamGrad, alpha: float) -> ModelParams:
    """One plain gradient-descent update; returns new parameters."""
    if alpha < 0:
        raise ValueError("learning rate must be >= 0")
    return ModelParams.from_flat(params.flat - alpha * grad.flat, params.shapes)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Little-endian binary checkpoint: magic, layer count, dims, then `flat` as f8."""
    dims = [d for shape in params.shapes for d in shape]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack(f"<I{len(dims)}I", params.n_layers, *dims))
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic in {path!r}")
    off = len(CHECKPOINT_MAGIC) + 4
    if len(blob) < off:
        raise ValueError(f"truncated checkpoint header in {path!r}")
    (n_layers,) = struct.unpack_from("<I", blob, off - 4)
    if len(blob) < off + 8 * n_layers:
        raise ValueError(f"truncated checkpoint header in {path!r}: {n_layers} layers")
    dims = struct.unpack_from(f"<{2 * n_layers}I", blob, off)
    shapes = tuple(zip(dims[::2], dims[1::2]))
    off += 8 * n_layers
    expected = off + sum(8 * (fi * fo + fo) for fi, fo in shapes)
    if len(blob) != expected:
        raise ValueError(f"truncated checkpoint: expected {expected} bytes, got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)
    return ModelParams.from_flat(flat, shapes)
