"""Dense MLP engine: forward pass, reverse-mode gradients, forward-mode JVPs.

Conventions used throughout the package:

* batches are row-major float64 arrays of shape (batch, features);
* a network stacks linear layers W (fan_in, fan_out) + bias (fan_out,),
  with ReLU on every hidden layer and raw logits on the last;
* probabilities are the row-softmax of the logits;
* parameters and gradients live in one flat float64 vector, W0, b0, W1,
  b1, ... (the checkpoint body), with per-layer views into it.

Everything here is a pure function of its inputs. In-place operations
touch only temporaries a function has just allocated itself, never its
inputs, a cache array or a parameter vector; the one write to a cache is
ForwardCache.relu_masks() storing the masks it derives on first use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rng import stream

CHECKPOINT_MAGIC = b"SFLX1"


def check_matrix(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a dense 2-D float64 carrier; returns a C-contiguous view."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
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
        spans, size = _layout(shapes)
        if flat.shape != (size,):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit {size} parameters")
        self.flat, self.shapes = flat, shapes
        self.weights = [flat[w:b].reshape(shape) for (w, b, _), shape in zip(spans, shapes)]
        self.biases = [flat[b:end] for _, b, end in spans]


@lru_cache(maxsize=64)
def _layout(shapes: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """Per layer (weight start, bias start, bias end) in the flat vector, and its size.

    Checked once per layout: at least one layer, each fan-in chaining
    from the previous layer's fan-out.
    """
    if not shapes:
        raise ValueError("at least one layer required")
    spans, off, fan_in = [], 0, shapes[0][0]
    for i, (fi, fo) in enumerate(shapes):
        if fi != fan_in:
            raise ValueError(f"layer {i}: fan-in does not chain from layer {i - 1}")
        end = off + fi * fo
        spans.append((off, end, end + fo))
        off, fan_in = end + fo, fo
    return tuple(spans), off


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
    masks stays None until a backward pass or JVP asks for relu_masks(), so
    forward-only passes (evaluation) never build it.
    """

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None
    masks: list[np.ndarray] | None = None

    def relu_masks(self) -> list[np.ndarray]:
        """Per hidden layer, 1.0 where the pre-activation is > 0, else 0.0 (NaN too).

        Built once and shared by every backward pass and JVP over this
        cache. Multiplying by it equals multiplying by the boolean mask
        bitwise: numpy casts a boolean operand to 0.0 / 1.0 itself.
        """
        if self.masks is None:
            self.masks = [(pre > 0.0).astype(np.float64) for pre in self.pre_activations[:-1]]
        return self.masks


def row_max(x: np.ndarray) -> np.ndarray:
    """Each row's max, as an (n, 1) column.

    Taken across the rows of a transposed contiguous copy: max is exact,
    so the values are those of x.max(axis=1, keepdims=True), at a fraction
    of its cost when rows are short.
    """
    return np.maximum.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]


def row_sum(x: np.ndarray) -> np.ndarray:
    """Each row's sum, as an (n, 1) column, bitwise equal to x.sum(axis=1, keepdims=True).

    numpy adds a row shorter than 8 entries left to right, as does a sum
    across the rows of a transposed contiguous copy, which costs a fraction
    for short rows. From 8 entries on, numpy's pairwise summation takes
    another order, so longer rows take x.sum's own reduction. Here and in
    row_max, the ufunc's reduce skips the array method's per-call cost.
    """
    if x.shape[1] < 8:
        return np.add.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]
    return np.add.reduce(x, axis=1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction."""
    z = logits - row_max(logits)
    np.exp(z, out=z)
    z /= row_sum(z)
    return z


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax with max subtraction; cannot underflow."""
    z = logits - row_max(logits)
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
        pre = a @ w
        pre += b
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
    masks = cache.relu_masks()
    delta = d
    for i in range(params.n_layers - 1, -1, -1):
        a_in = cache.activations[i - 1] if i > 0 else cache.inputs
        np.dot(a_in[rows].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            # delta is the caller's array at the top layer; rebind, then scale
            delta = delta @ params.weights[i].T
            delta *= masks[i - 1][rows]
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
    masks = cache.relu_masks()
    # the input's tangent is zero, so layer 0 has no t @ W term
    t = cache.inputs[rows] @ tangent.weights[0]
    t += tangent.biases[0]
    for i in range(1, params.n_layers):
        t_in = t
        t_in *= masks[i - 1][rows]
        t = cache.activations[i - 1][rows] @ tangent.weights[i]
        t += tangent.biases[i]
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
