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
inputs or a parameter vector, with two exceptions: mlp_forward given
`reuse` overwrites that cache's arrays, which then belong to the cache it
returns, and relu_masks() keeps the masks it builds on first use on the
cache.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import stream

CHECKPOINT_MAGIC = b"SFLX1"


class _LayerVector:
    """One contiguous float64 vector with per-layer weight and bias views.

    from_flat builds one over a flat array in the checkpoint body's layout, W0
    (row-major), b0, W1, b1, ..., at the spans block_spans gives. `weights` and
    `biases` view `flat` per layer of `shapes`, so writing through either changes both.
    """

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        """Views over `flat` itself (not a copy) for the given layer shapes."""
        spans = block_spans(shapes)
        if flat.shape != (spans[-1][1],):
            raise ValueError(f"flat vector of shape {flat.shape} does not fit "
                             f"{spans[-1][1]} parameters")
        obj = cls()
        obj.flat, obj.shapes = flat, shapes
        obj.weights = [flat[lo:hi].reshape(shape) for (lo, hi), shape in zip(spans, shapes)]
        obj.biases = [flat[lo:hi] for lo, hi in spans[len(shapes):]]
        return obj


# layouts the layout cache keeps: `oracle-check` draws 4 * 13 * 13 = 676
# per class count, and each entry is a few small tuples
_LAYOUTS_CACHED = 1024


@lru_cache(maxsize=_LAYOUTS_CACHED)
def block_spans(shapes: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """(start, end) in the flat vector of every weight block, then every bias.

    The last bias ends the vector. Checked once per layout: at least one
    layer, each fan-in chaining from the previous layer's fan-out.
    """
    if not shapes:
        raise ValueError("at least one layer required")
    weights, biases, off, fan_in = [], [], 0, shapes[0][0]
    for i, (fi, fo) in enumerate(shapes):
        if fi != fan_in:
            raise ValueError(f"layer {i}: fan-in does not chain from layer {i - 1}")
        end = off + fi * fo
        weights.append((off, end))
        biases.append((end, end + fo))
        off, fan_in = end + fo, fo
    return tuple(weights + biases)


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
    def param_count(self) -> int:
        return self.flat.size


class ParamGrad(_LayerVector):
    """A vector in parameter space, laid out like some ModelParams."""


def init_mlp(layer_dims: list[int] | tuple[int, ...], seed: int) -> ModelParams:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    shapes = tuple(zip(layer_dims[:-1], layer_dims[1:]))
    spans = block_spans(shapes)
    rng = stream(seed, "init")
    flat = np.zeros(spans[-1][1])
    # a (fan_in, fan_out) draw fills its block row by row, so a 1-D draw of
    # as many values is the same numbers in the flat layout's order
    for (fan_in, fan_out), (lo, hi) in zip(shapes, spans):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        flat[lo:hi] = rng.uniform(-limit, limit, size=hi - lo)
    return ModelParams.from_flat(flat, shapes)


@dataclass
class ForwardCache:
    """Intermediate values retained for gradients and JVPs.

    One array per layer: activations holds each hidden layer's x @ W + b,
    ReLU'd in place, and logits the last layer's. Logits are kept because
    downstream directional derivatives are taken at the logit level. masks
    stays None until a backward pass or JVP asks for relu_masks(), so
    forward-only passes (evaluation) never build it.
    """

    inputs: np.ndarray
    activations: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray
    masks: list[np.ndarray] | None = None

    def relu_masks(self) -> list[np.ndarray]:
        """Per hidden layer, 1.0 where the pre-activation is > 0, else 0.0 (NaN too).

        Taken as act > 0.0, bitwise pre > 0.0: max(p, 0) > 0 holds exactly
        when p > 0, for NaN, +-0.0, +-inf and subnormals too. Built once and
        shared by every backward pass and JVP. Multiplying by it equals
        multiplying by the boolean mask bitwise: numpy casts a bool to 0.0 / 1.0.
        """
        if self.masks is None:
            self.masks = [(act > 0.0).astype(np.float64) for act in self.activations]
        return self.masks

    @classmethod
    def empty(cls, params: "ModelParams", rows: int) -> "ForwardCache":
        """A workspace for mlp_forward(params, X, reuse=...) with X of up to `rows` rows.

        np.empty reserves rows x (sum of hidden widths + 2K) floats, 1.34 MB
        for 2400 rows, widths 32, 32 and K = 3; the first forward pass writes
        them. A workspace holds outputs only, so its inputs has no rows.
        """
        act = [np.empty((rows, fo)) for _, fo in params.shapes]
        logits = act.pop()
        return cls(np.empty((0, params.input_dim)), act, logits, np.empty(logits.shape))


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


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with max subtraction, written to `out` when given."""
    z = np.subtract(logits, row_max(logits), out=out)
    np.exp(z, out=z)
    z /= row_sum(z)
    return z


def mlp_forward(
    params: ModelParams,
    X: np.ndarray,
    reuse: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a 2-D batch; returns (probabilities, cache).

    With `reuse`, a workspace of at least X.shape[0] rows made for these
    layer widths (ForwardCache.empty), every layer writes into the leading
    X.shape[0] rows of its one array instead of a fresh one. Those views are
    C-contiguous, so each matmul is the call a fresh forward makes and the
    values are bitwise equal, without the page faults of fresh memory.
    The returned cache holds the views and no masks. A workspace with too
    few rows or other widths raises numpy's ValueError; one that overlaps
    X or the parameters gives wrong values.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != params.input_dim:
        raise ValueError(f"input dim {X.shape[1]} != model input dim {params.input_dim}")
    n = X.shape[0]
    acts, a = [], X
    outs = None if reuse is None else [*reuse.activations, reuse.logits]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if i:  # ReLU the hidden layer below in place
            acts.append(np.maximum(a, 0.0, out=a))
        a = np.matmul(a, w, out=None if outs is None else outs[i][:n])
        a += b
    probs = softmax(a, out=None if reuse is None else reuse.probs[:n])
    return probs, ForwardCache(X, acts, a, probs)


def mlp_backward(
    params: ModelParams,
    cache: ForwardCache,
    dloss_dlogits: np.ndarray,
    rows: slice = slice(None),
) -> ParamGrad:
    """Reverse-mode gradient of a scalar loss with the given logit gradient.

    The returned gradient, a fresh vector, is summed over the batch; divide
    dloss_dlogits by the batch size beforehand for a mean-reduced loss.
    `rows` picks the cache rows the (rows, K) logit gradient belongs to.
    """
    d = np.asarray(dloss_dlogits, dtype=np.float64)
    want = cache.logits[rows].shape
    if d.shape != want:
        raise ValueError(f"dloss_dlogits shape {d.shape} does not fit logits shape {want}")
    grad = ParamGrad.from_flat(np.empty(params.flat.shape), params.shapes)
    masks = cache.relu_masks()
    delta = d
    for i in range(params.n_layers - 1, -1, -1):
        a_in = (cache.activations[i - 1] if i > 0 else cache.inputs)[rows]
        np.dot(a_in.T, delta, out=grad.weights[i])
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
    rows: slice,
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


def sgd_step(params: ModelParams, step: np.ndarray, alpha: float) -> ModelParams:
    """New parameters params - alpha * step, for a flat step; every optimizer update ends here."""
    return ModelParams.from_flat(params.flat - alpha * step, params.shapes)


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Little-endian binary checkpoint: magic, layer count, dims, then `flat` as f8."""
    dims = [d for shape in params.shapes for d in shape]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC + struct.pack(f"<I{len(dims)}I", params.n_layers, *dims))
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """The parameters in a checkpoint file.

    ValueError naming the file for a bad magic, a header or body of
    another length than its dims declare, a NaN or infinite parameter, or
    dims that `block_spans` refuses.
    """
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
    if len(blob) < expected:
        raise ValueError(f"truncated checkpoint {path!r}: expected {expected} bytes, "
                         f"got {len(blob)}")
    if len(blob) > expected:
        raise ValueError(f"checkpoint {path!r} has {len(blob) - expected} trailing bytes "
                         f"past the {expected} its header declares")
    flat = np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)
    bad = flat.size - np.count_nonzero(np.isfinite(flat))
    if bad:
        raise ValueError(f"checkpoint {path!r} holds {bad} non-finite parameters")
    try:
        return ModelParams.from_flat(flat, shapes)
    except ValueError as exc:  # block_spans': no layer, or a fan-in that does not chain
        raise ValueError(f"checkpoint {path!r}: {exc}") from exc
