import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grad, small_mlp
from saflex.nn import (
    CHECKPOINT_MAGIC,
    ModelParams,
    ParamGrad,
    init_mlp,
    jvp_logits_batch,
    load_checkpoint,
    log_softmax,
    mlp_backward,
    mlp_forward,
    param_dot,
    row_sum,
    save_checkpoint,
    sgd_step,
    softmax,
)
from saflex.oracle import finite_diff
from saflex.losses import hard_ce, one_hot


def test_zero_params_give_uniform_probs():
    params = ModelParams([np.zeros((3, 2))], [np.zeros(2)])
    probs, _ = mlp_forward(params, np.array([[1.0, -2.0, 0.5]]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])


def test_softmax_arithmetic():
    # single linear layer producing logits [ln 3, 0]
    params = ModelParams([np.array([[np.log(3.0), 0.0]])], [np.zeros(2)])
    probs, _ = mlp_forward(params, np.array([[1.0]]))
    np.testing.assert_allclose(probs, [[0.75, 0.25]], atol=1e-15)


def test_prob_rows_normalized(rng):
    params = small_mlp(dims=(5, 12, 9, 4), seed=3)
    probs, _ = mlp_forward(params, rng.standard_normal((17, 5)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_forward_rejects_bad_dim(rng):
    params = small_mlp()
    with pytest.raises(ValueError):
        mlp_forward(params, rng.standard_normal((4, 7)))


def test_backward_zero_cotangent_gives_zero_grad(rng):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((6, 3)))
    grad = mlp_backward(params, cache, np.zeros((6, 4)))
    assert grad.norm() == 0.0


def test_backward_linear_layer_closed_form(rng):
    params = ModelParams([rng.standard_normal((3, 2))], [np.zeros(2)])
    x = rng.standard_normal((1, 3))
    _, cache = mlp_forward(params, x)
    g = rng.standard_normal((1, 2))
    grad = mlp_backward(params, cache, g)
    np.testing.assert_allclose(grad.weights[0], x.T @ g, atol=1e-15)
    np.testing.assert_allclose(grad.biases[0], g[0], atol=1e-15)


def test_backward_matches_finite_differences(rng):
    params = small_mlp(dims=(3, 6, 5, 3), seed=7)
    X = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    probs, cache = mlp_forward(params, X)
    grad = mlp_backward(params, cache, (probs - one_hot(labels, 3)) / 4)

    def loss(p):
        pr, _ = mlp_forward(p, X)
        return hard_ce(pr, labels)

    fd = finite_diff(loss, params, 1e-5)
    err = grad.add_scaled(fd, -1.0).norm() / fd.norm()
    assert err <= 1e-6


def test_jvp_zero_tangent(rng):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    u = jvp_logits_batch(params, ParamGrad.zeros_like(params), cache)
    np.testing.assert_array_equal(u, np.zeros((2, 4)))


def test_jvp_linear_layer_closed_form(rng):
    params = ModelParams([np.zeros((2, 2))], [np.zeros(2)])
    _, cache = mlp_forward(params, np.array([[1.0, 0.0]]))
    tangent = ParamGrad([np.array([[1.0, 0.0], [0.0, 0.0]])], [np.zeros(2)])
    u = jvp_logits_batch(params, tangent, cache)
    np.testing.assert_allclose(u, [[1.0, 0.0]])


def _nudge(params, tangent, eps):
    return ModelParams.from_flat(params.flat + eps * tangent.flat, params.shapes)


def test_jvp_matches_central_differences(rng):
    params = small_mlp(dims=(4, 9, 7, 3), seed=11)
    x = rng.standard_normal((1, 4))
    _, cache = mlp_forward(params, x)
    t = random_grad(params, rng)
    u = jvp_logits_batch(params, t, cache)[0]
    eps = 1e-6
    hi = mlp_forward(_nudge(params, t, eps), x)[1].logits[0]
    lo = mlp_forward(_nudge(params, t, -eps), x)[1].logits[0]
    fd = (hi - lo) / (2 * eps)
    assert np.linalg.norm(u - fd) / np.linalg.norm(fd) <= 1e-6


@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_jvp_linear_in_tangent(seed, a, b):
    rng = np.random.default_rng(seed)
    params = small_mlp(seed=seed % 17)
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    t1 = random_grad(params, rng)
    t2 = random_grad(params, rng)
    combo = t1.scale(a).add_scaled(t2, b)
    u = jvp_logits_batch(params, combo, cache)
    u_sep = a * jvp_logits_batch(params, t1, cache) + b * jvp_logits_batch(params, t2, cache)
    np.testing.assert_allclose(u, u_sep, atol=1e-10)


def test_jvp_rows_match_a_forward_of_those_rows(rng):
    # a row range of a stacked cache gives the JVP of a forward over those rows
    params = small_mlp(dims=(3, 7, 5, 4), seed=2)
    X = rng.standard_normal((9, 3))
    t = random_grad(params, rng)
    _, stacked = mlp_forward(params, X)
    _, part = mlp_forward(params, X[3:7])
    np.testing.assert_allclose(
        jvp_logits_batch(params, t, stacked, slice(3, 7)), jvp_logits_batch(params, t, part),
        rtol=1e-13, atol=1e-13)
    c = rng.standard_normal((4, 4))
    np.testing.assert_allclose(mlp_backward(params, stacked, c, slice(3, 7)).flat,
                               mlp_backward(params, part, c).flat, rtol=1e-13, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_jvp_backward_duality(seed):
    rng = np.random.default_rng(seed)
    params = small_mlp(dims=(3, 7, 5, 4), seed=seed % 23)
    X = rng.standard_normal((3, 3))
    _, cache = mlp_forward(params, X)
    t = random_grad(params, rng)
    c = rng.standard_normal((3, 4))
    lhs = float((c * jvp_logits_batch(params, t, cache)).sum())
    rhs = param_dot(mlp_backward(params, cache, c), t)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_jvp_rejects_mismatched_tangent(rng):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    with pytest.raises(ValueError, match="tangent"):
        jvp_logits_batch(params, ParamGrad.zeros_like(small_mlp(dims=(3, 5, 4))), cache)


def test_sgd_zero_alpha_is_identity(rng):
    params = small_mlp()
    grad = random_grad(params, rng)
    out = sgd_step(params, grad, 0.0)
    for w0, w1 in zip(params.weights, out.weights):
        np.testing.assert_array_equal(w0, w1)


def test_sgd_arithmetic():
    params = ModelParams([np.ones((1, 1))], [np.ones(1)])
    grad = ParamGrad([2 * np.ones((1, 1))], [2 * np.ones(1)])
    out = sgd_step(params, grad, 0.5)
    assert out.weights[0][0, 0] == 0.0 and out.biases[0][0] == 0.0


def test_sgd_descends_convex_quadratic(rng):
    params = small_mlp(seed=5)
    target = random_grad(params, rng)

    def quad_loss(p):
        diff = ParamGrad(p.weights, p.biases).add_scaled(target, -1.0)
        return 0.5 * diff.dot(diff)

    losses = [quad_loss(params)]
    for _ in range(20):
        grad = ParamGrad(params.weights, params.biases).add_scaled(target, -1.0)
        params = sgd_step(params, grad, 0.1)
        losses.append(quad_loss(params))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_param_dot_basics():
    p = ModelParams([np.zeros((2, 2))], [np.zeros(2)])
    e1 = ParamGrad.zeros_like(p)
    e1.weights[0][0, 0] = 1.0
    e2 = ParamGrad.zeros_like(p)
    e2.biases[0][1] = 1.0
    assert param_dot(e1, e1) == 1.0
    assert param_dot(e1, e2) == 0.0


def test_param_dot_matches_naive_sum(rng):
    params = small_mlp()
    a = random_grad(params, rng)
    b = random_grad(params, rng)
    naive = 0.0
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        for u, v in zip(x.ravel(), y.ravel()):
            naive += u * v
    assert abs(param_dot(a, b) - naive) <= 1e-12 * max(1.0, abs(naive))


def test_param_dot_shape_mismatch():
    a = ParamGrad([np.zeros((2, 2))], [np.zeros(2)])
    b = ParamGrad([np.zeros((3, 2))], [np.zeros(2)])
    with pytest.raises(ValueError):
        param_dot(a, b)


def test_checkpoint_roundtrip(tmp_path, rng):
    params = small_mlp(dims=(5, 11, 8, 3), seed=9)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert back.dims == params.dims
    for w0, w1 in zip(params.weights, back.weights):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(params.biases, back.biases):
        np.testing.assert_array_equal(b0, b1)


def test_flat_vector_is_checkpoint_order_and_views_write_through(tmp_path):
    params = small_mlp(dims=(3, 5, 2), seed=1)
    w0, b0, w1, b1 = params.weights[0], params.biases[0], params.weights[1], params.biases[1]
    np.testing.assert_array_equal(
        params.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    path = tmp_path / "ck.bin"
    save_checkpoint(params, str(path))
    header = CHECKPOINT_MAGIC + struct.pack("<5I", 2, 3, 5, 5, 2)
    assert path.read_bytes() == header + params.flat.astype("<f8").tobytes()
    w1[0, 0] = 7.0
    assert params.flat[3 * 5 + 5] == 7.0


def test_layout_checks_hold_after_the_layout_is_cached():
    params = small_mlp(dims=(3, 5, 2), seed=1)
    shapes = params.shapes
    ModelParams.from_flat(params.flat.copy(), shapes)  # layout now cached
    for bad in (np.zeros(params.flat.size - 1), np.zeros(params.flat.size + 1),
                np.zeros((1, params.flat.size))):
        with pytest.raises(ValueError, match="does not fit"):
            ModelParams.from_flat(bad, shapes)
    broken = ((3, 5), (4, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="fan-in"):
            ParamGrad.from_flat(np.zeros(3 * 5 + 5 + 4 * 2 + 2), broken)
    with pytest.raises(ValueError, match="at least one layer"):
        ModelParams.from_flat(np.zeros(0), ())
    flat = np.zeros(params.flat.size)
    view = ModelParams.from_flat(flat, shapes)
    assert view.flat is flat
    view.weights[1][4, 1] = 3.0
    view.biases[0][2] = -1.0
    assert flat[3 * 5 + 5 + 4 * 2 + 1] == 3.0 and flat[3 * 5 + 2] == -1.0


def _snapshot(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("rows", [slice(None), slice(2, 7)])
def test_forward_backward_jvp_mutate_no_input_or_cache(rng, rows):
    params = small_mlp(dims=(3, 8, 6, 4), seed=5)
    X = rng.standard_normal((9, 3))
    X_before = X.copy()
    params_before = params.flat.copy()
    probs, cache = mlp_forward(params, X)
    assert probs is cache.probs
    for pre, act in zip(cache.pre_activations, cache.activations):
        assert pre is not act and not np.shares_memory(pre, act)
    cached = [cache.inputs, *cache.pre_activations, *cache.activations, cache.logits, cache.probs]
    cached_before = _snapshot(*cached)
    n = len(range(*rows.indices(9)))
    d = rng.standard_normal((n, 4))
    tangent = random_grad(params, rng)
    inputs_before = _snapshot(d, tangent.flat)

    grad = mlp_backward(params, cache, d, rows)
    u = jvp_logits_batch(params, tangent, cache, rows)

    assert _snapshot(*cached) == cached_before
    assert _snapshot(d, tangent.flat) == inputs_before
    assert X.tobytes() == X_before.tobytes() and params.flat.tobytes() == params_before.tobytes()
    for out in (grad.flat, u):
        for a in (X, d, tangent.flat, params.flat, *cached):
            assert not np.shares_memory(out, a)


def _softmax_reference(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_reference(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def test_softmax_and_log_softmax_bitwise_equal_the_row_reduction_formula(rng):
    for _ in range(300):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 13))
        L = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3)
        L[rng.random(n) < 0.2] *= 1e3  # saturated rows
        if rng.random() < 0.3:
            L = np.asfortranarray(L)
        assert softmax(L).tobytes() == _softmax_reference(L).tobytes()
        assert log_softmax(L).tobytes() == _log_softmax_reference(L).tobytes()


def test_constructor_copies_the_layer_lists():
    w, b = np.ones((2, 2)), np.zeros(2)
    params = ModelParams([w], [b])
    w[0, 0] = 5.0
    assert params.weights[0][0, 0] == 1.0 and params.flat.dtype == np.float64


def test_backward_writes_a_fresh_vector(rng):
    params = small_mlp()
    before = params.flat.copy()
    _, cache = mlp_forward(params, rng.standard_normal((3, 3)))
    g1 = mlp_backward(params, cache, rng.standard_normal((3, 4)))
    g2 = mlp_backward(params, cache, rng.standard_normal((3, 4)))
    np.testing.assert_array_equal(params.flat, before)
    assert not np.shares_memory(g1.flat, g2.flat)


def test_checkpoint_every_strict_prefix_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(small_mlp(dims=(2, 3, 2)), str(path))
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_truncated(tmp_path):
    params = small_mlp()
    path = tmp_path / "trunc.bin"
    save_checkpoint(params, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(str(path))


def test_init_is_seeded_and_bounded():
    a = init_mlp([4, 6, 3], seed=42)
    b = init_mlp([4, 6, 3], seed=42)
    c = init_mlp([4, 6, 3], seed=43)
    for w0, w1 in zip(a.weights, b.weights):
        np.testing.assert_array_equal(w0, w1)
    assert any(not np.array_equal(w0, w1) for w0, w1 in zip(a.weights, c.weights))
    limit = np.sqrt(6.0 / (4 + 6))
    assert np.abs(a.weights[0]).max() <= limit
    assert a.param_count == 4 * 6 + 6 + 6 * 3 + 3


def test_row_sum_bitwise_equals_sum_and_falls_back_from_8_entries(rng):
    transposed_order_differs = False
    for _ in range(400):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 13))
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, k))
        if rng.random() < 0.3:
            x = np.exp(1e3 * (x - x.max(axis=1, keepdims=True)))  # saturated rows
        if rng.random() < 0.3:
            x = np.asfortranarray(x)
        assert row_sum(x).tobytes() == x.sum(axis=1, keepdims=True).tobytes()
        if k >= 8 and x.flags.c_contiguous:
            transposed = np.ascontiguousarray(x.T).sum(axis=0)
            transposed_order_differs |= transposed.tobytes() != x.sum(axis=1).tobytes()
    # from 8 entries on the transposed sum is not sum(axis=1), so the fallback matters
    assert transposed_order_differs


def _backward_with_boolean_masks(params, cache, d, rows):
    grad = ParamGrad.zeros_like(params)
    delta = d
    for i in range(params.n_layers - 1, -1, -1):
        a_in = cache.activations[i - 1] if i > 0 else cache.inputs
        np.dot(a_in[rows].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= cache.pre_activations[i - 1][rows] > 0.0
    return grad


def _jvp_with_boolean_masks(params, tangent, cache, rows):
    t = cache.inputs[rows] @ tangent.weights[0]
    t += tangent.biases[0]
    for i in range(1, params.n_layers):
        t *= cache.pre_activations[i - 1][rows] > 0.0
        t_in = t
        t = cache.activations[i - 1][rows] @ tangent.weights[i]
        t += tangent.biases[i]
        t += t_in @ params.weights[i]
    return t


@pytest.mark.parametrize("rows", [slice(None), slice(2, 7)])
def test_cached_relu_masks_match_boolean_masks_bitwise(rng, rows):
    params = small_mlp(dims=(3, 8, 6, 4), seed=5)
    _, cache = mlp_forward(params, rng.standard_normal((9, 3)))
    # -0.0, +0.0 and NaN are not > 0 and mask to 0.0; the smallest subnormal is
    for pre in cache.pre_activations[:-1]:
        pre[2:7, :4] = [-0.0, np.nan, 0.0, 5e-324]
    assert cache.masks is None  # a forward pass builds none
    n = len(range(*rows.indices(9)))
    tangent = random_grad(params, rng)
    for _ in range(2):
        d = rng.standard_normal((n, 4))
        grad = mlp_backward(params, cache, d, rows)
        assert grad.flat.tobytes() == _backward_with_boolean_masks(params, cache, d, rows).flat.tobytes()
        u = jvp_logits_batch(params, tangent, cache, rows)
        assert u.tobytes() == _jvp_with_boolean_masks(params, tangent, cache, rows).tobytes()
    masks = cache.relu_masks()
    assert cache.masks is masks and len(masks) == 2  # built once, shared by every pass
