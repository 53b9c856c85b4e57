import dataclasses
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pre_activations, random_grad, random_layout, small_mlp
from reference import (
    add_scaled,
    dot,
    finite_diff,
    from_blocks,
    hard_ce,
    log_softmax,
    norm,
    scale,
    zeros_like,
)
from saflex import nn, oracle
from saflex.data import write_files
from saflex.nn import (
    CHECKPOINT_MAGIC,
    ForwardCache,
    ModelParams,
    ParamGrad,
    init_mlp,
    jvp_logits_batch,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    checkpoint_bytes,
    row_sum,
    sgd_step,
    softmax,
)
from saflex.rng import stream
from saflex.losses import one_hot


def test_zero_params_give_uniform_probs():
    params = from_blocks(ModelParams, [np.zeros((3, 2))], [np.zeros(2)])
    probs, _ = mlp_forward(params, np.array([[1.0, -2.0, 0.5]]))
    np.testing.assert_allclose(probs, [[0.5, 0.5]])


def test_softmax_arithmetic():
    # single linear layer producing logits [ln 3, 0]
    params = from_blocks(ModelParams, [np.array([[np.log(3.0), 0.0]])], [np.zeros(2)])
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
    grad = mlp_backward(params, cache, np.zeros((6, 4)), slice(None))
    assert norm(grad) == 0.0


def test_backward_linear_layer_closed_form(rng):
    params = from_blocks(ModelParams, [rng.standard_normal((3, 2))], [np.zeros(2)])
    x = rng.standard_normal((1, 3))
    _, cache = mlp_forward(params, x)
    g = rng.standard_normal((1, 2))
    grad = mlp_backward(params, cache, g, slice(None))
    np.testing.assert_allclose(grad.weights[0], x.T @ g, atol=1e-15)
    np.testing.assert_allclose(grad.biases[0], g[0], atol=1e-15)


def test_backward_matches_finite_differences(rng):
    params = small_mlp(dims=(3, 6, 5, 3), seed=7)
    X = rng.standard_normal((4, 3))
    labels = rng.integers(0, 3, size=4)
    probs, cache = mlp_forward(params, X)
    grad = mlp_backward(params, cache, (probs - one_hot(labels, 3)) / 4, slice(None))

    def loss(p):
        pr, _ = mlp_forward(p, X)
        return hard_ce(pr, labels)

    fd = finite_diff(loss, params, 1e-5)
    err = norm(add_scaled(grad, fd, -1.0)) / norm(fd)
    assert err <= 1e-6


def test_jvp_zero_tangent(rng):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    u = jvp_logits_batch(params, zeros_like(params), cache, slice(None))
    np.testing.assert_array_equal(u, np.zeros((2, 4)))


def test_jvp_linear_layer_closed_form(rng):
    params = from_blocks(ModelParams, [np.zeros((2, 2))], [np.zeros(2)])
    _, cache = mlp_forward(params, np.array([[1.0, 0.0]]))
    tangent = from_blocks(ParamGrad, [np.array([[1.0, 0.0], [0.0, 0.0]])], [np.zeros(2)])
    u = jvp_logits_batch(params, tangent, cache, slice(None))
    np.testing.assert_allclose(u, [[1.0, 0.0]])


def _nudge(params, tangent, eps):
    return ModelParams.from_flat(params.flat + eps * tangent.flat, params.shapes)


def test_jvp_matches_central_differences(rng):
    params = small_mlp(dims=(4, 9, 7, 3), seed=11)
    x = rng.standard_normal((1, 4))
    _, cache = mlp_forward(params, x)
    t = random_grad(params, rng)
    u = jvp_logits_batch(params, t, cache, slice(None))[0]
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
    combo = add_scaled(scale(t1, a), t2, b)
    u = jvp_logits_batch(params, combo, cache, slice(None))
    everything = slice(None)
    u_sep = (a * jvp_logits_batch(params, t1, cache, everything)
             + b * jvp_logits_batch(params, t2, cache, everything))
    np.testing.assert_allclose(u, u_sep, atol=1e-10)


def test_jvp_rows_match_a_forward_of_those_rows(rng):
    # a row range of a stacked cache gives the JVP of a forward over those rows
    params = small_mlp(dims=(3, 7, 5, 4), seed=2)
    X = rng.standard_normal((9, 3))
    t = random_grad(params, rng)
    _, stacked = mlp_forward(params, X)
    _, part = mlp_forward(params, X[3:7])
    np.testing.assert_allclose(
        jvp_logits_batch(params, t, stacked, slice(3, 7)),
        jvp_logits_batch(params, t, part, slice(None)), rtol=1e-13, atol=1e-13)
    c = rng.standard_normal((4, 4))
    np.testing.assert_allclose(mlp_backward(params, stacked, c, slice(3, 7)).flat,
                               mlp_backward(params, part, c, slice(None)).flat,
                               rtol=1e-13, atol=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_jvp_backward_duality(seed):
    rng = np.random.default_rng(seed)
    params = small_mlp(dims=(3, 7, 5, 4), seed=seed % 23)
    X = rng.standard_normal((3, 3))
    _, cache = mlp_forward(params, X)
    t = random_grad(params, rng)
    c = rng.standard_normal((3, 4))
    lhs = float((c * jvp_logits_batch(params, t, cache, slice(None))).sum())
    rhs = dot(mlp_backward(params, cache, c, slice(None)), t)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_jvp_rejects_mismatched_tangent(rng):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    with pytest.raises(ValueError, match="tangent"):
        jvp_logits_batch(params, zeros_like(small_mlp(dims=(3, 5, 4))), cache, slice(None))


def test_sgd_zero_alpha_is_identity(rng):
    params = small_mlp()
    grad = random_grad(params, rng)
    out = sgd_step(params, grad.flat, 0.0)
    for w0, w1 in zip(params.weights, out.weights):
        np.testing.assert_array_equal(w0, w1)


def test_sgd_arithmetic():
    params = from_blocks(ModelParams, [np.ones((1, 1))], [np.ones(1)])
    grad = from_blocks(ParamGrad, [2 * np.ones((1, 1))], [2 * np.ones(1)])
    out = sgd_step(params, grad.flat, 0.5)
    assert out.weights[0][0, 0] == 0.0 and out.biases[0][0] == 0.0


def test_sgd_descends_convex_quadratic(rng):
    params = small_mlp(seed=5)
    target = random_grad(params, rng)

    def quad_loss(p):
        diff = add_scaled(from_blocks(ParamGrad, p.weights, p.biases), target, -1.0)
        return 0.5 * dot(diff, diff)

    losses = [quad_loss(params)]
    for _ in range(20):
        grad = add_scaled(from_blocks(ParamGrad, params.weights, params.biases), target, -1.0)
        params = sgd_step(params, grad.flat, 0.1)
        losses.append(quad_loss(params))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_param_dot_basics():
    p = from_blocks(ModelParams, [np.zeros((2, 2))], [np.zeros(2)])
    e1 = zeros_like(p)
    e1.weights[0][0, 0] = 1.0
    e2 = zeros_like(p)
    e2.biases[0][1] = 1.0
    assert dot(e1, e1) == 1.0
    assert dot(e1, e2) == 0.0


def test_param_dot_matches_naive_sum(rng):
    params = small_mlp()
    a = random_grad(params, rng)
    b = random_grad(params, rng)
    naive = 0.0
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        for u, v in zip(x.ravel(), y.ravel()):
            naive += u * v
    assert abs(dot(a, b) - naive) <= 1e-12 * max(1.0, abs(naive))


def test_param_dot_shape_mismatch():
    a = from_blocks(ParamGrad, [np.zeros((2, 2))], [np.zeros(2)])
    b = from_blocks(ParamGrad, [np.zeros((3, 2))], [np.zeros(2)])
    with pytest.raises(ValueError):
        dot(a, b)


def test_checkpoint_roundtrip(tmp_path, rng):
    params = small_mlp(dims=(5, 11, 8, 3), seed=9)
    path = str(tmp_path / "ck.bin")
    write_files({path: checkpoint_bytes(params)})
    back = load_checkpoint(path)
    assert back.shapes == params.shapes
    for w0, w1 in zip(params.weights, back.weights):
        np.testing.assert_array_equal(w0, w1)
    for b0, b1 in zip(params.biases, back.biases):
        np.testing.assert_array_equal(b0, b1)


def test_flat_vector_is_checkpoint_order_and_views_write_through():
    params = small_mlp(dims=(3, 5, 2), seed=1)
    w0, b0, w1, b1 = params.weights[0], params.biases[0], params.weights[1], params.biases[1]
    np.testing.assert_array_equal(
        params.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    header = CHECKPOINT_MAGIC + struct.pack("<5I", 2, 3, 5, 5, 2)
    assert checkpoint_bytes(params) == header + params.flat.astype("<f8").tobytes()
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
    for pre, act in zip(pre_activations(params, cache), cache.activations):
        assert act.tobytes() == np.maximum(pre, 0.0).tobytes()
    for a, b in itertools.combinations([*cache.activations, cache.logits, cache.probs], 2):
        assert not np.shares_memory(a, b)
    cached = [cache.inputs, *cache.activations, cache.logits, cache.probs]
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


def test_backward_writes_a_fresh_vector(rng):
    params = small_mlp()
    before = params.flat.copy()
    _, cache = mlp_forward(params, rng.standard_normal((3, 3)))
    g1 = mlp_backward(params, cache, rng.standard_normal((3, 4)), slice(None))
    g2 = mlp_backward(params, cache, rng.standard_normal((3, 4)), slice(None))
    np.testing.assert_array_equal(params.flat, before)
    assert not np.shares_memory(g1.flat, g2.flat)


@pytest.mark.parametrize("shape", [(3, 2, 5), (3, 1, 4), (1, 3, 2, 4), (4,)])
def test_backward_rejects_a_table_of_another_shape(rng, shape):
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    with pytest.raises(ValueError, match="dloss_dlogits shape"):
        mlp_backward(params, cache, np.zeros(shape), slice(None))


def test_a_stacked_forward_takes_no_workspace_and_only_a_3d_stack(rng):
    # the stacked forward is the reverse oracle's own, and takes no workspace;
    # nn's forward takes a 2-D X, with a workspace or without
    params = small_mlp()
    for shape in [(2, 1, 3), (2, 4, 3), (1, 2, 4, 3)]:
        for reuse in (None, ForwardCache.empty(params, 8)):
            with pytest.raises(ValueError, match="X must be 2-D"):
                mlp_forward(params, rng.standard_normal(shape), reuse)
    with pytest.raises(TypeError):
        oracle.mlp_forward(params, np.zeros((2, 1, 3)), ForwardCache.empty(params, 8))
    for shape in [(3,), (2, 3), (2, 2, 3, 3), (2, 3, 4)]:
        with pytest.raises(ValueError, match="not a stack of batches of 3-wide rows"):
            oracle.mlp_forward(params, np.zeros(shape))


@pytest.mark.parametrize("stack_rows, dims", [
    (None, (3, 8, 6, 4)), (2, (3, 8, 6, 4)), (4, (3, 8, 6, 4)), (3, (3, 8, 6, 5)),
])
def test_stacked_backward_rejects_an_out_of_another_stack_or_layout(rng, stack_rows, dims):
    # nn's backward writes one gradient: a stack of tables is refused, and no
    # gradient of stacked rows, in this or another layout, can be built
    params = small_mlp()
    _, cache = mlp_forward(params, rng.standard_normal((2, 3)))
    for shape in [(3, 2, 4), (2, 1, 2, 4), (2, 4, 1, 4)]:
        with pytest.raises(ValueError, match="dloss_dlogits shape"):
            mlp_backward(params, cache, rng.standard_normal(shape), slice(None))
    if stack_rows is not None:
        layout = small_mlp(dims=dims)
        with pytest.raises(ValueError, match="does not fit"):
            ParamGrad.from_flat(np.full((stack_rows, layout.param_count), np.nan), layout.shapes)


# The reverse oracle's stacked backward (saflex.oracle) against nn's 2-D
# backward, which is its bitwise reference one batch and one table at a time.


def test_stacked_backward_is_bitwise_one_backward_per_table(rng):
    # compared row by row: a gradient's lost -0.0 would vanish in the score's
    # dot; a third of the layouts have a (1, 1) weight block (random_layout)
    for trial in range(300):
        k = 2 + trial % 5
        params = random_layout(rng, trial // 5, k)
        s, r = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        n = 1 if trial % 4 else int(rng.integers(2, 5))
        X = rng.standard_normal((s, n, params.input_dim))
        tables = rng.standard_normal((s, r, n, k))
        _, acts = oracle.mlp_forward(params, X)
        grads = oracle.mlp_backward(params, acts, tables)
        assert grads.shape == (s * r, params.param_count)
        for b in range(s):
            _, alone = mlp_forward(params, X[b])
            for t in range(r):
                want = mlp_backward(params, alone, tables[b, t], slice(None)).flat
                assert grads[b * r + t].tobytes() == want.tobytes(), (trial, params.shapes, b, t)


def test_backward_over_a_stacked_cache_is_bitwise_one_class_stack_per_batch(rng):
    # the reference is each batch's class stack over its own one-batch forward,
    # which test_stacked_backward_is_bitwise_one_backward_per_table holds bitwise
    # to R lone backward passes
    for trial in range(120):
        params = random_layout(rng, trial, int(rng.integers(2, 7)))
        s, n, r = int(rng.integers(1, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
        X = rng.standard_normal((s, n, params.input_dim))
        tables = rng.standard_normal((s, r, n, params.n_classes))
        _, acts = oracle.mlp_forward(params, X)
        got = oracle.mlp_backward(params, acts, tables)
        for b in range(s):
            _, alone = oracle.mlp_forward(params, X[b : b + 1])
            want = oracle.mlp_backward(params, alone, tables[b : b + 1])
            assert got[b * r : (b + 1) * r].tobytes() == want.tobytes(), (trial, b)


@pytest.mark.parametrize("shape", [(3, 4), (3, 3, 4), (2, 3, 5), (2, 2, 2, 4), (2, 1, 4, 4),
                                   (1, 2, 1, 3, 4), (3, 1, 3, 4)])
def test_backward_over_a_stacked_cache_rejects_a_table_of_another_shape(rng, shape):
    params = small_mlp()
    _, acts = oracle.mlp_forward(params, rng.standard_normal((2, 3, 3)))
    with pytest.raises(ValueError, match="do not fit 2 batches of 3 rows and 4 classes"):
        oracle.mlp_backward(params, acts, np.zeros(shape))


@pytest.mark.parametrize("table_stack", [None, 2, 3, 8])
def test_backward_over_a_stacked_cache_rejects_an_out_of_another_stack(rng, table_stack):
    # the out, the (S * R, P) gradient rows, is laid out by the tables' stack:
    # tables for another number of batches than the cache's one are refused,
    # where numpy would broadcast that batch across them
    params = small_mlp()
    _, acts = oracle.mlp_forward(params, rng.standard_normal((1, 1, 3)))
    shape = (3, 1, 4) if table_stack is None else (table_stack, 3, 1, 4)
    with pytest.raises(ValueError, match="do not fit 1 batches"):
        oracle.mlp_backward(params, acts, rng.standard_normal(shape))


@pytest.mark.parametrize("cls", [ModelParams, ParamGrad])
def test_from_flat_rejects_a_stack_of_vectors(cls):
    params = small_mlp(dims=(3, 5, 2), seed=1)
    size = params.flat.size
    for bad in (np.zeros((4, size)), np.zeros((1, size)), np.zeros(size + 1)):
        with pytest.raises(ValueError, match="does not fit"):
            cls.from_flat(bad, params.shapes)


def test_dot_is_bitwise_the_sum_of_raveled_block_dots(rng):
    for _ in range(300):
        n_layers = int(rng.integers(1, 4))
        dims = [int(d) for d in rng.integers(1, 20, size=n_layers + 1)]
        dims[int(rng.integers(0, n_layers + 1))] = 1  # a 1-wide layer in every layout
        params = init_mlp(dims, seed=0)
        a, b = random_grad(params, rng), random_grad(params, rng, scale=1e3)
        for _ in range(2):  # the second dot sees the new values written into flat
            pairs = zip(a.weights + a.biases, b.weights + b.biases)
            old = sum(float(np.dot(x.ravel(), y.ravel())) for x, y in pairs)
            assert np.float64(dot(a, b)).tobytes() == np.float64(old).tobytes()
            a.flat[:] = rng.standard_normal(a.flat.size)


def test_checkpoint_every_strict_prefix_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    write_files({str(path): checkpoint_bytes(small_mlp(dims=(2, 3, 2)))})
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


def test_checkpoint_with_no_layer_names_the_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 0))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(exc.value) == f"checkpoint {str(path)!r}: at least one layer required"


def test_checkpoint_whose_dims_do_not_chain_names_the_file(tmp_path):
    path = tmp_path / "unchained.bin"
    shapes = ((2, 3), (4, 2))  # layer 1 takes 4 inputs, layer 0 gives 3
    body = np.zeros(sum(fi * fo + fo for fi, fo in shapes), dtype="<f8").tobytes()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5I", 2, *itertools.chain(*shapes)) + body)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(exc.value) == (f"checkpoint {str(path)!r}: "
                              "layer 1: fan-in does not chain from layer 0")


def test_checkpoint_truncated(tmp_path):
    params = small_mlp()
    path = tmp_path / "trunc.bin"
    write_files({str(path): checkpoint_bytes(params)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError) as exc:
        load_checkpoint(str(path))
    assert str(exc.value) == (f"truncated checkpoint {str(path)!r}: "
                              f"expected {len(blob)} bytes, got {len(blob) - 8}")


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
    pre = pre_activations(params, cache)
    grad = zeros_like(params)
    delta = d
    for i in range(params.n_layers - 1, -1, -1):
        a_in = cache.activations[i - 1] if i > 0 else cache.inputs
        np.dot(a_in[rows].T, delta, out=grad.weights[i])
        np.add.reduce(delta, axis=0, out=grad.biases[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= pre[i - 1][rows] > 0.0
    return grad


def _jvp_with_boolean_masks(params, tangent, cache, rows):
    pre = pre_activations(params, cache)
    t = cache.inputs[rows] @ tangent.weights[0]
    t += tangent.biases[0]
    for i in range(1, params.n_layers):
        t *= pre[i - 1][rows] > 0.0
        t_in = t
        t = cache.activations[i - 1][rows] @ tangent.weights[i]
        t += tangent.biases[i]
        t += t_in @ params.weights[i]
    return t


@pytest.mark.parametrize("rows", [slice(None), slice(2, 7)])
def test_cached_relu_masks_match_boolean_masks_bitwise(rng, rows):
    params = small_mlp(dims=(3, 8, 6, 4), seed=5)
    X = rng.standard_normal((9, 3))
    # zero input rows leave the first layer's bias: +0.0 is not > 0 and masks
    # to 0.0, the smallest subnormal is; NaN and -0.0 have their own mask test
    X[2:7] = 0.0
    params.biases[0][:4] = [0.0, 0.0, 5e-324, -5e-324]
    _, cache = mlp_forward(params, X)
    pre = pre_activations(params, cache)[0][2:7, :4]
    assert (pre == [0.0, 0.0, 5e-324, -5e-324]).all()
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


def test_relu_masks_are_the_recomputed_pre_activations_above_zero():
    """The masks come from the ReLU'd activations, and equal pre > 0.0 bitwise
    where the pre-activation is +-0.0, NaN, +-inf or subnormal."""
    params = init_mlp([1, 6, 6, 3], seed=2)
    params.weights[0][0] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    params.biases[0][:] = -0.0
    params.biases[1][:] = [0.5, -0.5, 0.0, 5e-324, -0.25, 1.0]
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.0, -3.0]
    with np.errstate(invalid="ignore"):  # inf - inf in the second layer
        _, cache = mlp_forward(params, np.array(specials)[:, None])
        pre = pre_activations(params, cache)
    first = pre[0].ravel()
    # BLAS sums from +0.0, so an input of -0.0 reaches the first layer as +0.0
    assert (first == 0.0).any() and np.isnan(first).any()
    assert {np.inf, -np.inf, 5e-324, -5e-324} <= set(first.tolist())
    masks = cache.relu_masks()
    assert [m.tobytes() for m in masks] == [(p > 0.0).astype(np.float64).tobytes() for p in pre]
    assert masks[0].tobytes() != masks[1].tobytes()  # a mask of the wrong layer differs

    # -0.0 itself, through the forward pass's in-place ReLU
    p = np.array([specials])
    act = p.copy()
    np.maximum(act, 0.0, out=act)
    by_hand = ForwardCache(np.empty((1, 1)), [act], np.empty((1, 1)), np.empty((1, 1)))
    assert by_hand.relu_masks()[0].tobytes() == (p > 0.0).astype(np.float64).tobytes()


def test_a_workspace_holds_one_array_per_layer_and_a_reused_forward_writes_only_into_it(rng):
    def held(cache):
        arrays = {}
        for f in dataclasses.fields(cache):
            value = getattr(cache, f.name)
            for a in value if isinstance(value, list) else [value]:
                if isinstance(a, np.ndarray):
                    arrays[id(a)] = a
        return list(arrays.values())

    for dims in [(3, 8, 6, 4), (2, 16, 16, 2), (13, 100, 3)]:
        params = small_mlp(dims=dims, seed=1)
        ws = ForwardCache.empty(params, 40)
        workspace = held(ws)
        # rows x (sum of hidden widths + 2K) floats: activations, logits, probs
        assert sum(a.nbytes for a in workspace) == 8 * 40 * (sum(dims[1:-1]) + 2 * dims[-1])
        for a, b in itertools.combinations(workspace, 2):
            assert not np.shares_memory(a, b)
        for n in (40, 7):
            X = rng.standard_normal((n, dims[0]))
            _, cache = mlp_forward(params, X, ws)
            outputs = [a for a in held(cache) if a is not X]
            assert len(outputs) == len(workspace) - 1  # every array but the row-less inputs
            assert all(any(np.shares_memory(a, w) for w in workspace) for a in outputs)


def _init_mlp_reference(layer_dims, seed):
    """One (fan_in, fan_out) uniform draw and one zero bias per layer, laid out by from_blocks."""
    rng = stream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return from_blocks(ModelParams, weights, biases)


def test_init_mlp_is_bitwise_the_per_layer_draws(rng):
    for trial in range(300):
        n_layers = int(rng.integers(1, 5))
        dims = [int(d) for d in rng.integers(1, 40, size=n_layers + 1)]
        if trial % 2:  # a 1-wide layer anywhere, the input and output too
            dims[int(rng.integers(0, n_layers + 1))] = 1
        got, want = init_mlp(dims, seed=trial), _init_mlp_reference(dims, trial)
        assert got.shapes == want.shapes
        assert got.flat.tobytes() == want.flat.tobytes()


def test_layout_caches_hold_every_oracle_check_layout():
    # oracle-check --k 6 draws inputs 2-5 wide and two hidden layers 4-16 wide
    layouts = [((d, h1), (h1, h2), (h2, 6))
               for d in range(2, 6) for h1 in range(4, 17) for h2 in range(4, 17)]
    assert len(layouts) == 676
    for shapes in layouts:
        nn.block_spans(shapes)
    misses = nn.block_spans.cache_info().misses
    for shapes in layouts:
        nn.block_spans(shapes)
    assert nn.block_spans.cache_info().misses == misses


def test_init_mlp_draws_up_to_the_glorot_limit():
    W = init_mlp([200, 200], seed=0).weights[0]
    limit = np.sqrt(6.0 / (200 + 200))
    assert 0.99 * limit < np.abs(W).max() <= limit


def _forward_arrays(cache):
    return [*cache.activations, cache.logits, cache.probs]


def _assert_bitwise_equal_forwards(got, want):
    probs, cache = got
    assert probs is cache.probs
    assert _snapshot(*_forward_arrays(cache)) == _snapshot(*_forward_arrays(want[1]))


@given(
    st.integers(0, 10_000),
    st.integers(1, 2000),
    st.lists(st.integers(1, 40), min_size=0, max_size=3),
    st.integers(1, 12),
    st.sampled_from([1.0, 1e3]),
)
@settings(max_examples=40, deadline=None)
def test_reused_forward_is_bitwise_a_fresh_forward(seed, rows, hidden, k, scale):
    """Any n <= rows writes the leading n rows of the workspace, bitwise as a
    fresh forward: over 1-wide layers, 1..2000 rows, K <= 12 and saturated
    logits (scale 1e3), across successive parameter updates."""
    g = np.random.default_rng(seed)
    d = int(g.integers(1, 6))
    params = init_mlp([d, *hidden, k], seed=seed)
    params = ModelParams.from_flat(scale * params.flat, params.shapes)
    ws = ForwardCache.empty(params, rows)
    arrays = _forward_arrays(ws)
    for n in (rows, *g.integers(1, rows + 1, size=3)):
        X = g.standard_normal((n, d))
        X_before = X.copy()
        fresh = mlp_forward(params, X)
        params_before = params.flat.copy()
        got = mlp_forward(params, X, ws)
        _assert_bitwise_equal_forwards(got, fresh)
        for a, b in zip(_forward_arrays(got[1]), arrays):
            assert a.base is b and a.shape[0] == n  # the leading rows, not a fresh array
        assert got[1].inputs is X and X.tobytes() == X_before.tobytes()
        assert params.flat.tobytes() == params_before.tobytes()
        params = sgd_step(params, random_grad(params, g).flat, 0.1)


@pytest.mark.parametrize("change", ["rows", "width", "output width"])
def test_forward_into_a_mis_sized_workspace_raises(rng, change):
    params = small_mlp(dims=(3, 8, 6, 4), seed=5)
    X = rng.standard_normal((20, 3))
    if change == "rows":
        ws = ForwardCache.empty(params, 19)
    elif change == "width":
        ws = ForwardCache.empty(small_mlp(dims=(3, 8, 7, 4), seed=5), 20)
    else:
        ws = ForwardCache.empty(small_mlp(dims=(3, 8, 6, 5), seed=5), 20)
    with pytest.raises(ValueError):
        mlp_forward(params, X, ws)


def test_reused_forward_returns_no_stale_masks(rng):
    params = small_mlp(dims=(3, 8, 6, 4), seed=5)
    X = rng.standard_normal((9, 3))
    ws = ForwardCache.empty(params, 12)
    _, cache = mlp_forward(params, X, ws)
    old_masks = cache.relu_masks()
    params = sgd_step(params, random_grad(params, rng).flat, 1.0)
    _, cache = mlp_forward(params, X, ws)
    assert cache.masks is None
    fresh_masks = mlp_forward(params, X)[1].relu_masks()
    assert [m.tobytes() for m in cache.relu_masks()] == [m.tobytes() for m in fresh_masks]
    assert [m.tobytes() for m in old_masks] != [m.tobytes() for m in fresh_masks]
