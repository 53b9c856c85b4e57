import itertools

import numpy as np
import pytest

from conftest import random_grad, random_layout, small_mlp
from reference import (add_scaled, dot, finite_diff, from_blocks, hard_ce, iter_assignments,
                       norm, oracle_instance_two_draws)
from saflex import nn, oracle
from saflex.core import closed_form_assignment, mean_ce_gradient, pi_scores
from saflex.data import Batch
from saflex.losses import one_hot
from saflex.cli import oracle_instance
from saflex.nn import ModelParams, ParamGrad, mlp_backward, mlp_forward
from saflex.oracle import (
    ENUM_MAX_B,
    ENUM_MAX_K,
    Assignment,
    assignment_objective,
    enumerate_optimum_scores,
    pi_scores_reverse,
    post_step_val_loss,
)
from saflex.core import combined_step_gradient


def test_finite_diff_linear_function(rng):
    params = small_mlp()
    c = random_grad(params, rng)

    def fn(p):
        return dot(from_blocks(ParamGrad, p.weights, p.biases), c)

    fd = finite_diff(fn, params, 1e-5)
    assert norm(add_scaled(fd, c, -1.0)) <= 1e-10 * max(1.0, norm(c))


def test_finite_diff_quadratic_at_origin():
    params = from_blocks(ModelParams, [np.zeros((2, 2))], [np.zeros(2)])

    def fn(p):
        g = from_blocks(ParamGrad, p.weights, p.biases)
        return 0.5 * dot(g, g)

    fd = finite_diff(fn, params, 1e-5)
    assert norm(fd) <= 1e-10


def test_reverse_scores_match_fast_path(rng):
    params = small_mlp(dims=(3, 9, 7, 4), seed=13)
    X = rng.standard_normal((5, 3))
    g_val = random_grad(params, rng)
    fast = pi_scores(params, X, g_val)
    slow = pi_scores_reverse(params, X, g_val)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def _reverse_scores_reference(params, X, g_val):
    """One fresh backward per sample and class, dotted block by raveled block."""
    k = params.n_classes
    out = np.empty((X.shape[0], k))
    for i in range(X.shape[0]):
        probs_i, cache_i = mlp_forward(params, X[i : i + 1])
        for c in range(k):
            g_ic = mlp_backward(params, cache_i, probs_i - np.eye(k)[c : c + 1], slice(None))
            pairs = zip(g_ic.weights + g_ic.biases, g_val.weights + g_val.biases)
            out[i, c] = sum(float(np.dot(a.ravel(), b.ravel())) for a, b in pairs)
    return out


@pytest.mark.parametrize("k", range(2, ENUM_MAX_K + 1))
def test_reverse_scores_are_bitwise_one_backward_per_sample_and_class(k):
    for i in range(25):
        params, X, g_val = oracle_instance(9, i, ENUM_MAX_B, k)
        got = pi_scores_reverse(params, X, g_val)
        assert got.tobytes() == _reverse_scores_reference(params, X, g_val).tobytes()


@pytest.mark.parametrize("k", [2, ENUM_MAX_K])
def test_reverse_scores_call_backward_and_dot_through_the_oracle_module(monkeypatch, k):
    # perfbench's tracer wraps oracle.mlp_forward, oracle.mlp_backward and
    # oracle.param_dot by name, and reads the batch size b from shape[0] of
    # the second (forward: the sample stack) and third (backward: the
    # logit-gradient tables) positional argument
    calls = []

    def spy(name, counted):
        real = getattr(oracle, name)

        def wrapper(*args, **kwargs):
            calls.append((name, None if counted is None else args[counted].shape))
            return real(*args, **kwargs)

        return wrapper

    for name, counted in (("mlp_forward", 1), ("mlp_backward", 2), ("param_dot", None)):
        monkeypatch.setattr(oracle, name, spy(name, counted))
    for i in range(6):
        params, X, g_val = oracle_instance(4, i, ENUM_MAX_B, k)
        calls.clear()
        pi_scores_reverse(params, X, g_val)
        b = X.shape[0]
        assert calls == [("mlp_forward", (b, 1, X.shape[1])), ("mlp_backward", (b, k, 1, k)),
                         ("param_dot", None)]


@pytest.mark.parametrize("k", [2, ENUM_MAX_K])
def test_reverse_scores_run_none_of_the_fast_paths_engine(monkeypatch, k):
    fast = [nn.mlp_forward, nn.mlp_backward, nn.jvp_logits_batch]
    # a name the oracle imported would escape the patches below
    assert not [v for v in vars(oracle).values() if any(v is f for f in fast)]
    instances = [oracle_instance(6, i, ENUM_MAX_B, k) for i in range(6)]
    want = [pi_scores_reverse(*inst).tobytes() for inst in instances]

    def refuse(*args, **kwargs):
        raise AssertionError("the reverse oracle ran the fast path's engine")

    for name in ("mlp_forward", "mlp_backward", "jvp_logits_batch"):
        monkeypatch.setattr(nn, name, refuse)
    assert [pi_scores_reverse(*inst).tobytes() for inst in instances] == want


@pytest.mark.parametrize("k", range(2, ENUM_MAX_K + 1))
def test_stacked_forward_is_bitwise_one_forward_per_batch(rng, k):
    # S batches of n rows each: a forward that folds them into one (S * n)-row
    # product differs from the S n-row products in the last bit
    for trial in range(60):
        params = random_layout(rng, trial, k)
        if trial % 4 == 3:  # saturated logits
            params = ModelParams.from_flat(1e3 * params.flat, params.shapes)
        s, n = int(rng.integers(1, 9)), 1 if trial % 2 else int(rng.integers(2, 5))
        X = rng.standard_normal((s, n, params.input_dim))
        X_before = X.copy()
        probs, acts = oracle.mlp_forward(params, X)
        assert acts[0] is X and len(acts) == params.n_layers
        for b in range(s):
            alone = mlp_forward(params, X[b])[1]
            for got, want in zip([*acts[1:], probs], [*alone.activations, alone.probs],
                                 strict=True):
                assert got.shape == (s, *want.shape)
                assert got[b].tobytes() == want.tobytes(), (trial, params.shapes, s, n, b)
        assert X.tobytes() == X_before.tobytes()


def test_stacked_dot_is_bitwise_each_rows_dot(rng):
    # blocks up to 47 x 47 long: np.einsum's sum order differs from ddot's there
    for trial in range(300):
        params = random_layout(rng, trial, int(rng.integers(2, 7)))
        r = int(rng.integers(1, 9))
        grads = rng.standard_normal((r, params.param_count))
        grads[0, : int(rng.integers(0, params.param_count + 1))] = -0.0
        v = random_grad(params, rng, scale=1e3)
        got = oracle.param_dot(grads, v)
        assert got.shape == (r,)
        for t in range(r):
            want = dot(ParamGrad.from_flat(grads[t], params.shapes), v)
            assert np.float64(got[t]).tobytes() == np.float64(want).tobytes(), (trial, t)


@pytest.mark.parametrize("b_max", [1, 3, ENUM_MAX_B])
def test_oracle_instances_take_every_batch_size_up_to_b_max(b_max):
    sizes = {oracle_instance(0, i, b_max, 3)[1].shape[0] for i in range(200)}
    assert sizes == set(range(1, b_max + 1))


@pytest.mark.parametrize("shape", [(0, 5), (2, 5), (2, 1, 3), (3,)])
def test_reverse_scores_reject_the_inputs_the_fast_path_rejects(rng, shape):
    params = small_mlp(dims=(3, 9, 7, 4), seed=13)
    X, g_val = np.zeros(shape), random_grad(params, rng)
    with pytest.raises(ValueError):
        pi_scores(params, X, g_val)
    with pytest.raises(ValueError, match="is not a batch of 3-wide samples"):
        pi_scores_reverse(params, X, g_val)


@pytest.mark.parametrize("b", [0, 3])
def test_reverse_scores_reject_a_g_val_of_another_layout(rng, b):
    params = small_mlp(dims=(3, 9, 7, 4), seed=13)
    g_val = random_grad(small_mlp(dims=(3, 9, 7, 5)), rng)
    with pytest.raises(ValueError, match="g_val laid out"):
        pi_scores_reverse(params, rng.standard_normal((b, 3)), g_val)
    with pytest.raises(ValueError):
        pi_scores(params, rng.standard_normal((3, 3)), g_val)


def _enumerate_reference(pi):
    """Scan (label 0, keep), (label 0, drop), (label 1, keep), ...; a later candidate must beat."""
    b, k = pi.shape
    labels, weights = np.zeros(b, dtype=np.int64), np.zeros(b, dtype=np.int64)
    for i in range(b):
        best_label, best_weight, best_val = 0, 1, pi[i, 0]
        for c in range(k):
            for w in (1, 0):
                val = pi[i, c] if w else 0.0
                if val > best_val:
                    best_label, best_weight, best_val = c, w, val
        labels[i], weights[i] = best_label, best_weight
    picked = pi[np.arange(b), labels]
    return labels, weights, float((weights * picked).sum())


@pytest.mark.parametrize("k", range(2, ENUM_MAX_K + 1))
def test_enumeration_is_bitwise_the_candidate_scan(k):
    # few distinct values, so rows tie between labels, at +-0.0 and below zero
    g = np.random.default_rng(k)
    values = np.array([-1.5, -0.25, -0.0, 0.0, 0.25, 1.5])
    for trial in range(400):
        b = trial % (ENUM_MAX_B + 1)
        pi = g.choice(values, size=(b, k))
        if trial % 5 == 0:  # every row below zero
            pi = -np.abs(pi) - 0.5
        elif trial % 5 == 1:  # continuous scores, signed zeros here and there
            pi = g.standard_normal((b, k)) * (g.random((b, k)) < 0.8)
            pi[g.random((b, k)) < 0.1] = -0.0
        best, obj = enumerate_optimum_scores(pi)
        labels, weights, want = _enumerate_reference(pi)
        assert best.labels.tobytes() == labels.tobytes()
        assert best.weights.tobytes() == weights.tobytes()
        assert np.float64(obj).tobytes() == np.float64(want).tobytes()


def test_enumerate_keeps_a_zero_score_at_label_0_and_drops_a_later_one():
    # the drop of label 0 comes before the keep of label 1
    for zero in (0.0, -0.0):
        best, obj = enumerate_optimum_scores(np.array([[zero, -1.0], [-1.0, zero]]))
        assert best.labels.tolist() == [0, 0] and best.weights.tolist() == [1, 0]
        assert obj == 0.0


def test_oracle_instances_are_bitwise_the_block_copies():
    for seed, i, k in itertools.product(range(3), range(50), range(2, ENUM_MAX_K + 1)):
        got = oracle_instance(seed, i, ENUM_MAX_B, k)
        want = oracle_instance_two_draws(seed, i, ENUM_MAX_B, k)
        assert got[0].shapes == want[0].shapes == got[2].shapes
        for a, b in zip((got[0].flat, got[1], got[2].flat), (want[0].flat, want[1], want[2].flat)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (seed, i, k)


def test_the_cached_identity_is_read_only():
    for k in range(2, ENUM_MAX_K + 1):
        with pytest.raises(ValueError, match="read-only"):
            oracle._identity(k)[0] = 1


@pytest.mark.parametrize("labels, weights", [([0, 1], [1.0, 0.5]), ([0.7, 1], [1, 1]),
                                             ([0.0, 1.0], [1, 1]), ([0, 1], [1, 2]),
                                             ([0, 1], [1, -1])],
                         ids=["half_weight", "fractional_label", "float_label", "weight_2",
                              "weight_minus_1"])
def test_assignment_rejects_non_integer_or_non_binary_input(labels, weights):
    with pytest.raises(ValueError, match="integers|binary"):
        Assignment(np.array(labels), np.array(weights))


def test_assignment_rejects_labels_and_weights_of_other_lengths():
    with pytest.raises(ValueError, match="^labels and weights must be matching 1-D arrays$"):
        Assignment(np.array([0, 1, 2]), np.array([1, 1]))


def test_assignment_takes_bool_weights_and_keeps_int64_without_a_copy():
    labels = np.array([2, 0, 1])
    a = Assignment(labels, np.array([True, False, True]))
    assert a.labels is labels and a.weights.dtype == np.int64
    assert a.weights.tolist() == [1, 0, 1]


@pytest.mark.parametrize("label", [-1, -3, 3, 2**62], ids=["minus_1", "minus_3", "k", "huge"])
def test_objective_rejects_a_label_outside_the_table(label):
    pi = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError, match="labels must lie in 0..2"):
        assignment_objective(pi, Assignment(np.array([0, label]), np.array([1, 1])))


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_objective_rejects_an_assignment_of_another_sample_count(rows):
    pi = np.array([[1.0, 2.0], [0.5, 0.25]])
    a = Assignment(np.zeros(rows, dtype=np.int64), np.ones(rows, dtype=np.int64))
    with pytest.raises(ValueError, match=f"an assignment of {rows} samples does not fit"):
        assignment_objective(pi, a)


def test_enumerate_all_negative_drops_everything():
    pi = -np.abs(np.random.default_rng(0).standard_normal((4, 3))) - 0.1
    best, obj = enumerate_optimum_scores(pi)
    np.testing.assert_array_equal(best.weights, np.zeros(4, dtype=np.int64))
    assert obj == 0.0


def test_enumerate_single_sample_case():
    best, obj = enumerate_optimum_scores(np.array([[-0.5, 0.5]]))
    assert best.labels[0] == 1 and best.weights[0] == 1
    assert obj == 0.5


def test_enumerate_tie_prefers_lowest_label():
    best, _ = enumerate_optimum_scores(np.array([[0.5, 0.5, 0.1]]))
    assert best.labels[0] == 0


def test_enumerate_permutation_invariant_objective(rng):
    pi = rng.standard_normal((6, 4))
    _, obj = enumerate_optimum_scores(pi)
    perm = rng.permutation(6)
    _, obj_p = enumerate_optimum_scores(pi[perm])
    assert obj == pytest.approx(obj_p, abs=1e-15)


def test_enumerate_from_model_matches_fast_path_assignment(rng):
    from saflex.core import SaflexConfig, saflex_assign

    params = small_mlp(dims=(3, 7, 5, 3), seed=21)
    batch = Batch(rng.standard_normal((5, 3)), rng.integers(0, 3, size=5))
    g_val = random_grad(params, rng)
    pi_ref = pi_scores_reverse(params, batch.X, g_val)
    best, best_obj = enumerate_optimum_scores(pi_ref)
    out = saflex_assign(
        pi_scores(params, batch.X, g_val), batch.hard_labels,
        SaflexConfig(beta=0.0, tau=0.01, gumbel_enabled=False),
        np.random.default_rng(0),
    )
    ours = Assignment(out.soft_labels.argmax(axis=1), out.binary_weights.astype(np.int64))
    assert assignment_objective(pi_ref, ours) == best_obj


def test_enumerate_beats_every_explicit_assignment(rng):
    pi = rng.standard_normal((4, 3))
    _, best_obj = enumerate_optimum_scores(pi)
    for a in iter_assignments(4, 3):
        assert assignment_objective(pi, a) <= best_obj + 1e-15


def test_closed_form_agrees_with_enumeration(rng):
    for seed in range(300):
        g = np.random.default_rng(seed)
        pi = g.standard_normal((int(g.integers(1, 7)), int(g.integers(2, 5))))
        labels, weights = closed_form_assignment(pi)
        ours = Assignment(labels, weights)
        best, best_obj = enumerate_optimum_scores(pi)
        assert assignment_objective(pi, ours) == best_obj


def test_contrastive_assignment_matches_enumeration(rng):
    from saflex.core import SaflexConfig, saflex_assign

    cfg = SaflexConfig(beta=0.0, tau=0.01, gumbel_enabled=False)
    for seed in range(200):
        g = np.random.default_rng(seed)
        b = int(g.integers(1, 7))
        pi = g.standard_normal((b, b))  # proxy-class scores; sample i's own class is i
        out = saflex_assign(pi, np.arange(b), cfg, np.random.default_rng(0))
        ours = Assignment(out.soft_labels.argmax(axis=1), out.binary_weights.astype(np.int64))
        _, best_obj = enumerate_optimum_scores(pi)
        assert assignment_objective(pi, ours) == best_obj


def _instance(seed, b=4, k=3):
    g = np.random.default_rng(seed)
    params = small_mlp(dims=(3, 8, 6, k), seed=seed)
    mk = lambda n: Batch(g.standard_normal((n, 3)), g.integers(0, k, size=n))
    return params, mk(6), mk(b), mk(8)


def test_post_step_zero_alpha_keeps_val_loss():
    params, tr, aug, val = _instance(0)
    a = Assignment(np.zeros(aug.size, dtype=np.int64), np.ones(aug.size, dtype=np.int64))
    before = hard_ce(mlp_forward(params, val.X)[0], val.hard_labels)
    assert post_step_val_loss(params, tr, aug, a, val, 0.0) == pytest.approx(before, abs=1e-15)


def test_post_step_refuses_a_negative_alpha():
    params, tr, aug, val = _instance(0)
    a = Assignment(np.zeros(aug.size, dtype=np.int64), np.ones(aug.size, dtype=np.int64))
    with pytest.raises(ValueError, match="^alpha must be >= 0$"):
        post_step_val_loss(params, tr, aug, a, val, -1e-3)


def test_post_step_all_dropped_equals_plain_train_step():
    params, tr, aug, val = _instance(1)
    a = Assignment(np.zeros(aug.size, dtype=np.int64), np.zeros(aug.size, dtype=np.int64))
    got = post_step_val_loss(params, tr, aug, a, val, 1e-2)
    from saflex.nn import mlp_backward, sgd_step

    probs, cache = mlp_forward(params, tr.X)
    grad = mlp_backward(params, cache, (probs - one_hot(tr.hard_labels, 3)) / tr.size, slice(None))
    stepped = sgd_step(params, grad.flat, 1e-2)
    want = hard_ce(mlp_forward(stepped, val.X)[0], val.hard_labels)
    assert got == pytest.approx(want, abs=1e-15)


def test_first_order_consistency_richardson():
    # (L(theta) - L(theta - a*d)) / a -> <g_val, d>, Richardson-extrapolated
    params, tr, aug, val = _instance(2)
    g_val = mean_ce_gradient(params, val)
    a = Assignment(np.array([0, 1, 2, 0]), np.array([1, 1, 0, 1]))
    d = combined_step_gradient(
        params, tr, aug.X, a.weights.astype(float), one_hot(a.labels, 3)
    )
    expected = dot(g_val, d)
    base = hard_ce(mlp_forward(params, val.X)[0], val.hard_labels)
    alpha = 1e-3
    d1 = (base - post_step_val_loss(params, tr, aug, a, val, alpha)) / alpha
    d2 = (base - post_step_val_loss(params, tr, aug, a, val, alpha / 2)) / (alpha / 2)
    richardson = 2 * d2 - d1
    assert richardson == pytest.approx(expected, rel=1e-3)
