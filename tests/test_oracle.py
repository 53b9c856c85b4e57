import numpy as np
import pytest

from conftest import random_grad, small_mlp
from saflex.core import closed_form_assignment, pi_scores, validation_gradient
from saflex.data import Batch
from saflex.losses import hard_ce, one_hot
from saflex.nn import ModelParams, ParamGrad, mlp_forward
from saflex.oracle import (
    Assignment,
    assignment_objective,
    enumerate_optimum_scores,
    finite_diff,
    iter_assignments,
    pi_scores_reverse,
    post_step_val_loss,
)
from saflex.core import combined_step_gradient
from saflex.nn import param_dot


def test_finite_diff_linear_function(rng):
    params = small_mlp()
    c = random_grad(params, rng)

    def fn(p):
        return param_dot(ParamGrad(p.weights, p.biases), c)

    fd = finite_diff(fn, params, 1e-5)
    assert fd.add_scaled(c, -1.0).norm() <= 1e-10 * max(1.0, c.norm())


def test_finite_diff_quadratic_at_origin():
    params = ModelParams([np.zeros((2, 2))], [np.zeros(2)])

    def fn(p):
        g = ParamGrad(p.weights, p.biases)
        return 0.5 * g.dot(g)

    fd = finite_diff(fn, params, 1e-5)
    assert fd.norm() <= 1e-10


def test_reverse_scores_match_fast_path(rng):
    params = small_mlp(dims=(3, 9, 7, 4), seed=13)
    X = rng.standard_normal((5, 3))
    g_val = random_grad(params, rng)
    fast = pi_scores(params, X, g_val)
    slow = pi_scores_reverse(params, X, g_val)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


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


def test_post_step_all_dropped_equals_plain_train_step():
    params, tr, aug, val = _instance(1)
    a = Assignment(np.zeros(aug.size, dtype=np.int64), np.zeros(aug.size, dtype=np.int64))
    got = post_step_val_loss(params, tr, aug, a, val, 1e-2)
    from saflex.nn import mlp_backward, sgd_step

    probs, cache = mlp_forward(params, tr.X)
    grad = mlp_backward(params, cache, (probs - one_hot(tr.hard_labels, 3)) / tr.size)
    stepped = sgd_step(params, grad, 1e-2)
    want = hard_ce(mlp_forward(stepped, val.X)[0], val.hard_labels)
    assert got == pytest.approx(want, abs=1e-15)


def test_first_order_consistency_richardson():
    # (L(theta) - L(theta - a*d)) / a -> <g_val, d>, Richardson-extrapolated
    params, tr, aug, val = _instance(2)
    g_val = validation_gradient(params, val)
    a = Assignment(np.array([0, 1, 2, 0]), np.array([1, 1, 0, 1]))
    d = combined_step_gradient(
        params, tr, aug.X, a.weights.astype(float), one_hot(a.labels, 3)
    )
    expected = param_dot(g_val, d)
    base = hard_ce(mlp_forward(params, val.X)[0], val.hard_labels)
    alpha = 1e-3
    d1 = (base - post_step_val_loss(params, tr, aug, a, val, alpha)) / alpha
    d2 = (base - post_step_val_loss(params, tr, aug, a, val, alpha / 2)) / (alpha / 2)
    richardson = 2 * d2 - d1
    assert richardson == pytest.approx(expected, rel=1e-3)
