import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_grad, small_mlp
from reference import (
    add_scaled,
    finite_diff,
    from_blocks,
    hard_ce,
    norm,
    weighted_soft_ce,
    zeros_like,
)
from saflex.augment import mixup
from saflex.core import (
    SaflexConfig,
    closed_form_assignment,
    combined_step_gradient,
    mean_ce_gradient,
    pi_scores,
    saflex_assign,
    saflex_gradient,
)
from saflex.data import Batch
from saflex.losses import one_hot
from saflex.nn import (
    ModelParams,
    ParamGrad,
    mlp_backward,
    mlp_forward,
    sgd_step,
)
from saflex.rng import stream


def _cfg(**kw):
    defaults = dict(beta=0.0, tau=0.01, gumbel_enabled=False)
    defaults.update(kw)
    return SaflexConfig(**defaults)


@pytest.mark.parametrize("kw,match", [
    ({"tau": 0.0}, "tau"), ({"tau": np.nan}, "tau"), ({"tau": np.inf}, "tau"),
    ({"beta": -1.0}, "beta"), ({"beta": np.nan}, "beta"),
])
def test_saflex_config_rejects_bad_tau_and_beta(kw, match):
    with pytest.raises(ValueError, match=match):
        _cfg(**kw)


def _rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# mean_ce_gradient

def test_val_gradient_zero_at_perfect_fit():
    # logits saturated at the correct class -> probs ~ one-hot -> tiny gradient
    params = from_blocks(ModelParams, [np.array([[60.0, -60.0]])], [np.zeros(2)])
    batch = Batch(np.array([[1.0], [1.0]]), np.array([0, 0]))
    g = mean_ce_gradient(params, batch)
    assert norm(g) <= 1e-20


def test_val_gradient_mean_reduction(rng):
    params = small_mlp()
    x = rng.standard_normal((1, 3))
    single = Batch(x, np.array([2]))
    double = Batch(np.concatenate([x, x]), np.array([2, 2]))
    g1 = mean_ce_gradient(params, single)
    g2 = mean_ce_gradient(params, double)
    assert norm(add_scaled(g1, g2, -1.0)) <= 1e-15


def test_val_gradient_matches_finite_differences(rng):
    params = small_mlp(dims=(3, 6, 5, 3), seed=2)
    batch = Batch(rng.standard_normal((5, 3)), rng.integers(0, 3, size=5))

    def loss(p):
        probs, _ = mlp_forward(p, batch.X)
        return hard_ce(probs, batch.hard_labels)

    g = mean_ce_gradient(params, batch)
    fd = finite_diff(loss, params, 1e-5)
    assert norm(add_scaled(g, fd, -1.0)) / norm(fd) <= 1e-6


def test_val_gradient_empty_batch():
    params = small_mlp()
    with pytest.raises(ValueError, match="empty"):
        mean_ce_gradient(params, Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)))


def test_mean_ce_gradient_hard_labels_equal_their_one_hot_rows_bitwise(rng):
    # the none step passes hard labels, which build no one-hot matrix
    params = small_mlp(dims=(3, 6, 5, 4), seed=6)
    X, labels = rng.standard_normal((7, 3)), rng.integers(0, 4, size=7)
    hard = mean_ce_gradient(params, Batch(X, labels))
    soft = mean_ce_gradient(params, Batch(X, labels, soft_labels=one_hot(labels, 4)))
    np.testing.assert_array_equal(hard.flat, soft.flat)


def test_mean_ce_gradient_on_mixup_matches_finite_differences(rng):
    # the naive step on a mixup batch trains on its soft labels
    params = small_mlp(dims=(3, 6, 5, 3), seed=7)
    batch = mixup(Batch(rng.standard_normal((6, 3)), rng.integers(0, 3, size=6)), 1.0, rng, 3)
    assert not np.isin(batch.soft_labels, (0.0, 1.0)).all()

    def loss(p):
        probs, _ = mlp_forward(p, batch.X)
        return weighted_soft_ce(probs, np.full(batch.size, 1.0 / batch.size), batch.soft_labels)

    g = mean_ce_gradient(params, batch)
    fd = finite_diff(loss, params, 1e-5)
    # central differences at eps 1e-5 carry ~1e-10 truncation and rounding error
    assert norm(add_scaled(g, fd, -1.0)) / norm(fd) <= 1e-6


# ---------------------------------------------------------------------------
# pi_scores

def test_pi_zero_validation_gradient(rng):
    params = small_mlp()
    pi = pi_scores(params, rng.standard_normal((4, 3)), zeros_like(params))
    np.testing.assert_array_equal(pi, np.zeros((4, 4)))


def test_pi_linear_model_worked_example():
    # zero weights, two classes; tangent touches only the first logit
    params = from_blocks(ModelParams, [np.zeros((2, 2))], [np.zeros(2)])
    g_val = from_blocks(ParamGrad, [np.array([[1.0, 0.0], [0.0, 0.0]])], [np.zeros(2)])
    x = np.array([[1.0, 0.0]])
    pi = pi_scores(params, x, g_val)
    np.testing.assert_allclose(pi, [[-0.5, 0.5]], atol=1e-15)


def test_pi_matches_per_class_loss_directional_derivative(rng):
    # pi[i, k] must equal d/dt loss_k(theta + t * g_val) at t = 0
    params = small_mlp(dims=(3, 7, 6, 4), seed=4)
    X = rng.standard_normal((3, 3))
    g_val = random_grad(params, rng, scale=0.5)
    pi = pi_scores(params, X, g_val)
    eps = 1e-6
    up = from_blocks(
        ModelParams,
        [w + eps * t for w, t in zip(params.weights, g_val.weights)],
        [b + eps * t for b, t in zip(params.biases, g_val.biases)],
    )
    dn = from_blocks(
        ModelParams,
        [w - eps * t for w, t in zip(params.weights, g_val.weights)],
        [b - eps * t for b, t in zip(params.biases, g_val.biases)],
    )
    for i in range(3):
        for k in range(4):
            row = X[i : i + 1]
            hi = -np.log(mlp_forward(up, row)[0][0, k])
            lo = -np.log(mlp_forward(dn, row)[0][0, k])
            fd = (hi - lo) / (2 * eps)
            assert pi[i, k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_pi_probability_weighted_mean_is_zero(rng):
    params = small_mlp(seed=6)
    X = rng.standard_normal((5, 3))
    probs, _ = mlp_forward(params, X)
    pi = pi_scores(params, X, random_grad(params, rng))
    np.testing.assert_allclose((probs * pi).sum(axis=1), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# saflex_assign

def test_assign_low_temperature_one_hot_limit():
    pi = np.array([[0.5, -0.5]])
    out = saflex_assign(pi, np.array([0]), _cfg(), _rng())
    np.testing.assert_allclose(out.soft_labels, [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_array_equal(out.weights, [1.0])


def test_assign_retention_bonus_keeps_original_label():
    pi = np.array([[0.5, 0.6, 0.0]])
    out = saflex_assign(pi, np.array([0]), _cfg(beta=1.0), _rng())
    assert out.soft_labels.argmax(axis=1)[0] == 0
    assert out.frac_label_changed == 0.0


def test_assign_renormalizes_kept_weights():
    pi = np.array([[1.0, 0.0], [-1.0, -2.0], [0.5, 0.0], [2.0, 0.0]])
    out = saflex_assign(pi, np.zeros(4, dtype=np.int64), _cfg(), _rng())
    np.testing.assert_allclose(out.weights, [1 / 3, 0.0, 1 / 3, 1 / 3])
    np.testing.assert_array_equal(out.binary_weights, [1.0, 0.0, 1.0, 1.0])


def test_assign_all_dropped_stays_zero():
    pi = -np.ones((3, 2))
    out = saflex_assign(pi, np.zeros(3, dtype=np.int64), _cfg(), _rng())
    np.testing.assert_array_equal(out.weights, np.zeros(3))
    assert out.frac_zero_weight == 1.0


@pytest.mark.parametrize("gumbel,beta", [(False, 0.0), (True, 0.0), (True, 0.5)])
def test_keep_rule_keeps_an_exactly_zero_score(rng, gumbel, beta):
    # the paper keeps a sample whose label-averaged score is nonnegative, zero
    # included; a zero validation gradient makes every score exactly zero
    params = small_mlp()
    pi = pi_scores(params, rng.standard_normal((5, 3)), zeros_like(params))
    labels = np.array([0, 1, 2, 3, 0])
    out = saflex_assign(pi, labels, _cfg(gumbel_enabled=gumbel, beta=beta), _rng())
    np.testing.assert_array_equal(out.binary_weights, np.ones(5))
    np.testing.assert_array_equal(out.weights, np.full(5, 1 / 5))
    assert out.frac_zero_weight == 0.0
    chosen, kept = closed_form_assignment(pi, labels, beta)
    np.testing.assert_array_equal(kept, np.ones(5, dtype=np.int64))
    np.testing.assert_array_equal(chosen, labels if beta else np.zeros(5))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e307])
def test_assign_rejects_non_finite_scores(bad):
    # NaN >= 0 is false, so a non-finite row would otherwise be dropped silently;
    # 1e307 is finite but overflows once divided by tau
    pi = np.array([[0.5, -0.5], [0.1, bad]])
    with pytest.raises(FloatingPointError, match="not finite"):
        saflex_assign(pi, np.zeros(2, dtype=np.int64), _cfg(), _rng())


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_assign_invariants_random(seed):
    g = np.random.default_rng(seed)
    b = int(g.integers(1, 9))
    k = int(g.integers(2, 7))
    pi = g.standard_normal((b, k)) * g.uniform(0.1, 10)
    orig = g.integers(0, k, size=b)
    cfg = SaflexConfig(
        beta=float(g.uniform(0, 2)),
        tau=float(g.uniform(0.005, 1.0)),
        gumbel_enabled=bool(g.integers(0, 2)),
    )
    out = saflex_assign(pi, orig, cfg, np.random.default_rng(seed + 1))
    assert np.all(out.soft_labels >= 0)
    np.testing.assert_allclose(out.soft_labels.sum(axis=1), 1.0, atol=1e-9)
    assert set(np.unique(out.binary_weights)) <= {0.0, 1.0}
    total = out.weights.sum()
    assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0
    # keep rule: weight is 1 exactly when the label-averaged score is >= 0
    label_avg = (pi * out.soft_labels).sum(axis=1)
    np.testing.assert_array_equal(out.binary_weights == 1.0, label_avg >= 0)
    # bitwise the reference arithmetic ((pi + beta onehot) + Gumbel) / tau
    scores = pi + cfg.beta * one_hot(orig, k) if cfg.beta != 0.0 else pi
    if cfg.gumbel_enabled:
        scores = scores + np.random.default_rng(seed + 1).gumbel(size=(b, k))
    z = scores / cfg.tau
    z = np.exp(z - z.max(axis=1, keepdims=True))
    soft = z / z.sum(axis=1, keepdims=True)
    assert out.soft_labels.tobytes() == soft.tobytes()
    changed = float((soft.argmax(axis=1) != orig).mean())
    assert out.frac_label_changed == changed


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_assign_beta_retention_argmax_invariance(seed):
    g = np.random.default_rng(seed)
    k = int(g.integers(2, 7))
    pi = g.standard_normal(k)
    y = int(g.integers(0, k))
    beta = float(g.uniform(0, 3))
    margin = np.delete(pi, y).max() - pi[y]
    labels, _ = closed_form_assignment(pi[None, :], np.array([y]), beta=beta)
    if margin < beta:
        assert labels[0] == y


@given(st.integers(0, 100_000), st.floats(0.01, 100.0))
@settings(max_examples=100, deadline=None)
def test_assign_scale_equivariance_argmax(seed, c):
    g = np.random.default_rng(seed)
    pi = g.standard_normal((4, 3))
    l1, w1 = closed_form_assignment(pi)
    l2, w2 = closed_form_assignment(c * pi)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(w1, w2)


def test_assign_soft_labels_bitwise_under_power_of_two_scaling():
    g = np.random.default_rng(3)
    pi = g.standard_normal((5, 4))
    out1 = saflex_assign(pi, np.zeros(5, dtype=np.int64), _cfg(tau=0.01), _rng())
    out2 = saflex_assign(4.0 * pi, np.zeros(5, dtype=np.int64), _cfg(tau=0.04), _rng())
    np.testing.assert_array_equal(out1.soft_labels, out2.soft_labels)


def test_assign_deterministic_given_seed():
    pi = np.random.default_rng(1).standard_normal((6, 3))
    orig = np.zeros(6, dtype=np.int64)
    cfg = SaflexConfig(gumbel_enabled=True)
    a = saflex_assign(pi, orig, cfg, stream(7, "gumbel", 0, 0))
    b = saflex_assign(pi, orig, cfg, stream(7, "gumbel", 0, 0))
    np.testing.assert_array_equal(a.soft_labels, b.soft_labels)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_assign_one_hot_limit_matches_closed_form_at_margin(rng):
    # past ~16 tau margins the softmax is one-hot to 1e-6 in L1
    cfg = _cfg(tau=0.01)
    for _ in range(200):
        pi = rng.standard_normal((1, 4))
        margin = np.sort(pi[0])[-1] - np.sort(pi[0])[-2]
        if margin <= 16 * cfg.tau:
            continue
        out = saflex_assign(pi, np.zeros(1, dtype=np.int64), cfg, _rng())
        labels, _ = closed_form_assignment(pi)
        target = one_hot(labels, 4)
        assert np.abs(out.soft_labels - target).sum() <= 1e-6


# ---------------------------------------------------------------------------
# contrastive assignment: sample i's original proxy label is its own index
# (its paired positive), over the B proxy classes of the batch

def test_contrastive_singleton():
    out = saflex_assign(np.array([[0.7]]), np.arange(1), _cfg(), _rng())
    np.testing.assert_array_equal(out.soft_labels, [[1.0]])
    np.testing.assert_array_equal(out.weights, [1.0])
    out = saflex_assign(np.array([[-0.7]]), np.arange(1), _cfg(), _rng())
    np.testing.assert_array_equal(out.weights, [0.0])


def test_contrastive_symmetric_scores_uniform_labels():
    pi = np.ones((4, 4)) * 0.3
    out = saflex_assign(pi, np.arange(4), _cfg(tau=0.5), _rng())
    np.testing.assert_allclose(out.soft_labels, np.full((4, 4), 0.25), atol=1e-12)


# ---------------------------------------------------------------------------
# one step: saflex_gradient followed by sgd_step

def _batches(rng, params, b=6):
    d = params.input_dim
    k = params.n_classes
    mk = lambda: Batch(rng.standard_normal((b, d)), rng.integers(0, k, size=b))
    return mk(), mk(), mk()


def test_step_zero_alpha_keeps_params(rng):
    params = small_mlp(seed=8)
    before = params.flat.copy()
    tr, aug, val = _batches(rng, params)
    grad, _ = saflex_gradient(params, tr, aug, val, _cfg(), _rng())
    np.testing.assert_array_equal(params.flat, before)  # the step reads, never writes
    np.testing.assert_array_equal(sgd_step(params, grad.flat, 0.0).flat, before)


def test_step_all_weights_dropped_equals_plain_train_step(rng):
    params = small_mlp(seed=9)
    tr, aug, val = _batches(rng, params)
    # an adversarial validation direction cannot be built easily; instead
    # force the drop by monkeypatching pi via a val batch whose gradient
    # yields all-negative best scores rarely; easier: alpha step comparison
    # with manually zeroed weights through the combined gradient.
    grad_comb = combined_step_gradient(
        params, tr, aug.X, np.zeros(aug.size), one_hot(aug.hard_labels, params.n_classes)
    )
    probs, cache = mlp_forward(params, tr.X)
    grad_plain = mlp_backward(
        params, cache, (probs - one_hot(tr.hard_labels, params.n_classes)) / tr.size, slice(None)
    )
    assert norm(add_scaled(grad_comb, grad_plain, -1.0)) <= 1e-15


def test_step_reduces_val_batch_loss_on_average(rng):
    params = small_mlp(seed=10)
    tr, aug, val = _batches(rng, params, b=16)
    before = hard_ce(mlp_forward(params, val.X)[0], val.hard_labels)
    grad, _ = saflex_gradient(params, tr, aug, val, _cfg(), _rng())
    stepped = sgd_step(params, grad.flat, 1e-2)
    after = hard_ce(mlp_forward(stepped, val.X)[0], val.hard_labels)
    assert after < before


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["train", "aug", "val"])
def test_out_of_range_labels_raise_value_error(rng, which, bad):
    params = small_mlp(seed=3)  # 4 classes
    batches = list(_batches(rng, params))
    labels = batches[which].hard_labels.copy()
    labels[-1] = bad
    batches[which] = Batch(batches[which].X, labels)
    with pytest.raises(ValueError, match="out of range"):
        saflex_gradient(params, *batches, _cfg(), _rng())
    tr, aug, val = batches
    if which == 2:
        with pytest.raises(ValueError, match="out of range"):
            mean_ce_gradient(params, val)
    if which == 0:
        with pytest.raises(ValueError, match="out of range"):
            combined_step_gradient(params, tr, aug.X, np.full(aug.size, 1 / aug.size),
                                   one_hot(aug.hard_labels, 4))


def test_step_rejects_empty_batches(rng):
    params = small_mlp()
    tr, aug, val = _batches(rng, params)
    empty = Batch(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        saflex_gradient(params, empty, aug, val, _cfg(), _rng())


# ---------------------------------------------------------------------------
# saflex_gradient: the fused path the trainer runs equals the composed path
# the oracle certifies

def _rel_close(a, b, rtol=1e-10):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_fused_gradient_matches_composed_path(seed):
    g = np.random.default_rng(seed)
    k = int(g.integers(2, 7))
    d = int(g.integers(1, 6))
    params = small_mlp(dims=(d, int(g.integers(3, 10)), int(g.integers(3, 10)), k),
                       seed=seed % 97)
    mk = lambda n: Batch(g.standard_normal((n, d)), g.integers(0, k, size=n))
    tr, aug, val = mk(int(g.integers(1, 9))), mk(int(g.integers(1, 9))), mk(int(g.integers(1, 9)))
    cfg = SaflexConfig(beta=float(g.uniform(0.1, 2.0)), tau=float(g.uniform(0.01, 1.0)),
                       gumbel_enabled=True)

    grad, out = saflex_gradient(
        params, tr, aug, val, cfg, stream(seed, "gumbel", 0, 0))

    g_val = mean_ce_gradient(params, val)
    ref = saflex_assign(pi_scores(params, aug.X, g_val), aug.hard_labels, cfg,
                        stream(seed, "gumbel", 0, 0))
    ref_grad = combined_step_gradient(params, tr, aug.X, ref.weights, ref.soft_labels)

    np.testing.assert_array_equal(out.binary_weights, ref.binary_weights)
    assert _rel_close(out.weights, ref.weights)
    assert _rel_close(out.soft_labels, ref.soft_labels)
    assert _rel_close(grad.flat, ref_grad.flat)
