import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    ContrastiveBatch,
    hard_ce,
    infonce_loss,
    log_softmax,
    normalize_rows,
    weighted_soft_ce,
    weighted_soft_clip,
)
from saflex.losses import (
    ce_from_logits,
    ce_grad_logits,
    check_simplex_rows,
    mean_ce_grad_logits,
    one_hot,
)
from saflex.nn import softmax


def test_soft_ce_coin_flip():
    loss = weighted_soft_ce(np.array([[0.5, 0.5]]), np.array([1.0]), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_soft_ce_zero_weights():
    probs = np.array([[0.3, 0.7], [0.9, 0.1]])
    soft = one_hot(np.array([0, 1]), 2)
    assert weighted_soft_ce(probs, np.zeros(2), soft) == 0.0


def test_soft_ce_mixed_label():
    loss = weighted_soft_ce(np.array([[0.25, 0.75]]), np.array([1.0]), np.array([[0.5, 0.5]]))
    expected = -0.5 * (np.log(0.25) + np.log(0.75))
    assert loss == pytest.approx(expected, abs=1e-12)
    assert loss == pytest.approx(0.836988, abs=1e-6)


def test_soft_ce_rejects_nonpositive_probs():
    with pytest.raises(ValueError, match="positive"):
        weighted_soft_ce(np.array([[0.0, 1.0]]), np.array([1.0]), np.array([[1.0, 0.0]]))


def test_soft_ce_mean_nll_reduction(rng):
    probs = softmax(rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, size=6)
    via_soft = weighted_soft_ce(probs, np.full(6, 1 / 6), one_hot(labels, 3))
    assert via_soft == pytest.approx(hard_ce(probs, labels), abs=1e-12)


def test_ce_grad_zero_at_match(rng):
    probs = softmax(rng.standard_normal((4, 3)))
    g = ce_grad_logits(probs, np.ones(4), probs.copy())
    np.testing.assert_array_equal(g, np.zeros_like(g))


def test_ce_grad_zero_weight_rows(rng):
    probs = softmax(rng.standard_normal((3, 4)))
    soft = one_hot(rng.integers(0, 4, size=3), 4)
    w = np.array([0.0, 1.0, 0.0])
    g = ce_grad_logits(probs, w, soft)
    assert np.all(g[0] == 0) and np.all(g[2] == 0)
    assert np.any(g[1] != 0)


def test_ce_grad_matches_finite_differences(rng):
    logits = rng.standard_normal((3, 4))
    w = rng.random(3)
    soft = rng.random((3, 4))
    soft /= soft.sum(axis=1, keepdims=True)

    g = ce_grad_logits(softmax(logits), w, soft)
    eps = 1e-6
    fd = np.zeros_like(logits)
    for i in range(3):
        for k in range(4):
            up, dn = logits.copy(), logits.copy()
            up[i, k] += eps
            dn[i, k] -= eps
            fd[i, k] = (
                weighted_soft_ce(softmax(up), w, soft)
                - weighted_soft_ce(softmax(dn), w, soft)
            ) / (2 * eps)
    assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-6


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_soft_ce_linear_in_weights_and_labels(lam, seed):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.standard_normal((5, 3)))
    w1, w2 = rng.random(5), rng.random(5)
    y = rng.random((5, 3))
    y /= y.sum(axis=1, keepdims=True)
    mixed_w = weighted_soft_ce(probs, lam * w1 + (1 - lam) * w2, y)
    sep = lam * weighted_soft_ce(probs, w1, y) + (1 - lam) * weighted_soft_ce(probs, w2, y)
    assert mixed_w == pytest.approx(sep, abs=1e-10)

    y2 = rng.random((5, 3))
    y2 /= y2.sum(axis=1, keepdims=True)
    mixed_y = weighted_soft_ce(probs, w1, lam * y + (1 - lam) * y2)
    sep_y = lam * weighted_soft_ce(probs, w1, y) + (1 - lam) * weighted_soft_ce(probs, w1, y2)
    assert mixed_y == pytest.approx(sep_y, abs=1e-10)


def _random_cb(rng, b=4, e=6, **kw):
    return ContrastiveBatch(
        normalize_rows(rng.standard_normal((b, e))),
        normalize_rows(rng.standard_normal((b, e))),
        **kw,
    )


def test_ce_from_logits_bitwise_equals_mean_of_log_softmax(rng):
    for _ in range(500):
        n, k = int(rng.integers(1, 70)), int(rng.integers(1, 13))
        L = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 2)
        L[rng.random(n) < 0.3] *= float(rng.uniform(1e3, 1e5))  # saturated rows
        y = rng.integers(0, k, size=n)
        got = ce_from_logits(L, y)
        assert got == float((-log_softmax(L)[np.arange(n), y]).mean())
        # the same formula with numpy's own row reduction for the max
        z = L - L.max(axis=1, keepdims=True)
        lsm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        assert got == float((-lsm[np.arange(n), y]).mean())


@pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
def test_ce_from_logits_rejects_labels_out_of_range(labels):
    with pytest.raises(ValueError, match=r"labels out of range \[0, 2\)"):
        ce_from_logits(np.zeros((2, 2)), np.array(labels))


def test_infonce_single_pair_is_zero(rng):
    cb = _random_cb(rng, b=1)
    assert infonce_loss(cb) == pytest.approx(0.0, abs=1e-12)


def test_infonce_uniform_similarities():
    # all pairwise similarities identical -> uniform softmax -> B ln B
    v = normalize_rows(np.ones((3, 4)))
    cb = ContrastiveBatch(v, v, temperature=1.0)
    assert infonce_loss(cb) == pytest.approx(3 * np.log(3.0), abs=1e-10)


def test_infonce_matches_double_loop(rng):
    cb = _random_cb(rng, b=4)
    naive = 0.0
    for i in range(4):
        num = np.exp(cb.anchors[i] @ cb.partners[i] / cb.temperature)
        den = sum(
            np.exp(cb.anchors[i] @ cb.partners[j] / cb.temperature) for j in range(4)
        )
        naive += -np.log(num / den)
    assert infonce_loss(cb) == pytest.approx(naive, abs=1e-10)


def test_infonce_empty_batch_rejected():
    with pytest.raises(ValueError):
        ContrastiveBatch(np.zeros((0, 3)), np.zeros((0, 3)))


def test_clip_reduces_to_symmetric_infonce(rng):
    cb = _random_cb(rng, b=5)
    swapped = ContrastiveBatch(cb.partners, cb.anchors, cb.temperature)
    sym = infonce_loss(cb) + infonce_loss(swapped)
    assert weighted_soft_clip(cb) == pytest.approx(sym, abs=1e-10)


def test_clip_zero_weights(rng):
    cb = _random_cb(rng, b=3, weights=np.zeros(3))
    assert weighted_soft_clip(cb) == 0.0


def test_clip_matches_triple_loop(rng):
    b = 3
    y = rng.random((b, b))
    y /= y.sum(axis=1, keepdims=True)
    w = rng.random(b)
    cb = _random_cb(rng, b=b, weights=w, proxy_labels=y)
    s = cb.anchors @ cb.partners.T / cb.temperature
    naive = 0.0
    for i in range(b):
        for j in range(b):
            naive += -w[i] * y[i, j] * np.log(np.exp(s[i, j]) / np.exp(s[i]).sum())
            naive += -w[i] * y[i, j] * np.log(np.exp(s[j, i]) / np.exp(s[:, i]).sum())
    assert weighted_soft_clip(cb) == pytest.approx(naive, abs=1e-10)


@given(st.floats(0.0, 1.0), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_clip_linear_in_weights(lam, seed):
    rng = np.random.default_rng(seed)
    y = rng.random((4, 4))
    y /= y.sum(axis=1, keepdims=True)
    w1, w2 = rng.random(4), rng.random(4)
    anchors = normalize_rows(rng.standard_normal((4, 5)))
    partners = normalize_rows(rng.standard_normal((4, 5)))

    def loss(w):
        return weighted_soft_clip(
            ContrastiveBatch(anchors, partners, weights=w, proxy_labels=y)
        )

    mixed = loss(lam * w1 + (1 - lam) * w2)
    assert mixed == pytest.approx(lam * loss(w1) + (1 - lam) * loss(w2), abs=1e-10)


def test_contrastive_batch_requires_normalized_rows(rng):
    with pytest.raises(ValueError, match="normalized"):
        ContrastiveBatch(rng.standard_normal((3, 4)) * 2.0, normalize_rows(rng.standard_normal((3, 4))))


def test_in_place_cotangents_equal_the_one_hot_formulas_bitwise(rng):
    for _ in range(200):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 11))
        p = softmax(rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-2, 3))
        if rng.random() < 0.3:
            p = np.asfortranarray(p)
        p_before = p.tobytes()
        labels = rng.integers(0, k, size=n)
        w, y = rng.random(n), softmax(rng.standard_normal((n, k)))
        want = (p - one_hot(labels, k)) / n
        want_soft = w[:, None] * (p - y)
        assert mean_ce_grad_logits(p, labels).tobytes() == want.tobytes()
        assert mean_ce_grad_logits(p, one_hot(labels, k)).tobytes() == want.tobytes()
        assert ce_grad_logits(p, w, y).tobytes() == want_soft.tobytes()
        # into row blocks of one buffer, as the combined step builds its cotangent
        buf = np.full((2 * n + 1, k), np.nan)
        mean_ce_grad_logits(p, labels, out=buf[:n])
        ce_grad_logits(p, w, y, out=buf[n : 2 * n])
        assert buf[:n].tobytes() == want.tobytes()
        assert buf[n : 2 * n].tobytes() == want_soft.tobytes()
        assert np.isnan(buf[2 * n]).all() and p.tobytes() == p_before


def test_simplex_rows_are_checked_to_the_default_tolerance():
    check_simplex_rows(np.array([[0.5, 0.5 + 1e-10], [0.0, 1.0]]), "y")
    with pytest.raises(ValueError, match="y rows must sum to 1"):
        check_simplex_rows(np.array([[0.5, 0.5 + 1e-8]]), "y")
    with pytest.raises(ValueError, match="y has negative entries"):
        check_simplex_rows(np.array([[-1e-8, 1.0 + 1e-8]]), "y")
