import numpy as np
import pytest

from saflex.augment import AugmenterSpec
from saflex.core import SaflexConfig
from saflex.data import Dataset, SplitSpec, gen_two_gaussians
from saflex import trainer as trainer_mod
from saflex.nn import ModelParams, ParamGrad, init_mlp, mlp_forward
from saflex.rng import stream
from saflex.trainer import (
    DivergenceError,
    _Optimizer,
    _ValCycler,
    MetricsRow,
    RunConfig,
    evaluate,
    train,
    write_metrics_csv,
    METRICS_COLUMNS,
)


def _run(mode="saflex", epochs=3, **kw):
    defaults = dict(
        hidden=(8, 8), lr=0.2, epochs=epochs, batch_size=32, mode=mode,
        augment=AugmenterSpec(kind="gaussian_jitter", sigma=0.5),
        saflex=SaflexConfig(gumbel_enabled=True),
        split=SplitSpec(0.6, 0.2, 0.2, seed=0), seed=0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_zero_epochs_returns_initial_params():
    ds = gen_two_gaussians(300, seed=0)
    history, params = train(_run(epochs=0), ds)
    assert history == []
    fresh = init_mlp([2, 8, 8, 2], seed=0)
    for a, b in zip(params.weights, fresh.weights):
        np.testing.assert_array_equal(a, b)


def test_same_seed_bitwise_identical_metrics():
    ds = gen_two_gaussians(400, seed=1)
    h1, p1 = train(_run(), ds)
    h2, p2 = train(_run(), ds)
    for r1, r2 in zip(h1, h2):
        assert r1.as_tuple()[:-1] == r2.as_tuple()[:-1]  # all but wall-clock
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)


def test_modes_share_initialization_then_diverge():
    ds = gen_two_gaussians(400, seed=2)
    h_none, p_none = train(_run(mode="none", epochs=1), ds)
    h_sfx, p_sfx = train(_run(mode="saflex", epochs=1), ds)
    assert any(
        not np.array_equal(a, b) for a, b in zip(p_none.weights, p_sfx.weights)
    )
    assert h_none[0].val_loss != h_sfx[0].val_loss


def test_evaluate_uniform_predictor():
    params = ModelParams([np.zeros((2, 4))], [np.zeros(4)])
    ds = gen_two_gaussians(100, seed=3)
    ds4 = Dataset(ds.X, ds.labels, 4)
    loss, acc = evaluate(params, ds4)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_evaluate_perfect_predictor():
    # class 0 sits at (1,1): its logit must grow with x . (1,1)
    ds = gen_two_gaussians(200, sigma=1e-3, seed=4)
    w = np.array([[100.0, -100.0], [100.0, -100.0]])
    params = ModelParams([w], [np.zeros(2)])
    _, acc = evaluate(params, ds)
    assert acc == 1.0


def test_evaluate_matches_loop_oracle(rng):
    params = init_mlp([3, 6, 4], seed=5)
    X = rng.standard_normal((100, 3))
    labels = rng.integers(0, 4, size=100)
    ds = Dataset(X, labels, 4)
    loss, acc = evaluate(params, ds)
    from saflex.nn import mlp_forward

    hits = 0
    total = 0.0
    for i in range(100):
        probs, _ = mlp_forward(params, X[i : i + 1])
        hits += int(np.argmax(probs[0]) == labels[i])
        total += -np.log(probs[0, labels[i]])
    assert acc == hits / 100
    assert loss == pytest.approx(total / 100, abs=1e-9)


def test_copy_augmenter_matches_naive_within_noise():
    # sigma=0 jitter emits exact copies with clean labels: nothing to fix,
    # so the assignment pipeline should track the naive baseline
    def acc(mode, seed):
        ds = gen_two_gaussians(800, sigma=1.0, seed=50 + seed)
        run = _run(
            mode=mode, epochs=8, hidden=(16, 16), lr=0.2,
            augment=AugmenterSpec(kind="gaussian_jitter", sigma=0.0),
            split=SplitSpec(0.6, 0.2, 0.2, seed=seed), seed=seed,
        )
        history, _ = train(run, ds)
        return history[-1].test_acc

    naive = np.mean([acc("naive", s) for s in range(5)])
    saflex = np.mean([acc("saflex", s) for s in range(5)])
    assert abs(saflex - naive) <= 0.01


def test_no_label_changes_with_large_retention_bonus():
    ds = gen_two_gaussians(400, seed=6)
    run = _run(
        mode="saflex",
        epochs=2,
        saflex=SaflexConfig(beta=10.0, gumbel_enabled=False),
        augment=AugmenterSpec(kind="gaussian_jitter", sigma=1.0),
    )
    history, _ = train(run, ds)
    assert all(row.frac_label_changed == 0.0 for row in history)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_divergence_guard():
    # a step size past float range overflows the weights on the first update
    ds = gen_two_gaussians(400, seed=7)
    with pytest.raises(DivergenceError):
        train(_run(mode="none", lr=1e305, epochs=1), ds)


def test_observer_sees_every_iteration():
    ds = gen_two_gaussians(200, seed=8)
    seen = []
    train(_run(epochs=2), ds, observer=lambda e, i, b, a, o: seen.append((e, i, a is None, o is None)))
    # train split 120 rows, batch 32 -> 4 iterations per epoch
    assert len(seen) == 8
    assert all(not a_none and not o_none for _, _, a_none, o_none in seen)


def test_naive_mean_w_is_the_mean_of_one_over_each_augmented_batch_size():
    ds = gen_two_gaussians(200, seed=8)
    sizes = []
    history, _ = train(_run(mode="naive", epochs=2), ds,
                       observer=lambda e, i, b, a, o: sizes.append((e, a.size)))
    # train split 120 rows, batch 32: the last batch of each epoch has 24
    assert [s for e, s in sizes if e == 0] == [32, 32, 32, 24]
    for row in history:
        per_iter = [1.0 / s for e, s in sizes if e == row.epoch]
        assert row.mean_w == sum(per_iter) / len(per_iter)


def test_single_iteration_epoch_reports_that_iterations_fractions():
    ds = gen_two_gaussians(200, seed=8)
    outs = []
    run = _run(epochs=3, batch_size=500, augment=AugmenterSpec(kind="gaussian_jitter", sigma=3.0))
    history, _ = train(run, ds, observer=lambda e, i, b, a, o: outs.append((e, i, o)))
    assert [(e, i) for e, i, _ in outs] == [(0, 0), (1, 0), (2, 0)]
    for row, (_, _, out) in zip(history, outs):
        assert row.frac_zero_w == out.frac_zero_weight
        assert row.frac_label_changed == out.frac_label_changed
        assert row.mean_w == out.weights.sum() / out.weights.size
    assert any(row.frac_zero_w > 0 for row in history)


def test_metrics_csv_format(tmp_path):
    rows = [MetricsRow(0, 0.5, 0.4, 0.9, 0.1, 0.2, 0.3, 1.5)]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_COLUMNS)
    assert lines[1].startswith("0,0.5,0.4,0.9,")


def test_mixup_mode_trains():
    ds = gen_two_gaussians(300, seed=9)
    run = _run(mode="naive", augment=AugmenterSpec(kind="mixup", mixup_alpha=0.4), epochs=2)
    history, _ = train(run, ds)
    assert len(history) == 2 and np.isfinite(history[-1].val_loss)


def test_adam_mode_trains():
    ds = gen_two_gaussians(300, seed=10)
    run = _run(mode="saflex", optimizer="adam", lr=0.01, epochs=2)
    history, _ = train(run, ds)
    assert len(history) == 2 and np.isfinite(history[-1].val_loss)


def _two_grads(params, seed=0):
    g = np.random.default_rng(seed)
    return [ParamGrad.from_flat(g.standard_normal(params.flat.size), params.shapes)
            for _ in range(2)]


def test_momentum_is_heavy_ball_on_the_flat_vector():
    params = init_mlp([3, 5, 2], seed=1)
    g1, g2 = _two_grads(params)
    opt = _Optimizer(_run(lr=0.1, momentum=0.9), params)
    p2 = opt.apply(opt.apply(params, g1), g2)
    v1 = g1.flat
    v2 = 0.9 * v1 + g2.flat
    np.testing.assert_array_equal(p2.flat, (params.flat - 0.1 * v1) - 0.1 * v2)


def test_adam_first_step_is_normalized_gradient():
    params = init_mlp([3, 5, 2], seed=2)
    g, _ = _two_grads(params, seed=1)
    lr = 0.01
    stepped = _Optimizer(_run(optimizer="adam", lr=lr), params).apply(params, g)
    want = lr * g.flat / (np.abs(g.flat) + 1e-8)
    np.testing.assert_allclose(params.flat - stepped.flat, want, rtol=1e-9, atol=1e-15)


def test_run_config_validation():
    with pytest.raises(ValueError):
        _run(mode="bogus")
    for lr in (-0.1, 0.0, np.nan):
        with pytest.raises(ValueError, match="invalid run configuration"):
            _run(lr=lr)
    for hidden in [(-3,), (0,), (8, 0)]:
        with pytest.raises(ValueError, match="hidden layer widths"):
            _run(hidden=hidden)
    for size in (0, -5):
        with pytest.raises(ValueError, match="val_batch_size"):
            _run(val_batch_size=size)


def test_evaluate_builds_no_relu_masks(monkeypatch):
    caches = []

    def forward(params, X):
        probs, cache = mlp_forward(params, X)
        caches.append(cache)
        return probs, cache

    monkeypatch.setattr(trainer_mod, "mlp_forward", forward)
    evaluate(init_mlp([2, 8, 8, 2], seed=0), gen_two_gaussians(300, seed=1))
    assert len(caches) == 1 and caches[0].masks is None


def test_val_cycler_batches_are_slices_of_each_shuffled_pass():
    val = gen_two_gaussians(50, seed=2)
    cycler = _ValCycler(val, 16, seed=3)
    # 3 batches per pass; the 2 rows left over at the end of each pass are skipped
    for cycle in range(3):
        order = stream(3, "val_order", cycle).permutation(val.size)
        for j in range(3):
            want = val.batch(order[16 * j : 16 * (j + 1)])
            got = cycler.next_batch()
            assert got.X.tobytes() == want.X.tobytes()
            assert got.hard_labels.tobytes() == want.hard_labels.tobytes()
