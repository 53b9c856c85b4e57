import numpy as np
import pytest

from reference import from_blocks
from saflex.augment import AugmenterSpec
from saflex.core import SaflexConfig, mean_ce_gradient
from saflex.data import Batch, Dataset, SplitSpec, gen_two_gaussians
from saflex import data as data_mod
from saflex import trainer as trainer_mod
from saflex.nn import ForwardCache, ModelParams, ParamGrad, init_mlp, mlp_forward, sgd_step
from saflex.rng import stream
from saflex.trainer import (
    DivergenceError,
    _Optimizer,
    _val_batches,
    MetricsRow,
    RunConfig,
    evaluate,
    run_splits,
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
    params = from_blocks(ModelParams, [np.zeros((2, 4))], [np.zeros(4)])
    ds = gen_two_gaussians(100, seed=3)
    ds4 = Dataset(ds.X, ds.labels, 4)
    loss, acc = evaluate(params, ds4)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)


def test_evaluate_perfect_predictor():
    # class 0 sits at (1,1): its logit must grow with x . (1,1)
    ds = gen_two_gaussians(200, sigma=1e-3, seed=4)
    w = np.array([[100.0, -100.0], [100.0, -100.0]])
    params = from_blocks(ModelParams, [w], [np.zeros(2)])
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


def test_evaluate_and_validation_gradient_reject_a_3d_x(rng):
    # only the reverse oracle runs stacks of batches; the training entry points refuse them
    params = init_mlp([3, 6, 4], seed=5)
    X3 = rng.standard_normal((2, 5, 3))
    labels = rng.integers(0, 4, size=2)
    with pytest.raises(ValueError, match="X must be"):
        Dataset(X3, labels, 4)
    with pytest.raises(ValueError, match="batch features must be"):
        Batch(X3, labels)
    # a carrier whose X was swapped after its checks ran still gets no stacked result
    ds = Dataset(rng.standard_normal((2, 3)), labels, 4)
    ds.X = X3
    for reuse in (None, ForwardCache.empty(params, 10)):
        with pytest.raises(ValueError, match="2-D"):
            evaluate(params, ds, reuse)
    batch = Batch(rng.standard_normal((2, 3)), labels)
    batch.X = X3
    with pytest.raises(ValueError, match="must be 2-D"):
        mean_ce_gradient(params, batch)


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
        with pytest.raises(ValueError, match="lr must be > 0"):
            _run(lr=lr)
    for hidden in [(-3,), (0,), (8, 0)]:
        with pytest.raises(ValueError, match="hidden layer widths"):
            _run(hidden=hidden)
    for size in (-1, -5):
        with pytest.raises(ValueError, match="val_batch_size must be >= 0"):
            _run(val_batch_size=size)


def test_evaluate_builds_no_relu_masks(monkeypatch):
    caches = []

    def forward(params, X, reuse=None):
        probs, cache = mlp_forward(params, X, reuse)
        caches.append(cache)
        return probs, cache

    monkeypatch.setattr(trainer_mod, "mlp_forward", forward)
    params, ds = init_mlp([2, 8, 8, 2], seed=0), gen_two_gaussians(300, seed=1)
    evaluate(params, ds)
    _, reuse = mlp_forward(params, ds.X)
    reuse.relu_masks()
    evaluate(params, ds, reuse)  # writes into a cache that has masks
    assert len(caches) == 2 and all(c.masks is None for c in caches)


def test_evaluate_with_reuse_returns_what_a_fresh_evaluate_does(rng):
    ds = gen_two_gaussians(500, seed=6)
    params = init_mlp([2, 16, 16, 2], seed=3)
    reuse = ForwardCache.empty(params, 700)
    for _ in range(4):
        assert evaluate(params, ds, reuse) == evaluate(params, ds)
        grad = from_blocks(ParamGrad, [rng.standard_normal(w.shape) for w in params.weights],
                           [rng.standard_normal(b.shape) for b in params.biases])
        params = sgd_step(params, grad.flat, 0.5)


@pytest.mark.parametrize("split", [SplitSpec(0.6, 0.2, 0.2, seed=0),
                                   SplitSpec(0.1, 0.7, 0.2, seed=0)],
                         ids=["train-largest", "val-largest"])
def test_train_evaluates_every_split_in_one_workspace_and_numbers_do_not_move(monkeypatch, split):
    """Every evaluation forward of every epoch writes into the leading rows
    of one array set, sized for the largest split, and the metrics and
    parameters equal those of fresh forwards."""
    ds = gen_two_gaussians(300, seed=0)
    run = _run(mode="naive", epochs=3, split=split)
    written, sizes = [], set()

    def recording_forward(params, X, reuse=None):
        probs, cache = mlp_forward(params, X, reuse)
        if reuse is not None:
            arrays = cache.activations + [cache.logits, cache.probs]
            assert all(a.shape[0] == X.shape[0] for a in arrays)
            written.append(tuple(id(a.base) for a in arrays))
            sizes.add(reuse.probs.shape[0])
        return probs, cache

    monkeypatch.setattr(trainer_mod, "mlp_forward", recording_forward)
    history, params = train(run, ds)
    assert len(written) == 9 and len(set(written)) == 1
    assert sizes == {max(s.size for s in run_splits(run, ds))}

    real_evaluate = trainer_mod.evaluate
    monkeypatch.setattr(trainer_mod, "evaluate", lambda p, split, reuse=None: real_evaluate(p, split))
    fresh_history, fresh_params = train(run, ds)
    assert [r.as_tuple()[:-1] for r in history] == [r.as_tuple()[:-1] for r in fresh_history]
    assert params.flat.tobytes() == fresh_params.flat.tobytes()


def test_val_cycler_batches_are_slices_of_each_shuffled_pass():
    # 3 batches per pass: of 50 rows, the 2 left over at the end of each
    # pass are skipped; 48 rows end on a batch boundary, and all are served
    for n in (50, 48):
        val = gen_two_gaussians(n, seed=2)
        batches = _val_batches(val, 16, seed=3)
        for cycle in range(3):
            order = stream(3, "val_order", cycle).permutation(val.size)
            for j in range(3):
                want = val.batch(order[16 * j : 16 * (j + 1)])
                got = next(batches)
                assert got.X.tobytes() == want.X.tobytes()
                assert got.hard_labels.tobytes() == want.hard_labels.tobytes()


def test_val_batches_larger_than_the_split_serve_each_whole_shuffled_pass(monkeypatch):
    # a 16-row batch on 10 rows is capped at 10: every call serves one whole
    # reshuffled pass; a generator that served nothing would draw forever
    val = gen_two_gaussians(10, seed=2)
    draws = []

    def counted(*key):
        draws.append(key)
        if len(draws) > 5:
            raise AssertionError(f"{len(draws)} validation orders drawn for 5 batches")
        return stream(*key)

    monkeypatch.setattr(trainer_mod, "stream", counted)
    batches = _val_batches(val, 16, seed=3)
    for cycle in range(5):
        want = val.batch(stream(3, "val_order", cycle).permutation(val.size))
        got = next(batches)
        assert got.X.tobytes() == want.X.tobytes()
        assert got.hard_labels.tobytes() == want.hard_labels.tobytes()
    assert draws == [(3, "val_order", cycle) for cycle in range(5)]


def test_train_calls_split_and_apply_train_statistics_once_each_through_trainer(monkeypatch):
    """The benchmark's tracer times set-up by wrapping these two module
    globals of `trainer`; each must be called once per standardized run."""
    ds = gen_two_gaussians(300, seed=0)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("split", "apply_train_statistics"):
        monkeypatch.setattr(trainer_mod, name, counting(name, getattr(trainer_mod, name)))
    for standardize, want in ((True, ["split", "apply_train_statistics"]), (False, ["split"])):
        run = _run(mode="none", epochs=1, standardize=standardize)
        calls.clear()
        train(run, ds)
        assert calls == want
        assert data_mod.split(ds, run.split)[0].size == run_splits(run, ds)[0].size
