import numpy as np
import pytest

from saflex.augment import (
    AugmenterSpec,
    apply_augmenter,
    crop_flip,
    cutmix_tabular,
    gaussian_jitter,
    label_noise,
    mixup,
)
from saflex.data import Batch
from saflex.rng import stream


def _batch(rng, b=8, d=3, k=4, **kw):
    return Batch(rng.standard_normal((b, d)), rng.integers(0, k, size=b), **kw)


def _columns(batch):
    """One group per column, as Dataset.group_slices gives for ungrouped features."""
    return [np.array([j]) for j in range(batch.X.shape[1])]


def test_jitter_zero_sigma_identity(rng):
    batch = _batch(rng)
    out = gaussian_jitter(batch, 0.0, rng)
    np.testing.assert_array_equal(out.X, batch.X)
    np.testing.assert_array_equal(out.hard_labels, batch.hard_labels)


def test_jitter_deterministic_given_stream(rng):
    batch = _batch(rng)
    a = gaussian_jitter(batch, 0.7, stream(5, "aug"))
    b = gaussian_jitter(batch, 0.7, stream(5, "aug"))
    np.testing.assert_array_equal(a.X, b.X)


def test_jitter_mean_zero_law_of_large_numbers():
    rng = stream(123, "lln")
    batch = Batch(np.zeros((10_000, 2)), np.zeros(10_000, dtype=np.int64))
    sigma = 0.5
    out = gaussian_jitter(batch, sigma, rng)
    mean = out.X.mean(axis=0)
    assert np.abs(mean).max() <= 4 * sigma / 100


def test_jitter_does_not_touch_input(rng):
    batch = _batch(rng)
    snapshot = batch.X.copy()
    gaussian_jitter(batch, 1.0, rng)
    np.testing.assert_array_equal(batch.X, snapshot)


def test_cutmix_identity_at_zero(rng):
    batch = _batch(rng)
    out = cutmix_tabular(batch, 0.0, rng, _columns(batch))
    np.testing.assert_array_equal(out.X, batch.X)


def test_cutmix_full_replacement_uses_donor_rows(rng):
    batch = _batch(rng, b=6, d=4)
    out = cutmix_tabular(batch, 1.0, stream(9, "cm"), _columns(batch))
    for j in range(4):
        for i in range(6):
            assert out.X[i, j] in batch.X[:, j]
    np.testing.assert_array_equal(out.hard_labels, batch.hard_labels)


def test_cutmix_degenerate_single_row(rng):
    batch = _batch(rng, b=1)
    out = cutmix_tabular(batch, 0.9, rng, _columns(batch))
    np.testing.assert_array_equal(out.X, batch.X)


def test_cutmix_group_closure(rng):
    # a one-hot pair of columns must move as a unit
    onehot = np.eye(2)[rng.integers(0, 2, size=20)]
    X = np.concatenate([rng.standard_normal((20, 1)), onehot], axis=1)
    batch = Batch(X, np.zeros(20, dtype=np.int64))
    groups = [np.array([0]), np.array([1, 2])]
    out = cutmix_tabular(batch, 0.8, stream(3, "cm"), groups=groups)
    hot = out.X[:, 1:]
    np.testing.assert_array_equal(hot.sum(axis=1), np.ones(20))
    assert set(hot.ravel()) <= {0.0, 1.0}


def _cutmix_reference(batch, p_replace, rng, groups):
    """The per-group loop cutmix_tabular replaced: draws and fancy writes interleaved."""
    b = batch.size
    if b < 2 or p_replace == 0.0:
        return Batch(batch.X.copy(), batch.hard_labels.copy())
    X = batch.X.copy()
    for cols in groups:
        take = rng.random(b) < p_replace
        donors = (np.arange(b) + rng.integers(1, b, size=b)) % b
        rows = np.flatnonzero(take)
        if rows.size:
            X[np.ix_(rows, cols)] = batch.X[np.ix_(donors[rows], cols)]
    return Batch(X, batch.hard_labels.copy())


_GROUP_SHAPES = ("columns", "empty", "partition", "partial", "shared", "repeated")


def _groups(meta, d, shape):
    if shape == "columns":  # what a dataset without feature groups gives
        return [np.array([j]) for j in range(d)]
    if shape == "empty":
        return []
    if shape == "partition":  # contiguous blocks covering every column once
        cuts = np.sort(meta.choice(np.arange(1, d), size=int(meta.integers(0, d)), replace=False))
        return np.split(np.arange(d), cuts)
    if shape == "partial":  # some columns in no group
        cols = meta.permutation(d)[: int(meta.integers(1, d + 1))]
        return np.array_split(cols, int(meta.integers(1, cols.size + 1)))
    if shape == "shared":  # column j in the first group and in the last
        j = int(meta.integers(0, d))
        first = np.unique(np.r_[j, meta.integers(0, d, size=2)])
        second = np.unique(np.r_[meta.integers(0, d, size=2), j])
        return [first, np.array([int(meta.integers(0, d))]), second]
    # a column repeated within a group
    return [meta.integers(0, d, size=int(meta.integers(2, 6))) for _ in range(int(meta.integers(1, 5)))]


def test_cutmix_matches_the_per_group_loop_bit_for_bit():
    meta = stream(0, "test", "cutmix reference")
    for case in range(2400):
        b, d = int(meta.integers(1, 71)), int(meta.integers(1, 21))
        X = meta.standard_normal((b, d))
        X[meta.random((b, d)) < 0.15] = -0.0
        p = (0.0, 0.2, 0.5, 1.0, float(meta.random()))[case % 5]
        shape = _GROUP_SHAPES[(case // 5) % len(_GROUP_SHAPES)]
        groups = _groups(meta, d, shape)
        batch = Batch(X, meta.integers(0, 4, size=b))
        snapshot = batch.X.tobytes()
        seed = int(meta.integers(2**31))
        want_rng, got_rng = stream(seed, "cm"), stream(seed, "cm")
        want = _cutmix_reference(batch, p, want_rng, groups)
        got = cutmix_tabular(batch, p, got_rng, groups)
        where = f"case {case}: b={b} d={d} p={p} groups={shape}"
        assert got.X.tobytes() == want.X.tobytes(), where
        assert got.X.flags.c_contiguous and got.X.shape == (b, d), where
        np.testing.assert_array_equal(got.hard_labels, want.hard_labels)
        assert batch.X.tobytes() == snapshot, where
        assert got_rng.random() == want_rng.random(), where


@pytest.mark.parametrize("b", [2, 3, 64])
def test_cutmix_donors_are_never_the_base_row(b):
    d = 6
    # every entry names its row and column
    X = np.arange(b)[:, None] + 1000.0 * np.arange(d)
    batch = Batch(X, np.zeros(b, dtype=np.int64))
    groups = [np.array([0]), np.array([1, 2]), np.array([3]), np.array([4, 5])]
    for seed in range(4):
        out = cutmix_tabular(batch, 1.0, stream(seed, "cm"), groups)
        donor = out.X - 1000.0 * np.arange(d)
        assert np.all((donor >= 0) & (donor < b) & (donor == np.round(donor)))
        assert np.all(donor != np.arange(b)[:, None])
        for cols in groups:  # a group moves as a unit
            assert np.all(donor[:, cols] == donor[:, cols[:1]])


def _mixup_draws(seed, alpha, b):
    """What mixup draws from stream(seed, "mix"), from a second stream with
    the same key: lambda, then the permutation."""
    twin = stream(seed, "mix")
    return float(twin.beta(alpha, alpha)), twin.permutation(b)


def test_mixup_half_keeps_the_base_rows_hard_labels():
    # a row takes its own hard label at lambda >= 0.5, its partner's below
    batch = Batch(np.arange(10.0)[:, None], np.arange(10))
    kept = 0
    for seed in range(20):
        out = mixup(batch, 1.0, stream(seed, "mix"), num_classes=10)
        lam, perm = _mixup_draws(seed, 1.0, 10)
        assert np.any(out.X != batch.X)  # the partners are other rows
        assert out.X.tobytes() == (lam * batch.X + (1.0 - lam) * batch.X[perm]).tobytes()
        want = batch.hard_labels if lam >= 0.5 else batch.hard_labels[perm]
        np.testing.assert_array_equal(out.hard_labels, want)
        kept += lam >= 0.5
    assert 0 < kept < 20


def test_apply_augmenter_stacks_label_noise_on_the_cutmix_stream():
    rng = stream(0, "test", "data")
    batch = Batch(rng.standard_normal((400, 5)), rng.integers(0, 3, size=400))
    groups = [np.array([0]), np.array([1, 2]), np.array([3, 4])]
    spec = AugmenterSpec(kind="cutmix_tabular", p_replace=0.3, flip_rate=0.3)
    out = apply_augmenter(spec, batch, stream(2, "aug"), 3, groups, None)
    want_rng = stream(2, "aug")
    want = label_noise(cutmix_tabular(batch, 0.3, want_rng, groups), 0.3, want_rng, 3)
    assert out.X.tobytes() == want.X.tobytes()
    np.testing.assert_array_equal(out.hard_labels, want.hard_labels)
    assert abs((out.hard_labels != batch.hard_labels).mean() - 0.3) < 0.07


def test_mixup_half_blend():
    batch = Batch(np.array([[0.0], [2.0]]), np.array([0, 1]))
    out = mixup(batch, 1.0, stream(9, "mix"), num_classes=2)
    lam, perm = _mixup_draws(9, 1.0, 2)
    assert perm.tolist() == [1, 0] and 0.5 < lam < 0.51  # each row blends with the other
    np.testing.assert_array_equal(out.X, [[2.0 * (1.0 - lam)], [2.0 * lam]])
    np.testing.assert_array_equal(out.soft_labels, [[lam, 1.0 - lam], [1.0 - lam, lam]])


def test_mixup_soft_labels_in_simplex(rng):
    for seed in range(5):
        out = mixup(_batch(rng, k=4), 0.4, stream(seed, "mix"), num_classes=4)
        assert np.all(out.soft_labels >= 0)
        np.testing.assert_allclose(out.soft_labels.sum(axis=1), 1.0, atol=1e-12)


def _image_batch(rng, b=5, hw=8):
    X = rng.random((b, hw * hw))
    return Batch(X, rng.integers(0, 2, size=b))


def test_crop_flip_identity(rng):
    # pad 0 draws no offsets and crops each image whole, so only the flips change it
    batch = _image_batch(rng)
    out = crop_flip(batch, 0, stream(0, "crop"), (8, 8))
    flips = stream(0, "crop").random(batch.size) < 0.5
    assert 0 < flips.sum() < batch.size
    imgs = batch.X.reshape(-1, 8, 8)
    want = np.where(flips[:, None, None], imgs[:, :, ::-1], imgs)
    np.testing.assert_array_equal(out.X, want.reshape(batch.size, 64))


def test_crop_flip_offsets_cover_grid():
    batch = _image_batch(stream(0, "imgs"), b=400, hw=8)
    out = crop_flip(batch, 2, stream(2, "crop"), (8, 8))
    # the draws crop_flip makes, from a second stream with the same key:
    # each image's offsets, then whether it flips
    twin = stream(2, "crop")
    offsets, flips = twin.integers(0, 5, size=(400, 2)), twin.random(400) < 0.5
    # each output is the crop of the padded original at its offsets, mirrored when it flips
    for i, ((r, c), flip) in enumerate(zip(offsets, flips)):
        want = np.pad(batch.X[i].reshape(8, 8), 2)[r : r + 8, c : c + 8]
        np.testing.assert_array_equal(out.X[i].reshape(8, 8), want[:, ::-1] if flip else want)
    assert {(r, c) for r, c in offsets.tolist()} == {(r, c) for r in range(5) for c in range(5)}
    assert 0 < flips.sum() < 400


def test_crop_flip_requires_square(rng):
    batch = Batch(rng.random((2, 6)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="square"):
        crop_flip(batch, 1, rng, (2, 3))


def test_crop_flip_deterministic(rng):
    batch = _image_batch(rng)
    a = crop_flip(batch, 2, stream(4, "crop"), (8, 8))
    b = crop_flip(batch, 2, stream(4, "crop"), (8, 8))
    np.testing.assert_array_equal(a.X, b.X)


def test_apply_augmenter_hands_the_image_shape_to_crop_flip(rng):
    spec, batch = AugmenterSpec(kind="crop_flip", pad=1), _image_batch(rng, hw=4)
    out = apply_augmenter(spec, batch, stream(5, "aug"), 2, _columns(batch), (4, 4))
    np.testing.assert_array_equal(out.X, crop_flip(batch, 1, stream(5, "aug"), (4, 4)).X)
    with pytest.raises(ValueError, match=r"^crop_flip needs a batch with image_hw metadata$"):
        apply_augmenter(spec, batch, rng, 2, _columns(batch), None)


def test_label_noise_identity_at_zero(rng):
    batch = _batch(rng)
    out = label_noise(batch, 0.0, rng, num_classes=4)
    np.testing.assert_array_equal(out.hard_labels, batch.hard_labels)


def test_label_noise_full_flip_binary(rng):
    batch = _batch(rng, k=2)
    out = label_noise(batch, 1.0, rng, num_classes=2)
    np.testing.assert_array_equal(out.hard_labels, 1 - batch.hard_labels)


def test_label_noise_empirical_rate():
    batch = Batch(np.zeros((10_000, 1)), np.zeros(10_000, dtype=np.int64))
    out = label_noise(batch, 0.3, stream(8, "noise"), num_classes=5)
    rate = (out.hard_labels != batch.hard_labels).mean()
    assert abs(rate - 0.3) <= 0.02


def test_label_noise_needs_two_classes(rng):
    batch = Batch(np.zeros((3, 1)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        label_noise(batch, 0.5, rng, num_classes=1)


def test_apply_augmenter_stacks_label_noise(rng):
    spec = AugmenterSpec(kind="gaussian_jitter", sigma=0.5, flip_rate=1.0)
    batch = _batch(rng, k=2)
    out = apply_augmenter(spec, batch, stream(0, "aug"), 2, _columns(batch), None)
    assert np.any(out.X != batch.X)
    np.testing.assert_array_equal(out.hard_labels, 1 - batch.hard_labels)


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmenterSpec(kind="nope")
    with pytest.raises(ValueError):
        AugmenterSpec(sigma=-1.0)
    with pytest.raises(ValueError):
        AugmenterSpec(p_replace=1.5)
    for name, value in (("sigma", np.nan), ("mixup_alpha", np.nan), ("pad", -1)):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            AugmenterSpec(**{name: value})


def test_augmenters_preserve_shape_and_size(rng):
    batch = _batch(rng, b=7, d=5, k=3)
    for spec in (
        AugmenterSpec(kind="gaussian_jitter", sigma=2.0),
        AugmenterSpec(kind="cutmix_tabular", p_replace=0.5),
        AugmenterSpec(kind="mixup"),
        AugmenterSpec(kind="label_noise", flip_rate=0.5),
    ):
        out = apply_augmenter(spec, batch, stream(1, spec.kind), 3, _columns(batch), None)
        assert out.X.shape == batch.X.shape
        assert out.size == batch.size
