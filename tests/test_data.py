import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflex.data import (
    Dataset,
    FeatureGroup,
    SplitSpec,
    apply_train_statistics,
    gen_two_gaussians,
    gen_two_moons,
    load_csv,
    load_images_raw,
    save_csv,
    save_images_raw,
    split,
)
from saflex.rng import stream
from saflex.trainer import RunConfig, run_splits


def test_two_gaussians_degenerate_spread():
    ds = gen_two_gaussians(100, sigma=1e-12, seed=1)
    mu = np.array([[1.0, 1.0], [-1.0, -1.0]])
    for c in (0, 1):
        rows = ds.X[ds.labels == c]
        np.testing.assert_allclose(rows, np.broadcast_to(mu[c], rows.shape), atol=1e-9)


def test_two_gaussians_balanced():
    for n in (100, 101):
        ds = gen_two_gaussians(n, seed=2)
        counts = np.bincount(ds.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_two_gaussians_bayes_accuracy_monte_carlo():
    # optimal rule for equal covariances: sign of x . (mu0 - mu1)
    rng = stream(7, "bayes_mc")
    n = 200_000
    ds = gen_two_gaussians(2, seed=0)  # just for the mean convention
    mu = np.array([[1.0, 1.0], [-1.0, -1.0]])
    labels = rng.integers(0, 2, size=n)
    X = mu[labels] + rng.standard_normal((n, 2))
    pred = (X @ (mu[1] - mu[0]) > 0).astype(int)
    acc = (pred == labels).mean()
    from math import erf, sqrt
    phi = 0.5 * (1 + erf(sqrt(2.0) / sqrt(2.0)))  # P(N(0,1) < sqrt(2))
    assert phi == pytest.approx(0.9214, abs=5e-4)
    assert acc == pytest.approx(phi, abs=0.005)
    assert ds.num_classes == 2


def test_two_moons_shapes():
    ds = gen_two_moons(300, noise=0.05, seed=3)
    assert ds.size == 300 and ds.dim == 2 and ds.num_classes == 2
    assert abs(int((ds.labels == 0).sum()) - 150) <= 1


def _write(p, text):
    p.write_text(text)
    return str(p)


def test_csv_zscore_two_values(tmp_path):
    data = _write(tmp_path / "d.csv", "a,label\n0,x\n2,y\n")
    schema = _write(tmp_path / "s.csv", "a,continuous\nlabel,label\n")
    ds = load_csv(data, schema)
    np.testing.assert_allclose(sorted(ds.X[:, 0]), [-1.0, 1.0], atol=1e-12)
    assert ds.num_classes == 2


def test_csv_onehot_three_levels(tmp_path):
    data = _write(tmp_path / "d.csv", "c,label\nred,0\ngreen,1\nblue,0\n")
    schema = _write(tmp_path / "s.csv", "c,categorical,3\nlabel,label\n")
    ds = load_csv(data, schema)
    assert ds.dim == 3
    np.testing.assert_array_equal(ds.X.sum(axis=1), np.ones(3))
    # categories sorted: blue, green, red
    np.testing.assert_array_equal(ds.X[0], [0, 0, 1])


def test_csv_roundtrip(tmp_path):
    data = _write(tmp_path / "d.csv", "a,c,label\n0.5,u,0\n-1.5,v,1\n2.0,u,0\n")
    schema = _write(tmp_path / "s.csv", "a,continuous\nc,categorical,2\nlabel,label\n")
    ds = load_csv(data, schema)
    out_d, out_s = str(tmp_path / "out.csv"), str(tmp_path / "out_schema.csv")
    save_csv(ds, out_d, out_s)
    back = load_csv(out_d, out_s)
    np.testing.assert_allclose(back.X, ds.X, atol=1e-12)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_unknown_category_names_column_and_value(tmp_path):
    data = _write(tmp_path / "d.csv", "c,label\na,0\nb,1\nc,0\n")
    schema = _write(tmp_path / "s.csv", "c,categorical,2\nlabel,label\n")
    with pytest.raises(ValueError) as exc:
        load_csv(data, schema)
    assert "'c'" in str(exc.value) and "unknown category" in str(exc.value)


@pytest.mark.parametrize("card", ["x", "0", "-2"])
def test_schema_cardinality_must_be_a_positive_integer(tmp_path, card):
    data = _write(tmp_path / "d.csv", "c,label\na,0\nb,1\n")
    schema = _write(tmp_path / "s.csv", f"c,categorical,{card}\nlabel,label\n")
    with pytest.raises(ValueError, match=f"s.csv:1: cardinality must be a positive integer"):
        load_csv(data, schema)


def test_csv_missing_column(tmp_path):
    data = _write(tmp_path / "d.csv", "a,label\n1,0\n")
    schema = _write(tmp_path / "s.csv", "a,continuous\nb,continuous\nlabel,label\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_csv(data, schema)


def test_images_roundtrip_and_scaling(tmp_path):
    path = str(tmp_path / "imgs.bin")
    px = np.array([[[255]]], dtype=np.uint8)
    save_images_raw(px, np.array([1], dtype=np.uint8), 2, path)
    ds = load_images_raw(path)
    assert ds.X[0, 0] == 1.0
    assert ds.image_hw == (1, 1)

    px = np.random.default_rng(0).integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
    labels = np.array([0, 1, 2, 0, 1], dtype=np.uint8)
    save_images_raw(px, labels, 3, path)
    back = load_images_raw(path)
    np.testing.assert_allclose(back.X, px.reshape(5, 16) / 255.0)
    np.testing.assert_array_equal(back.labels, labels)


def test_images_truncated(tmp_path):
    path = tmp_path / "imgs.bin"
    px = np.zeros((3, 2, 2), dtype=np.uint8)
    save_images_raw(px, np.zeros(3, dtype=np.uint8), 2, str(path))
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ValueError, match="truncated"):
        load_images_raw(str(path))


def test_images_every_strict_prefix_rejected(tmp_path):
    path = tmp_path / "imgs.bin"
    save_images_raw(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8), 2, str(path))
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(ValueError):
            load_images_raw(str(path))


def test_images_bad_magic(tmp_path):
    path = tmp_path / "imgs.bin"
    path.write_bytes(b"XXXXX" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        load_images_raw(str(path))


def test_split_disjoint_exhaustive_deterministic():
    ds = gen_two_gaussians(503, seed=5)
    spec = SplitSpec(0.6, 0.2, 0.2, seed=11)
    tr, va, te = split(ds, spec)
    assert tr.size + va.size + te.size == ds.size
    again = split(ds, spec)
    for a, b in zip((tr, va, te), again):
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.labels, b.labels)
    all_rows = np.concatenate([tr.X, va.X, te.X])
    assert np.unique(all_rows, axis=0).shape[0] == ds.size


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_stratified_within_one(seed):
    ds = gen_two_gaussians(400, seed=seed)
    tr, va, te = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=seed))
    for part, frac in ((tr, 0.5), (va, 0.25), (te, 0.25)):
        for c in (0, 1):
            expected = frac * (ds.labels == c).sum()
            got = (part.labels == c).sum()
            assert abs(got - expected) <= 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_split_minimum_one_sample_per_nonzero_split():
    ds = gen_two_gaussians(10, seed=6)
    tr, va, te = split(ds, SplitSpec(0.98, 0.01, 0.01, seed=1))
    assert va.size >= 1 and te.size >= 1
    assert tr.size + va.size + te.size == 10


def test_split_warns_when_class_missing():
    X = np.random.default_rng(0).standard_normal((12, 2))
    labels = np.array([0] * 11 + [1])
    ds = Dataset(X, labels, 2)
    with pytest.warns(UserWarning, match="missing"):
        split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))


def test_train_statistics_from_train_only():
    rng = np.random.default_rng(4)
    ds = Dataset(rng.standard_normal((200, 3)) * 5 + 2, rng.integers(0, 2, 200), 2)
    tr, va, te = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
    tr2, va2, te2 = apply_train_statistics(tr, va, te)
    np.testing.assert_allclose(tr2.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(tr2.X.std(axis=0), 1.0, atol=1e-12)
    # val/test reuse the train statistics, so they are near but not exactly standard
    assert np.abs(va2.X.mean(axis=0)).max() > 1e-9
    expected = (va.X - tr.X.mean(axis=0)) / tr.X.std(axis=0)
    np.testing.assert_allclose(va2.X, expected, atol=1e-12)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.4, 0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        SplitSpec(np.nan, 0.5, 0.5)


@pytest.mark.parametrize("kw,match", [
    ({"sigma": np.nan}, "sigma must be a finite number > 0"),
    ({"sigma": np.inf}, "sigma must be a finite number > 0"),
    ({"sigma": 0.0}, "sigma must be a finite number > 0"),
    ({"means": [[1.0, 1.0]]}, "means must be a finite 2x2 array"),
    ({"means": [[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]}, "means must be a finite 2x2 array"),
    ({"means": [[1.0, 1.0], [2.0]]}, "means must be a finite 2x2 array"),
    ({"means": [[1.0, 1.0], [np.nan, -1.0]]}, "means must be a finite 2x2 array"),
])
def test_two_gaussians_input_checks(kw, match):
    with pytest.raises(ValueError, match=match):
        gen_two_gaussians(50, **kw)


@pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
def test_two_moons_noise_must_be_finite_and_nonnegative(noise):
    with pytest.raises(ValueError, match="noise must be a finite number >= 0"):
        gen_two_moons(50, noise=noise)
    assert gen_two_moons(50, noise=0.0).size == 50


def test_split_and_a_training_iteration_leave_numpy_ma_unimported():
    # numpy.ma costs ~15 ms to import; np.unique's first call imports it
    import saflex

    src = os.path.dirname(os.path.dirname(os.path.abspath(saflex.__file__)))
    code = (
        "import sys\n"
        "from saflex.data import gen_two_gaussians\n"
        "from saflex.trainer import RunConfig, train\n"
        "train(RunConfig(hidden=(4,), epochs=1, batch_size=500), gen_two_gaussians(200))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_csv_rows_must_match_the_header(tmp_path):
    schema = _write(tmp_path / "s.csv", "a,continuous\nlabel,label\n")
    for text, line in [("a,label\n1,0\n2\n", 3), ("a,label\n1,0\n\n2,1,9\n", 4)]:
        with pytest.raises(ValueError, match=f"d.csv:{line}: "):
            load_csv(_write(tmp_path / "d.csv", text), schema)


# ---------------------------------------------------------------------------
# Set-up against frozen copies of the earlier formulas, bitwise


def _reference_split(ds, spec):
    """Row indices of each split, as the list-based split computed them."""
    rng = stream(spec.seed, "split")
    fracs = np.array([spec.train, spec.val, spec.test])
    buckets = [[], [], []]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        idx = idx[rng.permutation(idx.size)]
        quota = fracs * idx.size
        base = np.floor(quota).astype(int)
        rem = idx.size - base.sum()
        order = np.argsort(-(quota - base), kind="stable")
        for j in order[:rem]:
            base[j] += 1
        pos = 0
        for s in range(3):
            buckets[s].extend(idx[pos : pos + base[s]].tolist())
            pos += base[s]
    sizes = [len(b) for b in buckets]
    for s in range(3):
        if fracs[s] > 0 and sizes[s] == 0:
            donor = int(np.argmax(sizes))
            buckets[s].append(buckets[donor].pop())
            sizes = [len(b) for b in buckets]
    return [np.sort(np.array(b, dtype=np.int64)) for b in buckets]


def _reference_statistics(train_X, cont, *Xs):
    """Each X with its continuous columns z-scored as `(X[:, cont] - m) / s`."""
    mean = train_X[:, cont].mean(axis=0)
    sd = train_X[:, cont].std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    out = []
    for X in Xs:
        X = X.copy()
        X[:, cont] = (X[:, cont] - mean) / sd
        out.append(X)
    return out


def _mixed_dataset(seed):
    """Continuous and one-hot groups interleaved, with constant and -0.0 columns."""
    g = stream(seed, "test_data", "mixed")
    n, k = int(g.integers(12, 200)), int(g.integers(2, 5))
    blocks, groups, start = [], [], 0
    for j in range(int(g.integers(2, 8))):
        if j % 2:
            w = int(g.integers(1, 4))
            block = np.zeros((n, w))
            block[np.arange(n), g.integers(0, w, n)] = 1.0
            groups.append(FeatureGroup(f"c{j}", "categorical", start, w))
        else:
            w = 1
            block = g.standard_normal((n, 1)) * g.uniform(0.1, 100.0) + g.uniform(-50.0, 50.0)
            groups.append(FeatureGroup(f"x{j}", "continuous", start, 1))
        blocks.append(block)
        start += w
    blocks[0][:] = (3.25, -0.0)[seed % 2]  # zero variance, a signed zero on odd seeds
    return Dataset(np.concatenate(blocks, axis=1), g.integers(0, k, n), k, groups)


def _assert_setup_bitwise(ds, spec):
    """run_splits with and without standardization against the frozen formulas."""
    before = (ds.X.tobytes(), ds.labels.tobytes())
    ref_idx = _reference_split(ds, spec)
    cont = [grp.start for grp in ds.groups if grp.kind == "continuous"]
    raw = run_splits(RunConfig(split=spec), ds)
    scaled = run_splits(RunConfig(split=spec, standardize=True), ds)
    ref_X = _reference_statistics(ds.X[ref_idx[0]], cont, *(ds.X[i] for i in ref_idx))
    for part, std, idx, want in zip(raw, scaled, ref_idx, ref_X):
        assert part.X.tobytes() == ds.X[idx].tobytes()
        assert part.labels.tobytes() == std.labels.tobytes() == ds.labels[idx].tobytes()
        assert std.X.shape == want.shape and std.X.tobytes() == want.tobytes()
        assert std.groups == ds.groups and std.image_hw == ds.image_hw
        for arr in (part.X, part.labels, std.X, std.labels):
            assert not arr.flags.writeable
    assert (ds.X.tobytes(), ds.labels.tobytes()) == before


@pytest.mark.filterwarnings("ignore:split .* is missing:UserWarning")
def test_setup_matches_the_reference_on_mixed_columns():
    for seed in range(60):
        fr = stream(seed, "test_data", "fracs").dirichlet([2.0, 1.0, 1.0])
        spec = SplitSpec(float(fr[0]), float(fr[1]), float(1.0 - fr[0] - fr[1]), seed=seed)
        _assert_setup_bitwise(_mixed_dataset(seed), spec)


def test_setup_matches_the_reference_on_one_column_and_on_images():
    g = stream(1, "test_data", "setup")
    one = Dataset(g.standard_normal((90, 1)) * 7.0 + 2.0, g.integers(0, 3, 90), 3)
    _assert_setup_bitwise(one, SplitSpec(0.6, 0.2, 0.2, seed=4))
    pixels = np.round(g.random((150, 36)) * 255.0) / 255.0
    pixels[:, 5] = 0.0  # a pixel that never lights: zero variance
    images = Dataset(pixels, g.integers(0, 2, 150), 2, image_hw=(6, 6))
    _assert_setup_bitwise(images, SplitSpec(0.6, 0.2, 0.2, seed=5))


def test_setup_matches_the_reference_through_the_donor_path_and_the_warning():
    # 10 rows at 0.98/0.01/0.01: val and test get their sample from a donor
    ds = gen_two_gaussians(10, seed=6)
    spec = SplitSpec(0.98, 0.01, 0.01, seed=1)
    assert [i.size for i in _reference_split(ds, spec)] == [8, 1, 1]
    with pytest.warns(UserWarning, match="missing 1 class"):
        _assert_setup_bitwise(ds, spec)
    X = stream(2, "test_data", "setup").standard_normal((12, 2))
    rare = Dataset(X, np.array([0] * 11 + [1]), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_setup_bitwise(rare, SplitSpec(0.5, 0.25, 0.25, seed=0))
    assert sorted({str(w.message) for w in caught}) == [
        "split test is missing 1 class(es)", "split val is missing 1 class(es)"]


def test_setup_without_continuous_columns_returns_its_inputs():
    ds = Dataset(np.eye(4)[np.arange(20) % 4], np.arange(20) % 2, 2,
                 [FeatureGroup("c", "categorical", 0, 4)])
    parts = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
    assert all(a is b for a, b in zip(apply_train_statistics(*parts), parts))
