import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflex.data import (
    Dataset,
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
