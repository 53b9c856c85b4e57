import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_outcome
from reference import load_csv_unchunked, save_images_raw
from saflex import data as saflex_data
from saflex.cli import main
from saflex.data import (
    Batch,
    Dataset,
    FeatureGroup,
    SplitSpec,
    apply_train_statistics,
    gen_two_gaussians,
    gen_two_moons,
    load_csv,
    load_images_raw,
    save_csv,
    split,
    writing,
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
    ds = gen_two_moons(300, sigma=0.05, seed=3)
    assert ds.size == 300 and ds.dim == 2 and ds.num_classes == 2
    assert abs(int((ds.labels == 0).sum()) - 150) <= 1


def _write(p, text):
    p.write_text(text)
    return str(p)


def test_csv_zscore_two_values(tmp_path):
    data = _write(tmp_path / "d.csv", "a,label\n0,x\n2,y\n")
    schema = _write(tmp_path / "s.csv", "a,continuous\nlabel,label\n")
    ds = load_csv(data, schema, standardize=True)
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


@pytest.mark.parametrize("card", ["x", "0", "-2", "²"])
def test_schema_cardinality_must_be_a_positive_integer(tmp_path, card):
    data = _write(tmp_path / "d.csv", "c,label\na,0\nb,1\n")
    schema = _write(tmp_path / "s.csv", f"c,categorical,{card}\nlabel,label\n")
    with pytest.raises(ValueError, match=f"s.csv:1: cardinality must be a positive integer"):
        load_csv(data, schema)


@pytest.mark.parametrize("schema_text,header,line,name", [
    ("a,continuous\na,continuous\nlabel,label\n", "a,a,label", 2, "a"),
    ("label,label\nx,continuous\nlabel,categorical\n", "label,x,label", 3, "label"),
])
def test_schema_rejects_a_duplicate_column_name(tmp_path, schema_text, header, line, name):
    # accepted, every feature of that name would hold the last such column's values
    data = _write(tmp_path / "d.csv", f"{header}\n1,2,x\n3,4,y\n")
    schema = _write(tmp_path / "s.csv", schema_text)
    with pytest.raises(ValueError, match=f"^{re.escape(schema)}:{line}: duplicate column name '{name}'$"):
        load_csv(data, schema)


def test_schema_blank_and_whitespace_only_lines_are_skipped(tmp_path):
    data = _write(tmp_path / "d.csv", "a,c,label\n0.5,u,0\n-1.5,v,1\n2.0,u,0\n")
    plain = _write(tmp_path / "s.csv", "a,continuous\nc,categorical,2\nlabel,label\n")
    spaced = _write(tmp_path / "t.csv", "a,continuous\n\nc,categorical,2\n  \t\nlabel,label\n")
    outcome = load_outcome(load_csv, data, plain)
    assert outcome[0] == (3, 3)  # a Dataset, not an error
    assert load_outcome(load_csv, data, spaced) == outcome


def test_csv_missing_column(tmp_path):
    data = _write(tmp_path / "d.csv", "a,label\n1,0\n")
    schema = _write(tmp_path / "s.csv", "a,continuous\nb,continuous\nlabel,label\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_csv(data, schema)


@pytest.mark.parametrize("k", [0, 257, 2**31 + 2])
def test_image_class_count_must_fit_a_uint8_label(tmp_path, k):
    path = str(tmp_path / "imgs.bin")
    save_images_raw(np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8), k, path)
    with pytest.raises(ValueError, match=f"declares {k} classes"):
        load_images_raw(path)


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


def _bad_input(tmp_path, case):
    """Write one malformed input; return its data config and the file to name."""
    if case == "images":
        path = tmp_path / "imgs.bin"
        save_images_raw(np.zeros((3, 2, 2), dtype=np.uint8), np.array([0, 2, 1], dtype=np.uint8),
                        2, str(path))
        return {"kind": "images", "path": str(path)}, str(path)
    if case == "truncated images":
        path = tmp_path / "imgs.bin"
        save_images_raw(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8), 2,
                        str(path))
        path.write_bytes(path.read_bytes()[:-1])
        return {"kind": "images", "path": str(path)}, str(path)
    data = _write(tmp_path / "d.csv", "x,label\n1.0,a\n2.0,b\n")
    schema = _write(tmp_path / "s.csv", "x,continuous\nlabel,label\n")
    bad = data if case == "csv" else schema
    with open(bad, "ab") as f:
        f.write(b"\xe3(,x\n")  # not UTF-8
    return {"kind": "csv", "path": data, "schema": schema}, bad


@pytest.mark.parametrize("case", ["csv", "schema", "images", "truncated images"])
def test_loader_errors_name_the_file_and_exit_two(tmp_path, capsys, case):
    data, bad = _bad_input(tmp_path, case)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": data, "train": {"epochs": 1},
                               "output": {"dir": str(tmp_path / "run")}}))
    assert main(["train", "-c", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err


def test_images_bad_magic(tmp_path):
    path = tmp_path / "imgs.bin"
    path.write_bytes(b"XXXXX" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        load_images_raw(str(path))


def test_split_disjoint_exhaustive_deterministic():
    ds = gen_two_gaussians(503, seed=5)
    spec = SplitSpec(0.6, 0.2, 0.2, seed=11)
    parts = split(ds, spec)
    again = split(ds, spec)
    for a, b in zip(parts, again):
        assert a.dtype == np.int64 and np.all(np.diff(a) > 0)  # sorted, no repeats
        assert a.tobytes() == b.tobytes()
    assert np.sort(np.concatenate(parts)).tolist() == list(range(ds.size))


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_stratified_within_one(seed):
    ds = gen_two_gaussians(400, seed=seed)
    tr, va, te = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=seed))
    for part, frac in ((tr, 0.5), (va, 0.25), (te, 0.25)):
        for c in (0, 1):
            expected = frac * (ds.labels == c).sum()
            got = (ds.labels[part] == c).sum()
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
    tr2, va2, te2 = apply_train_statistics(ds, (tr, va, te))
    np.testing.assert_allclose(tr2.X.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(tr2.X.std(axis=0), 1.0, atol=1e-12)
    # val/test reuse the train statistics, so they are near but not exactly standard
    assert np.abs(va2.X.mean(axis=0)).max() > 1e-9
    expected = (ds.X[va] - ds.X[tr].mean(axis=0)) / ds.X[tr].std(axis=0)
    np.testing.assert_allclose(va2.X, expected, atol=1e-12)


def test_a_column_constant_on_train_is_shifted_by_its_mean_and_left_unscaled():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 2))
    X[:10, 1] = 2.5  # constant on the train rows only
    ds = Dataset(X, np.arange(30) % 2, 2)
    parts = [np.arange(i, i + 10) for i in (0, 10, 20)]
    tr2, va2, te2 = apply_train_statistics(ds, parts)
    assert np.all(tr2.X[:, 1] == 0.0)
    for rows, out in zip(parts[1:], (va2, te2)):
        assert out.X[:, 1].tobytes() == (X[rows, 1] - 2.5).tobytes()


def test_a_batch_refuses_soft_labels_of_another_row_count():
    Batch(np.zeros((2, 3)), [0, 1], soft_labels=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="^soft labels must have one row per sample$"):
        Batch(np.zeros((2, 3)), [0, 1], soft_labels=np.full((3, 2), 0.5))


def test_a_write_error_names_its_file_unless_it_names_one_already(tmp_path):
    path = str(tmp_path / "out.csv")
    with pytest.raises(OSError, match=f"^{re.escape(path)}: \\[Errno 27\\] File too large$"):
        with writing(path):
            raise OSError(27, "File too large")  # as a write past RLIMIT_FSIZE raises it
    with pytest.raises(FileNotFoundError) as exc:
        with writing(path), open(tmp_path / "no" / "out.csv", "w"):
            pass
    assert exc.value.filename == str(tmp_path / "no" / "out.csv")


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.4, 0.2)
    with pytest.raises(ValueError, match="^train must be >= 0, got nan$"):
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
        gen_two_gaussians(50, **kw, seed=0)


@pytest.mark.parametrize("noise", [np.nan, np.inf, -0.1])
def test_two_moons_noise_must_be_finite_and_nonnegative(noise):
    with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
        gen_two_moons(50, noise, 0)
    assert gen_two_moons(50, 0.0, 0).size == 50


def test_split_and_a_training_iteration_leave_numpy_ma_unimported():
    # numpy.ma costs ~15 ms to import; np.unique's first call imports it
    import saflex

    src = os.path.dirname(os.path.dirname(os.path.abspath(saflex.__file__)))
    code = (
        "import sys\n"
        "from saflex.data import gen_two_gaussians\n"
        "from saflex.trainer import RunConfig, train\n"
        "train(RunConfig(hidden=(4,), epochs=1, batch_size=500), gen_two_gaussians(200, seed=0))\n"
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
# The chunked CSV parse against the whole-file loader


GRID_ROWS = 600
# data rows 0, 300 and 599 lie in the first, a middle and the last chunk at
# each chunk size
GRID_AT = (0, 300, GRID_ROWS - 1)
CHUNK_SIZES = (1, 7, saflex_data.CSV_CHUNK_ROWS)
GRID_SCHEMA = "a,continuous\nc,categorical,3\nb,continuous\nlabel,label\n"
GRID_LAYOUT = b'\r\n1.5,v,-2.5,"cla\r\nss1"'  # a blank line, then a quoted line break

# name -> (the data rows that replace rows i < j, the error that must win);
# a problem's line is its row + 2, + 2 more past GRID_LAYOUT
GRID_CASES = {
    "valid": (lambda i, j: {}, None),
    "valid, blank lines, CRLF and a quoted line break": (lambda i, j: {i: GRID_LAYOUT}, None),
    "a late field count beats an early non-numeric value": (
        lambda i, j: {i: b"x1,u,1.0,class0", j: b"1.0,u,class0"},
        lambda i, j: f":{j + 2}: 3 fields, the header has 4"),
    "a late decode error beats an early non-finite value": (
        lambda i, j: {i: b"inf,u,1.0,class0", j: b"\xe3(,u,1.0,class0"},
        lambda i, j: ": not utf-8 text"),
    "a late non-numeric value beats an early non-finite one in its column": (
        lambda i, j: {i: b"nan,u,1.0,class0", j: b"1..0,u,1.0,class0"},
        lambda i, j: f":{j + 2}: non-numeric value '1..0' in column 'a'"),
    "a late problem in an earlier column wins": (
        lambda i, j: {i: b"1.0,u,-inf,class0", j: b"one,u,1.0,class0"},
        lambda i, j: f":{j + 2}: non-numeric value 'one' in column 'a'"),
    "an early problem in an earlier column wins": (
        lambda i, j: {i: b"inf,u,1.0,class0", j: b"1.0,u,two,class0"},
        lambda i, j: f":{i + 2}: non-finite value 'inf' in column 'a'"),
    "an unknown category beats a later column": (
        lambda i, j: {i: b"1.0,u,nan,class0", j: b"1.0,zz,1.0,class0"},
        lambda i, j: ": column 'c' has unknown category 'zz' (cardinality 3, saw 4 values)"),
    "an earlier column beats an unknown category": (
        lambda i, j: {i: b"1.0,zz,1.0,class0", j: b" -INF ,u,1.0,class0"},
        lambda i, j: f":{j + 2}: non-finite value '-INF' in column 'a'"),
    "lines past blank lines, CRLF and a quoted line break": (
        lambda i, j: {i: GRID_LAYOUT, j: b"1.0,w,+nan,class2"},
        lambda i, j: f":{j + 4}: non-finite value '+nan' in column 'b'"),
}


def _grid_bytes(edits: dict[int, bytes]) -> bytes:
    """The grid file with CRLF line ends, its data rows replaced by `edits`."""
    g = stream(0, "test_data", "grid")
    a, b = g.standard_normal(GRID_ROWS).tolist(), (g.standard_normal(GRID_ROWS) * 1e3).tolist()
    rows = [f"{a[k]!r},{'uvw'[k * 7 % 3]},{b[k]!r},class{k % 3}".encode()
            for k in range(GRID_ROWS)]
    rows[5], rows[6] = b" -0.0 ,u,1_000,class1", b"+1e3,v,  .5 ,class2"
    for k, row in edits.items():
        rows[k] = row
    return b"\r\n".join([b"a,c,b,label", *rows, b""])


@pytest.mark.parametrize("case", GRID_CASES)
def test_chunked_csv_load_matches_the_whole_file_loader(tmp_path, monkeypatch, case):
    edits, expected = GRID_CASES[case]
    path, schema = tmp_path / "d.csv", _write(tmp_path / "s.csv", GRID_SCHEMA)
    for i, j in itertools.combinations(GRID_AT, 2):
        path.write_bytes(_grid_bytes(edits(i, j)))
        want = load_outcome(load_csv_unchunked, str(path), schema)
        if expected is None:
            assert want[0] == (GRID_ROWS, 5), want[:1]
        else:
            assert want[0] is ValueError and expected(i, j) in want[1], (want, i, j)
        for rows in CHUNK_SIZES:
            monkeypatch.setattr(saflex_data, "CSV_CHUNK_ROWS", rows)
            assert load_outcome(load_csv, str(path), schema) == want, (i, j, rows)


def test_chunked_csv_load_of_a_header_only_file_matches_the_whole_file_loader(
        tmp_path, monkeypatch):
    path = _write(tmp_path / "d.csv", "a,c,b,label\r\n")
    schema = _write(tmp_path / "s.csv", GRID_SCHEMA.replace(",3", ""))
    want = load_outcome(load_csv_unchunked, path, schema)
    assert want[0] == (0, 2)
    for rows in CHUNK_SIZES:
        monkeypatch.setattr(saflex_data, "CSV_CHUNK_ROWS", rows)
        assert load_outcome(load_csv, path, schema) == want


def test_csv_load_peaks_below_twice_its_matrix(tmp_path):
    # tabular_cutmix's schema at 20 000 rows: every field kept as a string
    # until the end peaked at 5.6 times the returned matrix
    g = stream(5, "test_data", "tabular")
    n, scales, cards = 20_000, (1.0, 10.0, 100.0, 0.1, 5.0, 1000.0), (4, 5, 8, 12)
    columns = [[repr(float(v)) for v in s * g.standard_normal(n)] for s in scales]
    columns += [[f"v{v}" for v in g.integers(0, card, n)] for card in cards]
    columns.append([f"c{v}" for v in g.integers(0, 3, n)])
    header = [f"num{j}" for j in range(len(scales))] + [f"cat{j}" for j in range(len(cards))]
    path = _write(tmp_path / "d.csv", "\n".join(
        [",".join([*header, "label"]), *map(",".join, zip(*columns))]) + "\n")
    schema = _write(tmp_path / "s.csv", "".join(
        [f"{h},continuous\n" for h in header[:len(scales)]]
        + [f"{h},categorical,{c}\n" for h, c in zip(header[len(scales):], cards)]
        + ["label,label\n"]))
    del columns
    load_csv(path, schema)  # warm: first-call allocations are not the load's
    tracemalloc.start()
    try:
        ds = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.X.shape == (n, len(scales) + sum(cards))
    assert peak < 2 * ds.X.nbytes, (peak, ds.X.nbytes)


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


def test_setup_without_continuous_columns_returns_the_gathered_rows_unchanged():
    ds = Dataset(np.eye(4)[np.arange(20) % 4], np.arange(20) % 2, 2,
                 [FeatureGroup("c", "categorical", 0, 4)])
    parts = split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))
    for rows, out in zip(parts, apply_train_statistics(ds, parts), strict=True):
        assert out.X.tobytes() == ds.X[rows].tobytes()
        assert out.labels.tobytes() == ds.labels[rows].tobytes()
        assert out.groups == ds.groups and not out.X.flags.writeable


def test_standardized_setup_allocates_its_outputs_and_one_copy_of_the_train_columns():
    # image_crop's shape: 2000 rows of 100 continuous columns
    g = stream(3, "test_data", "peak")
    ds = Dataset(g.random((2000, 100)), g.integers(0, 2, 2000), 2, image_hw=(10, 10))
    run = RunConfig(split=SplitSpec(0.6, 0.2, 0.2, seed=0), standardize=True)
    run_splits(run, ds)  # warm: first-call allocations are not the set-up's
    tracemalloc.start()
    try:
        parts = run_splits(run, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(p.X.nbytes + p.labels.nbytes for p in parts)
    train_columns = parts[0].X.nbytes
    assert peak < outputs + train_columns + 128 * 1024, (peak, outputs, train_columns)
