import json
import os
import pathlib
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from reference import oracle_check_per_instance, save_images_raw
from saflex import cli, core
from saflex.cli import build_parser, main
from saflex.config import DEFAULTS, resolve, ConfigError
from saflex.data import load_csv
from saflex.nn import init_mlp, load_checkpoint, save_checkpoint


def _cfg(tmp_path, name="config.json", **overrides):
    cfg = {
        "data": {"kind": "two_gaussians", "n": 300, "seed": 0},
        "model": {"hidden": [8, 8]},
        "train": {"epochs": 2, "batch_size": 32, "mode": "saflex", "seed": 0},
        "optimizer": {"lr": 0.2},
        "augment": {"kind": "gaussian_jitter", "sigma": 0.5},
        "output": {"dir": str(tmp_path / "run")},
    }
    for section, vals in overrides.items():
        cfg.setdefault(section, {}).update(vals)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_data_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["gen-data", "--kind", "two_gaussians", "--n", "200", "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    for name in ("data.csv", "schema.csv"):
        a = pathlib.Path(out1, name).read_bytes()
        b = pathlib.Path(out2, name).read_bytes()
        assert a == b


def test_gen_data_loads_back(tmp_path):
    out = str(tmp_path / "d")
    assert main(["gen-data", "--kind", "two_moons", "--n", "150", "--out", out]) == 0
    ds = load_csv(os.path.join(out, "data.csv"), os.path.join(out, "schema.csv"))
    assert ds.size == 150 and ds.num_classes == 2


def test_gen_data_csv_passthrough(tmp_path):
    src = str(tmp_path / "src")
    assert main(["gen-data", "--kind", "two_gaussians", "--n", "80", "--out", src]) == 0
    out = str(tmp_path / "copy")
    rc = main([
        "gen-data", "--kind", "csv_passthrough",
        "--input", os.path.join(src, "data.csv"),
        "--input-schema", os.path.join(src, "schema.csv"),
        "--out", out,
    ])
    assert rc == 0
    ds = load_csv(os.path.join(out, "data.csv"), os.path.join(out, "schema.csv"))
    assert ds.size == 80
    # the copy holds the source's values, not a z-scored rewrite of them
    for name in ("data.csv", "schema.csv"):
        with open(os.path.join(src, name), "rb") as a, open(os.path.join(out, name), "rb") as b:
            assert a.read() == b.read()


def test_gen_data_csv_passthrough_keeps_features_named_like_the_label(tmp_path):
    # features `label` and `label_1` take the writer's first two label names
    (tmp_path / "schema.csv").write_text(
        "label,continuous\ncolor,categorical,3\nlabel_1,continuous\ny,label\n")
    (tmp_path / "data.csv").write_text(
        "label,color,label_1,y\n0.5,red,1,cat\n-2,blue,0.25,dog\n3e-3,red,-1,cat\n")
    src = load_csv(str(tmp_path / "data.csv"), str(tmp_path / "schema.csv"))
    out = str(tmp_path / "copy")
    rc = main(["gen-data", "--kind", "csv_passthrough", "--input", str(tmp_path / "data.csv"),
               "--input-schema", str(tmp_path / "schema.csv"), "--out", out])
    assert rc == 0
    ds = load_csv(os.path.join(out, "data.csv"), os.path.join(out, "schema.csv"))
    assert ds.X.tobytes() == src.X.tobytes()
    assert ds.labels.tolist() == src.labels.tolist() == [0, 1, 0]
    assert ds.label_values == src.label_values == ["cat", "dog"]
    assert [g.name for g in ds.groups] == ["label", "color", "label_1"]


def test_gen_data_rejects_zero_n(tmp_path):
    rc = main(["gen-data", "--n", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()  # checked before anything is written


@pytest.mark.parametrize("sweep", [[], ["--sweep-sigma", "0.5,1.0"]])
def test_failed_config_leaves_no_output_dir(tmp_path, capsys, sweep):
    cases = [
        ({"data": {"kind": "two_moons", "sigma": -1}}, "data.sigma"),  # fails before training
        # Adam reads no momentum: refused rather than run without it
        ({"optimizer": {"kind": "adam", "momentum": 0.9}},
         "config error: optimizer.momentum must be 0 with optimizer adam, got 0.9\n"),
        ({"augment": {"kind": "crop_flip"}}, "crop_flip needs"),  # fails in the first step
    ]
    for overrides, message in cases:
        if sweep and message == "crop_flip needs":  # crop_flip reads no sigma: refused up front
            message = "--sweep-sigma varies augment.sigma, which augment.kind 'crop_flip'"
        assert main(["train", "-c", _cfg(tmp_path, **overrides), *sweep]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # a run writes only after it succeeds


def _empty_train_split_cfg(tmp_path):
    """A CSV config, so standardized, whose train split is empty."""
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--n", "100", "--out", data_dir]) == 0
    return _cfg(tmp_path, data={"kind": "csv", "path": os.path.join(data_dir, "data.csv"),
                                "schema": os.path.join(data_dir, "schema.csv")},
                split={"train": 0.0, "val": 0.5, "test": 0.5})


@pytest.mark.parametrize("command", ["train", "train_sweep", "eval"])
def test_empty_split_exits_two_without_warnings(tmp_path, capsys, command):
    cfg = _empty_train_split_cfg(tmp_path)
    ckpt = str(tmp_path / "init.bin")
    save_checkpoint(init_mlp([2, 8, 8, 2], seed=0), ckpt)
    argv = {"train": ["train", "-c", cfg],
            "train_sweep": ["train", "-c", cfg, "--sweep-sigma", "0.5,1.0"],
            "eval": ["eval", "-c", cfg, "--checkpoint", ckpt, "--split", "test"]}[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the statistics of an empty split would warn
        assert main(argv) == 2
    assert capsys.readouterr().err == "error: every split must be nonempty\n"
    assert not (tmp_path / "run").exists()  # checked before anything is written


def test_print_config_covers_defaults(capsys):
    assert main(["train", "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == DEFAULTS


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"epochz": 3}}))
    rc = main(["train", "-c", str(path)])
    assert rc == 2
    assert "train.epochz" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"train": }')
    rc = main(["train", "-c", str(path)])
    assert rc == 2
    assert ":1:" in capsys.readouterr().err


def test_missing_required_key_named(tmp_path, capsys):
    cfg = _cfg(tmp_path, data={"kind": "csv"})
    rc = main(["train", "-c", cfg])
    assert rc == 2
    assert "data.path" in capsys.readouterr().err


def _stable_metrics(path):
    with open(path) as f:
        return [line.rsplit(",", 1)[0] for line in f.read().splitlines()]  # no wall clock


def test_train_writes_outputs_and_is_reproducible(tmp_path):
    cfg = _cfg(tmp_path)
    assert main(["train", "-c", cfg]) == 0
    run_dir = str(tmp_path / "run")
    for name in ("metrics.csv", "checkpoint.bin", "resolved_config.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    # re-run from the resolved config into a fresh directory
    resolved = os.path.join(run_dir, "resolved_config.json")
    out2 = str(tmp_path / "run2")
    assert main(["train", "-c", resolved, "--output-dir", out2]) == 0
    assert (_stable_metrics(os.path.join(run_dir, "metrics.csv"))
            == _stable_metrics(os.path.join(out2, "metrics.csv")))
    a = pathlib.Path(run_dir, "checkpoint.bin").read_bytes()
    b = pathlib.Path(out2, "checkpoint.bin").read_bytes()
    assert a == b


def test_modes_none_and_saflex_differ_only_through_training(tmp_path):
    cfg_a = _cfg(tmp_path, "a.json", train={"mode": "none"},
                 output={"dir": str(tmp_path / "none")})
    cfg_b = _cfg(tmp_path, "b.json", train={"mode": "saflex"},
                 output={"dir": str(tmp_path / "sfx")})
    assert main(["train", "-c", cfg_a]) == 0
    assert main(["train", "-c", cfg_b]) == 0
    pa = load_checkpoint(str(tmp_path / "none" / "checkpoint.bin"))
    pb = load_checkpoint(str(tmp_path / "sfx" / "checkpoint.bin"))
    assert pa.shapes == pb.shapes
    assert any(not np.array_equal(a, b) for a, b in zip(pa.weights, pb.weights))
    ma = (tmp_path / "none" / "metrics.csv").read_text()
    mb = (tmp_path / "sfx" / "metrics.csv").read_text()
    assert ma != mb


def test_a_benchmark_shaped_run_leaves_nothing_behind(tmp_path):
    # a caller that prints one result line last, as perfbench/run.py does,
    # must end on it: no thread, child process, at-exit hook or late
    # warning of the package may write after it. Like perfbench it loads a
    # CSV in its own process, and also one that fails in a late chunk; a
    # file either load left open would warn on stderr
    import saflex

    src = os.path.dirname(os.path.dirname(os.path.abspath(saflex.__file__)))
    schema = tmp_path / "s.csv"
    schema.write_text("a,continuous\nc,categorical,3\nlabel,label\n")
    rows = [f"{i / 7!r},{'uvw'[i % 3]},c{i % 2}" for i in range(600)]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("\n".join(["a,c,label", *rows]) + "\n")
    rows[590] = "1.0,u"  # a field-count error, read in the last 256-row chunk
    bad.write_text("\n".join(["a,c,label", *rows]) + "\n")
    code = (
        "import contextlib, io, multiprocessing, threading\n"
        "from saflex import cli\n"
        "from saflex.data import gen_two_gaussians, load_csv\n"
        "from saflex.trainer import MODES, RunConfig, train\n"
        f"ds = load_csv({str(good)!r}, {str(schema)!r}, standardize=False)\n"
        "assert ds.X.shape == (600, 4)\n"
        "try:\n"
        f"    load_csv({str(bad)!r}, {str(schema)!r}, standardize=False)\n"
        "except ValueError as exc:\n"
        "    assert ':592: 2 fields' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('the malformed CSV loaded')\n"
        "for mode in MODES:\n"
        "    train(RunConfig(epochs=1, mode=mode), gen_two_gaussians(300, seed=0))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['oracle-check', '--n', '5']) == 0\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert multiprocessing.active_children() == []\n"
        "print('END')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "always::ResourceWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1:] == ["END"]
    assert proc.stderr == ""


def test_train_on_raw_images_with_crops(tmp_path):
    import numpy as np

    g = np.random.default_rng(0)
    pixels = g.integers(0, 256, size=(120, 6, 6)).astype(np.uint8)
    labels = (pixels.reshape(120, -1).mean(axis=1) > 127).astype(np.uint8)
    img_path = str(tmp_path / "imgs.bin")
    save_images_raw(pixels, labels, 2, img_path)
    cfg = _cfg(
        tmp_path, "img.json",
        data={"kind": "images", "path": img_path},
        augment={"kind": "crop_flip", "pad": 1},
        train={"epochs": 1, "batch_size": 16, "mode": "saflex", "seed": 0},
        output={"dir": str(tmp_path / "imgrun")},
    )
    assert main(["train", "-c", cfg]) == 0
    assert os.path.exists(tmp_path / "imgrun" / "metrics.csv")


def test_bad_augmenter_kind_exits_two(tmp_path, capsys):
    cfg = _cfg(tmp_path, "bad_aug.json", augment={"kind": "warp"})
    assert main(["train", "-c", cfg]) == 2
    assert "warp" in capsys.readouterr().err


def _eval_matches_last_metrics_row(cfg, run_dir, capsys):
    """`saflex eval` on each split reproduces the training run's last row."""
    assert main(["train", "-c", cfg]) == 0
    with open(os.path.join(run_dir, "metrics.csv")) as f:
        header, *rows = f.read().splitlines()
    last = dict(zip(header.split(","), rows[-1].split(",")))
    ck = os.path.join(run_dir, "checkpoint.bin")
    capsys.readouterr()
    for split, key in (("val", "val_loss"), ("train", "train_loss")):
        assert main(["eval", "-c", cfg, "--checkpoint", ck, "--split", split]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{split}: loss={float(last[key]):.6f} accuracy="), out
    assert main(["eval", "-c", cfg, "--checkpoint", ck, "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith(f" accuracy={float(last['test_acc']):.4f}"), out


def test_eval_subcommand(tmp_path, capsys):
    _eval_matches_last_metrics_row(_cfg(tmp_path), str(tmp_path / "run"), capsys)


def test_eval_subcommand_csv_standardizes_like_training(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["gen-data", "--kind", "two_gaussians", "--n", "300", "--seed", "4",
                 "--out", data_dir]) == 0
    cfg = _cfg(tmp_path, data={"kind": "csv", "path": os.path.join(data_dir, "data.csv"),
                               "schema": os.path.join(data_dir, "schema.csv")})
    _eval_matches_last_metrics_row(cfg, str(tmp_path / "run"), capsys)


def test_sweep_emits_one_run_per_sigma(tmp_path):
    cfg = _cfg(tmp_path)
    assert main(["train", "-c", cfg, "--sweep-sigma", "0.5,1.0"]) == 0
    run_dir = tmp_path / "run"
    subdirs = sorted(p.name for p in run_dir.iterdir())
    assert subdirs == ["sigma_0p5", "sigma_1p0"]
    for sub in subdirs:
        assert (run_dir / sub / "metrics.csv").exists()
        resolved = json.loads((run_dir / sub / "resolved_config.json").read_text())
        assert resolved["augment"]["sigma"] in (0.5, 1.0)


def test_sweep_loads_its_input_once_and_each_point_equals_a_single_run(tmp_path, monkeypatch):
    calls, build = [], cli._build_dataset

    def counted(d, prefix):
        calls.append(d)
        return build(d, prefix)

    monkeypatch.setattr(cli, "_build_dataset", counted)
    cfg = _cfg(tmp_path)
    assert main(["train", "-c", cfg, "--sweep-sigma", "0.25,0.5,1.0"]) == 0
    assert len(calls) == 1
    for sigma, tag in ((0.25, "0p25"), (0.5, "0p5"), (1.0, "1p0")):
        single = _cfg(tmp_path, f"single_{tag}.json", augment={"sigma": sigma},
                      output={"dir": str(tmp_path / f"single_{tag}")})
        assert main(["train", "-c", single]) == 0
        point, ref = tmp_path / "run" / f"sigma_{tag}", tmp_path / f"single_{tag}"
        assert _stable_metrics(point / "metrics.csv") == _stable_metrics(ref / "metrics.csv")
        assert (point / "checkpoint.bin").read_bytes() == (ref / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("grid,value", [("0.5,0.50,5e-1", "0.5"), ("1,0.25,1.0", "1.0")])
def test_a_sweep_that_repeats_a_value_exits_two_before_any_run(tmp_path, monkeypatch, capsys,
                                                               grid, value):
    trained = []
    monkeypatch.setattr(cli, "train", lambda *a: trained.append(a))
    assert main(["train", "-c", _cfg(tmp_path), "--sweep-sigma", grid]) == 2
    assert capsys.readouterr().err == (
        f"config error: --sweep-sigma names {value} more than once, got {grid!r}\n")
    assert trained == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides,key", [
    ({"train": {"mode": "none"}}, "train.mode 'none'"),
    ({"augment": {"kind": "mixup"}}, "augment.kind 'mixup'"),
], ids=["mode_none", "mixup"])
def test_a_sweep_whose_points_cannot_differ_exits_two(tmp_path, capsys, overrides, key):
    assert main(["train", "-c", _cfg(tmp_path, **overrides), "--sweep-sigma", "0.5,2.0"]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: --sweep-sigma varies augment.sigma, which {key} does not "
                   "read (only gaussian_jitter in mode naive or saflex does)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("block", ["weight", "bias"])
def test_eval_refuses_a_checkpoint_with_a_non_finite_parameter(tmp_path, capsys, value, block):
    params = init_mlp([2, 8, 8, 2], seed=0)
    layer = params.weights[1] if block == "weight" else params.biases[1]
    layer.flat[3] = value  # a view into params.flat
    ckpt = str(tmp_path / "ck.bin")
    save_checkpoint(params, ckpt)
    assert main(["eval", "-c", _cfg(tmp_path), "--checkpoint", ckpt]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: checkpoint {ckpt!r} holds 1 non-finite parameters\n"
    assert captured.out == ""


def test_eval_rejects_a_checkpoint_of_another_class_count(tmp_path, capsys):
    rows = "".join(f"{i / 7!r},{'uv'[i % 2]},{i % 3}\n" for i in range(30))
    cfg = _csv_cfg(tmp_path, "a,c,label\n" + rows)  # 3 columns after one-hot, 3 classes
    ckpt = str(tmp_path / "two_class.bin")
    save_checkpoint(init_mlp([3, 8, 2], seed=0), ckpt)
    assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 2
    assert capsys.readouterr().err == (
        "error: the checkpoint takes 3 features and 2 classes, the data has 3 and 3\n")


def test_eval_rejects_a_checkpoint_of_another_input_width(tmp_path, capsys):
    img = str(tmp_path / "imgs.bin")
    save_images_raw(np.zeros((20, 3, 3)), np.arange(20) % 2, 2, img)  # 9 features, 2 classes
    ckpt = str(tmp_path / "two_features.bin")
    save_checkpoint(init_mlp([2, 8, 2], seed=0), ckpt)
    cfg = _cfg(tmp_path, data={"kind": "images", "path": img})
    assert main(["eval", "-c", cfg, "--checkpoint", ckpt]) == 2
    assert capsys.readouterr().err == (
        "error: the checkpoint takes 2 features and 2 classes, the data has 9 and 2\n")


def test_a_warning_prints_as_one_line_and_main_restores_showwarning(tmp_path, capsys):
    shown_by = warnings.showwarning
    # 3 rows: each split gets one row, so each misses one of the 2 classes
    assert main(["train", "-c", _cfg(tmp_path, data={"n": 3}, train={"epochs": 1})]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: split {part} is missing 1 class(es)\n" for part in ("train", "val", "test"))
    assert warnings.showwarning is shown_by


def test_oracle_check_small(capsys):
    rc = main(["oracle-check", "--n", "25", "--seed", "3", "--b", "4", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |objective gap|: 0.0" in out
    assert "score-sum rule" in out


def test_oracle_check_score_sum_rule_keeps_a_row_that_sums_to_zero(monkeypatch, capsys):
    def scores(params, X, g_val):
        return np.tile([1.0, -1.0, 0.0], (X.shape[0], 1))

    monkeypatch.setattr(cli, "pi_scores", scores)
    monkeypatch.setattr(cli, "pi_scores_reverse", scores)
    assert main(["oracle-check", "--n", "5", "--seed", "1", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "keep rate (score-sum rule):      1.0000\n" in out
    assert "per-sample rule disagreement:    0.0000\n" in out


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("column", range(3))
def test_oracle_check_non_finite_reference_scores_exit_three(monkeypatch, capsys, value, column):
    # a NaN in column 0 makes a NaN gap, which max() drops from max |gap|;
    # one in another column need not reach any objective
    real = cli.pi_scores_reverse

    def scores(params, X, g_val):
        pi = real(params, X, g_val)
        pi[:, column] = value
        return pi

    monkeypatch.setattr(cli, "pi_scores_reverse", scores)
    assert main(["oracle-check", "--n", "3", "--seed", "2", "--k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: instance 0: the reference scores are not finite\n"
    assert "PASS" not in captured.out


def test_oracle_check_non_finite_fast_scores_exit_three_naming_the_instance(monkeypatch, capsys):
    real, calls = cli.pi_scores, []

    def scores(params, X, g_val):
        calls.append(None)
        pi = real(params, X, g_val)
        if len(calls) == 3:
            pi[-1, 0] = np.nan
        return pi

    monkeypatch.setattr(cli, "pi_scores", scores)
    assert main(["oracle-check", "--n", "5", "--seed", "2", "--k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: instance 2: the fast scores are not finite\n"
    assert "PASS" not in captured.out


def test_oracle_check_scores_no_instance_past_the_first_refusal(monkeypatch, capsys):
    fast, reverse, calls = cli.pi_scores, cli.pi_scores_reverse, {"fast": 0, "ref": 0}

    def fast_scores(params, X, g_val):
        calls["fast"] += 1
        pi = fast(params, X, g_val)
        if calls["fast"] == 6:  # instance 5: finite, but pi / 1e-10 overflows
            pi *= 1e300 / np.abs(pi).max()
        return pi

    def reference_scores(params, X, g_val):
        calls["ref"] += 1
        return reverse(params, X, g_val)

    monkeypatch.setattr(cli, "pi_scores", fast_scores)
    monkeypatch.setattr(cli, "pi_scores_reverse", reference_scores)
    assert main(["oracle-check", "--n", "40", "--seed", "0", "--tau", "1e-10"]) == 3
    assert calls == {"fast": 6, "ref": 5}
    assert capsys.readouterr().err == ("numerical failure: "
                                       "instance 5: alignment scores pi / tau are not finite\n")


def test_oracle_check_fails_on_a_nan_gap_from_finite_scores(monkeypatch, capsys):
    # both objectives overflow to inf on a batch of two or more, and inf - inf is NaN
    def scores(params, X, g_val):
        return np.tile([1.5e308, 0.0, -1.0], (X.shape[0], 1))

    monkeypatch.setattr(cli, "pi_scores", scores)
    monkeypatch.setattr(cli, "pi_scores_reverse", scores)
    assert main(["oracle-check", "--n", "6", "--seed", "1", "--k", "3", "--tau", "1e300"]) == 3
    out = capsys.readouterr().out
    assert "nonzero gap nan" in out and "max |objective gap|: 0.0\n" in out
    assert out.endswith("oracle-check: FAIL\n")


ORACLE_BLOCKS = (1, 7, cli.ORACLE_BLOCK)


def _per_instance_main(monkeypatch, capsys, argv):
    """(exit code, stdout, stderr) of main(argv), oracle-check run one instance at a time."""
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_oracle_check", oracle_check_per_instance)
        m.setattr(cli, "_parser", build_parser)  # a fresh parser takes the reference
        rc = main(argv)
    return (rc, *capsys.readouterr())


def _assert_every_block_matches_per_instance(monkeypatch, capsys, argv):
    expected = _per_instance_main(monkeypatch, capsys, argv)
    for block in ORACLE_BLOCKS:
        monkeypatch.setattr(cli, "ORACLE_BLOCK", block)
        rc = main(argv)
        assert (rc, *capsys.readouterr()) == expected, (argv, block)
    return expected


@pytest.mark.parametrize("tau", ["0.01", "1.0", "1e300"])
@pytest.mark.parametrize("k", [2, 3, 6])
def test_oracle_check_in_blocks_prints_what_the_per_instance_loop_prints(monkeypatch, capsys,
                                                                          k, tau):
    # --tau 1.0 and 1e300 fail with nonzero gaps, each summed per instance as
    # the per-instance loop sums it; np.add.reduceat would change some bits
    for seed in range(10):
        for b in (1, 3, 8):
            for n in (1, 40):
                _assert_every_block_matches_per_instance(monkeypatch, capsys, [
                    "oracle-check", "--n", str(n), "--seed", str(seed), "--b", str(b),
                    "--k", str(k), "--tau", tau])


@pytest.mark.parametrize("bad", [5, 7])
@pytest.mark.parametrize("failure", ["fast_nan", "fast_overflow", "reference_nan",
                                     "fast_overflow_and_reference_nan"])
def test_oracle_check_in_blocks_fails_at_the_instance_the_per_instance_loop_fails_at(
        monkeypatch, capsys, failure, bad):
    # negated fast scores pick other labels than the reference's, so the
    # instances before the bad one print nonzero gaps
    argv = ["oracle-check", "--n", "12", "--seed", "1", "--b", "8", "--k", "3", "--tau", "0.5"]
    bad_X = cli.oracle_instance(1, bad, 8, 3)[1]
    fast, reverse = cli.pi_scores, cli.pi_scores_reverse

    def is_bad(X):
        return X.shape == bad_X.shape and np.array_equal(X, bad_X)

    def fast_scores(params, X, g_val):
        pi = -fast(params, X, g_val)
        if is_bad(X) and failure == "fast_nan":
            pi[-1, 0] = np.nan
        elif is_bad(X) and failure.startswith("fast_overflow"):
            pi *= 1e308 / np.abs(pi).max()  # finite, but pi / 0.5 overflows
        return pi

    def reference_scores(params, X, g_val):
        pi = reverse(params, X, g_val)
        if is_bad(X) and failure.endswith("reference_nan"):
            pi[0, -1] = np.nan
        return pi

    monkeypatch.setattr(cli, "pi_scores", fast_scores)
    monkeypatch.setattr(cli, "pi_scores_reverse", reference_scores)
    rc, out, err = _assert_every_block_matches_per_instance(monkeypatch, capsys, argv)
    assert rc == 3 and "instance 0: nonzero gap" in out and f"instance {bad - 1}:" in out
    assert f"instance {bad}:" not in out and "oracle-check:" not in out
    assert err == "numerical failure: " + {
        "fast_nan": f"instance {bad}: the fast scores are not finite\n",
        "reference_nan": f"instance {bad}: the reference scores are not finite\n",
    }.get(failure, f"instance {bad}: alignment scores pi / tau are not finite\n")


def test_oracle_check_memory_does_not_grow_past_one_block(monkeypatch, capsys):
    one = cli.oracle_instance(0, 0, 8, 6)
    # one instance over and over: no layout cache grows with --n
    monkeypatch.setattr(cli, "oracle_instance", lambda seed, i, b, k: one)
    monkeypatch.setattr(cli, "ORACLE_BLOCK", 16)

    def peak(n):
        tracemalloc.start()
        try:
            assert main(["oracle-check", "--n", str(n), "--b", "8", "--k", "6"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(16)
    # 640 instances held at once would take about 1 MB
    assert peak(640) < 1.1 * peak(16)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["oracle-check", "--n", "1"]) == 0
    assert main(["train", "--print-config"]) == 0
    assert len(built) == 1


_EVERY_SUBCOMMAND = [
    ["gen-data", "--out", "d"],
    ["gen-data", "--kind", "csv_passthrough", "--input", "a.csv", "--input-schema", "s.csv",
     "--n", "7", "--sigma", "0.5", "--seed", "3", "--out", "d"],
    ["train", "-c", "c.json", "--output-dir", "o", "--sweep-sigma", "0.5,1"],
    ["train", "--print-config"],
    ["eval", "-c", "c.json", "--checkpoint", "k.bin", "--split", "val"],
    ["eval", "--config", "c.json", "--checkpoint", "k.bin"],
    ["oracle-check"],
    ["oracle-check", "--n", "3", "--seed", "4", "--b", "2", "--k", "5", "--tau", "0.5"],
]


def test_the_cached_parser_parses_every_subcommand_as_a_fresh_one():
    cached = cli._parser()
    # twice over, so an earlier parse could leave state behind for a later one
    for argv in _EVERY_SUBCOMMAND + _EVERY_SUBCOMMAND:
        assert vars(cached.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("flag", [["--b", "9"], ["--k", "7"]], ids=["b9", "k7"])
def test_oracle_check_guard_bounds_exit_two(capsys, flag):
    assert main(["oracle-check", "--n", "1", *flag]) == 2
    assert capsys.readouterr().err == (
        "config error: guard bounds: 1 <= --b <= 8 and 2 <= --k <= 6\n")


def test_oracle_check_rejects_single_class(capsys):
    rc = main(["oracle-check", "--k", "1"])
    assert rc == 2
    assert "single-class" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["none", "naive", "saflex"])
def test_divergent_run_exits_three(tmp_path, capsys, mode):
    cfg = _cfg(tmp_path, optimizer={"lr": 1e305}, train={"mode": mode, "epochs": 1})
    assert main(["train", "-c", cfg]) == 3
    assert re.search(r"epoch 0, iteration \d+", capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides", [{"optimizer": {"lr": 1e300}}, {"saflex": {"beta": 1e308}}],
                         ids=["lr", "beta"])
def test_numerical_failure_prints_one_line_and_no_warning(tmp_path, capsys, overrides):
    """Overflow in a diverging run reaches the user only as the exit-3 line."""
    cfg = _cfg(tmp_path, data={"n": 50}, train={"epochs": 1}, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # main prints each warning as a stderr line
        assert main(["train", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("numerical failure: ")
    assert not (tmp_path / "run").exists()


def test_truncated_checkpoint_header_exits_two(tmp_path, capsys):
    ck = tmp_path / "ck.bin"
    ck.write_bytes(b"SFLX1" + struct.pack("<I", 255) + b"\x00\x00")
    rc = main(["eval", "-c", _cfg(tmp_path), "--checkpoint", str(ck)])
    assert rc == 2
    assert "truncated checkpoint header" in capsys.readouterr().err


def test_truncated_image_header_exits_two(tmp_path, capsys):
    img = tmp_path / "imgs.bin"
    img.write_bytes(b"SFIM1\x00\x00")
    cfg = _cfg(tmp_path, data={"kind": "images", "path": str(img)})
    assert main(["train", "-c", cfg]) == 2
    assert "truncated image file header" in capsys.readouterr().err


def test_a_checkpoint_cut_short_exits_two_naming_the_file(tmp_path, capsys):
    ck = tmp_path / "ck.bin"
    save_checkpoint(init_mlp([2, 8, 8, 2], seed=0), str(ck))
    expected = len(ck.read_bytes())
    ck.write_bytes(ck.read_bytes()[:-8])
    assert main(["eval", "-c", _cfg(tmp_path), "--checkpoint", str(ck)]) == 2
    assert capsys.readouterr().err == (f"error: truncated checkpoint {str(ck)!r}: "
                                       f"expected {expected} bytes, got {expected - 8}\n")


def test_a_checkpoint_with_a_byte_appended_exits_two_naming_the_trailing_byte(tmp_path, capsys):
    ck = tmp_path / "ck.bin"
    save_checkpoint(init_mlp([2, 8, 8, 2], seed=0), str(ck))
    expected = len(ck.read_bytes())
    ck.write_bytes(ck.read_bytes() + b"\x00")
    assert main(["eval", "-c", _cfg(tmp_path), "--checkpoint", str(ck)]) == 2
    assert capsys.readouterr().err == (f"error: checkpoint {str(ck)!r} has 1 trailing bytes "
                                       f"past the {expected} its header declares\n")


def test_an_image_file_with_a_byte_appended_exits_two_naming_the_trailing_byte(tmp_path, capsys):
    img = tmp_path / "imgs.bin"
    save_images_raw(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8), 2, str(img))
    expected = len(img.read_bytes())
    img.write_bytes(img.read_bytes() + b"\x00")
    assert main(["train", "-c", _cfg(tmp_path, data={"kind": "images", "path": str(img)})]) == 2
    assert capsys.readouterr().err == (f"error: image file {str(img)!r} has 1 trailing bytes "
                                       f"past the {expected} its header declares\n")


def test_saflex_threads_validated(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SAFLEX_THREADS", "zebra")
    rc = main(["oracle-check", "--n", "1"])
    assert rc == 2


def test_resolve_rejects_non_dict():
    with pytest.raises(ConfigError):
        resolve([1, 2])


def _csv_cfg(tmp_path, text):
    data, schema = tmp_path / "d.csv", tmp_path / "s.csv"
    data.write_text(text)
    schema.write_text("a,continuous\nc,categorical\nlabel,label\n")
    return _cfg(tmp_path, data={"kind": "csv", "path": str(data), "schema": str(schema)})


def test_csv_short_row_exits_two_naming_file_and_line(tmp_path, capsys):
    cfg = _csv_cfg(tmp_path, "a,c,label\n0.5,u,0\n1.5,v\n-1.0,u,1\n")
    assert main(["train", "-c", cfg]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'd.csv'}:3: 2 fields, the header has 3\n"


def test_schema_with_a_duplicate_column_name_exits_two_naming_the_file(tmp_path, capsys):
    cfg = _csv_cfg(tmp_path, "a,a,label\n1,2,x\n3,4,y\n")
    (tmp_path / "s.csv").write_text("a,continuous\na,continuous\nlabel,label\n")
    assert main(["train", "-c", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 's.csv'}:2: duplicate column name 'a'\n")


def test_csv_whose_header_lists_the_columns_in_another_order_exits_two(tmp_path, capsys):
    cfg = _csv_cfg(tmp_path, "c,a,label\nu,0.5,0\nv,1.5,1\n")
    assert main(["train", "-c", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'd.csv'}: header ['c', 'a', 'label'] "
        "does not match schema order ['a', 'c', 'label']\n")


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_a_write_past_a_file_size_limit_exits_two_naming_the_file(tmp_path, command):
    # the limit is set in the child alone; its first file past 4096 bytes
    # fails in a write or in the close that flushes it, with no file name
    import saflex

    src = os.path.dirname(os.path.dirname(os.path.abspath(saflex.__file__)))
    argv, name = {"train": (["train", "-c", _cfg(tmp_path, model={"hidden": [32, 32]})],
                            tmp_path / "run" / "checkpoint.bin"),
                  "gen-data": (["gen-data", "--n", "2000", "--out", str(tmp_path / "data")],
                               tmp_path / "data" / "data.csv")}[command]
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
            "from saflex.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"error: {name}: [Errno 27] File too large\n"


def test_csv_non_numeric_value_exits_two_naming_line_and_column(tmp_path, capsys):
    cfg = _csv_cfg(tmp_path, "a,c,label\n0.5,u,0\n\n1.5x,v,1\n-1.0,u,1\n")
    assert main(["train", "-c", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'd.csv'}:4: non-numeric value '1.5x' in column 'a'\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_value_exits_two_naming_line_and_column(tmp_path, capsys, value):
    cfg = _csv_cfg(tmp_path, f"a,c,label\n0.5,u,0\n\n{value},v,1\n-1.0,u,1\n")
    assert main(["train", "-c", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'd.csv'}:4: non-finite value {value!r} in column 'a'\n")


@pytest.mark.parametrize("section,key,value", [
    ("model", "hidden", [-3]),
    ("model", "hidden", [0]),
    ("model", "hidden", [8, 0]),
    ("train", "val_batch_size", -5),
])
def test_bad_hidden_widths_and_val_batch_size_exit_two(tmp_path, capsys, section, key, value):
    cfg = _cfg(tmp_path, **{section: {key: value}})
    assert main(["train", "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


# 2**55 parameters or samples need 1.25 EiB and 256 PiB: more than any 64-bit
# address space, so numpy's allocation fails at once and touches no memory.
# A size an overcommitting host could map (data.n 10**12, 7 TiB) is no test.
@pytest.mark.parametrize("section,key,value", [("model", "hidden", [2**55]), ("data", "n", 2**55)],
                         ids=["hidden", "n"])
@pytest.mark.parametrize("sweep", [[], ["--sweep-sigma", "0.5,1.0"]])
def test_an_allocation_larger_than_memory_exits_two(tmp_path, capsys, section, key, value, sweep):
    cfg = _cfg(tmp_path, **{section: {key: value}})
    assert main(["train", "-c", cfg, *sweep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "print_config", "eval"])
def test_an_over_nested_config_exits_two(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # the config names no output.dir: the default is relative
    argv = {"train": ["train", "-c", "deep.json"],
            "print_config": ["train", "--print-config", "-c", "deep.json"],
            "eval": ["eval", "-c", "deep.json", "--checkpoint", "none.bin"]}[command]
    # 100 000 levels overflow the JSON decoder; the depths around the recursion
    # limit decode, and overflow in the type error's message instead
    limit = sys.getrecursionlimit()
    for depth in [100_000, *range(limit - 200, limit + 20)]:
        (tmp_path / "deep.json").write_text('{"model": {"hidden": ' + "[" * depth + "1"
                                            + "]" * depth + "}}")
        assert main(argv) == 2
        err = capsys.readouterr().err
        if depth == 100_000:
            assert err == "config error: deep.json: nested too deeply\n"
        assert err.startswith("config error: ") and err.count("\n") == 1, (depth, err)
    assert os.listdir(tmp_path) == ["deep.json"]


@pytest.mark.parametrize("block", [0, 1, 2], ids=["train", "aug", "val"])
def test_nan_probabilities_exit_three_in_saflex_mode(tmp_path, capsys, monkeypatch, block):
    forward = core.mlp_forward

    def poisoned(params, X):
        # the step's stacked rows are [train, aug, val], 32 each at this config
        probs, cache = forward(params, X)
        probs[32 * block : 32 * (block + 1), 0] = np.nan
        return probs, cache

    monkeypatch.setattr(core, "mlp_forward", poisoned)
    cfg = _cfg(tmp_path, train={"mode": "saflex", "epochs": 1})
    assert main(["train", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "epoch 0, iteration 0" in err, err
