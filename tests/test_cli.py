import json
import os
import re
import struct

import numpy as np
import pytest

from saflex import core
from saflex.cli import main
from saflex.config import DEFAULTS, resolve, ConfigError
from saflex.data import load_csv
from saflex.nn import load_checkpoint


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
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
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


def test_gen_data_rejects_zero_n(tmp_path):
    rc = main(["gen-data", "--n", "0", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert not (tmp_path / "x").exists()  # checked before anything is written


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

    def stable(path):
        lines = open(path).read().splitlines()
        return [",".join(ln.split(",")[:-1]) for ln in lines]  # drop wall-clock column

    assert stable(os.path.join(run_dir, "metrics.csv")) == stable(os.path.join(out2, "metrics.csv"))
    a = open(os.path.join(run_dir, "checkpoint.bin"), "rb").read()
    b = open(os.path.join(out2, "checkpoint.bin"), "rb").read()
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
    assert pa.dims == pb.dims
    assert any(not np.array_equal(a, b) for a, b in zip(pa.weights, pb.weights))
    ma = open(tmp_path / "none" / "metrics.csv").read()
    mb = open(tmp_path / "sfx" / "metrics.csv").read()
    assert ma != mb


def test_train_on_raw_images_with_crops(tmp_path):
    import numpy as np
    from saflex.data import save_images_raw

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


def test_oracle_check_small(capsys):
    rc = main(["oracle-check", "--n", "25", "--seed", "3", "--b", "4", "--k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |objective gap|: 0.0" in out
    assert "score-sum rule" in out


@pytest.mark.parametrize("flag", [["--b", "9"], ["--k", "7"]], ids=["b9", "k7"])
def test_oracle_check_guard_bounds_exit_two(capsys, flag):
    assert main(["oracle-check", "--n", "1", *flag]) == 2
    assert capsys.readouterr().err == (
        "config error: guard bounds: 1 <= --b <= 8 and 2 <= --k <= 6\n")


def test_oracle_check_rejects_single_class(capsys):
    rc = main(["oracle-check", "--k", "1"])
    assert rc == 2
    assert "single-class" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mode", ["none", "naive", "saflex"])
def test_divergent_run_exits_three(tmp_path, capsys, mode):
    cfg = _cfg(tmp_path, optimizer={"lr": 1e305}, train={"mode": mode, "epochs": 1})
    assert main(["train", "-c", cfg]) == 3
    assert re.search(r"epoch 0, iteration \d+", capsys.readouterr().err)


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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
