"""The config contract: each leaf takes only its default's type, and a bad
config value or CLI flag exits 2 with one error line naming where it is."""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflex.cli import main
from saflex.config import DEFAULTS, ConfigError, build_run_config, resolve

TINY = {"data": {"n": 60}, "model": {"hidden": [4, 4]}, "train": {"epochs": 1, "batch_size": 16}}


def _leaves(node, path=()):
    """(key path, default) for every section, key and list element of DEFAULTS."""
    if path:
        yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _run(argv):
    """Exit code, stdout and stderr of `saflex <argv>` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag before main's handlers
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_too_big_for_a_float = st.integers(min_value=10**309, max_value=10**400)
_containers = st.sampled_from([None, [], [1], {}, {"a": 1}])
# for each default's type, values of every other JSON type; JSON's 1e400
# parses to inf, which st.floats() draws
WRONG = {
    dict: st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([None, [], [1]]),
    list: st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([None, {}, {"a": 1}]),
    bool: st.integers() | st.floats() | st.text(max_size=6) | _containers,
    int: st.booleans() | st.floats() | st.text(max_size=6) | _containers,
    float: st.booleans() | _non_finite | _too_big_for_a_float
    | _too_big_for_a_float.map(lambda i: -i) | st.text(max_size=6) | _containers,
    str: st.booleans() | st.integers() | st.floats() | _containers,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_leaves(DEFAULTS))).flatmap(
    lambda leaf: st.tuples(st.just(leaf[0]), WRONG[type(leaf[1])])))
def test_a_wrong_typed_leaf_exits_two_naming_its_key_path(case):
    path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        doc = resolve(TINY)
        doc["output"]["dir"] = os.path.join(tmp, "run")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        rc, out, err = _run(["train", "-c", cfg])
    assert rc == 2, (path, value, out, err)
    assert err.startswith(f"config error: {_dotted(path)}: expected "), err
    assert err.count("\n") == 1 and out == "", err


_bad_floats = _non_finite | st.floats(max_value=-1e-300)
FLAGS = {
    ("oracle-check", "--n"): st.integers(max_value=0).map(str)
    | st.sampled_from(["1.5", "abc", "", "1e3"]),
    ("gen-data", "--n"): st.integers(max_value=1).map(str) | st.sampled_from(["1.5", "abc"]),
    ("oracle-check", "--tau"): (_bad_floats | st.just(0.0)).map(repr)
    | st.sampled_from(["abc", ""]),
    ("gen-data", "--sigma"): (_bad_floats | st.just(0.0)).map(repr) | st.sampled_from(["abc", ""]),
    ("train", "--sweep-sigma"): _bad_floats.map(repr) | _bad_floats.map(lambda s: f"0.5,{s!r}")
    | st.sampled_from(["abc", ",", " ", "0.5,abc"]),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FLAGS)), st.data())
def test_a_bad_flag_value_exits_two_naming_the_flag(case, data):
    (command, flag), value = case, data.draw(FLAGS[case])
    with tempfile.TemporaryDirectory() as tmp:
        argv = {
            "oracle-check": ["oracle-check", "--n", "2"],
            "gen-data": ["gen-data", "--n", "20", "--out", os.path.join(tmp, "data")],
            "train": ["train", "-c", os.path.join(tmp, "config.json")],
        }[command]
        with open(os.path.join(tmp, "config.json"), "w") as f:
            json.dump(dict(TINY, output={"dir": os.path.join(tmp, "run")}), f)
        rc, out, err = _run([*argv, f"{flag}={value}"])
    assert rc == 2, (command, flag, value, out, err)
    errors = [line for line in err.splitlines() if "error: " in line]
    assert len(errors) == 1 and flag in errors[0] and "Traceback" not in err, err


@pytest.mark.parametrize("text,line", [
    ('{"model": {"hidden": [1e400]}}',
     "config error: model.hidden[0]: expected an integer, got Infinity"),
    ('{"saflex": {"gumbel": "false"}}',
     'config error: saflex.gumbel: expected true or false, got "false"'),
    ('{"train": {"batch_size": true}}',
     "config error: train.batch_size: expected an integer, got true"),
    ('{"train": {"epochs": 1.5}}', "config error: train.epochs: expected an integer, got 1.5"),
    ('{"train": {"epochs": 20.0}}', "config error: train.epochs: expected an integer, got 20.0"),
    ('{"augment": {"pad": 2.7}}', "config error: augment.pad: expected an integer, got 2.7"),
    ('{"model": {"hidden": [32.9]}}',
     "config error: model.hidden[0]: expected an integer, got 32.9"),
    ('{"optimizer": {"lr": NaN}}',
     "config error: optimizer.lr: expected a finite number, got NaN"),
    ('{"saflex": {"tau": Infinity}}',
     "config error: saflex.tau: expected a finite number, got Infinity"),
    ('{"data": {"n": "abc"}}', 'config error: data.n: expected an integer, got "abc"'),
    ('{"data": {"means": [[1, 1], [1, NaN]]}}',
     "config error: data.means[1][1]: expected a finite number, got NaN"),
    ('{"data": {"kind": "csv", "path": null}}',
     "config error: data.path: expected a string, got null"),
    ('{"split": 0.5}', "config error: split: expected an object, got 0.5"),
    ('{"data": {"means": [[1, 1]]}}',
     "config error: data.means must be a finite 2x2 array, got [[1.0, 1.0]]"),
    ('{"data": {"means": [[1, 1], [2, 2], [3, 3]]}}',
     "config error: data.means must be a finite 2x2 array, "
     "got [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]"),
    ('{"data": {"n": -5}}', "config error: data.n must be >= 2, got -5"),
    ('{"data": {"kind": "two_moons", "n": 1}}', "config error: data.n must be >= 2, got 1"),
    ('{"data": {"sigma": 0}}', "config error: data.sigma must be a finite number > 0, got 0.0"),
    ('{"data": {"kind": "two_moons", "sigma": -1}}',
     "config error: data.sigma must be a finite number >= 0, got -1.0"),
    ('{"data": {"kind": "foo"}}',
     "config error: data.kind must be two_gaussians|two_moons|csv|images, got 'foo'"),
    # every range-checked leaf of the run dataclasses
    ('{"model": {"hidden": [8, 0]}}',
     "config error: model.hidden layer widths must be >= 1, got [8, 0]"),
    ('{"optimizer": {"kind": "rmsprop"}}',
     "config error: optimizer.kind must be one of ('sgd', 'adam'), got 'rmsprop'"),
    ('{"optimizer": {"lr": -1}}', "config error: optimizer.lr must be > 0, got -1.0"),
    ('{"optimizer": {"lr": 0}}', "config error: optimizer.lr must be > 0, got 0.0"),
    ('{"optimizer": {"momentum": -0.5}}',
     "config error: optimizer.momentum must be >= 0, got -0.5"),
    ('{"optimizer": {"kind": "adam", "momentum": 0.9}}',
     "config error: optimizer.momentum must be 0 with optimizer adam, got 0.9"),
    ('{"train": {"mode": "bogus"}}',
     "config error: train.mode must be one of ('none', 'naive', 'saflex'), got 'bogus'"),
    ('{"train": {"epochs": -1}}', "config error: train.epochs must be >= 0, got -1"),
    ('{"train": {"batch_size": 0}}', "config error: train.batch_size must be >= 1, got 0"),
    ('{"train": {"val_batch_size": -5}}',
     "config error: train.val_batch_size must be >= 0, got -5"),
    ('{"augment": {"kind": "foo"}}',
     "config error: augment.kind must be one of ('gaussian_jitter', 'crop_flip', 'mixup', "
     "'cutmix_tabular', 'label_noise'), got 'foo'"),
    ('{"augment": {"sigma": -1}}', "config error: augment.sigma must be >= 0, got -1.0"),
    ('{"augment": {"pad": -1}}', "config error: augment.pad must be >= 0, got -1"),
    ('{"augment": {"mixup_alpha": 0}}',
     "config error: augment.mixup_alpha must be > 0, got 0.0"),
    ('{"augment": {"p_replace": 1.5}}',
     "config error: augment.p_replace must lie in [0, 1], got 1.5"),
    ('{"augment": {"flip_rate": -0.1}}',
     "config error: augment.flip_rate must lie in [0, 1], got -0.1"),
    ('{"saflex": {"tau": 0}}', "config error: saflex.tau must be a finite number > 0, got 0.0"),
    ('{"saflex": {"beta": -1}}', "config error: saflex.beta must be >= 0, got -1.0"),
    ('{"split": {"train": -0.5}}', "config error: split.train must be >= 0, got -0.5"),
    ('{"split": {"val": -0.2}}', "config error: split.val must be >= 0, got -0.2"),
    ('{"split": {"test": -0.2}}', "config error: split.test must be >= 0, got -0.2"),
    ('{"split": {"train": 0, "val": 0, "test": 0}}',
     "config error: split fractions must sum to 1, got 0.0"),
    # the nested specs are checked before the run's own fields
    ('{"optimizer": {"lr": -1}, "split": {"train": 0.9}}',
     "config error: split fractions must sum to 1, got 1.3"),
])
def test_config_value_errors_are_one_line_naming_the_key(tmp_path, monkeypatch, text, line):
    monkeypatch.chdir(tmp_path)  # a run that gets as far as the data writes to output.dir
    path = tmp_path / "config.json"
    path.write_text(text)
    assert _run(["train", "-c", str(path)]) == (2, "", line + "\n")
    if '"data"' not in text:  # data.* ranges are checked when the data is built
        assert _run(["train", "-c", str(path), "--print-config"]) == (2, "", line + "\n")


# each key of the sections build_run_config reads: a valid value other than
# its default, and the field of the RunConfig it returns that the key sets.
# Written out here, so a key routed to another field fails the test below
KEY_FIELDS = {
    "model.hidden": ([7, 5], "hidden"),
    "optimizer.kind": ("adam", "optimizer"),
    "optimizer.lr": (0.25, "lr"),
    "optimizer.momentum": (0.5, "momentum"),
    "train.mode": ("naive", "mode"),
    "train.epochs": (3, "epochs"),
    "train.batch_size": (7, "batch_size"),
    "train.val_batch_size": (9, "val_batch_size"),
    "train.seed": (11, "seed"),
    "saflex.beta": (0.5, "saflex.beta"),
    "saflex.tau": (0.3, "saflex.tau"),
    "saflex.gumbel": (False, "saflex.gumbel_enabled"),
    "saflex.seed": (13, "saflex.seed"),
    "augment.kind": ("mixup", "augment.kind"),
    "augment.sigma": (0.7, "augment.sigma"),
    "augment.pad": (3, "augment.pad"),
    "augment.mixup_alpha": (0.9, "augment.mixup_alpha"),
    "augment.p_replace": (0.4, "augment.p_replace"),
    "augment.flip_rate": (0.1, "augment.flip_rate"),
    "augment.seed": (17, "augment.seed"),  # set, though nothing reads it
    # a lone fraction moves within the sum rule's 1e-9 tolerance
    "split.train": (0.6 + 1e-12, "split.train"),
    "split.val": (0.2 + 1e-12, "split.val"),
    "split.test": (0.2 + 1e-12, "split.test"),
    "split.seed": (19, "split.seed"),
}


def _fields(node, prefix=""):
    """Each leaf of asdict(RunConfig), by its dotted field path."""
    out = {}
    for name, value in node.items():
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{name}."))
        else:
            out[prefix + name] = value
    return out


def test_each_config_key_sets_its_own_field_and_no_other():
    sections = ("model", "optimizer", "train", "saflex", "augment", "split")
    assert sorted(KEY_FIELDS) == sorted(f"{s}.{k}" for s in sections for k in DEFAULTS[s])
    base = _fields(asdict(build_run_config(resolve({}))))
    for key, (value, field) in KEY_FIELDS.items():
        section, name = key.split(".")
        assert value != DEFAULTS[section][name], key
        got = _fields(asdict(build_run_config(resolve({section: {name: value}}))))
        assert [f for f in got if got[f] != base[f]] == [field], key
        assert got[field] == (tuple(value) if isinstance(value, list) else value), key


def test_a_null_config_exits_two_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # output.dir's default is relative
    path = tmp_path / "config.json"
    path.write_text("null")
    line = "config error: config root must be a JSON object\n"
    assert _run(["train", "-c", str(path)]) == (2, "", line)
    assert os.listdir(tmp_path) == ["config.json"]


def test_a_config_that_is_not_utf8_text_exits_two_naming_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, out, err = _run(["train", "-c", str(path)])
    assert (rc, out) == (2, "") and err.count("\n") == 1, err
    assert err.startswith(f"error: {path}: not "), err


@pytest.mark.parametrize("argv,line", [
    (["oracle-check", "--n", "0"], "config error: --n must be >= 1"),
    (["oracle-check", "--n", "-1"], "config error: --n must be >= 1"),
    (["oracle-check", "--tau", "nan"],
     "config error: --tau must be a finite number > 0, got nan"),
    (["oracle-check", "--tau", "inf"],
     "config error: --tau must be a finite number > 0, got inf"),
    (["gen-data", "--sigma", "nan"],
     "config error: --sigma must be a finite number > 0, got nan"),
    (["train", "--sweep-sigma", "nan"],
     "config error: --sweep-sigma wants finite numbers >= 0, got 'nan'"),
    (["gen-data", "--sigma", "0"], "config error: --sigma must be a finite number > 0, got 0.0"),
    (["gen-data", "--kind", "two_moons", "--sigma", "-1"],
     "config error: --sigma must be a finite number >= 0, got -1.0"),
    (["gen-data", "--n", "1"], "config error: --n must be >= 2, got 1"),
    (["gen-data", "--kind", "two_moons", "--n", "0"], "config error: --n must be >= 2, got 0"),
    (["gen-data", "--kind", "csv_passthrough", "--input", "d.csv"],
     "config error: csv_passthrough needs --input and --input-schema"),
])
def test_flag_errors_are_one_line_naming_the_flag(tmp_path, argv, line):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY, output={"dir": str(tmp_path / "run")})))
    extra = {"gen-data": ["--out", str(tmp_path / "data")], "train": ["-c", str(cfg)]}
    assert _run([*argv, *extra.get(argv[0], [])]) == (2, "", line + "\n")


@pytest.mark.parametrize("argv,line", [
    (["train"], "config error: train needs --config (or use --print-config for defaults)"),
    (["train", "-c", "nope.json"], "config error: cannot read config 'nope.json': "
     "[Errno 2] No such file or directory: 'nope.json'"),
])
def test_a_missing_config_exits_two_in_one_line(tmp_path, monkeypatch, argv, line):
    monkeypatch.chdir(tmp_path)
    assert _run(argv) == (2, "", line + "\n")
    assert os.listdir(tmp_path) == []


def test_float_leaves_store_integers_as_floats_when_they_fit():
    cfg = resolve({"optimizer": {"lr": 1}, "data": {"means": [[2, 0], [0, -2]]}})
    assert type(cfg["optimizer"]["lr"]) is float and cfg["optimizer"]["lr"] == 1.0
    assert all(type(v) is float for row in cfg["data"]["means"] for v in row)
    too_big = r"^optimizer\.lr: expected a finite number, got 10{400}$"
    with pytest.raises(ConfigError, match=too_big):
        resolve({"optimizer": {"lr": 10**400}})


def test_a_float_leaf_takes_the_largest_finite_float():
    biggest = 1.7976931348623157e308
    assert resolve({"optimizer": {"lr": biggest}})["optimizer"]["lr"] == biggest
    assert resolve({"saflex": {"tau": -biggest}})["saflex"]["tau"] == -biggest


def test_an_empty_list_leaf_is_kept():
    assert resolve({"model": {"hidden": []}})["model"]["hidden"] == []
