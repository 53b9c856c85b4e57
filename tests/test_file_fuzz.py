"""File fuzzing: a truncated or bit-flipped input file never ends in a traceback.

Each example corrupts one valid file (a checkpoint, a raw image file, a CSV
or its schema) with one to three truncations and bit flips, then runs
`saflex eval` on it and, for a data file, `saflex train` at one epoch, both
in process. Every command returns 0, 2 or 3, and a failure prints one line.
A corrupted CSV or schema also loads, in 7-row chunks, to the same Dataset
or the same error as through the whole-file reference loader.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_outcome
from reference import load_csv_unchunked, save_images_raw
from saflex import data as saflex_data
from saflex.cli import main
from saflex.nn import init_mlp, save_checkpoint

TINY = {"model": {"hidden": [4]}, "train": {"epochs": 1, "batch_size": 16}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files, by name: a 3-class CSV and schema, 4x4 images, a checkpoint for each."""
    d = tmp_path_factory.mktemp("fuzz_inputs")
    g = np.random.default_rng(0)
    labels = g.integers(0, 3, size=48)
    with open(d / "data.csv", "w") as f:
        f.write("a,c,label\n")
        for y, a in zip(labels, g.standard_normal(48)):
            f.write(f"{float(a + y)!r},{'uvw'[y]},class{y}\n")
    (d / "schema.csv").write_text("a,continuous\nc,categorical,3\nlabel,label\n")
    pixels = g.integers(0, 256, size=(40, 4, 4)).astype(np.uint8)
    save_images_raw(pixels, (pixels.mean(axis=(1, 2)) > 127).astype(np.uint8), 2,
                    str(d / "images.bin"))
    save_checkpoint(init_mlp([4, 4, 3]), str(d / "csv.ckpt"))
    save_checkpoint(init_mlp([16, 4, 2]), str(d / "images.ckpt"))
    return {p.name: str(p) for p in d.iterdir()}


# which files each corrupted file is run with: (data kind, checkpoint, whether to train)
RUNS = {
    "data.csv": ("csv", "csv.ckpt", True),
    "schema.csv": ("csv", "csv.ckpt", True),
    "images.bin": ("images", "images.ckpt", True),
    "csv.ckpt": ("csv", "csv.ckpt", False),
    "images.ckpt": ("images", "images.ckpt", False),
}

MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
)


def _corrupt(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for kind, where, *bit in mutations:
        if kind == "truncate":
            del out[int(where * len(out)):]
        elif out:
            out[int(where * len(out))] ^= 1 << bit[0]
    return bytes(out)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RUNS)), st.lists(MUTATION, min_size=1, max_size=3))
def test_corrupted_files_exit_0_2_or_3_with_at_most_one_error_line(inputs, target, mutations):
    kind, ckpt, trains = RUNS[target]
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(inputs)
        paths[target] = os.path.join(tmp, target)
        with open(inputs[target], "rb") as src, open(paths[target], "wb") as dst:
            dst.write(_corrupt(src.read(), mutations))
        data = ({"kind": "csv", "path": paths["data.csv"], "schema": paths["schema.csv"]}
                if kind == "csv" else {"kind": "images", "path": paths["images.bin"]})
        augment = {"kind": "cutmix_tabular" if kind == "csv" else "crop_flip", "pad": 1}
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as f:
            json.dump({**TINY, "data": data, "augment": augment,
                       "output": {"dir": os.path.join(tmp, "run")}}, f)
        if kind == "csv":
            csv_paths = (paths["data.csv"], paths["schema.csv"])
            want = load_outcome(load_csv_unchunked, *csv_paths)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(saflex_data, "CSV_CHUNK_ROWS", 7)
                assert load_outcome(saflex_data.load_csv, *csv_paths) == want
        commands = [["eval", "-c", cfg, "--checkpoint", paths[ckpt]]]
        if trains:
            commands.append(["train", "-c", cfg])
        for argv in commands:
            rc, err = _run(argv)
            assert rc in (0, 2, 3), (argv[0], rc, err)
            assert err.count("\n") == (rc != 0), (argv[0], rc, err)
