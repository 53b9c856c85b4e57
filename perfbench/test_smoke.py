"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that one short run emits exactly the metrics BENCHMARK.json
names, each with its unit, and that a changed output digest counts as a
failed operation.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_workloads_match_the_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tabular_cutmix",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), name


def _train_tiny(saflex_trainer, saflex_data):
    ds = saflex_data.gen_two_gaussians(200, seed=3)
    cfg = saflex_trainer.RunConfig(epochs=2, mode="saflex")
    return saflex_trainer.train(cfg, ds)


def test_corrupted_digest_is_a_failed_operation():
    from saflex import data, trainer

    cols = trainer.METRICS_COLUMNS
    checks = run.Checks()
    history, params = _train_tiny(trainer, data)
    first = run.training_digest(cols, history, params)
    assert checks.record("train", checks.digest("saflex", first))

    # a rerun differs only in the wall-clock column, which the digest leaves out
    history2, params2 = _train_tiny(trainer, data)
    for row in history2:
        row.sec_per_epoch += 1.0
    assert checks.record("train", checks.digest("saflex", run.training_digest(cols, history2, params2)))

    # one parameter one ulp away is a different output
    params2.weights[0][0, 0] = np.nextafter(params2.weights[0][0, 0], np.inf)
    corrupted = run.training_digest(cols, history2, params2)
    assert corrupted != first
    assert not checks.record("train", checks.digest("saflex", corrupted))
    assert (checks.attempted, checks.failed) == (3, 1)
    assert "differs from the first repetition" in checks.problems[0]


def test_oracle_output_without_a_zero_gap_fails():
    good = (f"instances: {run.ORACLE_N}  samples: 200\nmax |objective gap|: 0.0\n"
            "oracle-check: PASS\n")
    assert run.oracle_problems(0, good) == []
    assert run.oracle_problems(0, good.replace("gap|: 0.0", "gap|: 1e-17"))
    assert run.oracle_problems(3, good)
