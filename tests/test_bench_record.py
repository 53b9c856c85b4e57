"""The summary step of scripts/bench_record.py, on canned benchmark output."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _canned(seed, none_rate, ratio, failed=0):
    env = {"workload": "image_crop", "seed": seed, "nproc": 2, "numpy": "2.4.6"}
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {
            "samples_per_s.none": {"value": none_rate, "unit": "rows/s"},
            "overhead_ratio": {"value": ratio, "unit": "x"},
        },
    }
    return "\n".join([
        "env " + json.dumps(env),
        "info reference loop: median 20.0 ms over 90 rounds, nominal 13 ms",
        f"digest image_crop seed={seed} mode=none sha256=ab{seed}",
        f"digest image_crop oracle-check cd{seed}",
        "metric samples_per_s.none = 1.0 rows/s",
        json.dumps(result),
    ]) + "\n"


def test_summary_of_canned_runs(monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("the summary step must start no process")

    monkeypatch.setattr(subprocess, "run", no_runs)
    outputs = [_canned(1, 300.0, 1.8), _canned(2, 100.0, None, failed=2),
               _canned(3, 200.0, 1.6), _canned(4, 400.0, 1.7)]
    rec = bench_record.summarize("image_crop", outputs, "abc123", True)
    assert (rec["workload"], rec["commit"], rec["dirty"], rec["runs"]) == (
        "image_crop", "abc123", True, 4)
    assert [e["seed"] for e in rec["env"]] == [1, 2, 3, 4]
    none = rec["metrics"]["samples_per_s.none"]
    assert none == {"unit": "rows/s", "values": [300.0, 100.0, 200.0, 400.0],
                    "median": 250.0, "q1": 175.0, "q3": 325.0}
    ratio = rec["metrics"]["overhead_ratio"]  # a non-finite value is kept, not summarized
    assert ratio["values"] == [1.8, None, 1.6, 1.7]
    assert (ratio["q1"], ratio["median"], ratio["q3"]) == pytest.approx((1.65, 1.7, 1.75))
    assert (rec["attempted"], rec["failed"]) == (400, 2)
    assert rec["digests"][:2] == ["digest image_crop seed=1 mode=none sha256=ab1",
                                  "digest image_crop oracle-check cd1"]
    assert len(rec["digests"]) == 8
    json.dumps(rec)  # the record is plain JSON


def test_output_that_is_not_one_run_is_refused():
    with pytest.raises(ValueError, match="not the output"):
        bench_record.summarize("jitter2d", ["metric x = 1\n"], "abc", False)
    with pytest.raises(ValueError, match="not the output"):
        bench_record.parse_run(_canned(1, 1.0, 1.0) * 2)
