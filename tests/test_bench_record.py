"""The summary step of scripts/bench_record.py, on canned benchmark output."""

import json
import subprocess

import pytest

from conftest import load_script

bench_record = load_script("bench_record")


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
    margins = ["[criterion 1] PASS - closed form attains enumerated optimum: 300 instances"]
    rec = bench_record.summarize("image_crop", outputs, "abc123", True, margins)
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
    assert rec["acceptance"] == margins
    json.dumps(rec)  # the record is plain JSON


_PYTEST_OUTPUT = """\
[criterion 1] PASS - closed form attains enumerated optimum: 300/300 instances, max gap 0.0
.[criterion 2] PASS - reverse/forward mode vs finite differences: worst rel err 3.1e-07
.[criterion 9] FAIL - per-epoch overhead: image/crop config: ratio 2.61 (ceiling 2.5); \
minimal 2-D jitter config ratio 2.17 (context only)
F
=================================== FAILURES ===================================
E   assert 2.61 <= 2.5
FAILED tests/test_acceptance.py::test_criterion_9_overhead - assert 2.61 <= 2.5
1 failed, 2 passed in 30.12s
"""


def test_acceptance_margins_are_the_criterion_lines_without_progress_dots():
    assert bench_record.acceptance_margins(_PYTEST_OUTPUT) == [
        "[criterion 1] PASS - closed form attains enumerated optimum: 300/300 instances, "
        "max gap 0.0",
        "[criterion 2] PASS - reverse/forward mode vs finite differences: worst rel err 3.1e-07",
        "[criterion 9] FAIL - per-epoch overhead: image/crop config: ratio 2.61 (ceiling 2.5); "
        "minimal 2-D jitter config ratio 2.17 (context only)",
    ]
    assert bench_record.acceptance_margins("3 passed in 1.0s\n") == []


def test_output_that_is_not_one_run_is_refused():
    with pytest.raises(ValueError, match="not the output"):
        bench_record.summarize("jitter2d", ["metric x = 1\n"], "abc", False, [])
    with pytest.raises(ValueError, match="not the output"):
        bench_record.parse_run(_canned(1, 1.0, 1.0) * 2)
