"""Run the benchmark several times per workload and write BENCH_<workload>.json.

    python3 scripts/bench_record.py             # 3 runs per workload
    python3 scripts/bench_record.py --runs 5

It runs `perfbench/run.py --trace 0 --seconds 30` N times for every
workload in BENCHMARK.json, the workloads round-robin (run i, counted
from 1, uses seed i), and writes BENCH_<workload>.json at the repository
root with:

* the commit and whether the tree had uncommitted changes;
* the `env` line of each run (host, Python, numpy, BLAS);
* per end-to-end metric: its unit, median, quartiles and every value;
* attempted and failed operations, summed over the runs;
* every `digest` line.

Each run takes about 30 s plus a few seconds of set-up probes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(text: str) -> dict:
    """The env, digest lines and result object of one `perfbench/run.py` output."""
    lines = text.splitlines()
    env = [json.loads(ln[len("env "):]) for ln in lines if ln.startswith("env ")]
    if len(env) != 1 or not lines or not lines[-1].startswith("{"):
        raise ValueError("not the output of one perfbench/run.py run")
    return {
        "env": env[0],
        "digests": [ln for ln in lines if ln.startswith("digest ")],
        "result": json.loads(lines[-1]),
    }


def summarize(workload: str, outputs: list[str], commit: str, dirty: bool) -> dict:
    """The record of one workload from the stdout of each of its runs."""
    runs = [parse_run(text) for text in outputs]
    metrics: dict[str, dict] = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    for entry in metrics.values():
        finite = [v for v in entry["values"] if v is not None]
        q = [float(x) for x in np.percentile(finite, [25, 50, 75])] if finite else [None] * 3
        entry.update(median=q[1], q1=q[0], q3=q[2])
    return {
        "workload": workload,
        "commit": commit,
        "dirty": dirty,
        "runs": len(runs),
        "env": [run["env"] for run in runs],
        "metrics": metrics,
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "digests": [d for run in runs for d in run["digests"]],
    }


def workloads() -> list[str]:
    """The benchmark's workloads, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=3)
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    commit = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain"))
    outputs: dict[str, list[str]] = {w: [] for w in workloads()}
    for seed in range(1, args.runs + 1):
        for workload in outputs:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", "30", "--trace", "0"]
            print("running " + " ".join(cmd[1:]), file=sys.stderr)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            outputs[workload].append(proc.stdout)
    for workload, texts in outputs.items():
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(summarize(workload, texts, commit, dirty), f, indent=2)
            f.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
