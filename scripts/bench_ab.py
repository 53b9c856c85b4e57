"""Run the benchmark on a base commit and on this checkout in alternating pairs.

    python3 scripts/bench_ab.py BASE --workload jitter2d --pairs 10
    python3 scripts/bench_ab.py BASE --workload image_crop --pairs 3 --seconds 30 --seed 100

BASE is any commit git can name; it runs in a detached git worktree that
is removed either way, also when the script is interrupted or
terminated. Pair i runs seed S0 + i (`--seed`, default 0) on both sides,
the base first in even pairs and this checkout first in odd ones (ABBA),
each side a fresh `python3 perfbench/run.py --workload W --seed S
--seconds S --trace 0` run from its own tree (`--seconds` defaults to
BENCHMARK.json's `run_seconds`, 30).

For each end-to-end metric of BENCHMARK.json it prints every pair's two
values, both medians, the base's interquartile range (IQR), the ratio of
the medians (this checkout / base), the pairs this checkout wins by the
metric's `better` (ties count for neither side), an exact two-sided sign
test over the untied pairs, and whether the gain rule holds: at least 10
pairs, a win in at least 9 of every 10 pairs run, and medians apart in
the better direction by more than the base's IQR.

It exits 1 if a run exits nonzero, does not end on its JSON result line
or reports a failed check, or if the two sides' `digest` lines differ at
a seed; 2 if a git command fails; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

import numpy as np

from bench_record import parse_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(Exception):
    """A benchmark run that exited nonzero, printed no result or failed a check."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as scripts/bench_record.py summarizes a metric."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of wins against losses under a fair coin."""
    n, tail = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    return min(1.0, 2 * sum(math.comb(n, j) for j in range(tail + 1)) / 2**n)


def judge(base: list[float], head: list[float], better: str) -> dict:
    """The statistics of one metric over pairs (base[i], head[i])."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    iqr = q3 - q1
    pairs = len(base)
    return {
        "base_median": base_median,
        "head_median": head_median,
        "base_iqr": iqr,
        "ratio": head_median / base_median,
        "wins": wins,
        "losses": losses,
        "sign_p": sign_test_p(wins, losses),
        "gain_rule": pairs >= 10 and 10 * wins >= 9 * pairs
                     and sign * (head_median - base_median) > iqr,
    }


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in tree: its digest lines and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # each tree's run.py puts that tree's src first; an inherited PYTHONPATH stays out
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    where = f"{' '.join(cmd[1:])} in {tree}"
    if proc.returncode != 0:
        raise RunFailed(f"{where} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    try:
        run = parse_run(proc.stdout)
    except ValueError:
        raise RunFailed(f"{where} did not end on its JSON line\n{proc.stdout}") from None
    if run["result"]["failed"]:
        raise RunFailed(f"{where} failed {run['result']['failed']} checks\n{proc.stdout}")
    return run


def digest_mismatch(seed: int, base: dict, head: dict) -> list[str]:
    """The digest lines of one seed that only one side printed, marked - (base) or + (head)."""
    b, h = base["digests"], head["digests"]
    if sorted(b) == sorted(h):
        return []
    return ([f"seed {seed}: - {line}" for line in b if line not in h]
            + [f"seed {seed}: + {line}" for line in h if line not in b])


def report(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One block per end-to-end metric over the pairs' results."""
    lines = []
    for m in metrics:
        name = m["name"]
        base = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
        head = [h["result"]["metrics"][name]["value"] for _, h in pairs]
        s = judge(base, head, m["better"])
        lines += [
            f"{name} ({m['unit']}, {m['better']} is better)",
            "  base: " + " ".join(f"{v:.6g}" for v in base),
            "  head: " + " ".join(f"{v:.6g}" for v in head),
            f"  median {s['base_median']:.6g} -> {s['head_median']:.6g}, "
            f"ratio {s['ratio']:.4f}, base IQR {s['base_iqr']:.4g}, "
            f"wins {s['wins']}/{len(pairs)} (losses {s['losses']}), "
            f"sign p {s['sign_p']:.3g}, gain rule {'holds' if s['gain_rule'] else 'fails'}",
        ]
    return lines


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(base: str, workload: str, pairs: int, seconds: float, seed0: int) -> int:
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}")
    print(f"bench_ab: {workload}, {pairs} pairs of {seconds:g}-s runs, seeds {seed0}.."
          f"{seed0 + pairs - 1}; base {base} ({sha[:12]}), head this checkout")
    results: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "base")
        git("worktree", "add", "--detach", tree, sha)
        try:
            for i in range(pairs):
                seed = seed0 + i
                order = (("base", tree), ("head", ROOT))
                runs = {}
                for side, where in order if i % 2 == 0 else order[::-1]:
                    print(f"pair {i} seed {seed}: {side}", file=sys.stderr)
                    runs[side] = run_once(where, workload, seed, seconds)
                mismatch = digest_mismatch(seed, runs["base"], runs["head"])
                if mismatch:
                    print("digest lines differ:", *mismatch, sep="\n")
                    return 1
                results.append((runs["base"], runs["head"]))
        except RunFailed as exc:
            print(f"failed run: {exc}")
            return 1
        finally:
            git("worktree", "remove", "--force", tree)
    print(f"digest lines equal at every seed ({len(results[0][0]['digests'])} per run)")
    print("\n".join(report(benchmark()["end_to_end"], results)))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="the commit to compare this checkout against")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--seed", type=int, default=0, help="seed of pair 0; pair i runs seed + i")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    # a terminated run unwinds as an interrupted one does: the running
    # benchmark is killed and the worktree removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return compare(args.base, args.workload, args.pairs, args.seconds, args.seed)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        if exc.stderr:
            sys.stderr.write(exc.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
