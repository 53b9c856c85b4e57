"""scripts/bench_ab.py: its statistics on fixed numbers, its refusals on
canned runs, and one short run of HEAD against this checkout."""

import os
import subprocess
import sys

import pytest

from conftest import load_script

bench_ab = load_script("bench_ab")


def test_sign_test_p_is_the_exact_two_sided_binomial_tail():
    assert bench_ab.sign_test_p(10, 0) == 2 / 1024
    assert bench_ab.sign_test_p(9, 1) == bench_ab.sign_test_p(1, 9) == 2 * 11 / 1024
    assert bench_ab.sign_test_p(3, 1) == 2 * 5 / 16
    assert bench_ab.sign_test_p(5, 5) == bench_ab.sign_test_p(0, 0) == 1.0


def test_judge_counts_wins_by_better_and_applies_the_gain_rule():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    head = [b + 10.0 for b in base]
    s = bench_ab.judge(base, head, "higher")
    assert (s["base_median"], s["head_median"], s["base_iqr"]) == (104.5, 114.5, 4.5)
    assert s["ratio"] == 114.5 / 104.5
    assert (s["wins"], s["losses"], s["sign_p"], s["gain_rule"]) == (10, 0, 2 / 1024, True)
    # the same numbers where lower is better: every pair lost
    s = bench_ab.judge(base, head, "lower")
    assert (s["wins"], s["losses"], s["gain_rule"]) == (0, 10, False)
    # 9 of 10 still holds; a tie counts for neither side, so 8 wins and a tie fail
    assert bench_ab.judge(base, head[:9] + [90.0], "higher")["gain_rule"]
    tied = bench_ab.judge(base, head[:8] + [base[8], 90.0], "higher")
    assert (tied["wins"], tied["losses"], tied["gain_rule"]) == (8, 1, False)
    # medians closer than the base's IQR, and fewer than 10 pairs, fail
    assert not bench_ab.judge(base, [b + 4.0 for b in base], "higher")["gain_rule"]
    assert not bench_ab.judge(base[:9], head[:9], "higher")["gain_rule"]


def _run(seed, digest="ab", rate=1.0):
    return {"env": {}, "digests": [f"digest jitter2d seed={seed} mode=none sha256={digest}"],
            "result": {"failed": 0, "metrics": {
                m["name"]: {"value": rate, "unit": m["unit"]}
                for m in bench_ab.benchmark()["end_to_end"]}}}


def _fake_compare(monkeypatch, capsys, run_once):
    monkeypatch.setattr(bench_ab, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    code = bench_ab.compare("BASE", "jitter2d", 2, 0.5, 7)
    return code, capsys.readouterr().out


def test_compare_exits_1_when_a_seed_prints_other_digests(monkeypatch, capsys):
    def run_once(tree, workload, seed, seconds):
        return _run(seed, digest="cd" if tree == bench_ab.ROOT and seed == 8 else "ab")

    code, out = _fake_compare(monkeypatch, capsys, run_once)
    assert code == 1
    assert out.splitlines()[1:] == [
        "digest lines differ:",
        "seed 8: - digest jitter2d seed=8 mode=none sha256=ab",
        "seed 8: + digest jitter2d seed=8 mode=none sha256=cd",
    ]


def test_compare_exits_1_on_a_failed_run_and_reports_equal_runs(monkeypatch, capsys):
    def failing(tree, workload, seed, seconds):
        raise bench_ab.RunFailed("perfbench/run.py exited 2")

    assert _fake_compare(monkeypatch, capsys, failing) == (
        1, "bench_ab: jitter2d, 2 pairs of 0.5-s runs, seeds 7..8; base BASE (000000000000), "
           "head this checkout\nfailed run: perfbench/run.py exited 2\n")
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree == bench_ab.ROOT, workload, seed, seconds))
        return _run(seed)

    code, out = _fake_compare(monkeypatch, capsys, run_once)
    assert code == 0
    # ABBA: the base first in pair 0, this checkout first in pair 1
    assert calls == [(False, "jitter2d", 7, 0.5), (True, "jitter2d", 7, 0.5),
                     (True, "jitter2d", 8, 0.5), (False, "jitter2d", 8, 0.5)]
    assert "digest lines equal at every seed (1 per run)" in out
    assert "  median 1 -> 1, ratio 1.0000, base IQR 0, wins 0/2 (losses 0), sign p 1, " \
           "gain rule fails" in out


@pytest.mark.parametrize("body, reason", [
    ("raise SystemExit(2)", "exited 2"),
    ("print('env {}'); print('metric x = 1.0')", "did not end on its JSON line"),
    ("print('env {}'); print(json.dumps({'failed': 1, 'metrics': {}}))", "failed 1 checks"),
], ids=["nonzero_exit", "no_json_line", "failed_check"])
def test_run_once_refuses_a_run_that_did_not_succeed(tmp_path, body, reason):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(f"import json\n{body}\n")
    with pytest.raises(bench_ab.RunFailed, match=reason):
        bench_ab.run_once(str(tmp_path), "jitter2d", 0, 0.5)


def _worktrees():
    """`git worktree list` of this checkout; skips the test outside a git checkout."""
    root = bench_ab.ROOT
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=root,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a HEAD commit")
    return subprocess.run(["git", "worktree", "list"], cwd=root, capture_output=True,
                          text=True).stdout


def _bench_ab(*args):
    return [sys.executable, os.path.join(bench_ab.ROOT, "scripts", "bench_ab.py"), "HEAD",
            "--workload", "jitter2d", *args]


def test_head_against_this_checkout_prints_equal_digests(tmp_path):
    worktrees = _worktrees()
    proc = subprocess.run(_bench_ab("--pairs", "1", "--seconds", "0.5", "--seed", "3"),
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digest lines equal at every seed (4 per run)" in proc.stdout
    for m in bench_ab.benchmark()["end_to_end"]:
        assert f"\n{m['name']} ({m['unit']}, {m['better']} is better)\n" in proc.stdout
    assert _worktrees() == worktrees


def test_a_terminated_comparison_removes_its_worktree(tmp_path):
    worktrees = _worktrees()
    proc = subprocess.Popen(_bench_ab("--pairs", "1", "--seconds", "60"), cwd=tmp_path,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        # the first progress line comes once the worktree exists
        assert proc.stderr.readline().startswith("pair 0 seed 0: base")
        assert _worktrees() != worktrees
        proc.terminate()
        proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode != 0
    assert _worktrees() == worktrees
