"""Compare the pinned-run digests of a base commit and of this checkout.

    python3 scripts/digest_diff.py BASE

BASE is any commit git can name. The script takes BASE's
`scripts/pinned_digests.py` and runs it twice: against BASE's `src`, in a
detached git worktree, and against this checkout's `src`. It prints the
unified diff of the two outputs and exits 1 if they differ, 0 if every
line matches, and 2 if a git command or a digest run fails. The worktree
is removed either way. Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def digests(script: str, src: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, script], env=env, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return out.splitlines(keepends=True)


def compare(base: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        script = os.path.join(tmp, "pinned_digests.py")
        with open(script, "w") as f:
            f.write(git("show", f"{base}:scripts/pinned_digests.py"))
        tree = os.path.join(tmp, "base")
        git("worktree", "add", "--detach", tree, base)
        try:
            want = digests(script, os.path.join(tree, "src"))
        finally:
            git("worktree", "remove", "--force", tree)
        got = digests(script, os.path.join(ROOT, "src"))
    diff = list(difflib.unified_diff(want, got, f"{base} src", "this src"))
    sys.stdout.writelines(diff)
    if diff:
        return 1
    print(f"{len(got)} pinned digests identical to {base}'s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit whose script and src are the reference")
    try:
        return compare(parser.parse_args(argv).base)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        if exc.stderr:
            sys.stderr.write(exc.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
