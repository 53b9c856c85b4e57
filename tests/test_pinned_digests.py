"""scripts/pinned_digests.py runs against this checkout's src.

A comparison against a base commit runs the base's copy of the script, so
only this test runs this checkout's copy before a later change relies on it.
"""

import re

from conftest import load_script

# the runs the script pinned when this test was written; it may add more
MIN_LINES = 65


def test_pinned_digests_prints_one_unique_labelled_sha256_per_run(capsys):
    assert load_script("pinned_digests").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= MIN_LINES
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  \S.*", line), line
    labels = [line[66:] for line in lines]
    assert len(set(labels)) == len(labels)
