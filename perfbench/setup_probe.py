"""Set-up probe: a fresh interpreter that stops at the first training iteration.

Usage: python3 setup_probe.py <src dir> <config.json>

Imports saflex, resolves the config, loads the input, and calls
trainer.train, whose observer ends the run at the first iteration. The
last line printed is the CLOCK_MONOTONIC time of that moment, which the
parent subtracts from the time it started this process.
"""

import sys
import time


class _FirstIteration(Exception):
    pass


def _stop(*_args) -> None:
    raise _FirstIteration


def main() -> int:
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from dataclasses import replace

    from saflex import config, data, trainer

    from inputs import load_dataset

    cfg = config.load_config(config_path)
    ds = load_dataset(data, cfg)
    run = replace(config.build_run_config(cfg), standardize=True)
    try:
        trainer.train(run, ds, observer=_stop)
    except _FirstIteration:
        print(f"first_iteration {time.monotonic()!r}")
        return 0
    print("no training iteration ran", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
