"""Over-augmentation sweep on the two-Gaussians task (acceptance criterion 6).

Trains the no-augmentation baseline, naive jitter augmentation, and the
assignment-based pipeline over the jitter strengths `SIGMAS`, averaged over
`SEEDS`. These are the frozen runs of criterion 6: `run_point` is the one
definition of them, and tests/test_acceptance.py imports it. Prints the
accuracy table, then writes one metrics CSV per (mode, sigma, seed) into
`--out`, the only flag, all together once every run is done.

    python3 scripts/jitter_sweep.py --out runs/sweep
"""

import argparse
import os

import numpy as np

from saflex.augment import AugmenterSpec
from saflex.core import SaflexConfig
from saflex.data import SplitSpec, gen_two_gaussians, write_files
from saflex.trainer import RunConfig, metrics_csv, train

SIGMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
SEEDS = range(5)


def run_point(mode, sigma, seed):
    """The history of one frozen sweep run."""
    ds = gen_two_gaussians(2000, sigma=1.0, seed=100 + seed)
    run = RunConfig(
        hidden=(32, 32), lr=0.25, epochs=15, batch_size=64, mode=mode,
        augment=AugmenterSpec(kind="gaussian_jitter", sigma=sigma),
        saflex=SaflexConfig(beta=0.0, tau=0.01, gumbel_enabled=True),
        split=SplitSpec(0.6, 0.2, 0.2, seed=seed), seed=seed,
    )
    history, _ = train(run, ds)
    return history


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/jitter_sweep")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    files = {}
    baseline = []
    for seed in SEEDS:
        history = run_point("none", 0.0, seed)
        files[os.path.join(args.out, f"none_seed{seed}.csv")] = metrics_csv(history)
        baseline.append(history[-1].test_acc)
    print(f"no augmentation: {np.mean(baseline):.4f} +- {np.std(baseline):.4f}")

    header = f"{'sigma':>6} {'naive':>16} {'saflex':>16}"
    print(header)
    for sigma in SIGMAS:
        row = {}
        for mode in ("naive", "saflex"):
            accs = []
            for seed in SEEDS:
                history = run_point(mode, sigma, seed)
                tag = f"{mode}_sigma{sigma}_seed{seed}".replace(".", "p")
                files[os.path.join(args.out, f"{tag}.csv")] = metrics_csv(history)
                accs.append(history[-1].test_acc)
            row[mode] = (np.mean(accs), np.std(accs))
        print(f"{sigma:6.2f} {row['naive'][0]:8.4f} +-{row['naive'][1]:.4f} "
              f"{row['saflex'][0]:8.4f} +-{row['saflex'][1]:.4f}")
    write_files(files)


if __name__ == "__main__":
    main()
