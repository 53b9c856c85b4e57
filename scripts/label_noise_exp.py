"""Label-noise correction experiment (acceptance criterion 7).

Stacks a known-rate label corruptor on top of feature jitter, then checks
whether the assignment step (a) recovers the accuracy the naive pipeline
loses and (b) targets its relabeling at the actually-corrupted samples.
The harness knows which labels it flipped, so relabel precision is
measured against ground truth. These are the frozen runs of criterion 7:
`run_mode` is the one definition of them, and tests/test_acceptance.py
imports it. The script takes no flags.

    python3 scripts/label_noise_exp.py
"""

import argparse

import numpy as np

from saflex.augment import AugmenterSpec
from saflex.core import SaflexConfig
from saflex.data import SplitSpec, gen_two_gaussians
from saflex.trainer import RunConfig, train

SEEDS = range(5)


def run_mode(mode, seed):
    """One frozen run: its final test accuracy and, for saflex, the relabel counts."""
    ds = gen_two_gaussians(2000, sigma=1.0, seed=100 + seed)
    counts = dict(hit=0, miss=0, changed=0, total=0)

    def observer(epoch, it, base, aug, out):
        if out is None or epoch == 0:
            return
        corrupted = aug.hard_labels != base.hard_labels
        changed = out.soft_labels.argmax(axis=1) != aug.hard_labels
        counts["hit"] += int((changed & corrupted).sum())
        counts["miss"] += int((changed & ~corrupted).sum())
        counts["changed"] += int(changed.sum())
        counts["total"] += aug.size

    run = RunConfig(
        hidden=(32, 32), lr=0.25, epochs=30, batch_size=32, mode=mode,
        val_batch_size=512,
        augment=AugmenterSpec(kind="gaussian_jitter", sigma=0.5, flip_rate=0.3),
        saflex=SaflexConfig(beta=0.5, tau=0.01, gumbel_enabled=False),
        split=SplitSpec(0.1, 0.7, 0.2, seed=seed), seed=seed,
    )
    history, _ = train(run, ds, observer=observer if mode == "saflex" else None)
    return history[-1].test_acc, counts


def relabel_rates(counts):
    """Pooled over runs' counts: the fraction of augmented samples relabeled,
    and the precision of those relabels against the corruption mask."""
    hit, miss, changed, total = (sum(c[key] for c in counts)
                                 for key in ("hit", "miss", "changed", "total"))
    return changed / total, hit / max(1, hit + miss)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    for mode in ("none", "naive"):
        accs = [run_mode(mode, s)[0] for s in SEEDS]
        print(f"{mode:7s}: {np.mean(accs):.4f} +- {np.std(accs):.4f}")

    runs = [run_mode("saflex", s) for s in SEEDS]
    accs = [acc for acc, _ in runs]
    frac_changed, precision = relabel_rates([c for _, c in runs])
    print(f"saflex : {np.mean(accs):.4f} +- {np.std(accs):.4f}")
    print(f"relabeled {frac_changed:.3f} of augmented samples; "
          f"precision vs corruption mask {precision:.3f}")


if __name__ == "__main__":
    main()
