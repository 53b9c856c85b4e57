"""Command-line entry point.

Subcommands: gen-data, train, eval, oracle-check. Exit codes: 0 success,
2 configuration/usage error or an allocation larger than memory, 3
numerical failure. SAFLEX_THREADS is validated here; nothing reads it
yet, as no code path starts workers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .config import ConfigError
from .core import SaflexConfig, SaflexOutput, pi_scores, saflex_assign
from .nn import block_spans, init_mlp, load_checkpoint, save_checkpoint, ModelParams, ParamGrad
from .oracle import (
    ENUM_MAX_B,
    ENUM_MAX_K,
    enumerate_optimum_scores,
    pi_scores_reverse,
)
# not called here; perfbench/tracing.py wraps cli.assignment_objective, so the name stays
from .oracle import assignment_objective  # noqa: F401
from .rng import stream, thread_cap
from .trainer import DivergenceError, evaluate, run_splits, train, write_metrics_csv


def _build_dataset(d: dict, prefix: str) -> datamod.Dataset:
    """The dataset of a config's data section or gen-data's flags; prefix names their keys."""
    kind = d["kind"]
    try:
        if kind == "two_gaussians":
            return datamod.gen_two_gaussians(d["n"], d["means"], d["sigma"], seed=d["seed"])
        if kind == "two_moons":
            return datamod.gen_two_moons(d["n"], d["sigma"], d["seed"])
    except datamod.RangeError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc
    if kind == "csv":
        return datamod.load_csv(cfgmod.require(d, prefix, "path"),
                                cfgmod.require(d, prefix, "schema"))
    if kind == "images":
        return datamod.load_images_raw(cfgmod.require(d, prefix, "path"))
    raise ConfigError(f"{prefix}kind must be two_gaussians|two_moons|csv|images, got {kind!r}")


def cmd_gen_data(args: argparse.Namespace) -> int:
    d = {"kind": args.kind, "n": args.n, "sigma": args.sigma, "seed": args.seed,
         "means": datamod.TWO_GAUSSIANS_MEANS}
    if args.kind == "csv_passthrough":  # validate + re-emit an existing pair
        if not args.input or not args.input_schema:
            raise ConfigError("csv_passthrough needs --input and --input-schema")
        d.update(kind="csv", path=args.input, schema=args.input_schema)
    ds = _build_dataset(d, "--")
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    schema_path = os.path.join(args.out, "schema.csv")
    datamod.save_csv(ds, data_path, schema_path)
    print(f"wrote {data_path} ({ds.size} rows, {ds.num_classes} classes) and {schema_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.print_config:
        cfg = cfgmod.load_config(args.config) if args.config else cfgmod.resolve({})
        cfgmod.build_run_config(cfg)  # refused as `train` refuses it; data.* waits for the data
        sys.stdout.write(cfgmod.dump(cfg))
        return 0
    if not args.config:
        raise ConfigError("train needs --config (or use --print-config for defaults)")
    cfg = cfgmod.load_config(args.config)
    out_dir = args.output_dir or cfg["output"]["dir"]
    points = [(cfg, out_dir)]
    if args.sweep_sigma:
        try:
            sigmas = [float(s) for s in args.sweep_sigma.split(",") if s.strip()]
        except ValueError:  # not a number: rejected below, with the empty grid
            sigmas = []
        if not sigmas or not all(0 <= s < np.inf for s in sigmas):
            raise ConfigError(f"--sweep-sigma wants finite numbers >= 0, got {args.sweep_sigma!r}")
        # a repeat would train the same run again into the same directory
        repeated = [s for i, s in enumerate(sigmas) if s in sigmas[:i]]
        if repeated:
            raise ConfigError(f"--sweep-sigma names {repeated[0]!r} more than once, "
                              f"got {args.sweep_sigma!r}")
        # only gaussian_jitter reads augment.sigma, and mode none augments nothing:
        # any other sweep would repeat one run under every grid point
        mode, kind = cfg["train"]["mode"], cfg["augment"]["kind"]
        if mode == "none" or kind != "gaussian_jitter":
            key = f"train.mode {mode!r}" if mode == "none" else f"augment.kind {kind!r}"
            raise ConfigError(f"--sweep-sigma varies augment.sigma, which {key} does not read "
                              "(only gaussian_jitter in mode naive or saflex does)")
        points = []
        for sigma in sigmas:
            point = json.loads(json.dumps(cfg))
            point["augment"]["sigma"] = sigma
            tag = repr(sigma).replace(".", "p")
            points.append((point, os.path.join(out_dir, f"sigma_{tag}")))
    # the points differ only in augment.sigma: one load serves all
    ds = _build_dataset(cfg["data"], "data.")
    for point, run_dir in points:
        # a run that fails (exit 2 or 3) writes nothing, but a failed write
        # keeps what came before it: a cut-short checkpoint.bin beside complete
        # metrics.csv and resolved_config.json (ROADMAP item 15)
        history, params = train(cfgmod.build_run_config(point), ds)
        os.makedirs(run_dir, exist_ok=True)
        resolved = json.loads(json.dumps(point))
        resolved["output"]["dir"] = run_dir
        config_path = os.path.join(run_dir, "resolved_config.json")
        with datamod.writing(config_path), open(config_path, "w") as f:
            f.write(cfgmod.dump(resolved))
        write_metrics_csv(history, os.path.join(run_dir, "metrics.csv"))
        checkpoint_path = os.path.join(run_dir, "checkpoint.bin")
        with datamod.writing(checkpoint_path):
            save_checkpoint(params, checkpoint_path)
        if history:
            last = history[-1]
            print(f"{run_dir}: epoch {last.epoch} val_loss={last.val_loss:.6f} "
                  f"test_acc={last.test_acc:.4f}")
        else:
            print(f"{run_dir}: no epochs run")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    ds = _build_dataset(cfg["data"], "data.")
    if (params.input_dim, params.n_classes) != (ds.dim, ds.num_classes):
        raise ValueError(f"the checkpoint takes {params.input_dim} features and "
                         f"{params.n_classes} classes, the data has {ds.dim} and {ds.num_classes}")
    tr, va, te = run_splits(cfgmod.build_run_config(cfg), ds)
    part = {"train": tr, "val": va, "test": te}[args.split]
    loss, acc = evaluate(params, part)
    print(f"{args.split}: loss={loss:.6f} accuracy={acc:.4f}")
    return 0


def oracle_instance(
    seed: int, i: int, b_max: int, k: int
) -> tuple[ModelParams, np.ndarray, ParamGrad]:
    """Instance i of `oracle-check --seed seed --b b_max --k k`: (params, X, g_val).

    Each instance has its own stream: a 2-to-5-wide input, two hidden
    layers 4 to 16 wide, 1 to b_max samples and a standard normal g_val.
    """
    g = stream(seed, "oracle_instance", i)
    dims = [int(g.integers(2, 6)), int(g.integers(4, 17)), int(g.integers(4, 17)), k]
    params = init_mlp(dims, seed=int(g.integers(0, 2**31)))
    b = int(g.integers(1, b_max + 1))
    X = g.standard_normal((b, dims[0]))
    # one draw holds every weight block, then every bias: the order of
    # block_spans, whose spans place each block in the flat layout
    draw, flat, at = g.standard_normal(params.param_count), np.empty(params.param_count), 0
    for lo, hi in block_spans(params.shapes):
        flat[lo:hi] = draw[at : at + hi - lo]
        at += hi - lo
    return params, X, ParamGrad.from_flat(flat, params.shapes)


# instances whose rows one assignment, enumeration and tally take at once,
# so memory stays bounded for any --n
ORACLE_BLOCK = 1024


@dataclass
class _OracleTally:
    """oracle-check's running counts, in instance order."""

    cfg: SaflexConfig
    rng: np.random.Generator  # no Gumbel draw reads it; saflex_assign takes one all the same
    max_gap: float = 0.0
    value_mismatch: int = 0
    assign_mismatch: int = 0
    keep_algorithm: int = 0
    keep_sum_rule: int = 0
    rule_disagree: int = 0
    samples: int = 0

    def assign(self, pi_fast: np.ndarray) -> SaflexOutput:
        """saflex_assign of (b, K) fast scores: labels 0, beta 0, no Gumbel draw."""
        return saflex_assign(pi_fast, np.zeros(len(pi_fast), dtype=np.int64), self.cfg, self.rng)

    def add(self, first: int, fast: list[np.ndarray], ref: list[np.ndarray]) -> None:
        """Tally instances first, first + 1, ... from their finite (b, K) score tables.

        Each nonzero gap is printed as its instance is tallied. saflex_assign and
        enumerate_optimum_scores treat rows one by one, so each stacked row gets
        the bits of its instance's lone table.
        """
        if not fast:
            return
        bounds = np.cumsum([0, *map(len, fast)])
        out, pi_ref = self.assign(np.concatenate(fast)), np.concatenate(ref)
        best, _ = enumerate_optimum_scores(pi_ref)
        labels = out.soft_labels.argmax(axis=1)
        weights = out.binary_weights.astype(np.int64)
        at = np.arange(len(pi_ref))
        best_terms = best.weights * pi_ref[at, best.labels]
        our_terms = weights * pi_ref[at, labels]
        # one np.add.reduce per instance, as assignment_objective sums a
        # table: np.add.reduceat sums in another order
        for i, lo, hi in zip(range(first, first + len(ref)), bounds, bounds[1:]):
            gap = float(np.add.reduce(best_terms[lo:hi])) - float(np.add.reduce(our_terms[lo:hi]))
            self.max_gap = max(self.max_gap, abs(gap))
            if gap != 0.0:
                self.value_mismatch += 1
                print(f"instance {i}: nonzero gap {gap!r}")
        # a sample kept by one assignment only, or kept by both under other labels
        differ = (best.weights != weights) | ((best.labels != labels) & (best.weights == 1))
        self.assign_mismatch += np.count_nonzero(np.logical_or.reduceat(differ, bounds[:-1]))
        self.keep_algorithm += np.count_nonzero(weights)
        sum_keep = np.add.reduce(pi_ref, axis=1) >= 0  # pi_ref.sum(axis=1), bitwise
        self.keep_sum_rule += np.count_nonzero(sum_keep)
        self.rule_disagree += np.count_nonzero(sum_keep != weights)
        self.samples += len(pi_ref)


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise ConfigError("--k must be >= 2: a single-class task has nothing to assign")
    if args.b < 1 or args.b > ENUM_MAX_B or args.k > ENUM_MAX_K:
        raise ConfigError(f"guard bounds: 1 <= --b <= {ENUM_MAX_B} and 2 <= --k <= {ENUM_MAX_K}")
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    try:
        cfg = SaflexConfig(beta=0.0, tau=args.tau, gumbel_enabled=False)
    except datamod.RangeError as exc:  # named after its oracle-check flag
        raise ConfigError(f"--{exc}") from exc
    tally = _OracleTally(cfg, np.random.default_rng(0))
    for first in range(0, args.n, ORACLE_BLOCK):
        # score the block's instances up to the first one refused; assign,
        # enumerate and tally those before it together, then raise its error
        fast, ref, failure = [], [], None
        for i in range(first, min(first + ORACLE_BLOCK, args.n)):
            params, X, g_val = oracle_instance(args.seed, i, args.b, args.k)
            pi_fast = pi_scores(params, X, g_val)
            # a finite pi / tau implies a finite pi, and saflex_assign takes it
            if not np.isfinite(pi_fast / cfg.tau).all():
                failure = FloatingPointError(f"instance {i}: the fast scores are not finite")
                if np.isfinite(pi_fast).all():  # saflex_assign refuses it in its own words
                    try:
                        tally.assign(pi_fast)
                    except FloatingPointError as exc:
                        failure = FloatingPointError(f"instance {i}: {exc}")
                break
            pi_ref = pi_scores_reverse(params, X, g_val)
            if not np.isfinite(pi_ref).all():
                failure = FloatingPointError(f"instance {i}: the reference scores are not finite")
                break
            fast.append(pi_fast)
            ref.append(pi_ref)
        tally.add(first, fast, ref)
        if failure is not None:
            raise failure
    samples = tally.samples
    print(f"instances: {args.n}  samples: {samples}")
    print(f"max |objective gap|: {tally.max_gap!r}")
    print(f"value mismatches: {tally.value_mismatch}  "
          f"assignment mismatches: {tally.assign_mismatch}")
    print(f"keep rate (score-at-label rule): {tally.keep_algorithm / samples:.4f}")
    print(f"keep rate (score-sum rule):      {tally.keep_sum_rule / samples:.4f}")
    print(f"per-sample rule disagreement:    {tally.rule_disagree / samples:.4f}")
    # a NaN gap counts as a mismatch, though max() drops it from max_gap
    passed = tally.value_mismatch == 0
    print(f"oracle-check: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saflex",
        description="Validation-guided reweighting and relabeling of augmented samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a dataset + schema")
    g.add_argument("--kind", choices=["two_gaussians", "two_moons", "csv_passthrough"],
                   default="two_gaussians")
    g.add_argument("--n", type=int, default=cfgmod.DEFAULTS["data"]["n"])
    g.add_argument("--sigma", type=float, default=cfgmod.DEFAULTS["data"]["sigma"],
                   help="class spread (two_gaussians) or noise (two_moons)")
    g.add_argument("--seed", type=int, default=cfgmod.DEFAULTS["data"]["seed"])
    g.add_argument("--input", default="", help="source csv for csv_passthrough")
    g.add_argument("--input-schema", default="", help="source schema for csv_passthrough")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run training from a config file")
    t.add_argument("-c", "--config", default="",
                   help="JSON config (optional with --print-config)")
    t.add_argument("--output-dir", default="", help="override output.dir")
    t.add_argument("--sweep-sigma", default="",
                   help="comma-separated augment.sigma grid; one run per value")
    t.add_argument("--print-config", action="store_true",
                   help="print the fully-resolved config and exit")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a config's data")
    e.add_argument("-c", "--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", choices=["train", "val", "test"], default="test")
    e.set_defaults(func=cmd_eval)

    o = sub.add_parser("oracle-check", help="certify the assignment against enumeration")
    o.add_argument("--n", type=int, default=1000)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--b", type=int, default=ENUM_MAX_B, help="max augmented batch size")
    o.add_argument("--k", type=int, default=ENUM_MAX_K, help="class count")
    o.add_argument("--tau", type=float, default=SaflexConfig.tau)
    o.set_defaults(func=cmd_oracle_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parsing leaves a parser as it was."""
    return build_parser()


# a warning as one stderr line, without its source path and code line
def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        thread_cap()  # validate SAFLEX_THREADS early
        # a diverging run overflows before its guard raises; the exit-3 line says so
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with warnings.catch_warnings():  # restores showwarning on exit
                warnings.showwarning = _show_warning
                return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
