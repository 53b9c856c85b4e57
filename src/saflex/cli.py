"""Command-line entry point.

Subcommands: gen-data, train, eval, oracle-check. Exit codes: 0 success,
2 configuration/usage error, 3 numerical failure. SAFLEX_THREADS caps
worker parallelism; numeric output never depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .config import ConfigError
from .core import SaflexConfig, pi_scores, saflex_assign
from .nn import init_mlp, load_checkpoint, save_checkpoint, ParamGrad
from .oracle import (
    ENUM_MAX_B,
    ENUM_MAX_K,
    assignment_objective,
    Assignment,
    enumerate_optimum_scores,
    pi_scores_reverse,
)
from .rng import stream, thread_cap
from .trainer import DivergenceError, evaluate, run_splits, train, write_metrics_csv


def _renamed(exc: datamod.RangeError, prefix: str) -> ConfigError:
    """A generator's range error, named after its data.* config key or gen-data flag."""
    name = "sigma" if exc.name == "noise" else exc.name  # two_moons' noise is data.sigma
    return ConfigError(f"{prefix}{name} {exc.rule}")


def _build_dataset(cfg: dict) -> datamod.Dataset:
    d = cfg["data"]
    kind = d["kind"]
    try:
        if kind == "two_gaussians":
            return datamod.gen_two_gaussians(d["n"], d["means"], d["sigma"], d["seed"])
        if kind == "two_moons":
            return datamod.gen_two_moons(d["n"], d["sigma"], d["seed"])
    except datamod.RangeError as exc:
        raise _renamed(exc, "data.") from exc
    if kind == "csv":
        path = cfgmod.require(cfg, "data", "path")
        schema = cfgmod.require(cfg, "data", "schema")
        return datamod.load_csv(path, schema, standardize=False)
    if kind == "images":
        path = cfgmod.require(cfg, "data", "path")
        return datamod.load_images_raw(path)
    raise ConfigError(f"data.kind must be two_gaussians|two_moons|csv|images, got {kind!r}")


def cmd_gen_data(args: argparse.Namespace) -> int:
    try:
        if args.kind == "two_gaussians":
            ds = datamod.gen_two_gaussians(args.n, sigma=args.sigma, seed=args.seed)
        elif args.kind == "two_moons":
            ds = datamod.gen_two_moons(args.n, noise=args.sigma, seed=args.seed)
        else:  # csv_passthrough: validate + re-emit an existing pair
            if not args.input or not args.input_schema:
                raise ConfigError("csv_passthrough needs --input and --input-schema")
            ds = datamod.load_csv(args.input, args.input_schema)
    except datamod.RangeError as exc:
        raise _renamed(exc, "--") from exc
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    schema_path = os.path.join(args.out, "schema.csv")
    datamod.save_csv(ds, data_path, schema_path)
    print(f"wrote {data_path} ({ds.size} rows, {ds.num_classes} classes) and {schema_path}")
    return 0


def _train_once(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    resolved = json.loads(json.dumps(cfg))
    resolved["output"]["dir"] = out_dir
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        f.write(cfgmod.dump(resolved))
    ds = _build_dataset(cfg)
    history, params = train(cfgmod.build_run_config(cfg), ds)
    write_metrics_csv(history, os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(params, os.path.join(out_dir, "checkpoint.bin"))
    last = history[-1] if history else None
    if last is not None:
        print(f"{out_dir}: epoch {last.epoch} val_loss={last.val_loss:.6f} "
              f"test_acc={last.test_acc:.4f}")
    else:
        print(f"{out_dir}: no epochs run")


def cmd_train(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("train needs --config (or use --print-config for defaults)")
    cfg = cfgmod.load_config(args.config)
    out_dir = args.output_dir or cfg["output"]["dir"]
    if args.sweep_sigma:
        try:
            sigmas = [float(s) for s in args.sweep_sigma.split(",") if s.strip()]
        except ValueError:  # not a number: rejected below, with the empty grid
            sigmas = []
        if not sigmas or not all(0 <= s < np.inf for s in sigmas):
            raise ConfigError(f"--sweep-sigma wants finite numbers >= 0, got {args.sweep_sigma!r}")
        for sigma in sigmas:
            point = json.loads(json.dumps(cfg))
            point["augment"]["sigma"] = sigma
            tag = repr(sigma).replace(".", "p")
            _train_once(point, os.path.join(out_dir, f"sigma_{tag}"))
        return 0
    _train_once(cfg, out_dir)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    ds = _build_dataset(cfg)
    tr, va, te = run_splits(cfgmod.build_run_config(cfg), ds)
    part = {"train": tr, "val": va, "test": te}[args.split]
    loss, acc = evaluate(params, part)
    print(f"{args.split}: loss={loss:.6f} accuracy={acc:.4f}")
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise ConfigError("--k must be >= 2: a single-class task has nothing to assign")
    if args.b < 1 or args.b > ENUM_MAX_B or args.k > ENUM_MAX_K:
        raise ConfigError(f"guard bounds: 1 <= --b <= {ENUM_MAX_B} and 2 <= --k <= {ENUM_MAX_K}")
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if not 0 < args.tau < np.inf:
        raise ConfigError(f"--tau must be a finite number > 0, got {args.tau}")
    cfg = SaflexConfig(beta=0.0, tau=args.tau, gumbel_enabled=False)
    rng_unused = np.random.default_rng(0)
    max_gap = 0.0
    value_mismatch = 0
    assign_mismatch = 0
    keep_algorithm = 0
    keep_sum_rule = 0
    rule_disagree = 0
    samples = 0
    for i in range(args.n):
        g = stream(args.seed, "oracle_instance", i)
        dims = [int(g.integers(2, 6)), int(g.integers(4, 17)), int(g.integers(4, 17)), args.k]
        params = init_mlp(dims, seed=int(g.integers(0, 2**31)))
        b = int(g.integers(1, args.b + 1))
        X = g.standard_normal((b, dims[0]))
        g_val = ParamGrad(
            [g.standard_normal(w.shape) for w in params.weights],
            [g.standard_normal(bb.shape) for bb in params.biases],
        )
        pi_fast = pi_scores(params, X, g_val)
        out = saflex_assign(pi_fast, np.zeros(b, dtype=np.int64), cfg, rng_unused)
        ours = Assignment(out.soft_labels.argmax(axis=1), out.binary_weights.astype(np.int64))
        pi_ref = pi_scores_reverse(params, X, g_val)
        best, best_obj = enumerate_optimum_scores(pi_ref)
        gap = best_obj - assignment_objective(pi_ref, ours)
        max_gap = max(max_gap, abs(gap))
        if args.per_instance:
            print(f"instance {i}: B={b} K={args.k} objective={best_obj!r} gap={gap!r}")
        if gap != 0.0:
            value_mismatch += 1
            if not args.per_instance:
                print(f"instance {i}: nonzero gap {gap!r}")
        same_w = np.array_equal(best.weights, ours.weights)
        kept = best.weights == 1
        same_lbl = np.array_equal(best.labels[kept], ours.labels[kept])
        if not (same_w and same_lbl):
            assign_mismatch += 1
        keep_algorithm += int(ours.weights.sum())
        sum_keep = pi_ref.sum(axis=1) >= 0
        keep_sum_rule += int(sum_keep.sum())
        rule_disagree += int((sum_keep != (ours.weights == 1)).sum())
        samples += b
    print(f"instances: {args.n}  samples: {samples}")
    print(f"max |objective gap|: {max_gap!r}")
    print(f"value mismatches: {value_mismatch}  assignment mismatches: {assign_mismatch}")
    print(f"keep rate (score-at-label rule): {keep_algorithm / samples:.4f}")
    print(f"keep rate (score-sum rule):      {keep_sum_rule / samples:.4f}")
    print(f"per-sample rule disagreement:    {rule_disagree / samples:.4f}")
    status = "PASS" if max_gap == 0.0 else "FAIL"
    print(f"oracle-check: {status}")
    return 0 if max_gap == 0.0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saflex",
        description="Validation-guided reweighting and relabeling of augmented samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a dataset + schema")
    g.add_argument("--kind", choices=["two_gaussians", "two_moons", "csv_passthrough"],
                   default="two_gaussians")
    g.add_argument("--n", type=int, default=2000)
    g.add_argument("--sigma", type=float, default=1.0,
                   help="class spread (two_gaussians) or noise (two_moons)")
    g.add_argument("--seed", type=int, default=0)
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
    o.add_argument("--b", type=int, default=8, help="max augmented batch size")
    o.add_argument("--k", type=int, default=6, help="class count")
    o.add_argument("--tau", type=float, default=0.01)
    o.add_argument("--per-instance", action="store_true",
                   help="print every instance's objective gap")
    o.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()  # validate SAFLEX_THREADS early
        if getattr(args, "print_config", False):
            cfg = cfgmod.load_config(args.config) if args.config else cfgmod.resolve({})
            sys.stdout.write(cfgmod.dump(cfg))
            return 0
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
