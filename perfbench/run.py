"""saflex benchmark: end-to-end throughput and per-layer cost of training and oracle-check.

Usage, from the repository root:

    python3 perfbench/run.py --workload jitter2d --seed 1 --seconds 30 --trace 0

One run writes the workload's inputs from --seed, then for --seconds
repeats rounds of a host-speed reference loop, one train() call per mode
(none, naive, saflex; the order rotates each round) and one in-process
`saflex oracle-check`, timing set-up in fresh interpreters between rounds.
Every call is checked; the last line printed is a JSON object with the
check counts and the metrics, each a median over the run. --trace 0
reports the end-to-end metrics; --trace 1 wraps saflex's public functions
and reports the per-layer metrics instead, with the tracing overhead
measured against untraced saflex calls in the same run.

It is a closed loop: one single-threaded job at a time, BLAS pinned to one
thread. Inputs and traces go to .perfbench_work/ under the current
directory.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it; set-up probes inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = ("none", "naive", "saflex")
SETUP_PROBES = 11
ORACLE_N = 50  # instances per oracle-check call
ORACLE_ARGS = ("--b", "8", "--k", "6")
TAIL_BLOCK = 1000  # iteration gaps per block of the tail estimate
# Host-speed reference: a fixed numpy MLP training loop of the benchmark's
# own, timed once per round. On a shared host the neighbours change the
# speed of every core by 25% or more for minutes at a time, and that moves
# saflex and this loop alike, so each round's rates are multiplied (and its
# times, set-up included, divided) by ref_s / REF_NOMINAL_S: the figures are
# those of a host that runs the loop in REF_NOMINAL_S. Raw throughputs are
# printed as well.
REF_ITERS = 300
REF_NOMINAL_S = 0.013
# final test accuracy every mode must reach; chance is 1/2 or 1/3
MIN_TEST_ACC = {"jitter2d": 0.8, "image_crop": 0.9, "tabular_cutmix": 0.7}

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s.none": "rows/s",
    "samples_per_s.naive": "rows/s",
    "samples_per_s.saflex": "rows/s",
    "iter_ms_p50.saflex": "ms",
    "overhead_ratio": "x",
    "oracle_instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Checks:
    """Counts checked operations; any failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def digest(self, key: str, digest: str) -> list[str]:
        """Outputs of one workload and mode must be bitwise equal on every repetition."""
        first = self.digests.setdefault(key, digest)
        if digest != first:
            return [f"digest {digest[:16]} differs from the first repetition's {first[:16]}"]
        return []


def training_digest(columns: tuple[str, ...], history, params) -> str:
    """sha256 of the metrics rows without the wall-clock column, then the parameters."""
    h = hashlib.sha256()
    for row in history:
        h.update(repr([v for c, v in zip(columns, row.as_tuple()) if c != "sec_per_epoch"]).encode())
    for w, b in zip(params.weights, params.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    return h.hexdigest()


def training_problems(history, epochs: int, min_acc: float) -> list[str]:
    problems = []
    if len(history) != epochs:
        problems.append(f"{len(history)} metrics rows, expected {epochs}")
    for row in history:
        if not all(math.isfinite(float(v)) for v in row.as_tuple()):
            problems.append(f"non-finite metrics row at epoch {row.epoch}")
    if history and not history[-1].test_acc >= min_acc:
        problems.append(f"final test accuracy {history[-1].test_acc} < {min_acc}")
    return problems


def oracle_problems(rc: int, text: str) -> list[str]:
    lines = text.splitlines()
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if not any(ln.startswith(f"instances: {ORACLE_N} ") for ln in lines):
        problems.append("instance count missing from the output")
    if "max |objective gap|: 0.0" not in lines:
        problems.append("nonzero objective gap")
    if "oracle-check: PASS" not in lines:
        problems.append("no PASS line")
    return problems


def tail_percentile(n: int) -> float:
    """Highest of p50, p90 and p99 with at least ten samples beyond it."""
    p = 50.0
    for q in (90.0, 99.0):
        if n * (100.0 - q) / 100.0 >= 10:
            p = q
    return p


def tail_ms(gaps: np.ndarray) -> tuple[float, str]:
    """Tail of the iteration gaps, and how it was taken.

    The run's gaps, in the order they happened, are cut into blocks of
    TAIL_BLOCK; each block's p99 has ten samples beyond it, and the median
    over blocks is reported, so one burst of host noise moves one block.
    A run too short for one block falls back to the highest percentile
    its gaps support. Capping at p99 keeps the percentile the same on
    every run, so runs can be compared.
    """
    if gaps.size == 0:
        return float("nan"), "no gaps"
    blocks = gaps.size // TAIL_BLOCK
    if blocks == 0:
        p = tail_percentile(gaps.size)
        return float(np.percentile(gaps, p)), f"p{p:g} of {gaps.size} gaps"
    per_block = np.percentile(gaps[: blocks * TAIL_BLOCK].reshape(blocks, TAIL_BLOCK), 99.0, axis=1)
    return float(np.median(per_block)), (
        f"median over {blocks} blocks of {TAIL_BLOCK} gaps of each block's p99 ({gaps.size} gaps)")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args: argparse.Namespace) -> dict:
    blas: dict = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def reference_inputs() -> tuple[np.ndarray, ...]:
    g = np.random.Generator(np.random.PCG64(0))
    return (g.standard_normal((64, 16)), np.eye(4)[g.integers(0, 4, size=64)],
            0.3 * g.standard_normal((16, 32)), 0.3 * g.standard_normal((32, 4)))


def reference_loop(X, Y, W1, W2) -> np.ndarray:
    """REF_ITERS steps of a 16-32-4 MLP on 64 rows: the same kind of small
    matmuls, elementwise ops and allocation as a saflex iteration."""
    b1, b2 = np.zeros(W1.shape[1]), np.zeros(W2.shape[1])
    for _ in range(REF_ITERS):
        h = np.maximum(X @ W1 + b1, 0.0)
        z = h @ W2 + b2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        d = (p / p.sum(axis=1, keepdims=True) - Y) / X.shape[0]
        dh = (d @ W2.T) * (h > 0.0)
        W1, b1 = W1 - 0.01 * (X.T @ dh), b1 - 0.01 * dh.sum(axis=0)
        W2, b2 = W2 - 0.01 * (h.T @ d), b2 - 0.01 * d.sum(axis=0)
    return W1


class Observer:
    """Untraced iteration clock: one timestamp per trainer observer call."""

    def __init__(self) -> None:
        self.t = array("q")
        self.epoch = array("q")

    def __call__(self, epoch, *_args) -> None:
        self.t.append(time.perf_counter_ns())
        self.epoch.append(epoch)

    def gaps_ms(self) -> np.ndarray:
        t = np.frombuffer(self.t, dtype=np.int64)
        e = np.frombuffer(self.epoch, dtype=np.int64)
        same = e[1:] == e[:-1]
        return (t[1:] - t[:-1])[same] / 1e6


class Bench:
    def __init__(self, args: argparse.Namespace, src: str, work: str) -> None:
        import saflex
        from saflex import cli, config, data, trainer

        self.saflex, self.cli, self.config, self.data, self.trainer = saflex, cli, config, data, trainer
        self.args = args
        self.src = src
        self.checks = Checks()
        self.config_path = inputs.write_inputs(args.workload, args.seed, work)
        cfg = config.load_config(self.config_path)
        self.ds = inputs.load_dataset(data, cfg)
        base = replace(config.build_run_config(cfg), standardize=True)
        self.runs = {m: replace(base, mode=m) for m in MODES}
        self.epochs = base.epochs
        self.batch = base.batch_size
        self.dims = [self.ds.dim, *base.hidden, self.ds.num_classes]
        self.min_acc = MIN_TEST_ACC[args.workload]
        self.n_train = data.split(self.ds, base.split)[0].size
        self.oracle_calls = 0
        self.first_oracle_digest = ""
        self.ref_inputs = reference_inputs()

    def reference(self) -> float:
        """Seconds the host takes for the reference loop now."""
        t0 = time.perf_counter()
        reference_loop(*self.ref_inputs)
        return time.perf_counter() - t0

    # -- operations -----------------------------------------------------

    def setup_probe(self) -> float | None:
        """Seconds from starting a fresh interpreter to the first training
        iteration, at the reference host speed."""
        speed = self.reference() / REF_NOMINAL_S
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), self.src, self.config_path]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            self.checks.record("setup", ["probe timed out"])
            return None
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        ok = proc.returncode == 0 and last[0].startswith("first_iteration ")
        if not self.checks.record("setup", [] if ok else [
                f"probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]):
            return None
        return (float(last[0].split()[1]) - t0) / speed

    def train(self, mode: str, observer) -> tuple[float, list[float]] | None:
        """One train() call; returns raw training rows per wall second and
        each epoch's sec_per_epoch."""
        run = self.runs[mode]
        try:
            t0 = time.perf_counter()
            history, params = self.trainer.train(run, self.ds, observer=observer)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failing call is a failed operation, not a crash
            self.checks.record(f"train {mode}", [f"{type(exc).__name__}: {exc}"])
            return None
        cols = self.trainer.METRICS_COLUMNS
        problems = training_problems(history, self.epochs, self.min_acc)
        problems += self.checks.digest(mode, training_digest(cols, history, params))
        if not self.checks.record(f"train {mode}", problems):
            return None
        return self.epochs * self.n_train / wall, [r.sec_per_epoch for r in history]

    def oracle(self) -> float | None:
        """One in-process `saflex oracle-check`; returns instances per wall second."""
        seed = self.args.seed * 100_000 + self.oracle_calls
        self.oracle_calls += 1
        argv = ["oracle-check", "--n", str(ORACLE_N), "--seed", str(seed), *ORACLE_ARGS]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                wall = time.perf_counter() - t0
        except Exception as exc:
            self.checks.record("oracle-check", [f"{type(exc).__name__}: {exc}"])
            return None
        text = out.getvalue()
        if not self.first_oracle_digest:
            self.first_oracle_digest = f"seed={seed} sha256={hashlib.sha256(text.encode()).hexdigest()}"
        if not self.checks.record("oracle-check", oracle_problems(rc, text)):
            return None
        return ORACLE_N / wall

    # -- runs -------------------------------------------------------------

    def rounds(self, seconds: float, one_round) -> None:
        """Warm-up round (fills caches, finishes lazy set-up; not timed), then
        rounds until `seconds` have passed; one_round gets the round number
        and the share of the time already used."""
        one_round(-1, 0.0)
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            one_round(r, (time.perf_counter() - start) / seconds)
            r += 1

    @staticmethod
    def order(r: int) -> tuple[str, ...]:
        k = r % len(MODES)
        return MODES[k:] + MODES[:k]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        setups: list[float | None] = []
        refs: list[float] = []
        raw: dict[str, list[float]] = {m: [] for m in MODES}
        sps: dict[str, list[float]] = {m: [] for m in MODES}
        epoch_s: dict[str, list[float]] = {m: [] for m in MODES}
        saflex_gaps: list[np.ndarray] = []
        oracle_rates: list[float] = []

        def one_round(r: int, used: float) -> None:
            # set-up probes are spread over the run, so that a burst of host
            # noise reaches few of them
            if r >= 0 and len(setups) < used * SETUP_PROBES:
                setups.append(self.setup_probe())
            speed = self.reference() / REF_NOMINAL_S
            for mode in self.order(max(r, 0)):
                obs = Observer()
                done = self.train(mode, obs)
                if r >= 0 and done is not None:
                    raw[mode].append(done[0])
                    sps[mode].append(done[0] * speed)
                    epoch_s[mode].extend(done[1])
                    if mode == "saflex":
                        saflex_gaps.append(obs.gaps_ms() / speed)
            rate = self.oracle()
            if r >= 0:
                refs.append(speed * REF_NOMINAL_S)
                if rate is not None:
                    oracle_rates.append(rate * speed)

        self.rounds(self.args.seconds, one_round)
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        gaps = np.concatenate(saflex_gaps) if saflex_gaps else np.zeros(0)
        print(f"info reference loop: median {_median(refs) * 1e3!r} ms over {len(refs)} rounds, "
              f"nominal {REF_NOMINAL_S * 1e3:g} ms")
        for mode in MODES:
            print(f"info raw samples_per_s.{mode} = {_median(raw[mode])!r} rows/s")
        # printed, not gated: the tail follows the host's interference
        tail, how = tail_ms(gaps)
        print(f"info iter_ms_tail.saflex = {tail!r} ms, the {how}")
        values = {
            "setup_s": _median([s for s in setups if s is not None]),
            "samples_per_s.none": _median(sps["none"]),
            "samples_per_s.naive": _median(sps["naive"]),
            "samples_per_s.saflex": _median(sps["saflex"]),
            "iter_ms_p50.saflex": _median(gaps),
            "overhead_ratio": _median(epoch_s["saflex"]) / _median(epoch_s["naive"]),
            "oracle_instances_per_s": _median(oracle_rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        return {k: (float(v), END_TO_END_UNITS[k]) for k, v in values.items()}

    def per_layer(self, spans_path: str) -> dict[str, tuple[float, str]]:
        tracer = tracing.Tracer()
        untraced: list[float] = []
        untraced_gaps: list[np.ndarray] = []
        traced: list[float] = []
        refs: list[float] = []
        with tracer.installed(self.saflex):  # the set-up steps, in-process
            for _ in range(SETUP_PROBES):
                inputs.load_dataset(self.data, self.config.load_config(self.config_path))

        def one_round(r: int, _used: float) -> None:
            ref = self.reference()
            if r >= 0:
                refs.append(ref)
            for mode in self.order(max(r, 0)):
                with tracer.installed(self.saflex):
                    tracer.begin_call(MODES.index(mode))
                    done = self.train(mode, tracer.observe)
                if r >= 0 and done is not None and mode == "saflex":
                    traced.append(done[0])
            obs = Observer()
            done = self.train("saflex", obs)
            if r >= 0 and done is not None:
                untraced.append(done[0])
                untraced_gaps.append(obs.gaps_ms())
            with tracer.installed(self.saflex):
                self.oracle()

        self.rounds(self.args.seconds, one_round)
        tracer.save(spans_path)
        out = tracing.analyse(tracer, MODES)
        out.update(tracing.computed_counts(self.dims, self.batch, self.ds.size))
        out["trace.samples_per_s.saflex.untraced"] = (_median(untraced), "rows/s")
        out["trace.samples_per_s.saflex.traced"] = (_median(traced), "rows/s")
        out["trace.overhead_ratio"] = (_median(untraced) / _median(traced), "x")
        tail, how = tail_ms(np.concatenate(untraced_gaps) if untraced_gaps else np.zeros(0))
        print(f"iter_ms_tail.saflex is the {how} of the untraced saflex calls")
        out["iter_ms_tail.saflex"] = (tail, "ms")
        out["host.ref_ms"] = (_median(refs) * 1e3, "ms")
        return out


def _median(x) -> float:
    return float(np.median(x)) if len(x) else float("nan")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "saflex", "__init__.py")):
        print(f"perfbench: no saflex sources in {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-seed{args.seed}")
    bench = Bench(args, src, work)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    tag = f"trace{args.trace}"
    if args.trace:
        metrics = bench.per_layer(os.path.join(work, f"spans-{tag}.npz"))
    else:
        metrics = bench.end_to_end()
    for mode, digest in bench.checks.digests.items():
        print(f"digest {args.workload} seed={args.seed} mode={mode} sha256={digest}")
    print(f"digest {args.workload} oracle-check {bench.first_oracle_digest}")
    checks = bench.checks
    checks.record("metrics", [f"{k} is not finite" for k, (v, _) in metrics.items()
                              if not math.isfinite(v)])
    for problem in checks.problems:
        print(f"check failed: {problem}")
    for k, (v, unit) in metrics.items():
        print(f"metric {k} = {v!r} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, f"result-{tag}.json"), "w") as f:
        json.dump({"env": env, "digests": checks.digests, "problems": checks.problems,
                   **result}, f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
