"""Traced runs: spans around calls into saflex's layers, and their analysis.

The tracer replaces public functions at the attribute where their caller
looks them up (e.g. `saflex.core.mlp_forward`, which saflex_gradient
calls) with a wrapper that records one span: name, start, end, parent
span, iteration id, rows and computed matmul FLOPs. Spans live in typed
arrays in memory and are written out once, at the end of the run.
Nothing under saflex changes; `uninstall` restores every attribute.

A span's self time is its duration minus its children's durations. The
iteration id is the number of trainer observer calls so far, so the spans
of one training iteration share an id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

COLUMNS = ("name", "start", "end", "parent", "iter", "rows", "flops")

LAYERS = ("rng", "augment", "data", "config", "core", "nn", "losses", "trainer", "oracle", "cli")


def _fwd_flops(params, n: int) -> int:
    # X @ W per layer: 2 N fan_in fan_out
    return 2 * n * sum(w.size for w in params.weights)


def _bwd_flops(params, n: int) -> int:
    # a.T @ delta per layer, delta @ W.T below the top layer (the JVP has
    # the same shape: a @ dW per layer, t @ W below the top layer)
    ws = [w.size for w in params.weights]
    return 2 * n * (sum(ws) + sum(ws[1:]))


def _rows(obj) -> int:
    return int(obj.shape[0])


# (module path, attribute, span name, counter(args) -> (rows, flops))
_SITES = [
    ("trainer", "train", "trainer.train", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("trainer", "stream", "rng.stream", None),
    ("trainer", "apply_augmenter", "augment.apply_augmenter", lambda a: (a[1].size, 0)),
    ("trainer", "saflex_gradient", "core.saflex_gradient", None),
    ("trainer", "mlp_forward", "nn.mlp_forward", lambda a: (_rows(a[1]), _fwd_flops(a[0], _rows(a[1])))),
    ("trainer", "mlp_backward", "nn.mlp_backward", lambda a: (_rows(a[2]), _bwd_flops(a[0], _rows(a[2])))),
    ("trainer", "init_mlp", "nn.init_mlp", None),
    ("trainer", "ce_from_logits", "losses.ce_from_logits", None),
    ("trainer", "one_hot", "losses.one_hot", None),
    ("trainer", "split", "data.split", None),
    ("trainer", "apply_train_statistics", "data.standardize", None),
    ("data", "Dataset.batch", "data.batch", lambda a: (len(a[1]), 0)),
    ("data", "load_csv", "data.load", None),
    ("data", "load_images_raw", "data.load", None),
    ("data", "stream", "rng.stream", None),
    ("config", "resolve", "config.resolve", None),
    ("core", "mlp_forward", "nn.mlp_forward", lambda a: (_rows(a[1]), _fwd_flops(a[0], _rows(a[1])))),
    ("core", "mlp_backward", "nn.mlp_backward", lambda a: (_rows(a[2]), _bwd_flops(a[0], _rows(a[2])))),
    ("core", "jvp_logits_batch", "nn.jvp_logits_batch",
     lambda a: (_rows(a[2].inputs), _bwd_flops(a[0], _rows(a[2].inputs)))),
    ("core", "saflex_assign", "core.saflex_assign", lambda a: (_rows(a[0]), 0)),
    ("core", "ce_grad_logits", "losses.ce_grad_logits", None),
    ("core", "ce_from_logits", "losses.ce_from_logits", None),
    ("core", "one_hot", "losses.one_hot", None),
    ("cli", "main", "cli.main", None),
    ("cli", "stream", "rng.stream", None),
    ("cli", "init_mlp", "nn.init_mlp", None),
    ("cli", "pi_scores", "core.pi_scores", lambda a: (_rows(a[1]), 0)),
    ("cli", "saflex_assign", "core.saflex_assign", lambda a: (_rows(a[0]), 0)),
    ("cli", "pi_scores_reverse", "oracle.pi_scores_reverse", lambda a: (_rows(a[1]), 0)),
    ("cli", "enumerate_optimum_scores", "oracle.enumerate_optimum_scores", None),
    ("cli", "assignment_objective", "oracle.assignment_objective", None),
    ("oracle", "mlp_forward", "nn.mlp_forward", lambda a: (_rows(a[1]), _fwd_flops(a[0], _rows(a[1])))),
    ("oracle", "mlp_backward", "nn.mlp_backward", lambda a: (_rows(a[2]), _bwd_flops(a[0], _rows(a[2])))),
    ("oracle", "param_dot", "nn.param_dot", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self._stack: list[int] = []
        self.iter_id = 0
        # one entry per observer call: iteration id, call id, mode id, epoch, time
        self.iters = {c: array("q") for c in ("iter", "call", "mode", "epoch", "t")}
        self.call_id = -1
        self.mode_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, counter):
        nid = self.name_id(name)
        c = self.cols
        c_name, c_start, c_end, c_parent = c["name"], c["start"], c["end"], c["parent"]
        c_iter, c_rows, c_flops = c["iter"], c["rows"], c["flops"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows, flops = counter(args) if counter is not None else (0, 0)
            idx = len(c_start)
            c_name.append(nid)
            c_parent.append(stack[-1] if stack else -1)
            c_iter.append(self.iter_id)
            c_rows.append(rows)
            c_flops.append(flops)
            c_end.append(0)
            stack.append(idx)
            c_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self, saflex_pkg) -> None:
        for module, attr, name, counter in _SITES:
            owner = importlib.import_module(f"{saflex_pkg.__name__}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    @contextlib.contextmanager
    def installed(self, saflex_pkg):
        self.install(saflex_pkg)
        try:
            yield self
        finally:
            self.uninstall()

    def begin_call(self, mode_id: int) -> None:
        """Mark the start of a train() call in the given mode."""
        self.call_id += 1
        self.mode_id = mode_id

    def observe(self, epoch: int, *_args) -> None:
        """Trainer observer: closes the current iteration."""
        it = self.iters
        it["t"].append(time.perf_counter_ns())
        it["iter"].append(self.iter_id)
        it["call"].append(self.call_id)
        it["mode"].append(self.mode_id)
        it["epoch"].append(epoch)
        self.iter_id += 1

    def arrays(self) -> dict[str, np.ndarray]:
        out = {c: np.frombuffer(a, dtype=np.int64).copy() for c, a in self.cols.items()}
        out.update({f"iter_{c}": np.frombuffer(a, dtype=np.int64).copy()
                    for c, a in self.iters.items()})
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _median(x) -> float:
    return float(np.median(x)) if len(x) else float("nan")


def analyse(tracer: Tracer, modes: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans: name -> (value, unit)."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_sum
    ids = a["name"]
    parent_ids = np.where(has_parent, ids[np.where(has_parent, parent, 0)], -1)

    def span(n: str) -> np.ndarray:
        return ids == tracer._ids.get(n, -2)

    def under(n: str) -> np.ndarray:
        return parent_ids == tracer._ids.get(n, -2)

    def us(mask) -> float:
        return _median(dur[mask]) / 1e3

    def gflops(mask) -> float:
        t = dur[mask].sum()
        return float(a["flops"][mask].sum() / t) if t else float("nan")

    out: dict[str, tuple[float, str]] = {}

    # nn calls by call site; in saflex_gradient the first backward is the
    # validation gradient and the second the combined step
    fwd, bwd, jvp = span("nn.mlp_forward"), span("nn.mlp_backward"), span("nn.jvp_logits_batch")
    in_sg = under("core.saflex_gradient")
    bwd_sg = np.flatnonzero(bwd & in_sg)
    first = np.zeros(dur.size, dtype=bool)
    first[bwd_sg[np.unique(parent[bwd_sg], return_index=True)[1]]] = True
    sites = {
        ("nn.mlp_forward", "forward"): {
            "stacked": fwd & in_sg,
            "step": fwd & under("trainer.train"),
            "eval": fwd & under("trainer.evaluate"),
        },
        ("nn.mlp_backward", "backward"): {
            "val": bwd & first,
            "combined": bwd & in_sg & ~first,
            "step": bwd & under("trainer.train"),
            "oracle": bwd & under("oracle.pi_scores_reverse"),
        },
    }
    for (fn, kind), by_site in sites.items():
        for site, mask in by_site.items():
            out[f"{fn}.us_per_call.{site}"] = (us(mask), "us")
            out[f"nn.gflops.{kind}.{site}"] = (gflops(mask), "GFLOP/s")
    for site, mask in sites[("nn.mlp_forward", "forward")].items():
        out[f"nn.mlp_forward.rows_per_call.{site}"] = (_median(a["rows"][mask]), "rows")
    jvp_train = jvp & in_sg
    out["nn.jvp_logits_batch.us_per_call"] = (us(jvp_train), "us")
    out["nn.param_dot.us_per_call"] = (us(span("nn.param_dot")), "us")
    training = ~under("oracle.pi_scores_reverse") & ~under("core.pi_scores")
    out["nn.gflops.forward"] = (gflops(fwd & training), "GFLOP/s")
    out["nn.gflops.backward"] = (gflops(bwd & training), "GFLOP/s")
    out["nn.gflops.jvp"] = (gflops(jvp_train), "GFLOP/s")

    # layers called once per iteration
    out["rng.stream.us_per_call"] = (us(span("rng.stream")), "us")
    out["augment.apply_augmenter.us_per_call"] = (us(span("augment.apply_augmenter")), "us")
    out["data.batch.us_per_call"] = (us(span("data.batch")), "us")
    sg = span("core.saflex_gradient")
    out["core.saflex_gradient.us_per_call"] = (us(sg), "us")
    out["core.saflex_gradient.self_us"] = (_median(self_ns[sg]) / 1e3, "us")
    out["core.saflex_assign.us_per_call"] = (us(span("core.saflex_assign") & in_sg), "us")
    out["losses.ce_from_logits.us_per_call"] = (us(span("losses.ce_from_logits")), "us")
    out["losses.ce_grad_logits.us_per_call"] = (us(span("losses.ce_grad_logits")), "us")

    # set-up steps, timed in-process
    out["data.load_s"] = (_median(dur[span("data.load")]) / 1e9, "s")
    out["data.split_s"] = (_median(dur[span("data.split")]) / 1e9, "s")
    out["data.standardize_s"] = (_median(dur[span("data.standardize")]) / 1e9, "s")
    out["config.resolve_ms"] = (_median(dur[span("config.resolve")]) / 1e6, "ms")

    # evaluate: three calls (train, val, test split) per epoch
    ev = dur[span("trainer.evaluate")]
    ev = ev[: ev.size // 3 * 3].reshape(-1, 3).sum(axis=1)
    out["trainer.evaluate.ms_per_epoch"] = (_median(ev) / 1e6, "ms")

    # iterations: the interval between consecutive observer calls of one
    # epoch; the first iteration of an epoch also holds the previous
    # epoch's evaluation and is left out
    it_id, it_call, it_epoch = a["iter_iter"], a["iter_call"], a["iter_epoch"]
    it_t, it_mode = a["iter_t"], a["iter_mode"]
    valid = np.zeros(it_id.size, dtype=bool)
    valid[1:] = (it_call[1:] == it_call[:-1]) & (it_epoch[1:] == it_epoch[:-1])
    gap = np.zeros(it_id.size, dtype=np.int64)
    gap[1:] = it_t[1:] - it_t[:-1]
    top = under("trainer.train")
    n_iters = int(it_id.max()) + 2 if it_id.size else 1
    child_in_iter = np.bincount(a["iter"][top], weights=dur[top], minlength=n_iters)
    streams_in_iter = np.bincount(a["iter"][span("rng.stream")], minlength=n_iters)
    for m, mode in enumerate(modes):
        sel = valid & (it_mode == m)
        out[f"trainer.iter.self_us.{mode}"] = (
            _median(gap[sel] - child_in_iter[it_id[sel]]) / 1e3, "us")
        if mode == "saflex":
            calls = streams_in_iter[it_id[sel]]
            out["rng.stream.calls_per_iter"] = (
                float(calls.mean()) if calls.size else float("nan"), "count")

    # oracle-check: one pi_scores, pi_scores_reverse and enumeration per instance
    out["oracle.pi_scores_reverse.us_per_instance"] = (us(span("oracle.pi_scores_reverse")), "us")
    out["oracle.enumerate_optimum_scores.us_per_instance"] = (
        us(span("oracle.enumerate_optimum_scores")), "us")
    out["core.pi_scores.us_per_instance"] = (us(span("core.pi_scores")), "us")
    instances = int(span("core.pi_scores").sum())
    cli_self = self_ns[span("cli.main")].sum()
    out["cli.oracle_check.self_us_per_instance"] = (
        float(cli_self / instances / 1e3) if instances else float("nan"), "us")

    # self time per layer, as a share of all traced time
    root = dur[~has_parent].sum()
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names])
    layer = layer_of[ids]
    for j, lay in enumerate(LAYERS):
        out[f"layer.{lay}.self_pct"] = (float(self_ns[layer == j].sum() / root * 100.0), "%")
    return out


def computed_counts(dims: list[int], batch: int, n_rows: int) -> dict[str, tuple[float, str]]:
    """Matmul FLOPs and bytes moved, from layer dims and row counts alone.

    Per iteration at full batch size (the validation batch is as large as
    the training batch) and per epoch's evaluation (one forward pass over
    the train, val and test splits). Bytes are float64 operand reads plus
    result writes of each matmul: 8 (m k + k n + m n).
    """
    layers = list(zip(dims[:-1], dims[1:]))

    def fwd(n):
        return (sum(2 * n * i * o for i, o in layers),
                sum(8 * (n * i + i * o + n * o) for i, o in layers))

    def bwd(n):
        # a.T @ delta per layer, delta @ W.T below the top layer; the JVP
        # has the same matmuls
        f, b = 0, 0
        for j, (i, o) in enumerate(layers):
            f += 2 * n * i * o
            b += 8 * (i * n + n * o + i * o)
            if j > 0:
                f += 2 * n * i * o
                b += 8 * (n * o + o * i + n * i)
        return f, b

    def total(*parts):
        return sum(p[0] for p in parts), sum(p[1] for p in parts)

    step = total(fwd(batch), bwd(batch))
    stacked = 3 * batch
    per_mode = {
        "none": step,
        "naive": step,
        "saflex": total(fwd(stacked), bwd(batch), bwd(batch), bwd(stacked)),
    }
    out: dict[str, tuple[float, str]] = {}
    for mode, (f, b) in per_mode.items():
        out[f"nn.flops_per_iter.{mode}"] = (float(f), "flop")
        out[f"nn.bytes_per_iter.{mode}"] = (float(b), "B")
    f, b = fwd(n_rows)
    out["nn.flops_per_eval"] = (float(f), "flop")
    out["nn.bytes_per_eval"] = (float(b), "B")
    return out
