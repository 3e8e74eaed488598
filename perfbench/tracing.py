"""In-memory spans around the public functions of each specrf layer.

`Tracer.install` rebinds every traced function in each loaded `specrf`
module that holds it (the home module and every module that imported the
name), and wraps `value`/`value_at_iterations` on each filter class. Spans
record (id, parent, op, start, end, thread, counters); the parent comes from
a thread-local stack, and a span opened on a pool thread with an empty stack
is parented to the innermost span open on the main thread. A traced name
missing from the library is reported as absent, not as an error.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _rows(X) -> int:
    return int(np.shape(X)[0])


def _embed_counters(args, kwargs, result):
    fmap, X = args[0], np.asarray(args[1])
    key = hashlib.blake2b(np.ascontiguousarray(X).tobytes(), digest_size=16).hexdigest()
    return {"rows": _rows(X), "bytes": _rows(X) * fmap.embedding_dim * 8, "key": f"{X.shape}:{key}"}


def _moments_counters(args, kwargs, result):
    n, dim = _rows(args[1]), args[0].embedding_dim
    return {"flops": 2 * n * dim * dim + 2 * n * dim}  # dense Z^T Z and Z^T y


def _solve_counters(args, kwargs, result):
    return {"iterations": int(getattr(result, "iterations", None) or 0)}


def _size_of_arg(index: int, key: str):
    def counters(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs[key]
        return {"bytes": os.path.getsize(path)}
    return counters


def _dir_bytes(args, kwargs, result):
    out = args[0] if args else kwargs["out_dir"]
    return {"bytes": sum(f.stat().st_size for f in Path(out).iterdir() if f.is_file())}


def _sample_rows(args, kwargs, result):
    return {"rows": _rows(result[0])}


def _value_counters(args, kwargs, result):
    filt, lam = args[0], (args[2] if len(args) > 2 else kwargs["lam"])
    T = filt.iterations_for_lambda(lam) if filt.iterative else 0
    return {"points": int(np.size(args[1])), "T": int(T)}


def _value_at_iterations_counters(args, kwargs, result):
    return {"points": int(np.size(args[1])), "T": int(args[2] if len(args) > 2 else kwargs["T"])}


# home module -> {public function: (span op, counter function or None)}
TRACED = {
    "specrf.features": {
        "sample_feature_map": ("features.sample", None),
        "feature_matrix": ("features.embed", _embed_counters),
    },
    "specrf.estimator": {
        "assemble_empirical_operators": ("estimator.moments", _moments_counters),
        "fit_spectral": ("estimator.solve", _solve_counters),
        "fit_iterative": ("estimator.solve", _solve_counters),
        "mse": ("estimator.score", None),
        "predict": ("estimator.score", None),
        "save_model": ("estimator.io", _size_of_arg(1, "path")),
        "load_model": ("estimator.io", _size_of_arg(0, "path")),
    },
    "specrf.filters": {
        "audit_filter": ("filters.audit", None),
    },
    "specrf.diagnostics": {
        "make_designer_problem": ("diagnostics.problem", None),
        "sample_dataset": ("diagnostics.sample", _sample_rows),
        "excess_risk_exact": ("diagnostics.risk", None),
    },
    "specrf.harness": {
        "run_heatmap": ("harness.run", None),
        "run_rate_sweep": ("harness.run", None),
        "run_plateau_check": ("harness.run", None),
        "ingest_csv_dataset": ("harness.ingest", _sample_rows),
        "standardize_features": ("harness.ingest", None),
        "write_outputs": ("harness.emit", _dir_bytes),
        "write_results_csv": ("harness.emit", _size_of_arg(0, "path")),
    },
}
FILTER_BASE = ("specrf.filters", "SpectralFilter")
FILTER_METHODS = {"value": _value_counters, "value_at_iterations": _value_at_iterations_counters}

# per-layer metric -> (span op, statistic); statistics are computed in layer_metrics
LAYER_METRICS = {
    "features.sample_s": ("features.sample", "self_s"),
    "features.sample_calls": ("features.sample", "calls"),
    "features.embed_s": ("features.embed", "self_s"),
    "features.embed_calls": ("features.embed", "calls"),
    "features.embed_rows": ("features.embed", "rows"),
    "features.embed_bytes": ("features.embed", "bytes"),
    "features.embed_unique_ratio": ("features.embed", "unique_ratio"),
    "estimator.moments_s": ("estimator.moments", "self_s"),
    "estimator.moments_calls": ("estimator.moments", "calls"),
    "estimator.moments_flops": ("estimator.moments", "flops"),
    "estimator.solve_s": ("estimator.solve", "self_s"),
    "estimator.solve_calls": ("estimator.solve", "calls"),
    "estimator.iterations": ("estimator.solve", "iterations"),
    "estimator.score_s": ("estimator.score", "self_s"),
    "estimator.score_calls": ("estimator.score", "calls"),
    "estimator.io_s": ("estimator.io", "self_s"),
    "estimator.io_bytes": ("estimator.io", "bytes"),
    "filters.eval_s": ("filters.eval", "self_s"),
    "filters.eval_calls": ("filters.eval", "calls"),
    "filters.eval_points": ("filters.eval", "points"),
    "filters.requested_T": ("filters.eval", "T"),
    "filters.audit_s": ("filters.audit", "self_s"),
    "filters.audit_calls": ("filters.audit", "calls"),
    "diagnostics.problem_s": ("diagnostics.problem", "self_s"),
    "diagnostics.sample_s": ("diagnostics.sample", "self_s"),
    "diagnostics.sample_rows": ("diagnostics.sample", "rows"),
    "diagnostics.risk_s": ("diagnostics.risk", "self_s"),
    "diagnostics.risk_calls": ("diagnostics.risk", "calls"),
    "harness.run_s": ("harness.run", "total_s"),
    "harness.self_s": ("harness.run", "self_s"),
    "harness.trials": ("harness.run", "trials"),
    "harness.trials_failed": ("harness.run", "trials_failed"),
    "harness.pool_busy_ratio": ("harness.run", "busy_ratio"),
    "harness.ingest_s": ("harness.ingest", "self_s"),
    "harness.ingest_rows": ("harness.ingest", "rows"),
    "harness.emit_s": ("harness.emit", "self_s"),
    "harness.emit_bytes": ("harness.emit", "bytes"),
}


class Tracer:
    """Collects spans for one workload run; install() before, uninstall() after."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, op: str, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"run": self.run_id, "id": span_id, "parent": parent, "op": op,
                        "start": start, "end": end, "thread": threading.get_ident(),
                        "error": error, "counters": {}}
                self.spans.append(span)
            if counters is not None:
                span["counters"] = counters(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "specrf" and m}
        for home, names in TRACED.items():
            home_mod = modules.get(home)
            for name, (op, counters) in names.items():
                original = getattr(home_mod, name, None)
                if original is None:
                    self.absent.append(f"{home}.{name}")
                    continue
                wrapper = self.wrap(original, op, counters)
                for mod in modules.values():
                    if getattr(mod, name, None) is original:
                        self._rebind(mod, name, wrapper)
        base = getattr(modules.get(FILTER_BASE[0]), FILTER_BASE[1], None)
        if base is None:
            self.absent.append(".".join(FILTER_BASE))
            return
        found = set()
        for cls in _subclasses(base):
            for method, counters in FILTER_METHODS.items():
                if method not in vars(cls):
                    continue
                found.add(method)
                self._rebind(cls, method, self.wrap(vars(cls)[method], "filters.eval", counters))
        self.absent.extend(f"{'.'.join(FILTER_BASE)}.{m}" for m in FILTER_METHODS if m not in found)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans: list[dict], workers: int) -> dict:
    """Per-layer metrics of one traced run.

    Self time is a span's duration minus the part of it that child spans
    cover. A span nested directly in a span of the same op (mse -> predict,
    value -> value_at_iterations) adds time but no call or counter.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    stats = defaultdict(lambda: defaultdict(float))
    keys = defaultdict(set)
    for s in spans:
        op, dur = s["op"], s["end"] - s["start"]
        kids = children[s["id"]]
        st = stats[op]
        st["self_s"] += dur - _covered([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        if by_id.get(s["parent"], {}).get("op") == op:
            continue
        st["total_s"] += dur
        st["calls"] += 1
        for name, value in s["counters"].items():
            if name == "key":
                keys[op].add(value)
            else:
                st[name] += value
        if op == "harness.run":
            solves = [k for k in kids if k["op"] == "estimator.solve"]
            st["trials"] += len(solves)
            st["trials_failed"] += sum(1 for k in solves if k["error"])
            st["busy_s"] += sum(k["end"] - k["start"] for k in kids)
    embed = stats["features.embed"]
    embed["unique_ratio"] = len(keys["features.embed"]) / embed["calls"] if embed["calls"] else 0.0
    run = stats["harness.run"]
    run["busy_ratio"] = run["busy_s"] / (run["total_s"] * workers) if run["total_s"] else 0.0
    return {name: float(stats[op][stat]) for name, (op, stat) in LAYER_METRICS.items()}
