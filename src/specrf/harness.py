"""Experiment harness: schedules, seeded grid sweeps, CSV/JSON emission.

Trial seeds derive from (base_seed, n-index, M-index, T-index, rep-index)
through a splitmix64 chain, so results are reproducible under grid
reordering and any worker count.
"""
from __future__ import annotations

import csv
import inspect
import itertools
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import (DesignerProblem, check_easy_regime, excess_risk_exact,
                          make_designer_problem, sample_dataset)
from .estimator import fit_iterative, fit_spectral, mse
from .features import (
    call_checked,
    check_keys,
    check_object,
    real_number,
    sample_feature_map,
    whole_number,
)
from .filters import make_filter, qualification_sufficient

RESULTS_HEADER = ("n", "M", "T", "lambda", "rep", "metric", "value")
MIN_PLATEAU_REPS = 10

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def trial_seed(base_seed: int, *indices: int) -> int:
    s = splitmix64(base_seed & _MASK)
    for idx in indices:
        s = splitmix64(s ^ ((idx + 1) & _MASK))
    return s


# ---------------------------------------------------------------------------
# Rate-matched schedules


def _check_regime(n: int, r: float, b: float) -> None:
    check_easy_regime(r, b)
    n0 = math.ceil(math.exp((2.0 * r + b) / (2.0 * r + b - 1.0)))
    if n < n0:
        raise ValueError(f"n = {n} below the schedule threshold n0 = {n0}")


def lambda_schedule(n: int, r: float, b: float, C_lambda: float = 1.0) -> float:
    """lambda = min(1, C_lambda * n^(-1/(2r+b)))."""
    _check_regime(n, r, b)
    if C_lambda <= 0:
        raise ValueError(f"C_lambda must be positive, not {C_lambda!r}")
    return min(1.0, C_lambda * n ** (-1.0 / (2.0 * r + b)))


def m_schedule_exponent(r: float, b: float) -> float:
    if r < 0.5:
        return 1.0 / (2.0 * r + b)
    if r <= 1.0:
        return (1.0 + b * (2.0 * r - 1.0)) / (2.0 * r + b)
    return 2.0 * r / (2.0 * r + b)


def m_schedule(n: int, r: float, b: float, C_M: float = 4.0) -> int:
    """Feature-count schedule M = ceil(C_M * log(n) * n^e), regime-dependent e."""
    _check_regime(n, r, b)
    if C_M <= 0:
        raise ValueError(f"C_M must be positive, not {C_M!r}")
    return math.ceil(C_M * math.log(n) * n ** m_schedule_exponent(r, b))


# ---------------------------------------------------------------------------
# Dataset ingestion


def ingest_csv_dataset(
    path: str,
    label_col: int = 0,
    delimiter: str = ",",
    has_header: bool = False,
    max_rows: int | None = None,
    feature_cols: list[int] | None = None,
    standardize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse a numeric CSV into (X, y); label column defaults to the first.

    Every option value is checked here, each error naming its option: a column
    index is an integer in [-width, width), counted from the end when negative.
    One vectorised parse (_load_csv) reads the rows; a file it cannot read, or
    reads to no rows or a non-finite cell, goes to _scan_csv, which accepts or
    rejects it with the error naming its line.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a file name, not {path!r}")
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be a one-character string, not {delimiter!r}")
    for name, flag in (("has_header", has_header), ("standardize", standardize)):
        if not isinstance(flag, bool):
            raise ValueError(f"{name} must be true or false, not {flag!r}")
    if max_rows is not None:
        max_rows = whole_number(max_rows, "max_rows")
    if feature_cols is not None and not (isinstance(feature_cols, list) and feature_cols):
        raise ValueError(f"feature_cols must be null or a nonempty list, not {feature_cols!r}")
    data = _load_csv(path, delimiter, has_header, max_rows)
    if data is None:
        data = _scan_csv(path, delimiter, has_header, max_rows)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: needs a label column and at least one feature column")
    label_col = _column(label_col, data.shape[1], "label_col", "label column") % data.shape[1]
    y = data[:, label_col]
    X = np.delete(data, label_col, axis=1)
    if feature_cols is not None:
        cols = [_column(col, X.shape[1], "feature_cols entry", "feature column") % X.shape[1]
                for col in feature_cols]
        _check_distinct(cols, "feature_cols")
        X = X[:, cols]
    if standardize:
        X, _ = standardize_features(X)
    return X, y


def _load_csv(path, delimiter: str, has_header: bool, max_rows: int | None) -> np.ndarray | None:
    """The data rows as one array from np.loadtxt, whose cells round as float() does;
    None where it raises, finds no row or a non-finite cell. The header is the first
    record as csv reads it, which a quoted cell can carry past the first line."""
    if delimiter in "\r\n":  # loadtxt takes no newline delimiter
        return None
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's no-data and max_rows notes
        try:
            if has_header:
                next(csv.reader(fh, delimiter=delimiter), None)
            data = np.loadtxt(fh, delimiter=delimiter, comments=None, quotechar=None,
                              max_rows=max_rows, ndmin=2)
        except (ValueError, csv.Error):
            return None
    return data if data.size and np.isfinite(data).all() else None


def _scan_csv(path, delimiter: str, has_header: bool, max_rows: int | None) -> np.ndarray:
    """The data rows, read record by record with csv: the one definition of the
    accepted format and of each error, named `path:line`, the line the record starts
    on. The header is the first record, blank and whitespace-only records are
    skipped, quoted cells are read as csv reads them, and each cell is float(); a
    non-numeric or non-finite cell, a record csv cannot read, records of unequal
    width, or no data record at all is a ValueError."""
    rows: list[list[float]] = []
    start = 1  # the line the record being read starts on
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            for index, record in enumerate(reader):
                lineno, start = start, reader.line_num + 1
                if has_header and index == 0:
                    continue
                if not record or all(cell.strip() == "" for cell in record):
                    continue
                try:
                    row = [float(cell) for cell in record]
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
                if not all(map(math.isfinite, row)):
                    cell = next(c for c, v in zip(record, row) if not math.isfinite(v))
                    raise ValueError(f"{path}:{lineno}: non-finite cell {cell.strip()!r}")
                rows.append(row)
                if max_rows is not None and len(rows) >= max_rows:
                    break
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}:{_undecodable_line(path)}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # a quote that never closes makes the rest of the file one field
        raise ValueError(f"{path}:{start}: unreadable csv record ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.asarray(rows, dtype=float)


def _undecodable_line(path) -> int:
    """The number of the first line of `path` that is not UTF-8 text, read as
    bytes; a file that does not decode as a whole has one."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


def _column(index, width: int, option: str, what: str) -> int:
    """`index` as an int, or a ValueError naming `option` unless it is an integer in [-width, width)."""
    index = whole_number(index, option, least=-width)
    if index >= width:
        raise ValueError(f"{option} {index}: {what} out of range for width {width}")
    return index


def _check_distinct(values: list, option: str) -> None:
    """A ValueError naming `option` and each value it repeats, in ascending order."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{option} repeats entries: {', '.join(map(str, repeated))}")


def standardize_features(
    X_train: np.ndarray, X_other: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Zero-mean unit-variance scaling with training-split statistics only."""
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    out = (X_train - mean) / std
    return out, None if X_other is None else (X_other - mean) / std


# ---------------------------------------------------------------------------
# Plans. Each nested config dict holds the keyword arguments of the function
# it feeds, so that function's signature says which keys the dict may hold
# (features.call_checked checks them).


@dataclass
class ExperimentPlan:
    experiment: str  # heatmap | rate_sweep | plateau_check
    base_seed: int = 0
    repetitions: int = 20
    n_train: int = 5000
    n_test: int = 5000
    m_grid: list[int] = field(default_factory=list)
    t_grid: list[int] = field(default_factory=list)
    n_grid: list[int] = field(default_factory=list)
    problem: dict = field(default_factory=lambda: {"type": "synthetic", "input_dim": 1, "noise_std": 0.3})
    feature_map: dict = field(default_factory=lambda: {"kind": "gaussian_rff", "params": {"bandwidth": 1.0}})
    filter: dict = field(default_factory=lambda: {"kind": "landweber", "alpha": 0.5})
    schedule: dict = field(default_factory=dict)
    plateau_tol: float = 0.05

    def __post_init__(self):
        if self.experiment not in ("heatmap", "rate_sweep", "plateau_check"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        self.base_seed = whole_number(self.base_seed, "plan base_seed", least=0)
        for key in ("repetitions", "n_train", "n_test"):
            setattr(self, key, whole_number(getattr(self, key), f"plan {key}"))
        if real_number(self.plateau_tol, "plan plateau_tol") < 0:
            raise ValueError(f"plan plateau_tol must be >= 0, not {self.plateau_tol!r}")
        for key in ("m_grid", "t_grid", "n_grid"):
            if not isinstance(getattr(self, key), list):
                raise ValueError(f"plan {key} must be a list, not {getattr(self, key)!r}")
        for key in ("m_grid", "n_grid"):
            grid = [whole_number(v, f"plan {key} entry") for v in getattr(self, key)]
            _check_distinct(grid, f"plan {key}")
            setattr(self, key, grid)
        sched = {key: p.default for fn in (lambda_schedule, m_schedule)
                 for key, p in inspect.signature(fn).parameters.items() if p.default is not p.empty}
        check_keys(self.schedule, "plan schedule", (), sched, "lambda_schedule or m_schedule")
        self.schedule = {**sched, **self.schedule}
        for key, value in self.schedule.items():
            real_number(value, f"plan schedule {key}")
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                    for f in fields(self) if f.name != "schedule"}
        unread = ("n_grid", "schedule") if self.experiment != "rate_sweep" else (
            "n_train", "n_test", "m_grid", "t_grid", "feature_map", "plateau_tol")
        for key in unread:  # a field its experiment never reads holds its default (sched for schedule)
            if getattr(self, key) != defaults.get(key, sched):
                raise ValueError(f"plan {key} is not read by a {self.experiment} plan; leave it out")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def default_heatmap_plan(n: int = 5000, repetitions: int = 20, base_seed: int = 0) -> ExperimentPlan:
    """Synthetic d=1 plan mirroring the gradient-descent heatmap experiment."""
    return ExperimentPlan(
        experiment="heatmap",
        base_seed=base_seed,
        repetitions=repetitions,
        n_train=n,
        n_test=n,
        m_grid=list(plateau_anchors(n, 1)),
        t_grid=[1, 4, 16, 64, 256],
    )


def plateau_anchors(n: int, input_dim: int) -> tuple[int, int]:
    root = math.sqrt(n) * input_dim
    return round(4 * root), round(20 * root)


def default_rate_plan(repetitions: int = 20, base_seed: int = 0) -> ExperimentPlan:
    return ExperimentPlan(
        experiment="rate_sweep",
        base_seed=base_seed,
        repetitions=repetitions,
        n_grid=[512, 1024, 2048, 4096, 8192, 16384],
        problem={"type": "designer", "J": 512, "b": 1.0, "r": 0.5, "R": 1.0, "noise_std": 0.5},
        filter={"kind": "tikhonov"},
    )


# ---------------------------------------------------------------------------
# Synthetic data


def _synthetic_target(X: np.ndarray) -> np.ndarray:
    # smooth cosine mixture of a fixed 1-d projection; coefficients decay
    d = X.shape[1]
    s = X @ (np.ones(d) / math.sqrt(d))
    j = np.arange(1, 7, dtype=float)
    return np.cos(np.outer(s, j - 1.0)) @ (j**-1.5)


def _synthetic_data(seed: int, n: int, input_dim: int = 1, noise_std: float = 0.3):
    input_dim = whole_number(input_dim, "synthetic problem input_dim")
    if real_number(noise_std, "synthetic problem noise_std") < 0:
        raise ValueError(f"synthetic problem noise_std must be >= 0, not {noise_std!r}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, input_dim))
    y = _synthetic_target(X)
    if noise_std > 0:
        y = y + noise_std * rng.standard_normal(n)
    return X, y


def _problem_conf(plan: ExperimentPlan, *types: str) -> tuple[str, dict]:
    """The plan's problem type, which must be one of `types`, and its other keys."""
    conf = dict(check_object(plan.problem, "plan problem"))
    kind = conf.pop("type", None)
    if kind not in types:
        raise ValueError(f"{plan.experiment} takes problem type {' or '.join(types)}, not {kind!r}")
    return kind, conf


def _heatmap_problem(plan: ExperimentPlan):
    """Check a heatmap plan; return its synthetic or dataset problem as a function from
    a repetition's seed to its (X_tr, y_tr, X_te, y_te), and the input dimension."""
    if plan.experiment not in ("heatmap", "plateau_check"):
        raise ValueError("plan.experiment must be heatmap or plateau_check")
    if not plan.m_grid or not plan.t_grid:
        raise ValueError("m_grid and t_grid must be nonempty")
    kind, conf = _problem_conf(plan, "synthetic", "dataset")
    if kind == "synthetic":  # zero rows: checks the keys and gives the input dimension
        X0, _ = call_checked(_synthetic_data, conf, "synthetic problem", seed=0, n=0)

        def draw(rep_seed: int):
            X_tr, y_tr = _synthetic_data(trial_seed(rep_seed, 0), plan.n_train, **conf)
            return X_tr, y_tr, *_synthetic_data(trial_seed(rep_seed, 1), plan.n_test, **conf)

        return draw, X0.shape[1]
    # standardize is the command's: every split is scaled by its training rows below
    X, y = call_checked(ingest_csv_dataset, conf, "dataset problem", standardize=False)
    need = plan.n_train + plan.n_test
    if X.shape[0] < need:
        raise ValueError(f"dataset has {X.shape[0]} rows, plan needs {need}")
    # fixed shuffle from the base seed: all reps share the split
    perm = np.random.default_rng(trial_seed(plan.base_seed, 0xD5)).permutation(X.shape[0])
    tr, te = perm[: plan.n_train], perm[plan.n_train : need]
    X_tr, X_te = standardize_features(X[tr], X[te])
    split = X_tr, y[tr], X_te, y[te]
    return (lambda rep_seed: split), X.shape[1]


# ---------------------------------------------------------------------------
# Runners


def _run_cells(trial, keys, workers: int) -> tuple[list, list, dict]:
    """Run trial(*key) over `keys`, on a pool of `workers` threads. Each trial returns
    (row, error) pairs: a results.csv row and None, or the row its failed cell would
    have had and the error's repr. Returns, in key order, the rows of the cells that
    ran, the failed-cell records, and {(n, M, T): [value, ...]} over those rows."""
    if workers <= 1:
        outcomes = list(itertools.starmap(trial, keys))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = [fut.result() for fut in [pool.submit(trial, *key) for key in keys]]
    rows, failures, cells = [], [], {}
    for row, error in itertools.chain.from_iterable(outcomes):
        n, m, t, _, rep, _, value = row
        if error is None:
            rows.append(row)
            cells.setdefault((n, m, t), []).append(value)
        else:
            failures.append({"M": m, "T": t, "rep": rep, "error": error})
    return rows, failures, cells


def run_heatmap(plan: ExperimentPlan, workers: int = 1) -> dict:
    """Grid over (M, T): per cell, `repetitions` fits with fresh feature
    seeds; returns per-trial rows plus mean/std aggregates."""
    return _heatmap_grid(plan, workers, *_heatmap_problem(plan))


def _heatmap_grid(plan: ExperimentPlan, workers: int, draw, input_dim: int) -> dict:
    """run_heatmap on the problem that _heatmap_problem(plan) returned."""
    filt = make_filter(**check_object(plan.filter, "plan filter"))  # make_filter checks the keys
    try:  # resolve checks each T, and that the filter is iterative, before any trial runs
        t_grid = sorted({filt.resolve(iterations=t)[1] for t in plan.t_grid})
    except ValueError as exc:
        raise ValueError(f"plan t_grid: {exc}") from None
    fm = {"params": {}, **check_object(plan.feature_map, "plan feature_map")}  # checked once here
    call_checked(sample_feature_map, fm, "plan feature_map", input_dim=input_dim,
                 num_samples=plan.m_grid[0], seed=plan.base_seed)
    lams = {t: filt.resolve(iterations=t)[0] for t in t_grid}

    def trial(mi: int, rep: int):
        m = plan.m_grid[mi]
        seed = trial_seed(plan.base_seed, 0, mi, 0, rep)
        X_tr, y_tr, X_te, y_te = draw(seed)
        fmap = sample_feature_map(**fm, input_dim=input_dim, num_samples=m, seed=trial_seed(seed, 2))
        heads = [(plan.n_train, m, t, lams[t], rep, "test_mse") for t in t_grid]  # rows less their value
        try:
            model = fit_iterative(
                fmap, X_tr, y_tr, filt, iterations=max(t_grid), snapshots=tuple(t_grid)
            )
        except (ValueError, RuntimeError) as exc:  # cell marked failed, run continues
            return [((*head, None), repr(exc)) for head in heads]
        # one streamed pass over the test set scores every snapshot
        thetas = np.column_stack([model.snapshots[t] for t in t_grid])
        errors = mse(replace(model, theta=thetas), X_te, y_te)
        return [((*head, float(e)), None) for head, e in zip(heads, errors)]

    keys = itertools.product(range(len(plan.m_grid)), range(plan.repetitions))
    rows, failures, cells = _run_cells(trial, keys, workers)
    aggregates = [
        {
            "M": m,
            "T": t,
            "mean_test_mse": float(np.mean(vals)),
            "std_test_mse": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            "reps": len(vals),
        }
        for (_, m, t), vals in sorted(cells.items())
    ]
    return {"rows": rows, "aggregates": aggregates, "failures": failures}


def run_plateau_check(plan: ExperimentPlan, heatmap: dict | None = None, workers: int = 1) -> dict:
    """run_heatmap's result (or the given `heatmap`) plus its verdict under
    "plateau": PASS iff best-over-T error at M = 4 sqrt(n) d stays within
    (1 + tol) of the error at M = 20 sqrt(n) d.

    The verdict is FAIL, with `reason` set, when an anchor has no surviving
    cell or its best cell has fewer than MIN_PLATEAU_REPS repetitions.
    """
    draw, input_dim = _heatmap_problem(plan)  # built once, so a dataset is read once
    m_small, m_big = plateau_anchors(plan.n_train, input_dim)
    if m_small not in plan.m_grid or m_big not in plan.m_grid:
        raise ValueError(
            f"anchors not in grid: need M = {m_small} and M = {m_big} in m_grid"
        )
    if plan.repetitions < MIN_PLATEAU_REPS:
        raise ValueError(
            f"refusing to judge plateau with < {MIN_PLATEAU_REPS} repetitions"
        )
    if heatmap is None:
        heatmap = _heatmap_grid(plan, workers, draw, input_dim)
    best = {}
    for cell in heatmap["aggregates"]:
        m = cell["M"]
        if m not in best or cell["mean_test_mse"] < best[m]["mean_test_mse"]:
            best[m] = cell
    err_small, err_big = best.get(m_small), best.get(m_big)
    reps = {m: best[m]["reps"] if m in best else 0 for m in (m_small, m_big)}
    short = [f"M = {m} has {r}" for m, r in reps.items() if r < MIN_PLATEAU_REPS]
    if short:
        passed = False
        reason = f"anchor best cells below {MIN_PLATEAU_REPS} repetitions: {', '.join(short)}"
    else:
        passed = err_small["mean_test_mse"] <= (1.0 + plan.plateau_tol) * err_big["mean_test_mse"]
        reason = None
    return {**heatmap, "plateau": {
        "pass": bool(passed),
        "reason": reason,
        "tol": plan.plateau_tol,
        "anchor_small": err_small,
        "anchor_big": err_big,
    }}


def _problem_from_plan(plan: ExperimentPlan) -> DesignerProblem:
    _, conf = _problem_conf(plan, "designer")
    _, defaults = _problem_conf(default_rate_plan(), "designer")  # the plan's keys override these
    return call_checked(make_designer_problem, {**defaults, **conf}, "designer problem",
                        seed=plan.base_seed)


def ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - (y.mean() + slope * xc)
    dof = max(x.size - 2, 1)
    se = float(np.sqrt(resid @ resid / dof / (xc @ xc)))
    return slope, se


def run_rate_sweep(plan: ExperimentPlan, workers: int = 1) -> dict:
    """Exact designer excess risk along the (lambda, M) schedules; fits the
    log-log rate slope over the n grid. "qualification_sufficient" records
    whether the filter's qualification covers the problem's r, which the
    rate's guarantee needs (filters.qualification_sufficient)."""
    if plan.experiment != "rate_sweep":
        raise ValueError("plan.experiment must be rate_sweep")
    if len(plan.n_grid) < 5:
        raise ValueError("rate sweep needs an n-grid with at least 5 points")
    sched = plan.schedule
    problem = _problem_from_plan(plan)
    r, b = problem.r, problem.b  # the problem's source condition and capacity set both schedules
    filt = make_filter(**check_object(plan.filter, "plan filter"))
    fit = fit_iterative if filt.iterative else fit_spectral  # the filter picks the solver
    configs = []
    for n in plan.n_grid:
        lam = lambda_schedule(n, r, b, sched["C_lambda"])
        m = m_schedule(n, r, b, sched["C_M"])
        configs.append({"n": n, "lambda": lam, "M": min(m, problem.rank), "M_schedule": m})

    def trial(ni: int, rep: int):
        n, lam, m = configs[ni]["n"], configs[ni]["lambda"], configs[ni]["M"]
        fmap = problem.truncated_map(m)
        X, y = sample_dataset(problem, n, trial_seed(plan.base_seed, ni, 0, 0, rep))
        try:
            model = fit(fmap, X, y, filt, lam=lam)
        except (ValueError, RuntimeError) as exc:  # same class, so callers catch it as before
            raise type(exc)(f"rate sweep cell n = {n}, rep = {rep}: {exc}") from exc
        risk = excess_risk_exact(problem, model)["total"]
        # T is the step count an iterative filter ran, 0 for any other filter
        return [((n, m, model.iterations or 0, lam, rep, "excess_risk", risk), None)]

    keys = itertools.product(range(len(plan.n_grid)), range(plan.repetitions))
    rows, _, cells = _run_cells(trial, keys, workers)
    means = [float(np.mean(vals)) for vals in cells.values()]
    degenerate = any(m < 1e-12 for m in means)
    slope, se = None, None  # a degenerate sweep's risk has no log, so it has no slope
    if not degenerate:
        slope, se = ols_slope(np.log(np.asarray(plan.n_grid, float)), np.log(means))
    return {
        "rows": rows,
        "configs": configs,
        "mean_excess_risk": means,
        "qualification_sufficient": qualification_sufficient(filt, r),
        "slope": slope,
        "slope_stderr": se,
        "target_slope": -r / (2.0 * r + b),
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# Output files


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_results_csv(path: str | Path, rows) -> None:
    lines = [",".join(RESULTS_HEADER)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_outputs(out_dir: str | Path, plan: ExperimentPlan, rows, summary: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(out / "results.csv", rows)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n")
    (out / "plan.resolved.json").write_text(plan.to_json() + "\n")
