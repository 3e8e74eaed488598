"""Command-line front end.

Exit codes: 0 success, 2 acceptance-check failure (audit, plateau or diagnose), 1
execution or usage error, reported as one `error:` line on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    compute_f_star,
    effective_dimension,
    make_designer_problem,
    proof_bounds,
    sample_dataset,
)
from .estimator import fit, save_model
from .features import (call_checked, check_budget, check_keys, check_object, sample_feature_map,
                       whole_number)
from .filters import AUDIT_SLACK, FILTERS, audit_filter, make_filter
from .harness import (
    ExperimentPlan,
    default_heatmap_plan,
    default_rate_plan,
    ingest_csv_dataset,
    run_heatmap,
    run_plateau_check,
    run_rate_sweep,
    write_json,
    write_outputs,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


def _read_config(path: str):
    """The JSON in a --config file; a file that is not UTF-8 JSON is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise ValueError(f"{path}: {exc}") from None


def _cmd_fit(args) -> int:
    if not args.config:
        raise ValueError("fit requires --config")
    config = _read_config(args.config)
    where, taker = "fit config", "specrf fit"
    check_keys(config, where, ("data", "feature_map", "filter"), ("lambda", "iterations"), taker)
    filt = make_filter(**check_object(config["filter"], f"{where} filter"))
    lam, iterations = config.get("lambda"), config.get("iterations")
    if lam is not None and iterations is not None:
        filt.resolve(lam, iterations)  # a bad value is named before the pair is rejected
        raise ValueError(f"{where} gives both lambda and iterations; give one of them")
    data, seed = check_object(config["data"], f"{where} data"), args.seed or 0
    forms = {"path": ("options",), "designer": ("n",)}  # source key -> optional keys
    sources = [key for key in forms if key in data]
    if len(sources) != 1:
        raise ValueError("fit config data needs exactly one of path or designer")
    check_keys(data, f"{where} data", sources, forms[sources[0]], taker)
    if "path" in data:
        X, y = call_checked(
            ingest_csv_dataset, data.get("options", {}), f"{where} data.options", path=data["path"]
        )
    else:
        problem = call_checked(make_designer_problem, data["designer"], f"{where} data.designer",
                               seed=seed)
        X, y = sample_dataset(problem, whole_number(data.get("n", 1000), f"{where} data n"), seed)
    fm_where = f"{where} feature_map"
    fm = {"params": {}, **check_object(config["feature_map"], fm_where)}
    fmap = call_checked(sample_feature_map, fm, fm_where, input_dim=X.shape[1], seed=seed)
    model = fit(fmap, X, y, filt, lam=lam, iterations=iterations)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    report = {
        "train_mse": model.train_mse,
        "lambda": model.lam,
        "iterations": model.iterations,
        "fit_path": model.fit_path,
        "embedding_dim": fmap.embedding_dim,
    }
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _run_sweep(args, fallback: ExperimentPlan, runner) -> tuple[list, dict]:
    """Run the --config plan (else `fallback`) and write its results.csv,
    plan.resolved.json and summary.json: the runner's result without its rows."""
    plan = call_checked(ExperimentPlan, _read_config(args.config), "plan") if args.config else fallback
    if args.seed is not None:  # replace reruns the plan's checks on the seed
        plan = dataclasses.replace(plan, base_seed=args.seed)
    summary = runner(plan, workers=args.workers)
    rows = summary.pop("rows")
    write_outputs(args.out_dir, plan, rows, summary)
    return rows, summary


def _cmd_heatmap(args) -> int:
    rows, summary = _run_sweep(args, default_heatmap_plan(), run_heatmap)
    print(f"heatmap: {len(rows)} rows, {len(summary['failures'])} failed cells")
    return EXIT_OK


def _cmd_rate_sweep(args) -> int:
    _, summary = _run_sweep(args, default_rate_plan(), run_rate_sweep)
    target = f"(target {summary['target_slope']:.4f})"
    if summary["degenerate"]:
        print(f"rate sweep: degenerate, a mean excess risk vanishes, so no slope {target}")
    else:
        print(f"rate sweep: slope = {summary['slope']:.4f} +/- {summary['slope_stderr']:.4f} {target}")
    return EXIT_OK


def _cmd_plateau(args) -> int:
    passed = _run_sweep(args, default_heatmap_plan(), run_plateau_check)[1]["plateau"]["pass"]
    print(f"plateau check: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_audit_filters(args) -> int:
    reports = [audit_filter(cls()) for cls in FILTERS]  # each kind at its defaults
    write_json(Path(args.out_dir) / "filter_audits.json", reports)
    for rep in reports:
        print(f"{rep['filter']}: {'PASS' if rep['pass'] else 'FAIL'}")
    return EXIT_OK if all(rep["pass"] for rep in reports) else EXIT_CHECK_FAILED


def _cmd_diagnose(args) -> int:
    problem = make_designer_problem(J=args.rank, b=args.b, r=args.r, noise_std=0.0)
    filt = make_filter("landweber")
    # a point's record and its JSON text take about 1.4 KB under tracemalloc
    check_budget(args.grid_points * 2048, f"a lambda grid of {args.grid_points} points")
    records = []
    for lam in map(float, np.logspace(-4, 0, args.grid_points)):
        record = {"lambda": lam, "bias": compute_f_star(problem, filt, lam)[1],
                  "effective_dimension": effective_dimension(problem.eigenvalues, lam),
                  **proof_bounds(problem, filt, lam)}
        record["pass"] = all(record[key] <= record[f"{key}_bound"] + AUDIT_SLACK
                             for key in ("bias", "effective_dimension"))
        records.append(record)
    write_json(Path(args.out_dir) / "diagnostics.json", records)
    failed = sum(not record["pass"] for record in records)
    print(f"diagnose: wrote {len(records)} records, {failed} past a bound")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _integer_from(least: int):
    """An argparse type: an integer of at least `least`, so a bad value names its flag."""

    def parse(text: str) -> int:
        try:
            return whole_number(int(text), "value", least)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}") from None

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit 1; subparsers inherit it."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specrf",
        description="Spectral regularization learning with random features",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": dict(help="JSON plan/config path"),
        "--seed": dict(type=_integer_from(0), default=None, help="base seed override"),
        "--workers": dict(type=_integer_from(1), default=1),
        "--out-dir": dict(default="specrf-out"),
    }
    sweep = ("--config", "--seed", "--workers", "--out-dir")
    for name, fn, names in (
        ("fit", _cmd_fit, ("--config", "--seed", "--out-dir")),
        ("heatmap", _cmd_heatmap, sweep),
        ("rate-sweep", _cmd_rate_sweep, sweep),
        ("plateau", _cmd_plateau, sweep),
        ("audit-filters", _cmd_audit_filters, ("--out-dir",)),
        ("diagnose", _cmd_diagnose, ("--out-dir",)),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        if name == "diagnose":
            p.add_argument("--rank", type=_integer_from(2), default=64)
            p.add_argument("--b", type=float, default=1.0)
            p.add_argument("--r", type=float, default=0.5)
            p.add_argument("--grid-points", type=_integer_from(1), default=20)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
