"""Correctness checks of one benchmark run, in a process of their own.

    python3 perfbench/checks.py WORKLOAD RUN_DIR SEED SCALE

RUN_DIR holds `input/` and one `op-*/` directory per operation child. The
checks read every child's outputs, refit one case on an independent path,
compare against the values recorded in reference.json (default seed, full
scale), and print one JSON object: the environment, the user-facing risk,
the operations attempted and failed per child, and each run-level check.
"""
from __future__ import annotations

import csv
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from workloads import operations_per_child

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
PATH_EQUIVALENCE_RTOL = 1e-8  # tests/test_acceptance.py: spectral vs iterative path
GRAM_RIDGE_RTOL = 1e-6  # tests/test_acceptance.py: primal vs gram ridge
ROUNDTRIP_RTOL = 1e-9
NORMAL_EQUATIONS_RTOL = 1e-8


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def _results(op_out: Path) -> list[dict]:
    with open(op_out / "results.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class Run:
    def __init__(self, workload: str, run_dir: Path, seed: int, scale: str):
        self.workload = workload
        self.in_dir = run_dir / "input"
        self.op_outs = sorted(p / "out" for p in run_dir.glob("op-*"))
        self.seed = seed
        self.scale = scale
        self.per_op = operations_per_child(workload, self.in_dir)
        self.ops = []
        self.checks = []
        self.risk = None

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    def op_failed(self, op_out: Path, failed: int, problems: list[str]) -> None:
        self.ops.append({"op": op_out.parent.name, "attempted": self.per_op,
                         "failed": min(failed, self.per_op), "problems": problems})

    def reference_risk(self) -> None:
        if self.seed != REFERENCE["seed"] or self.scale != "full" or self.risk is None:
            return
        want = REFERENCE["risk"][self.workload]
        self.check("risk matches the recorded reference",
                   _close(self.risk, want, REFERENCE["risk_rtol"]),
                   f"risk {self.risk!r}, reference {want!r}")

    def report(self) -> dict:
        return {"env": environment(), "risk": self.risk, "ops": self.ops, "checks": self.checks}


def _same_bytes(run: Run, name: str) -> None:
    blobs = {(o / name).read_bytes() for o in run.op_outs if (o / name).exists()}
    run.check(f"{name} identical across children", len(blobs) <= 1, f"{len(blobs)} variants")


def check_heatmap(run: Run) -> None:
    from specrf import fit_spectral, make_filter, mse, sample_feature_map, trial_seed

    plan = json.loads((run.in_dir / "plan.json").read_text())
    t_grid = sorted(plan["t_grid"])
    for out in run.op_outs:
        try:
            summary = json.loads((out / "summary.json").read_text())
            rows = _results(out)
        except (OSError, ValueError) as exc:
            run.op_failed(out, run.per_op, [f"outputs unreadable: {exc}"])
            continue
        bad = [r for r in rows if not math.isfinite(float(r["value"]))]
        problems = [f"failed cell {f}" for f in summary["failures"]]
        problems += [f"non-finite test MSE {r}" for r in bad]
        failed = {(f["M"], f["rep"]) for f in summary["failures"]}
        failed |= {(int(r["M"]), int(r["rep"])) for r in bad}
        complete = len(rows) + len(summary["failures"]) == run.per_op * len(t_grid)
        if not complete:
            problems.append(f"{len(rows)} result rows for {run.per_op} trials")
        run.op_failed(out, len(failed) if complete else run.per_op, problems)
    _same_bytes(run, "results.csv")

    first = run.op_outs[0] if run.op_outs else None
    if first is None or not (first / "summary.json").exists():
        run.check("heatmap outputs present", False)
        return
    aggregates = json.loads((first / "summary.json").read_text())["aggregates"]
    m_big = max(plan["m_grid"])
    run.risk = min(a["mean_test_mse"] for a in aggregates if a["M"] == m_big)

    # refit trial (M = smallest, rep 0) on the spectral path; data follows the
    # harness's synthetic problem and splitmix64 seed chain
    mi, rep = 0, 0
    seed = trial_seed(plan["base_seed"], 0, mi, 0, rep)
    fm = plan["feature_map"]
    fmap = sample_feature_map(fm["kind"], 1, plan["m_grid"][mi], fm.get("params", {}),
                              trial_seed(seed, 2))
    (X_tr, y_tr), (X_te, y_te) = (
        _synthetic(plan, trial_seed(seed, k), n)
        for k, n in ((0, plan["n_train"]), (1, plan["n_test"]))
    )
    filt = make_filter(**plan["filter"])
    recorded = {int(r["T"]): float(r["value"]) for r in _results(first)
                if int(r["M"]) == plan["m_grid"][mi] and int(r["rep"]) == rep}
    worst = 0.0
    for T in t_grid:
        refit = mse(fit_spectral(fmap, X_tr, y_tr, filt, iterations=T), X_te, y_te)
        worst = max(worst, abs(refit - recorded.get(T, math.nan)) / abs(refit))
    run.check("spectral refit matches the iterative path", worst <= PATH_EQUIVALENCE_RTOL,
              f"M={plan['m_grid'][mi]} rep {rep}: worst relative gap {worst:.2e}")


def _synthetic(plan: dict, seed: int, n: int):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 1))
    j = np.arange(1, 7, dtype=float)
    y = np.cos(np.outer(X[:, 0], j - 1.0)) @ (j**-1.5)
    return X, y + plan["problem"]["noise_std"] * rng.standard_normal(n)


def check_rate_sweep(run: Run) -> None:
    from specrf import (DesignerKernel, excess_risk_exact, fit_spectral, krr_gram_fit,
                        krr_predict, make_designer_problem, make_filter, predict, sample_dataset,
                        trial_seed)

    plan = json.loads((run.in_dir / "plan.json").read_text())
    for out in run.op_outs:
        try:
            summary = json.loads((out / "summary.json").read_text())
            rows = _results(out)
        except (OSError, ValueError) as exc:
            run.op_failed(out, run.per_op, [f"outputs unreadable: {exc}"])
            continue
        bad = [r for r in rows if not (float(r["value"]) > 0 and math.isfinite(float(r["value"])))]
        problems = [f"bad excess risk {r}" for r in bad]
        if summary["degenerate"]:
            problems.append("degenerate sweep")
        if len(rows) != run.per_op:
            problems.append(f"{len(rows)} rows, expected {run.per_op}")
        run.op_failed(out, run.per_op if summary["degenerate"] or len(rows) != run.per_op
                      else len(bad), problems)
    _same_bytes(run, "results.csv")

    first = run.op_outs[0] if run.op_outs else None
    if first is None or not (first / "summary.json").exists():
        run.check("rate sweep outputs present", False)
        return
    summary = json.loads((first / "summary.json").read_text())
    run.risk = summary["mean_excess_risk"][-1]

    # n = smallest, rep 0: primal fit against gram-matrix ridge with the designer kernel
    conf = summary["configs"][0]
    p = plan["problem"]
    problem = make_designer_problem(J=p["J"], b=p["b"], r=p["r"], R=p["R"],
                                    noise_std=p["noise_std"], seed=plan["base_seed"])
    X, y = sample_dataset(problem, conf["n"], trial_seed(plan["base_seed"], 0, 0, 0, 0))
    fmap = problem.truncated_map(conf["M"])
    model = fit_spectral(fmap, X, y, make_filter(**plan["filter"]), lam=conf["lambda"])
    recorded = next(float(r["value"]) for r in _results(first)
                    if int(r["n"]) == conf["n"] and int(r["rep"]) == 0)
    exact = excess_risk_exact(problem, model)["total"]
    run.check("refit reproduces the recorded excess risk", _close(exact, recorded, 1e-10),
              f"n={conf['n']}: {exact!r} vs {recorded!r}")
    kernel = DesignerKernel(problem.eigenvalues[: conf["M"]])
    X_probe = np.linspace(0.0, 1.0, 101)[:, None]
    dual = krr_predict(kernel, X, krr_gram_fit(kernel, X, y, conf["lambda"]), X_probe)
    gap = float(np.max(np.abs(predict(model, X_probe) - dual))) / float(np.max(np.abs(dual)))
    run.check("primal fit matches krr_gram_fit with DesignerKernel", gap <= GRAM_RIDGE_RTOL,
              f"n={conf['n']}, M={conf['M']}: relative gap {gap:.2e}")


def _audit_constants(report: dict) -> dict:
    values = dict(report["constants_measured"])
    values.update({f"c_{e['q']}": e["measured"] for e in report["qualification"]})
    return values


def check_audit(run: Run) -> None:
    reference = REFERENCE["audit"] if run.scale == "full" else None
    tables = set()
    for out in run.op_outs:
        try:
            reports = json.loads((out / "filter_audits.json").read_text())
        except (OSError, ValueError) as exc:
            run.op_failed(out, run.per_op, [f"outputs unreadable: {exc}"])
            continue
        problems = [f"{r['filter']}: FAIL" for r in reports if not r["pass"]]
        failed = len(problems) + run.per_op - len(reports)
        if reference is not None:
            for i, (got, want) in enumerate(zip(reports, reference["filters"])):
                measured = _audit_constants(got)
                off = [k for k, v in want["constants"].items()
                       if not _close(measured.get(k, math.nan), v, reference["rtol"])]
                if off or got["filter"] != want["filter"]:
                    problems.append(f"filter {i} ({got['filter']}): constants {off} differ")
                    failed += 1
        tables.add(json.dumps(reports, sort_keys=True))
        run.op_failed(out, failed, problems)
    run.check("audit tables identical across children", len(tables) <= 1,
              f"{len(tables)} variants")


def check_fit_csv(run: Run) -> None:
    from specrf import feature_matrix, load_model, mse
    from specrf.harness import ingest_csv_dataset

    config = json.loads((run.in_dir / "fit.json").read_text())
    reports = {}
    for out in run.op_outs:
        stdout = out.parent / "stdout.txt"
        try:
            lines = stdout.read_text().strip().splitlines()
            report = json.loads(lines[-1])
            train_mse = float(report["train_mse"])
        except (OSError, ValueError, IndexError, KeyError) as exc:
            run.op_failed(out, 1, [f"no fit report: {exc}"])
            continue
        ok = math.isfinite(train_mse) and (out / "model.json").exists()
        run.op_failed(out, 0 if ok else 1, [] if ok else ["non-finite MSE or no model.json"])
        reports[out] = train_mse
    run.check("fit reports identical across children", len(set(reports.values())) <= 1,
              f"{len(set(reports.values()))} variants")
    if not reports:
        run.check("fit outputs present", False)
        return
    out, printed = next(iter(reports.items()))
    run.risk = printed
    X, y = ingest_csv_dataset(config["data"]["path"], **config["data"]["options"])
    model = load_model(str(out / "model.json"))
    reloaded = mse(model, X, y)
    run.check("model.json round-trips through load_model to the printed train MSE",
              _close(reloaded, printed, ROUNDTRIP_RTOL), f"{reloaded!r} vs {printed!r}")

    # the Tikhonov solution solves (Sigma + lambda I) theta = s, rebuilt from the embedding
    Z = feature_matrix(model.map, X)
    sigma, s = Z.T @ Z / len(y), Z.T @ y / len(y)
    residual = sigma @ model.theta + config["lambda"] * model.theta - s
    gap = float(np.linalg.norm(residual) / np.linalg.norm(s))
    run.check("theta solves the Tikhonov normal equations", gap <= NORMAL_EQUATIONS_RTOL,
              f"relative residual {gap:.2e}")


CHECKS = {
    "heatmap": check_heatmap,
    "rate_sweep": check_rate_sweep,
    "audit": check_audit,
    "fit_csv": check_fit_csv,
}


def main() -> int:
    workload, run_dir, seed, scale = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    run = Run(workload, run_dir, seed, scale)
    try:
        CHECKS[workload](run)
    except Exception as exc:  # a crashed check is a failed check, reported with the run
        run.check(f"{workload} checks completed", False, repr(exc))
    run.reference_risk()
    print(json.dumps(run.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
