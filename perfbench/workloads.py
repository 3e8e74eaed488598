"""Workload definitions: thread settings, worker counts and seeded inputs.

Every workload uses at most 2 threads in total (the sandbox has 2 cores).
`audit` runs on demand but is not listed in BENCHMARK.json: see README.md.
Inputs are written as plain files (an ExperimentPlan JSON, an audit list,
or a CSV plus a `specrf fit` config), so the program under test sees only
generated inputs, never the benchmark seed itself.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    blas_threads: int
    workers: int

    def thread_env(self) -> dict:
        n = str(self.blas_threads)
        return {"OMP_NUM_THREADS": n, "OPENBLAS_NUM_THREADS": n, "MKL_NUM_THREADS": n}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heatmap", blas_threads=1, workers=2),
        Workload("rate_sweep", blas_threads=1, workers=1),
        Workload("audit", blas_threads=1, workers=1),
        Workload("fit_csv", blas_threads=2, workers=1),
    )
}


def _plan(experiment: str, seed: int, **fields) -> dict:
    # every ExperimentPlan field spelled out, so a change of the library's
    # defaults does not change the benchmark's inputs
    plan = {
        "experiment": experiment,
        "base_seed": seed,
        "repetitions": 1,
        "n_train": 5000,
        "n_test": 5000,
        "m_grid": [],
        "t_grid": [],
        "n_grid": [],
        "problem": {"type": "synthetic", "input_dim": 1, "noise_std": 0.3},
        "feature_map": {"kind": "gaussian_rff", "params": {"bandwidth": 1.0}},
        "filter": {"kind": "landweber", "alpha": 0.5},
        "schedule": {},
        "plateau_tol": 0.05,
    }
    plan.update(fields)
    return plan


def heatmap_plan(seed: int, scale: str) -> dict:
    """The plateau plan's grid: M in {4 sqrt(n), 20 sqrt(n)}, T <= 256."""
    n = 5000 if scale == "full" else 200
    root = math.sqrt(n)
    return _plan(
        "heatmap",
        seed,
        repetitions=2 if scale == "full" else 1,
        n_train=n,
        n_test=n,
        m_grid=[round(4 * root), round(20 * root)],
        t_grid=[1, 4, 16, 64, 256] if scale == "full" else [1, 4, 16],
    )


def rate_plan(seed: int, scale: str) -> dict:
    """The default rate plan: designer problem, Tikhonov, n up to 16384."""
    full = scale == "full"
    return _plan(
        "rate_sweep",
        seed,
        n_grid=[512 * 2**k for k in range(6)] if full else [64 * 2**k for k in range(5)],
        problem={"type": "designer", "J": 512 if full else 64, "b": 1.0, "r": 0.5, "R": 1.0,
                 "noise_std": 0.5},
        filter={"kind": "tikhonov"},
    )


def audit_spec(scale: str) -> dict:
    """The four filters of `specrf audit-filters` plus a slow heavy-ball.

    Heavyball(0.05, 0.5) has alpha_eff = 0.1, so the audit's lambda = 1e-4
    asks for T = 1e5 steps of the scalar recursion.
    """
    filters = [
        {"kind": "tikhonov"},
        {"kind": "landweber", "alpha": 1.0},
        {"kind": "heavyball", "alpha": 0.1, "beta": 0.9},
        {"kind": "spectral_cutoff"},
        {"kind": "heavyball", "alpha": 0.05, "beta": 0.5},
    ]
    if scale == "full":
        return {"filters": filters, "q_values": [0.5, 1.0, 1.5, 2.0, 4.0], "lam_grid": None}
    # 200 t-points x 50 lambdas meets the audit's 10^4-point floor
    return {"filters": filters, "q_values": [0.5, 1.0, 2.0], "lam_grid": [-2.0, 0.0, 50]}


def _csv_target(x: list[float]) -> float:
    return math.sin(x[0]) + 0.5 * x[1] * x[2] + math.cos(x[3])


def write_fit_csv(path: Path, seed: int, rows: int) -> None:
    """label, x1..x4 with correlated Gaussian features and a smooth target."""
    rng = random.Random(seed)
    lines = []
    for _ in range(rows):
        z = [rng.gauss(0.0, 1.0) for _ in range(4)]
        x = [2.0 * z[0], z[1] + 0.5 * z[0], 0.5 * z[2] + 3.0, z[3]]
        y = _csv_target(x) + 0.1 * rng.gauss(0.0, 1.0)
        lines.append(",".join(repr(v) for v in [y] + x))
    path.write_text("\n".join(lines) + "\n")


def write_inputs(workload: str, seed: int, scale: str, in_dir: Path) -> None:
    """Write the generated inputs of one workload into `in_dir`."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "heatmap":
        (in_dir / "plan.json").write_text(json.dumps(heatmap_plan(seed, scale), indent=2))
    elif workload == "rate_sweep":
        (in_dir / "plan.json").write_text(json.dumps(rate_plan(seed, scale), indent=2))
    elif workload == "audit":
        (in_dir / "audit.json").write_text(json.dumps(audit_spec(scale), indent=2))
    elif workload == "fit_csv":
        full = scale == "full"
        csv_path = (in_dir / "data.csv").resolve()
        write_fit_csv(csv_path, seed, 20000 if full else 400)
        config = {
            "data": {"path": str(csv_path), "options": {"standardize": True}},
            "feature_map": {"kind": "ntk_one_layer", "num_samples": 192 if full else 8,
                            "params": {"activation": "relu"}},
            "filter": {"kind": "tikhonov"},
            "lambda": 1e-3,
        }
        (in_dir / "fit.json").write_text(json.dumps(config, indent=2))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def operations_per_child(workload: str, in_dir: Path) -> int:
    """Operations one child attempts: trials, filter audits or fit commands."""
    if workload in ("heatmap", "rate_sweep"):
        plan = json.loads((in_dir / "plan.json").read_text())
        grid = plan["m_grid"] if workload == "heatmap" else plan["n_grid"]
        return len(grid) * plan["repetitions"]
    if workload == "audit":
        return len(json.loads((in_dir / "audit.json").read_text())["filters"])
    return 1
