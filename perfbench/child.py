"""Run one operation of a workload in this (fresh) process.

    python3 perfbench/child.py WORKLOAD IN_DIR OP_DIR --spawned T0 [--workers N] [--trace RUN_ID]

T0 is the parent's CLOCK_MONOTONIC reading just before it started this
process. Set-up (interpreter start, imports, the audit list parse) ends at
the first call into the workload; the timed region runs from there to the
last output written, and includes the `specrf` command's own plan or
config parse. The program writes its outputs to OP_DIR/out; this
script writes OP_DIR/result.json, and with --trace also OP_DIR/spans.jsonl.
A calibration kernel runs right before and right after the timed region;
its times let the parent put the child's times on a common machine speed.
The exit code is the workload's: 0 on success.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _prepare(workload: str, in_dir: Path, out: Path, workers: int):
    """Return the workload as a zero-argument callable that returns an exit code.

    heatmap, rate_sweep and fit_csv run the `specrf` command a user would
    run; audit calls `audit_filter`, because `specrf audit-filters` has a
    fixed filter list.
    """
    from specrf import cli, filters

    commands = {
        "heatmap": ["heatmap", "--config", str(in_dir / "plan.json"), "--workers", str(workers)],
        "rate_sweep": ["rate-sweep", "--config", str(in_dir / "plan.json"), "--workers", str(workers)],
        "fit_csv": ["fit", "--config", str(in_dir / "fit.json")],
    }
    if workload in commands:
        argv = commands[workload] + ["--out-dir", str(out)]
        return lambda: cli.main(argv)

    spec = json.loads((in_dir / "audit.json").read_text())
    filts = [filters.make_filter(**desc) for desc in spec["filters"]]
    lam_grid = None
    if spec["lam_grid"] is not None:
        import numpy as np

        lo, hi, num = spec["lam_grid"]
        lam_grid = np.logspace(lo, hi, int(num))

    def run_audits() -> int:
        reports = [
            json.loads(filters.audit_filter(f, lam_grid=lam_grid, q_values=spec["q_values"]).to_json())
            for f in filts
        ]
        out.mkdir(parents=True, exist_ok=True)
        (out / "filter_audits.json").write_text(json.dumps(reports, indent=2) + "\n")
        return 0

    return run_audits


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of BLAS, vectorised, small-array and
    interpreter work, in this process and with its thread settings."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, x, u = rng.standard_normal((256, 256)), rng.standard_normal(100_000), np.zeros(200)
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(32):
        a @ a
    for _ in range(15):
        np.cos(x)
    for _ in range(10_000):
        u = u * 0.5 + 1.0
    total = 0
    for i in range(450_000):
        total += i
    return time.perf_counter() - wall, time.process_time() - cpu


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("in_dir", type=Path)
    parser.add_argument("op_dir", type=Path)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    import specrf

    if not Path(specrf.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported specrf from {specrf.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        import specrf.cli  # noqa: F401  (loaded before install so its imported names are rebound)

        tracer = tracing.Tracer(args.trace)
        tracer.install()
    op = _prepare(args.workload, args.in_dir, args.op_dir / "out", args.workers)

    first_call = time.monotonic()
    cal_before = calibrate()
    start = time.perf_counter()
    status = op()
    wall = time.perf_counter() - start
    cal_after = calibrate()

    result = {
        "setup_s": first_call - args.spawned,
        "wall_s": wall,
        "status": status,
        "cal_wall_s": (cal_before[0] + cal_after[0]) / 2,
        "cal_cpu_s": cal_before[1] + cal_after[1],
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.op_dir / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer.spans, args.workers)
        result["absent"] = tracer.absent
    (args.op_dir / "result.json").write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
